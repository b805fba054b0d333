"""Command-line front end: simulate, optimize, converge, train-toy.

Each command writes its reports through :mod:`esfl.report`. The output
directory is checked before any work. Exit codes: 0 success, 1 input or
configuration error, 2 runtime error.

The parser only turns text into numbers (``int`` or a finite float): the
library entry that takes a value owns its bound, and an error about a value
that a flag set names the flag (see ``_FLAGS``), as in ``argument
--max-iters: must be an integer >= 1, not 0``. Only the bounds of the
``train-toy`` sizes and seed, which no library entry takes, live here.

``optimize`` only reads its users.json file: the users.json schema lives
in :func:`~esfl.users.read_users`, which checks the parsed document and
returns one :class:`~esfl.users.UserBatch`. An input error names the file,
the first bad user by index and its field; a file that cannot be read, or
is not UTF-8 text, or holds users that cannot be planned, is an input
error that names it too.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import split_training as toy
from .allocation import OptimizerConfig, exact_level, plan_rows
from .errors import (AllocationError, ConfigError, EsflError, InfeasibleLinkError,
                     InfeasibleUserError, ProfileError, check)
from .simulation import (
    SERVER_TFLOPS,
    ScenarioSpec,
    SimOptions,
    convergence_study,
    preset_scenarios,
    run_simulation,
)
from .report import emit, format_numeric_table, format_table, trace_entries
from .users import UserBatch, read_users
from .workload import ModelArchitecture, builtin_profiles, load_architecture, load_builtin

OUT_DIR_ENV = "ESFL_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    runtime failures and use 1 for all input problems."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``, for the ``train-toy`` sizes and seed."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {low}")
        return value
    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)
# a softmax over one class is 1 whatever the logits, so nothing would train
_class_count = _int_at_least(2)


# The flag that sets each library parameter an input error can name.
_FLAGS = {
    "algorithms": "--algos", "batch_size": "--batch-size", "bwd_multiplier": "--kappa",
    "bytes_per_element": "--bytes-per-element",
    "cut": "--cuts", "epochs": "--epochs", "eta": "--eta", "fixed_cut": "--fixed-cut",
    "max_iters": "--max-iters", "population": "--population", "repetitions": "--reps",
    "rho0": "--rho0", "rounds": "--rounds", "scales": "--scales", "seed": "--seed",
    "selected_per_round": "--selected", "server_tflops": "--server-tflops", "t_agg": "--t-agg"}


def _given(args, field: str | None):
    """The value the flag of library parameter ``field`` was given, or None."""
    flag = _FLAGS.get(field)
    return getattr(args, flag[2:].replace("-", "_"), None) if flag else None


def _comma_list(text: str, flag: str) -> list[str]:
    """The nonempty comma list of items given with ``flag``."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise ConfigError(f"{flag} selects nothing: {text!r}")
    return names


def _int_list(text: str, flag: str) -> list[int]:
    """The nonempty comma list of integers given with ``flag``."""
    items = _comma_list(text, flag)
    try:
        return [int(s) for s in items]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma list of integers, "
                          f"not {text!r}") from None


def _resolve_out_dir(arg: str | None) -> Path:
    """The report directory: ``--out``, else ``$ESFL_OUT_DIR``, else
    ``./esfl_out``. It is checked before any work: an empty path, or one
    that is, or lies under, anything but a directory, is an input error
    that names where the path came from."""
    if arg is not None:
        source, text = "--out", arg
    elif OUT_DIR_ENV in os.environ:
        source, text = OUT_DIR_ENV, os.environ[OUT_DIR_ENV]
    else:
        source, text = "the default output directory", "esfl_out"
    if not text:   # Path("") is the working directory
        raise ConfigError(f"{source} is empty: it must name a directory")
    path = Path(text)
    for part in (path, *path.parents):
        if part.is_dir():
            break
        if os.path.lexists(part):
            raise ConfigError(f"{source} {str(path)!r}: {str(part)!r} is not a directory")
    return path


def _load_arch(spec: str, kappa: float, bytes_per_element: float) -> ModelArchitecture:
    if spec in builtin_profiles():
        return load_builtin(spec, bytes_per_element=bytes_per_element,
                            bwd_multiplier=kappa)
    path = Path(spec)
    if not path.is_file():
        raise ConfigError(
            f"architecture {spec!r} is neither a built-in profile "
            f"({', '.join(builtin_profiles())}) nor an existing file"
        )
    return load_architecture(path, bytes_per_element=bytes_per_element,
                             bwd_multiplier=kappa)


def _read_json(path: str):
    """Parse a JSON input file, refusing the NaN and Infinity literals. A
    file that cannot be read, is not UTF-8 text or is not JSON is an input
    error that names it."""
    def refuse(name):
        raise ConfigError(f"{path}: non-finite number {name} is not allowed")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:   # as open() names the file, if it does
        raise ConfigError(str(exc) if exc.filename else f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _strict_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _scenario_from_args(args) -> ScenarioSpec:
    if args.config:
        doc = _read_json(args.config)
        if type(doc) is not dict:
            raise ConfigError(f"{args.config}: expected an object, "
                              f"not {type(doc).__name__}")
        _strict_keys(doc, {f.name for f in fields(ScenarioSpec)}, args.config)
        for key in ("comm_options", "comp_options", "data_options"):
            if key in doc:
                if type(doc[key]) is not list:
                    raise ConfigError(f"{args.config}: {key} must be a list")
                doc[key] = tuple(doc[key])
        try:
            base = ScenarioSpec(**doc)
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    else:
        presets = preset_scenarios()
        if args.scenario not in presets:
            raise ConfigError(
                f"unknown scenario {args.scenario!r}; presets: {', '.join(presets)}"
            )
        base = presets[args.scenario]
    overrides = {field: value for field in ("rounds", "population", "selected_per_round",
                                            "epochs", "server_tflops", "seed")
                 if (value := _given(args, field)) is not None}
    return replace(base, **overrides) if overrides else base


def _optimizer_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(max_iters=args.max_iters, epoch_objective=args.epoch_objective,
                           t_agg=args.t_agg)


def _options_from_args(args) -> SimOptions:
    return SimOptions(
        kb_bytes=float(args.kb),
        sticky_resources=getattr(args, "sticky_resources", False),
        fixed_cut=getattr(args, "fixed_cut", None),
        optimizer=_optimizer_from_args(args),
    )


def _unit_config(args) -> dict:
    return {
        "kappa": args.kappa,
        "bytes_per_element": args.bytes_per_element,
        "t_agg_s": args.t_agg,
        "kb_bytes": float(args.kb),
    }


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args, out_dir: Path) -> int:
    arch = _load_arch(args.arch, args.kappa, args.bytes_per_element)
    spec = _scenario_from_args(args)
    algorithms = tuple(_comma_list(args.algos, "--algos"))
    options = _options_from_args(args)

    report = run_simulation(spec, algorithms, arch, options)

    payload = {
        "command": "simulate",
        "units": _unit_config(args),
        "options": {
            "sticky_resources": options.sticky_resources,
            "fixed_cut": options.fixed_cut,
            "max_iters": options.optimizer.max_iters,
            "epoch_objective": options.optimizer.epoch_objective,
        },
    }
    payload.update(report.to_dict())

    rows = [
        [a,
         f"{report.mean_round_time[a]:.3f}",
         f"{report.total_time[a]:.3f}",
         f"{report.mean_comm_time[a]:.3f}"]
        for a in algorithms
    ]
    table = (
        f"scenario {spec.name}  arch {arch.name}  rounds {spec.rounds}  "
        f"seed {spec.seed}\n\n"
        + format_table(
            ["algorithm", "mean round (s)", "total (s)", "mean comm (s)"], rows
        )
    )
    if report.cut_distribution is not None:
        dist = report.cut_distribution
        dist_rows = [
            [f"l{l}", f"{p:.4f}"]
            for l, p in enumerate(dist.pooled, start=1)
            if p > 0
        ]
        table += "\npooled cut-layer distribution (nonzero layers)\n"
        table += format_table(["layer", "probability"], dist_rows)
        table += (
            f"\nper-user cut entropy variance: "
            f"{payload['cut_distribution']['entropy_variance_bits']:.6f} bits^2\n"
        )
    emit(out_dir, "report", payload, table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# optimize

def _users_from_doc(path: str, kb_bytes: float) -> UserBatch:
    """The users of the users.json file at ``path``, as one checked batch."""
    return read_users(_read_json(path), kb_bytes, path)


def cmd_optimize(args, out_dir: Path) -> int:
    arch = _load_arch(args.arch, args.kappa, args.bytes_per_element)
    batch = _users_from_doc(args.users, float(args.kb))
    cfg = _optimizer_from_args(args)
    check("server_tflops", args.server_tflops, *SERVER_TFLOPS)
    c_total = args.server_tflops * 1e12
    try:   # a user of the file that cannot be planned is an input error
        plan = plan_rows(batch, arch, c_total, cfg)   # one round: row 0
    except (AllocationError, InfeasibleLinkError, InfeasibleUserError) as exc:
        raise ConfigError(f"{args.users}: {exc}") from None
    cuts, compute, objective = plan.cuts[0], plan.server_compute[0], float(plan.objective[0])
    iterations, converged = int(plan.iterations[0]), bool(plan.converged[0])
    payload = {
        "command": "optimize",
        "units": _unit_config(args),
        "architecture": arch.name,
        "server_tflops": args.server_tflops,
        "epoch_objective": args.epoch_objective,
        "users_file_users": len(batch),
        "objective_s": objective,
        "iterations": iterations,
        "converged": converged,
        "cuts": cuts.tolist(),
        "server_compute_flops": compute.tolist(),
    }
    # the plan's round times, from the terms its trace priced
    payload["trace"], terms = trace_entries(batch, arch, cfg, plan)
    totals = terms.total
    table = (
        f"arch {arch.name}  users {len(batch)}  server {args.server_tflops} TFLOPs\n"
        f"objective {objective:.3f} s in {iterations} iterations"
        f"{'' if converged else ' (iteration cap hit)'}\n\n"
        + format_numeric_table(
            ["user", "cut", "server TFLOPs", "round (s)"],
            [batch.user_ids, cuts, compute / 1e12, totals],
            ["%d", "%d", "%.4f", "%.3f"])
    )

    if args.oracle:
        levels, exact_cuts = exact_level(batch, arch, c_total, cfg)
        exact = float(levels[0])
        gap = objective / exact if exact > 0 else 1.0
        payload["oracle"] = {"objective_s": exact, "cuts": exact_cuts[0].tolist(),
                             "gap_ratio": gap}
        table += f"\nexact optimum {exact:.3f} s, gap ratio {gap:.6f}\n"

    emit(out_dir, "allocation", payload, table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# converge

def cmd_converge(args, out_dir: Path) -> int:
    arch = _load_arch(args.arch, args.kappa, args.bytes_per_element)
    presets = preset_scenarios()
    names = _comma_list(args.scenarios, "--scenarios")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:   # a repeated name would label two report rows alike
        raise ConfigError(f"--scenarios repeats {', '.join(repeated)}: {args.scenarios!r}")
    unknown = [n for n in names if n not in presets]
    if unknown:
        raise ConfigError(f"unknown scenarios: {unknown}")
    scales = tuple(_int_list(args.scales, "--scales"))
    options = SimOptions(kb_bytes=float(args.kb),
                         optimizer=OptimizerConfig(t_agg=args.t_agg))

    cells = convergence_study(
        arch,
        scenarios=[presets[n] for n in names],
        scales=scales,
        repetitions=args.reps,
        options=options,
        seed=args.seed,
    )

    payload = {
        "command": "converge",
        "units": _unit_config(args),
        "architecture": arch.name,
        "seed": args.seed,
        "repetitions": args.reps,
        "cells": [
            {
                "scenario": c.scenario,
                "scale": c.scale,
                "iterations": list(c.iterations),
                "max_iterations": c.max_iterations,
            }
            for c in cells
        ],
    }
    rows = [
        [c.scenario, str(c.scale),
         ",".join(str(i) for i in c.iterations), str(c.max_iterations)]
        for c in cells
    ]
    table = (
        f"arch {arch.name}  seed {args.seed}  reps {args.reps}\n\n"
        + format_table(["scenario", "users", "iterations", "max"], rows)
    )
    emit(out_dir, "convergence", payload, table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# train-toy

def _max_rel_param_dev(a: toy.DenseNet, b: toy.DenseNet) -> float:
    """Largest |a - b| / max(|a|, |b|, 1e-12) over all the parameters."""
    wa, wb = (np.concatenate([p.ravel() for p in net.weights + net.biases])
              for net in (a, b))
    denom = np.maximum(np.maximum(np.abs(wa), np.abs(wb)), 1e-12)
    return float(np.max(np.abs(wa - wb) / denom))


def _equivalence_sweep(seed: int, cases: int = 25) -> float:
    """Max relative parameter deviation, split vs monolithic, random cases."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        depth = int(rng.integers(2, 5))
        sizes = [int(rng.integers(2, 6)) for _ in range(depth + 1)]
        net = toy.init_dense_net(sizes, loss="mse", rng=rng)
        cut = int(rng.integers(1, depth))
        batch = int(rng.integers(1, 9))
        x = rng.normal(size=(batch, sizes[0]))
        y = rng.normal(size=(batch, sizes[-1]))
        rho = float(rng.uniform(0.001, 0.5))
        mono = toy.monolithic_update(net, (x, y), rho)
        split = toy.concatenate(toy.split_update(toy.split_net(net, cut, rho), (x, y)))
        worst = max(worst, _max_rel_param_dev(mono, split))
    return worst


# The most values train-toy keeps for the run: every user's --samples blob
# points of --dim features and a one-hot row of --classes, held twice (drawn,
# and pooled, which the trainer's one stack of every user views); the
# pooled-loss workspace, 32 + 3 × --classes per sample (two hidden layers'
# outputs, the logits and the loss's two arrays); and the step workspace,
# 96 + 3 × --classes per sample of a minibatch (the outputs, dz and input
# gradients, and the loss's two), once for the full minibatches and once for
# a ragged last one. A larger run is refused before any blob is drawn.
MAX_TOY_VALUES = 10**7

# The most parameter values train-toy holds. The network has
# 16 × (--dim + 1) + 17 × (--classes + 16) parameters. The trainer keeps one
# copy per user in each of the local models, their gradients and the
# aggregation's weighted rows in user order, beside three of the global size
# (the initial network, the flat global vector and the aggregation's mean);
# the bound counts four, so a larger run is refused before the network is
# built. The pooled-loss workspace holds no parameters; MAX_TOY_VALUES
# bounds it.
MAX_TOY_PARAMETERS = 10**7


def cmd_train_toy(args, out_dir: Path) -> int:
    n_users, n, classes = args.users, args.samples, args.classes
    # a --batch-size the trainer refuses counts as the full batch
    step = min(args.batch_size, n) if (args.batch_size or 0) > 0 else n
    values = n_users * (n * (2 * (args.dim + classes) + 32 + 3 * classes)
                        + (step + n % step) * (96 + 3 * classes))
    if values > MAX_TOY_VALUES:
        raise ConfigError(f"the data and workspaces train-toy keeps must be at most "
                          f"{MAX_TOY_VALUES} values, not {values}")
    sizes = [args.dim, 16, 16, args.classes]
    parameters = (3 * n_users + 4) * sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
    if parameters > MAX_TOY_PARAMETERS:
        raise ConfigError(
            f"(3 × --users + 4) × (16 × (--dim + 1) + 17 × (--classes + 16)) "
            f"must be at most {MAX_TOY_PARAMETERS}, not {parameters}")
    rng = np.random.default_rng(args.seed)
    net = toy.init_dense_net(
        sizes, activations=["tanh", "tanh", "identity"], loss="softmax_ce", rng=rng
    )
    depth = net.num_layers
    if args.cuts:
        cuts = _int_list(args.cuts, "--cuts")
        if len(cuts) != n_users:
            raise ConfigError("--cuts must list one cut per user")
    else:
        cuts = [1 + (i % (depth - 1)) for i in range(n_users)]
    toy.check_training(depth, cuts, [args.epochs] * n_users, args.rounds, args.eta,
                       args.rho0, args.batch_size)

    users = []
    for i in range(n_users):
        x, y = toy.make_blobs(args.samples, n_classes=args.classes,
                              dim=args.dim, rng=rng)
        users.append(toy.ToyUser(x=x, y=y, cut=cuts[i], epochs=args.epochs))

    final, trace = toy.esfl_train(
        net, users, rounds=args.rounds, eta=args.eta, rho0=args.rho0,
        batch_size=args.batch_size,
    )

    payload = {
        "command": "train-toy",
        "seed": args.seed,
        "users": n_users,
        "samples_per_user": args.samples,
        "classes": args.classes,
        "dim": args.dim,
        "cuts": cuts,
        "rounds": args.rounds,
        "epochs": args.epochs,
        "eta": args.eta,
        "rho0": args.rho0,
        "batch_size": args.batch_size,
        "loss_trace": trace[1:],
        "initial_loss": trace[0],
        "final_loss": trace[-1],
        "deviation_from_init": _max_rel_param_dev(net, final),
    }
    lines = [
        f"toy split training: {n_users} users, {args.rounds} rounds, "
        f"cuts {cuts}, seed {args.seed}",
        f"initial loss {payload['initial_loss']:.6f}",
        f"final loss   {payload['final_loss']:.6f}",
        f"max relative parameter deviation from initialization: "
        f"{payload['deviation_from_init']:.3e}",
    ]
    if args.check_equivalence:
        dev = _equivalence_sweep(args.seed)
        payload["split_vs_monolithic_max_rel_dev"] = dev
        lines.append(
            f"split vs monolithic max relative parameter deviation: {dev:.3e}"
        )
    table = "\n".join(lines) + "\n"
    emit(out_dir, "train_toy", payload, table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, with_arch: bool = True) -> None:
    if with_arch:
        p.add_argument("--arch", default="vgg19",
                       help="built-in profile name or path to a profile document")
    p.add_argument("--out", default=None,
                   help=f"output directory (default ${OUT_DIR_ENV} or ./esfl_out)")
    p.add_argument("--kappa", type=_finite_float, default=2.0,
                   help="backward/forward compute ratio")
    p.add_argument("--bytes-per-element", type=_finite_float, default=4.0)
    p.add_argument("--t-agg", type=_finite_float, default=0.0,
                   help="server aggregation time per round, seconds")
    p.add_argument("--kb", type=int, choices=(1024, 1000), default=1024,
                   help="bytes per tabulated KB")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``esfl`` parser, built once per process: parsing leaves it as it
    was, so every call of :func:`main` shares it. Callers must not change it."""
    parser = _Parser(prog="esfl", description=(
        "Plan, simulate and train split federated learning (ESFL). Exit codes: "
        "0 success, 1 input or configuration error, 2 runtime error."))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[], help="run a Monte-Carlo scenario")
    p.add_argument("--scenario", default="BP")
    p.add_argument("--config", default=None,
                   help="JSON file with an inline scenario spec (overrides --scenario)")
    p.add_argument("--algos", default="esfl,sfl,fl,sl")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--population", type=int, default=None)
    p.add_argument("--selected", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--server-tflops", type=_finite_float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sticky-resources", action="store_true")
    p.add_argument("--fixed-cut", type=int, default=None,
                   help="cut layer for SFL/SL (default: first universally feasible)")
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--epoch-objective", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="one-shot allocation for explicit users")
    p.add_argument("--users", required=True, help="JSON user list")
    p.add_argument("--server-tflops", type=_finite_float, default=130.0)
    p.add_argument("--max-iters", type=int, default=50)
    p.add_argument("--epoch-objective", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="also solve the exact joint optimum and report the gap")
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("converge", help="optimizer iteration counts by user scale")
    p.add_argument("--scenarios", default="BP,PR,RP,BR")
    p.add_argument("--scales", default="100,200,400,800")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("train-toy", help="toy split training on Gaussian blobs")
    p.add_argument("--users", type=_positive_int, default=2)
    p.add_argument("--samples", type=_positive_int, default=64)
    p.add_argument("--classes", type=_class_count, default=2)
    p.add_argument("--dim", type=_positive_int, default=2)
    p.add_argument("--cuts", default=None, help="comma list, one per user")
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--eta", type=_finite_float, default=0.5,
                   help="aggregation damping, in (0, 1]")
    p.add_argument("--rho0", type=_finite_float, default=0.01,
                   help="initial SGD step size, > 0")
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--check-equivalence", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train_toy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args, _resolve_out_dir(args.out))
    except (ConfigError, ProfileError, FileNotFoundError) as exc:
        field = getattr(exc, "field", None)   # named by its flag, as argparse names it
        message = exc if _given(args, field) is None else (
            f"argument {_FLAGS[field]}: {exc.problem}")
        print(f"esfl: input error: {message}", file=sys.stderr)
        return 1
    except EsflError as exc:
        print(f"esfl: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"esfl: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
