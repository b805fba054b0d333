"""Command-line front end: simulate, optimize, converge, train-toy.

Reports are written once, atomically, at the end of a run: a JSON document
with the resolved configuration and results, plus an aligned text table.
The JSON document is exactly the bytes of ``json.dumps(payload,
sort_keys=True, indent=2)`` and a newline, written by :func:`dumps_report`
at the speed of the stdlib's C encoder. Identical configuration and seed
produce byte-identical files. Exit codes: 0 success, 1 input/configuration
error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import split_training as toy
from .allocation import OptimizerConfig, alternate, brute_force_joint
from .comm import ChannelParams, LinkRates, link_rates
from .errors import ConfigError, EsflError, ProfileError
from .simulation import (
    ALGORITHMS,
    ScenarioSpec,
    SimOptions,
    convergence_study,
    preset_scenarios,
    run_simulation,
)
from .timing import round_terms
from .users import UserBatch, UserProfile
from .workload import ModelArchitecture, builtin_profiles, load_architecture, load_builtin

OUT_DIR_ENV = "ESFL_OUT_DIR"

_SCENARIO_KEYS = {
    "name", "comm_options", "comp_options", "data_options", "population",
    "selected_per_round", "rounds", "epochs", "server_tflops", "seed",
}
_USER_KEYS = {
    "n_samples", "tflops", "kbps", "kbps_up", "kbps_down", "channel",
    "epochs", "storage_mb", "memory_mb",
}
_CHANNEL_KEYS = {
    "bandwidth_hz", "uplink_power_w", "downlink_power_w", "uplink_gain",
    "downlink_gain", "noise_density_w_per_hz",
}


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


def _positive_float(text: str) -> float:
    """argparse type: a finite float above zero."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _comma_list(text: str, flag: str) -> list[str]:
    """The nonempty comma list of items given with ``flag``."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    if not names:
        raise ConfigError(f"{flag} selects nothing: {text!r}")
    return names


def _int_list(text: str, flag: str) -> list[int]:
    """The nonempty comma list of integers given with ``flag``."""
    try:
        return [int(s) for s in _comma_list(text, flag)]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma list of integers, "
                          f"not {text!r}") from None


def _resolve_out_dir(arg: str | None) -> Path:
    if arg:
        return Path(arg)
    return Path(os.environ.get(OUT_DIR_ENV, "esfl_out"))


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


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _not_serializable(obj):
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _holds_container(values) -> bool:
    return any(issubclass(t, (list, tuple, dict)) for t in set(map(type, values)))


def dumps_report(payload) -> str:
    """Exactly ``json.dumps(payload, sort_keys=True, indent=2)``, at C speed.

    The stdlib uses its C encoder only when ``indent`` is None. Here a list
    or dict that holds no container is one call of that encoder, built once
    per depth with an item separator that carries the newline and the
    indentation of the depth, and so is a list of such nonempty lists (a
    matrix); only other containers of containers are walked in Python.
    Scalars, keys and empty containers are all encoded by the stdlib, so
    float ``repr``, ``NaN``/``Infinity``, escaping and key order are as
    ``json`` writes them. The keys of a dict that holds a container must be
    strings.
    """
    if c_make_encoder is None:
        return json.dumps(payload, sort_keys=True, indent=2)
    encoders = {}

    def flat(obj, depth):
        if depth not in encoders:
            encoders[depth] = c_make_encoder(
                None, _not_serializable, encode_basestring_ascii, None,
                ": ", ",\n" + "  " * depth, True, False, True)
        return "".join(encoders[depth](obj, 0))

    def encode(obj, depth):
        is_dict = isinstance(obj, dict)
        if not (is_dict or isinstance(obj, (list, tuple))):
            return flat(obj, depth)
        if not obj:
            return "{}" if is_dict else "[]"
        inner = depth + 1
        pad = "\n" + "  " * inner
        if not _holds_container(obj.values() if is_dict else obj):
            body = flat(obj, inner)[1:-1]
        elif is_dict:
            bad = [k for k in obj if not isinstance(k, str)]
            if bad:
                raise TypeError(f"report keys must be strings, got {bad[0]!r}")
            body = ("," + pad).join(
                f"{encode_basestring_ascii(k)}: {encode(obj[k], inner)}"
                for k in sorted(obj))
        elif (set(map(type, obj)) <= {list, tuple} and all(obj)
              and not _holds_container(chain.from_iterable(obj))):
            # One call encodes every row with the separator of the row items.
            # No encoded scalar holds a newline or ends in "]", so the text
            # between two rows is found and re-indented by a plain replace.
            pad2 = pad + "  "
            rows = flat(obj, inner + 1)[2:-2].replace(
                "]," + pad2 + "[", pad + "]," + pad + "[" + pad2)
            body = "[" + pad2 + rows + pad + "]"
        else:
            body = ("," + pad).join(encode(v, inner) for v in obj)
        open_, close = "{}" if is_dict else "[]"
        return f"{open_}{pad}{body}\n{'  ' * depth}{close}"

    return encode(payload, 0)


def _emit(out_dir: Path, stem: str, payload: dict, table: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / f"{stem}.json", dumps_report(payload) + "\n")
    _write_atomic(out_dir / f"{stem}.txt", table)


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep] + [line(r) for r in rows]) + "\n"


def _read_json(path: str):
    """Parse a JSON input file, refusing the NaN and Infinity literals."""
    def refuse(name):
        raise ConfigError(f"{path}: non-finite number {name} is not allowed")
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=refuse)


def _strict_keys(obj: dict, allowed: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _scenario_from_args(args) -> ScenarioSpec:
    if args.config:
        doc = _read_json(args.config)
        _strict_keys(doc, _SCENARIO_KEYS, args.config)
        for key in ("comm_options", "comp_options", "data_options"):
            if key in doc:
                doc[key] = tuple(doc[key])
        try:
            base = ScenarioSpec(**doc)
        except TypeError as exc:
            raise ConfigError(f"{args.config}: {exc}") from None
    else:
        presets = preset_scenarios()
        if args.scenario not in presets:
            raise ConfigError(
                f"unknown scenario {args.scenario!r}; presets: {', '.join(presets)}"
            )
        base = presets[args.scenario]
    overrides = {}
    for field, attr in (
        ("rounds", "rounds"), ("population", "population"),
        ("selected_per_round", "selected"), ("epochs", "epochs"),
        ("server_tflops", "server_tflops"), ("seed", "seed"),
    ):
        value = getattr(args, attr)
        if value is not None:
            overrides[field] = value
    return replace(base, **overrides) if overrides else base


def _optimizer_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(
        max_iters=args.max_iters,
        epoch_objective=args.epoch_objective,
        t_agg=args.t_agg,
    )


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

def cmd_simulate(args) -> int:
    arch = _load_arch(args.arch, args.kappa, args.bytes_per_element)
    spec = _scenario_from_args(args)
    algorithms = tuple(_comma_list(args.algos, "--algos"))
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise ConfigError(f"unknown algorithms: {sorted(unknown)}")
    if args.fixed_cut is not None and not 1 <= args.fixed_cut <= arch.num_layers:
        raise ConfigError(f"--fixed-cut must lie in 1..{arch.num_layers}")
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
            f"{dist.entropy_variance():.6f} bits^2\n"
        )
    _emit(_resolve_out_dir(args.out), "report", payload, table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# optimize

def _users_from_doc(path: str, kb_bytes: float) -> list[UserProfile]:
    doc = _read_json(path)
    _strict_keys(doc, {"users"}, path)
    users_doc = doc.get("users")
    if not users_doc:
        raise ConfigError(f"{path}: 'users' must be a nonempty list")
    users = []
    for i, entry in enumerate(users_doc):
        _strict_keys(entry, _USER_KEYS, f"{path} user {i}")
        has_kbps = "kbps" in entry
        has_pair = "kbps_up" in entry or "kbps_down" in entry
        has_chan = "channel" in entry
        if sum([has_kbps, has_pair, has_chan]) != 1:
            raise ConfigError(
                f"{path} user {i}: give exactly one of kbps, "
                f"kbps_up/kbps_down, or channel"
            )
        if has_pair and not ("kbps_up" in entry and "kbps_down" in entry):
            raise ConfigError(f"{path} user {i}: kbps_up and kbps_down go together")
        try:
            if "channel" in entry:
                _strict_keys(entry["channel"], _CHANNEL_KEYS,
                             f"{path} user {i} channel")
                ch = ChannelParams(**entry["channel"])
                rates = link_rates("shannon", channel=ch)
                up, down = rates.up, rates.down
            elif "kbps" in entry:
                up = down = entry["kbps"] * kb_bytes
            else:
                up = entry["kbps_up"] * kb_bytes
                down = entry["kbps_down"] * kb_bytes
            users.append(UserProfile(
                user_id=i,
                n_samples=float(entry["n_samples"]),
                compute_flops=float(entry["tflops"]) * 1e12,
                rates=LinkRates(up=up, down=down),
                epochs=int(entry.get("epochs", 5)),
                storage_bytes=float(entry["storage_mb"]) * 2**20
                if "storage_mb" in entry else math.inf,
                memory_bytes=float(entry["memory_mb"]) * 2**20
                if "memory_mb" in entry else math.inf,
            ))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"{path} user {i}: missing or invalid field ({exc})"
            ) from None
    return users


def cmd_optimize(args) -> int:
    arch = _load_arch(args.arch, args.kappa, args.bytes_per_element)
    users = _users_from_doc(args.users, float(args.kb))
    batch = UserBatch.of(users)
    cfg = _optimizer_from_args(args)
    c_total = args.server_tflops * 1e12
    result = alternate(batch, arch, c_total, cfg)
    alloc = result.allocation

    payload = {
        "command": "optimize",
        "units": _unit_config(args),
        "architecture": arch.name,
        "server_tflops": args.server_tflops,
        "epoch_objective": args.epoch_objective,
        "users_file_users": len(users),
        "objective_s": alloc.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "cuts": list(alloc.cuts),
        "server_compute_flops": list(alloc.server_compute),
        "trace": [
            {
                "iteration": rec.iteration,
                "objective_s": rec.objective,
                "cuts": list(rec.cuts),
                "server_compute_flops": list(rec.server_compute),
            }
            for rec in result.trace
        ],
    }

    totals = round_terms(batch, arch, alloc.cuts, alloc.server_compute, args.t_agg).total
    rows = [[str(u.user_id), str(l), f"{c / 1e12:.4f}", f"{total:.3f}"]
            for u, l, c, total in zip(users, alloc.cuts, alloc.server_compute, totals)]
    table = (
        f"arch {arch.name}  users {len(users)}  server {args.server_tflops} TFLOPs\n"
        f"objective {alloc.objective:.3f} s in {result.iterations} iterations"
        f"{'' if result.converged else ' (iteration cap hit)'}\n\n"
        + format_table(["user", "cut", "server TFLOPs", "round (s)"], rows)
    )

    if args.oracle:
        try:
            exact = brute_force_joint(batch, arch, c_total, cfg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        gap = alloc.objective / exact.objective if exact.objective > 0 else 1.0
        payload["oracle"] = {
            "objective_s": exact.objective,
            "cuts": list(exact.cuts),
            "gap_ratio": gap,
        }
        table += (
            f"\nexhaustive optimum {exact.objective:.3f} s, "
            f"gap ratio {gap:.6f}\n"
        )

    _emit(_resolve_out_dir(args.out), "allocation", payload, table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# converge

def cmd_converge(args) -> int:
    arch = _load_arch(args.arch, args.kappa, args.bytes_per_element)
    presets = preset_scenarios()
    names = _comma_list(args.scenarios, "--scenarios")
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
    _emit(_resolve_out_dir(args.out), "convergence", payload, table)
    print(table, end="")
    return 0


# ---------------------------------------------------------------------------
# train-toy

def _max_rel_param_dev(a: toy.DenseNet, b: toy.DenseNet) -> float:
    dev = 0.0
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        denom = np.maximum(np.maximum(np.abs(wa), np.abs(wb)), 1e-12)
        dev = max(dev, float(np.max(np.abs(wa - wb) / denom)))
    return dev


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


def cmd_train_toy(args) -> int:
    rng = np.random.default_rng(args.seed)
    n_users = args.users
    sizes = [args.dim, 16, 16, args.classes]
    net = toy.init_dense_net(
        sizes, activations=["tanh", "tanh", "identity"], loss="softmax_ce", rng=rng
    )
    depth = net.num_layers
    if args.cuts:
        cuts = _int_list(args.cuts, "--cuts")
        if len(cuts) != n_users:
            raise ConfigError("--cuts must list one cut per user")
        if any(not 1 <= c <= depth - 1 for c in cuts):
            raise ConfigError(f"cuts must lie in 1..{depth - 1}")
    else:
        cuts = [1 + (i % (depth - 1)) for i in range(n_users)]

    users = []
    for i in range(n_users):
        x, y = toy.make_blobs(args.samples, n_classes=args.classes,
                              dim=args.dim, rng=rng)
        users.append(toy.ToyUser(x=x, y=y, cut=cuts[i], epochs=args.epochs))

    initial = net
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
        "loss_trace": trace,
        "initial_loss": toy.loss_value(
            initial,
            np.concatenate([u.x for u in users]),
            np.concatenate([u.y for u in users]),
        ),
        "final_loss": trace[-1] if trace else None,
        "deviation_from_init": _max_rel_param_dev(initial, final),
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
    _emit(_resolve_out_dir(args.out), "train_toy", payload, table)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="esfl", description=__doc__)
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
    p.add_argument("--server-tflops", type=_positive_float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sticky-resources", action="store_true")
    p.add_argument("--fixed-cut", type=int, default=None,
                   help="cut layer for SFL/SL (default: first universally feasible)")
    p.add_argument("--max-iters", type=_positive_int, default=50)
    p.add_argument("--epoch-objective", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("optimize", help="one-shot allocation for explicit users")
    p.add_argument("--users", required=True, help="JSON user list")
    p.add_argument("--server-tflops", type=_positive_float, default=130.0)
    p.add_argument("--max-iters", type=_positive_int, default=50)
    p.add_argument("--epoch-objective", action="store_true")
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive oracle (tiny instances only)")
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("converge", help="optimizer iteration counts by user scale")
    p.add_argument("--scenarios", default="BP,PR,RP,BR")
    p.add_argument("--scales", default="100,200,400,800")
    p.add_argument("--reps", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("train-toy", help="toy split training on Gaussian blobs")
    p.add_argument("--users", type=_positive_int, default=2)
    p.add_argument("--samples", type=_positive_int, default=64)
    p.add_argument("--classes", type=_positive_int, default=2)
    p.add_argument("--dim", type=_positive_int, default=2)
    p.add_argument("--cuts", default=None, help="comma list, one per user")
    p.add_argument("--rounds", type=_positive_int, default=50)
    p.add_argument("--epochs", type=_positive_int, default=1)
    p.add_argument("--eta", type=_finite_float, default=0.5)
    p.add_argument("--rho0", type=_finite_float, default=0.01)
    p.add_argument("--batch-size", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
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
        return args.func(args)
    except (ConfigError, ProfileError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"esfl: input error: {exc}", file=sys.stderr)
        return 1
    except EsflError as exc:
        print(f"esfl: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"esfl: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
