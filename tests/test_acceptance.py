"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
heterogeneity check (criterion 8) has two parts: at the default unit
conventions ESFL's round time equals a per-round lower bound that no
policy can beat, and with link rates scaled until communication and
compute weigh alike ESFL's SH -> LH growth stays strictly below fixed-cut
SFL's; its docstring carries the analysis.
"""

import io
import math
import time
from contextlib import contextmanager

import numpy as np

import esfl
from esfl import (
    LinkRates,
    SimOptions,
    UserProfile,
    alternate,
    brute_force_joint,
    concatenate,
    convergence_study,
    equalize_min_max,
    feasibility_mask,
    init_dense_net,
    load_architecture,
    load_builtin,
    loss_and_grads,
    loss_value,
    monolithic_update,
    preset_scenarios,
    round_terms,
    run_simulation,
    sample_rounds,
    server_demand_terms,
    split_net,
    split_update,
)
from esfl.cli import main as cli_main
from esfl.split_training import DenseNet

VGG19 = load_builtin("vgg19")

# reports computed once by criterion 7 and reused by 8 and 9
_REPORTS: dict[str, object] = {}


@contextmanager
def criterion(num, title, limit_s=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if limit_s is not None and elapsed >= limit_s:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds the {limit_s}s budget"
            )
    except BaseException:
        print(f"[FAIL] criterion {num}: {title}")
        raise
    print(f"[PASS] criterion {num}: {title} ({elapsed:.1f}s)")


def _max_rel_param_dev(a: DenseNet, b: DenseNet) -> float:
    worst = 0.0
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        diff = np.abs(wa - wb)
        if diff.size == 0 or diff.max() == 0:
            continue
        denom = np.maximum(np.maximum(np.abs(wa), np.abs(wb)), 1e-300)
        worst = max(worst, float(np.max(diff / denom)))
    return worst


def _assert_monotone(trace, where=""):
    objs = [rec.objective for rec in trace]
    for i, (earlier, later) in enumerate(zip(objs, objs[1:])):
        assert later <= earlier * (1 + 1e-12), (
            f"objective rose at iteration {i + 2} {where}: {earlier} -> {later}"
        )


def _get_report(name):
    if name not in _REPORTS:
        spec = preset_scenarios()[name]
        _REPORTS[name] = run_simulation(spec, ("esfl", "sfl", "fl", "sl"), VGG19)
    return _REPORTS[name]


def test_criterion_1_split_monolithic_equivalence():
    """Split execution then concatenation equals a monolithic SGD step."""
    with criterion(1, "split/monolithic equivalence", limit_s=10):
        rng = np.random.default_rng(1001)
        cases = 0
        while cases < 120:
            depth = int(rng.integers(2, 5))
            sizes = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
            loss = "mse" if rng.random() < 0.5 else "softmax_ce"
            net = init_dense_net(sizes, loss=loss, rng=rng)
            cut = int(rng.integers(1, depth))
            batch = int(rng.integers(1, 9))
            x = rng.normal(size=(batch, sizes[0]))
            if loss == "mse":
                y = rng.normal(size=(batch, sizes[-1]))
            else:
                labels = rng.integers(sizes[-1], size=batch)
                y = np.zeros((batch, sizes[-1]))
                y[np.arange(batch), labels] = 1.0
            rho = float(rng.uniform(0.0, 0.5))

            mono = monolithic_update(net, (x, y), rho)
            split = concatenate(split_update(split_net(net, cut, rho), (x, y)))
            assert _max_rel_param_dev(mono, split) <= 1e-9
            cases += 1


def test_criterion_2_gradient_check():
    """Analytic gradients against central finite differences."""
    with criterion(2, "gradient vs finite differences", limit_s=10):
        rng = np.random.default_rng(1002)
        for _ in range(24):
            depth = int(rng.integers(1, 4))
            sizes = [int(rng.integers(2, 5)) for _ in range(depth + 1)]
            loss = "mse" if rng.random() < 0.5 else "softmax_ce"
            net = init_dense_net(sizes, loss=loss, rng=rng)
            batch = int(rng.integers(2, 6))
            x = rng.normal(size=(batch, sizes[0]))
            if loss == "mse":
                y = rng.normal(size=(batch, sizes[-1]))
            else:
                labels = rng.integers(sizes[-1], size=batch)
                y = np.zeros((batch, sizes[-1]))
                y[np.arange(batch), labels] = 1.0

            _, dws, dbs = loss_and_grads(net, x, y)
            analytic = np.concatenate([g.ravel() for g in dws + dbs])
            params = [w.copy() for w in net.weights] + [b.copy() for b in net.biases]
            fd = np.zeros_like(analytic)
            h = 1e-6
            pos = 0
            for pi in range(len(params)):
                for j in range(params[pi].size):
                    vals = []
                    for sign in (+1.0, -1.0):
                        trial = [p.copy() for p in params]
                        trial[pi].ravel()[j] += sign * h
                        nn = DenseNet(tuple(trial[: net.num_layers]),
                                      tuple(trial[net.num_layers:]),
                                      net.activations, net.loss)
                        vals.append(loss_value(nn, x, y))
                    fd[pos] = (vals[0] - vals[1]) / (2 * h)
                    pos += 1
            scale = max(float(np.abs(analytic).max()), 1e-12)
            assert float(np.abs(analytic - fd).max()) / scale <= 1e-5


def _greedy_grid_level(a, b, c_total, quanta=2000):
    """Independent oracle: hand out compute in fixed quanta, always to the
    current straggler among users that server compute can still help."""
    compute = np.zeros_like(a)
    dc = c_total / quanta
    t = np.where(a > 0, np.inf, b)
    for _ in range(quanta):
        i = int(np.argmax(np.where(a > 0, t, -np.inf)))
        compute[i] += dc
        t[i] = b[i] + a[i] / compute[i]
    return float(np.max(t))


def test_criterion_3_resource_subproblem_exactness():
    """The Newton resource pass against a quantum grid-search oracle."""
    with criterion(3, "resource subproblem vs grid oracle", limit_s=30):
        rng = np.random.default_rng(1003)
        for k in range(50):
            balanced = k % 2 == 0
            users = []
            for i in range(5):
                if balanced:
                    kbps = float(rng.uniform(5e4, 5e5))
                else:
                    kbps = float(rng.choice([10, 15, 20, 25]))
                users.append(UserProfile(
                    i,
                    float(rng.choice([200, 400, 600, 800])),
                    float(rng.choice([0.65, 1.3, 2.6, 4.55])) * 1e12,
                    LinkRates(kbps * 1024.0, kbps * 1024.0),
                    epochs=5,
                ))
            c_total = (float(rng.uniform(1, 6)) * 1e12 if balanced else 130e12)
            # cuts below layer 19 keep a positive server share for everyone
            cuts = [int(rng.integers(1, 19)) for _ in range(5)]

            a, b = server_demand_terms(users, cuts, VGG19)
            assert np.all(a > 0)
            compute, level = equalize_min_max(a, b, c_total)

            oracle = _greedy_grid_level(a.copy(), b.copy(), c_total)
            assert abs(level - oracle) <= 0.005 * oracle
            assert abs(compute.sum() - c_total) <= 1e-6 * c_total
            times = b + a / compute
            assert float(np.max(np.abs(times - level))) <= 1e-6 * level


def _random_joint_instance(rng):
    L = int(rng.integers(3, 6))
    rows = [
        f"L{j},{rng.uniform(0.005, 0.5):.6f},{rng.uniform(1, 40):.4f},"
        f"{rng.uniform(0.001, 0.08):.6f}"
        for j in range(L)
    ]
    arch = load_architecture(
        io.StringIO("layer,params,fwd_flops,activation\n" + "\n".join(rows) + "\n")
    )
    S = int(rng.integers(1, 4))
    rate0 = float(rng.uniform(1e5, 4e5))
    comp0 = float(rng.uniform(1e9, 4e9))
    users = [
        UserProfile(
            i,
            float(rng.choice([200, 400, 600, 800])),
            comp0 * float(rng.uniform(1, 5)),
            LinkRates(rate0 * float(rng.uniform(1, 5)),
                      rate0 * float(rng.uniform(1, 5))),
            epochs=5,
        )
        for i in range(S)
    ]
    c_total = float(rng.uniform(5, 40)) * comp0
    return users, arch, c_total


def test_criterion_4_joint_oracle_gap():
    """Alternation against exhaustive enumeration on tiny instances.

    Instances mirror the scenario structure (resource options spread by a
    factor of about five within a draw). On such instances the alternation
    lands within a few percent of the exhaustive optimum; instance families
    with much wider spreads can exhibit larger local-optimum gaps, which is
    expected of a block-coordinate heuristic with no optimality guarantee.
    """
    with criterion(4, "joint cut/compute oracle gap", limit_s=60):
        rng = np.random.default_rng(1004)
        worst = 1.0
        for _ in range(40):
            users, arch, c_total = _random_joint_instance(rng)
            exact = brute_force_joint(users, arch, c_total)
            heur = alternate(users, arch, c_total)
            _assert_monotone(heur.trace, "(criterion 4 instance)")
            ratio = heur.allocation.objective / exact.objective
            assert ratio >= 1 - 1e-9, "heuristic beat the exhaustive oracle"
            worst = max(worst, ratio)
        assert worst <= 1.05, (
            f"worst heuristic/oracle ratio {worst:.4f} exceeds 1.05; "
            "investigate the offending instances before accepting"
        )


def test_criterion_5_monotone_descent():
    """Objective never rises across alternation iterations."""
    with criterion(5, "monotone descent of the alternation"):
        # random tiny instances
        rng = np.random.default_rng(1005)
        for _ in range(30):
            users, arch, c_total = _random_joint_instance(rng)
            _assert_monotone(alternate(users, arch, c_total).trace)
        # scenario-scale draws from every preset
        for name, spec in preset_scenarios().items():
            srng = np.random.default_rng(spec.seed)
            data = esfl.simulation.sample_population_data(spec, srng)
            batch = sample_rounds(spec, srng, data, 5)
            for r in range(5):
                result = alternate(batch.rows(r), VGG19, spec.server_tflops * 1e12)
                _assert_monotone(result.trace, f"({name})")


def test_criterion_6_convergence_count():
    """Fixed point within nine iterations at every population scale."""
    with criterion(6, "alternation converges within 9 iterations", limit_s=60):
        cells = convergence_study(
            VGG19,
            scales=(100, 200, 400, 800),
            repetitions=3,
            seed=0,
        )
        assert len(cells) == 16
        for cell in cells:
            assert cell.max_iterations <= 9, (
                f"{cell.scenario} at {cell.scale} users took "
                f"{cell.max_iterations} iterations"
            )


def test_criterion_7_ordering_reproduction():
    """ESFL fastest, SL slowest, per-record ESFL <= SFL without exception."""
    with criterion(7, "per-scenario algorithm ordering", limit_s=120):
        for name in ("BP", "PR", "RP", "BR", "SH", "SL", "LS", "LH"):
            report = _get_report(name)
            means = report.mean_round_time
            assert means["esfl"] < means["sfl"], name
            assert means["esfl"] < means["fl"], name
            assert means["sl"] == max(means.values()), name
            for rec in report.records:
                assert rec.times["esfl"] <= rec.times["sfl"], (
                    f"{name} round {rec.index}"
                )


def _round_lower_bounds(spec, options):
    """Per-round lower bound on any policy's round time, ``LB_r``.

    ``LB_r = max_i min_{feasible c} T_i(c)``, where ``T_i(c)`` is user i's
    round time at cut c with unlimited server compute. The users are
    re-drawn from the scenario seed in the order ``run_simulation`` draws
    them (resources redrawn every round).
    """
    cfg = options.optimizer
    rng = np.random.default_rng(spec.seed)
    data = esfl.simulation.sample_population_data(spec, rng)
    batch = sample_rounds(spec, rng, data, spec.rounds, None, options.kb_bytes)
    totals = round_terms(batch, VGG19, None, math.inf, cfg.t_agg).total
    mask = feasibility_mask(batch, VGG19, cfg.batch_size)
    return np.where(mask, totals, np.inf).min(axis=-1).max(axis=-1)


def _lh_sh_ratio(reports, algo):
    return (reports["LH"].mean_round_time[algo]
            / reports["SH"].mean_round_time[algo])


def test_criterion_8_heterogeneity_robustness():
    """SH -> LH latency growth: adaptive allocation vs the fixed-cut policy.

    The claim is that per-user cuts plus a divided server budget absorb
    device heterogeneity that a fixed-cut policy cannot. It is checked in
    the two regimes the unit conventions produce.

    1. Default units (profile workloads as 1e6 four-byte elements, link
       rates as KB/s). Here the heaviest communicator's communication
       outweighs its compute by three to four orders of magnitude, so no
       policy can do better than ``LB_r``: the slowest user's best round
       time at any feasible cut with unlimited server compute (see
       ``_round_lower_bounds``). ESFL must meet that bound in every SH and
       LH round to 1e-5 relative, and so its LH/SH ratio must equal the
       bound's. Both ratios then sit at the ~2x spread of the rate options
       and just above fixed-cut SFL's, whose fixed cut lets the independent
       data-volume draws dilute the link spread; asking ESFL for a lower
       ratio here would ask it to be worse than optimal.
    2. Communication and compute of comparable weight, the regime the
       finding presumes: the same SH/LH presets (preset seeds, 100 rounds)
       with rates priced at 10^4 x (``kb_bytes = 1024 * 10**4``). There
       ESFL's LH/SH ratio must be strictly below SFL's.
       ``demos/07_rate_convention_sensitivity.py`` sweeps the multiplier.
    """
    with criterion(8, "heterogeneity: ESFL at the bound, ratio < SFL's",
                   limit_s=120):
        presets = preset_scenarios()
        default = SimOptions()
        reports = {name: _get_report(name) for name in ("SH", "LH")}
        bound_means = {}
        for name, report in reports.items():
            bounds = _round_lower_bounds(presets[name], default)
            esfl_times = np.array([rec.times["esfl"] for rec in report.records])
            sfl_times = np.array([rec.times["sfl"] for rec in report.records])
            gap = np.abs(esfl_times - bounds) / bounds
            assert gap.max() <= 1e-5, (
                f"{name} round {int(gap.argmax())}: ESFL {esfl_times[gap.argmax()]}"
                f" s is {gap.max():.2e} relative from the lower bound"
            )
            assert np.all(sfl_times >= bounds * (1 - 1e-12)), name
            bound_means[name] = float(bounds.mean())
        esfl_ratio = _lh_sh_ratio(reports, "esfl")
        bound_ratio = bound_means["LH"] / bound_means["SH"]
        assert abs(esfl_ratio - bound_ratio) <= 1e-5 * bound_ratio, (
            f"ESFL LH/SH ratio {esfl_ratio:.6f} differs from the lower "
            f"bound's {bound_ratio:.6f}"
        )

        balanced = SimOptions(kb_bytes=1024.0 * 10**4)
        scaled = {name: run_simulation(presets[name], ("esfl", "sfl"), VGG19,
                                       balanced)
                  for name in ("SH", "LH")}
        esfl_ratio = _lh_sh_ratio(scaled, "esfl")
        sfl_ratio = _lh_sh_ratio(scaled, "sfl")
        assert esfl_ratio < sfl_ratio, (
            f"with rates scaled 10^4 x, ESFL LH/SH ratio {esfl_ratio:.4f} is "
            f"not below SFL's {sfl_ratio:.4f}"
        )


def test_criterion_9_distribution_sanity():
    """Cut distributions normalize; entropy spread reported, not asserted."""
    with criterion(9, "cut-layer distribution sanity"):
        variances = {}
        for name in ("BP", "BR"):
            dist = _get_report(name).cut_distribution
            assert dist is not None
            sums = dist.matrix.sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 1e-12)
            assert abs(dist.pooled.sum() - 1.0) <= 1e-12
            variances[name] = dist.entropy_variance()
        print(
            f"  [report] per-user cut entropy variance: "
            f"BP={variances['BP']:.6f} bits^2, BR={variances['BR']:.6f} bits^2 "
            f"(resource-rich lower: {variances['BR'] < variances['BP']})"
        )


def test_criterion_10_determinism(tmp_path):
    """Identical config and seed produce byte-identical reports."""
    with criterion(10, "byte-identical reports"):
        sim_args = ("simulate", "--scenario", "SH", "--arch", "vgg19",
                    "--algos", "esfl,sfl,fl,sl", "--rounds", "20", "--seed", "5")
        assert cli_main([*sim_args, "--out", str(tmp_path / "sim_a")]) == 0
        assert cli_main([*sim_args, "--out", str(tmp_path / "sim_b")]) == 0
        for fname in ("report.json", "report.txt"):
            assert (tmp_path / "sim_a" / fname).read_bytes() == \
                   (tmp_path / "sim_b" / fname).read_bytes(), fname

        toy_args = ("train-toy", "--users", "2", "--rounds", "10",
                    "--seed", "9", "--check-equivalence")
        assert cli_main([*toy_args, "--out", str(tmp_path / "toy_a")]) == 0
        assert cli_main([*toy_args, "--out", str(tmp_path / "toy_b")]) == 0
        assert (tmp_path / "toy_a" / "train_toy.json").read_bytes() == \
               (tmp_path / "toy_b" / "train_toy.json").read_bytes()

        conv_args = ("converge", "--scenarios", "BP", "--scales", "50,100",
                     "--reps", "2", "--seed", "3")
        assert cli_main([*conv_args, "--out", str(tmp_path / "con_a")]) == 0
        assert cli_main([*conv_args, "--out", str(tmp_path / "con_b")]) == 0
        assert (tmp_path / "con_a" / "convergence.json").read_bytes() == \
               (tmp_path / "con_b" / "convergence.json").read_bytes()
