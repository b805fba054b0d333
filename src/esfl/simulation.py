"""Monte-Carlo round simulator comparing ESFL with FL, SL, and SFL.

A scenario fixes the option lists that heterogeneous users draw from
(link rate in KB/s, device compute in TFLOPs, local sample count) plus the
population size, per-round selection count, epochs, and the server budget.
Each simulated round selects users uniformly at random, draws their
resources, plans ESFL with the alternating optimizer, and prices the
baselines on the same users (paired comparison).

Rounds do not depend on each other once their users are drawn, so a run
draws every round first, in the order the rounds would draw one by one,
and then plans and prices all of them as one (rounds, S) batch through
:func:`esfl.allocation.plan_rows` and the row-aware policies of
:mod:`esfl.timing`. The results stay arrays with one row per round, from
the planner to the report: each round's JSON record is built once, when
the report is written.

Every random draw flows from the scenario seed through one generator, so a
(scenario, seed) pair reproduces bit-identical reports. The rounds are the
draws of ``Generator.choice`` round by round, and leave the generator in
the same state; where ``choice`` runs Floyd's algorithm (every population
up to 10,000, and larger ones selecting at most ``population // 50``) on
rounds of fewer than 300 users, its bounded-integer stream is replicated,
drawing many rounds per call. This
was verified on numpy 2.4.6; the sampler property test guards other numpy
versions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .allocation import OptimizerConfig, RowPlan, plan_rows
from .errors import (COUNT, IN_RANGE, INTEGER, NUMBER, POSITIVE, ConfigError, Rule,
                     at_least, at_most, between, check, magnitude)
from .timing import (
    default_fixed_cut,
    esfl_round_time,
    fl_round_time,
    sfl_round_time,
    sl_round_time,
)
from .users import UserBatch
from .workload import ModelArchitecture

ALGORITHMS = ("esfl", "sfl", "fl", "sl")

TFLOPS = 1e12

# The largest count numpy can index or size an array by.
_MAX_COUNT = int(np.iinfo(np.intp).max)

# The largest population: the simulator draws per-user arrays of this many
# entries (80 MB each in float64), so a larger one is refused before any
# allocation.
MAX_POPULATION = 10**7

# The most users a run draws and plans over all its rounds: each round is a
# row of the (rounds, S) batch, so a larger one is refused before any row is
# drawn.
MAX_USER_ROUNDS = 10**7


# The bounds of each ScenarioSpec field, in field order: an option list
# must hold at least one option, every option must pass its list's rules,
# and a selection larger than the population, or more user-rounds than
# MAX_USER_ROUNDS, is refused after them.
_NONEMPTY: Rule = (lambda v: not v, "hold at least one number")
# a server budget in TFLOP/s, bounded in FLOP/s as the planner bounds it
SERVER_TFLOPS: tuple[Rule, ...] = (NUMBER, magnitude("FLOP/s", TFLOPS), POSITIVE)
_SPEC_RULES: dict[str, tuple[Rule, ...]] = {
    "name": ((lambda v: not isinstance(v, str), "be a string"),),
    "comm_options": (_NONEMPTY,), "comp_options": (_NONEMPTY,), "data_options": (_NONEMPTY,),
    "population": (INTEGER, at_least(1), at_most(MAX_POPULATION)),
    "selected_per_round": (INTEGER, at_least(1)),
    "rounds": (INTEGER, at_least(1), at_most(_MAX_COUNT)),
    "epochs": (INTEGER, at_least(1), at_most(_MAX_COUNT)),
    "server_tflops": SERVER_TFLOPS,
    "seed": (INTEGER, at_least(0)),   # numpy seeds take any size
}
_NUMBERS: Rule = (NUMBER[0], "hold numbers")
_ITEM_RULES: dict[str, tuple[Rule, ...]] = {
    "comm_options": (_NUMBERS, (magnitude()[0], f"hold numbers {IN_RANGE} KB/s"),
                     (lambda v: v <= 0, "hold numbers > 0")),
    "comp_options": (_NUMBERS, (magnitude(scale=TFLOPS)[0], f"hold numbers {IN_RANGE} FLOP/s"),
                     (lambda v: v <= 0, "hold numbers > 0")),
    "data_options": (_NUMBERS, (magnitude()[0], f"hold numbers {IN_RANGE} samples"),
                     (lambda v: v < 0, "hold numbers >= 0")),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Resource options and run shape for one simulated deployment."""

    name: str
    comm_options: tuple[float, ...]   # symmetric link rates, KB/s
    comp_options: tuple[float, ...]   # device compute, TFLOPs
    data_options: tuple[float, ...]   # local samples per user
    population: int = 100
    selected_per_round: int = 10
    rounds: int = 100
    epochs: int = 5
    server_tflops: float = 130.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, rules in _SPEC_RULES.items():
            check(name, getattr(self, name), *rules)
            if name in _ITEM_RULES:
                check(name, getattr(self, name), *_ITEM_RULES[name], each=True)
        check("selected_per_round", self.selected_per_round, (
            lambda v: v > self.population, f"be at most the population, {self.population}"))
        # Python ints: a product of numpy ints could wrap below the bound
        if int(self.rounds) * int(self.selected_per_round) > MAX_USER_ROUNDS:
            raise ConfigError(
                f"rounds × selected_per_round must be at most {MAX_USER_ROUNDS}, "
                f"not {self.rounds} × {self.selected_per_round}")


def _presets() -> dict[str, ScenarioSpec]:
    poor_comm = (10.0, 15.0, 20.0, 25.0)
    rich_comm = (50.0, 75.0, 100.0, 125.0)
    poor_comp = (1.3, 1.95, 2.6, 3.25)
    rich_comp = (6.5, 9.75, 13.0, 16.25)
    wide_comm = (5.0, 10.0, 20.0, 35.0)
    wide_comp = (0.65, 1.3, 2.6, 4.55)
    het_data = (200.0, 400.0, 600.0, 800.0)
    iid_data = (500.0,)

    return {name: ScenarioSpec(name, comm, comp, data) for name, comm, comp, data in (
        ("BP", poor_comm, poor_comp, iid_data),
        ("PR", poor_comm, rich_comp, iid_data),
        ("RP", rich_comm, poor_comp, iid_data),
        ("BR", rich_comm, rich_comp, iid_data),
        ("SH", poor_comm, poor_comp, het_data),
        ("SL", poor_comm, wide_comp, het_data),
        ("LS", wide_comm, poor_comp, het_data),
        ("LH", wide_comm, wide_comp, het_data),
    )}


_PRESETS = _presets()   # built and checked once; the specs are frozen


def preset_scenarios() -> dict[str, ScenarioSpec]:
    """The eight stock scenarios, in a new dict on every call.

    BP/PR/RP/BR vary how rich communication and compute are (identical
    data volumes); SH/SL/LS/LH keep option means fixed and vary how spread
    out the options are, with heterogeneous data volumes.
    """
    return dict(_PRESETS)


@dataclass(frozen=True)
class SimOptions:
    """Knobs shared by all algorithms within a run.

    ``optimizer.t_agg`` is the aggregation time every algorithm's round pays.
    """

    kb_bytes: float = 1024.0
    sticky_resources: bool = False   # draw resources once per user, not per round
    fixed_cut: int | None = None     # SFL/SL cut; default: first universally feasible
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self) -> None:
        check("kb_bytes", self.kb_bytes, magnitude("bytes"), POSITIVE)


# the odd multiplier whose powers hash a distribution row's columns
_ROW_MIX = 0x9E3779B97F4A7C15


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Whether each row of ``ordered`` starts a run of bit-identical rows."""
    new = np.ones(len(ordered), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    return new


@dataclass(frozen=True)
class CutLayerDistribution:
    """Empirical cut frequencies per population user and pooled.

    Rows repeat: most users are seen in few rounds, where they mostly pick
    the same few cuts (a 2-round, 2,500-user BP run has about 4,400 rows,
    3 of them distinct). So the rows are grouped once, on first use, into
    the distinct rows and one row index per user (see :attr:`distinct_rows`),
    and each per-user summary is taken once per distinct row and gathered
    per user: every number is the same row arithmetic on the same row bits
    as a dense pass over ``matrix``.
    """

    user_ids: tuple[int, ...]
    matrix: np.ndarray          # (users, L); each row sums to 1
    pooled: np.ndarray          # (L,); sums to 1

    @cached_property
    def distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, row_of_user)``: the distinct rows, bit for bit (``0.0``
        and ``-0.0`` apart) in order of their first user, and each user's
        index into them, so ``rows[row_of_user]`` is ``matrix``.

        Rows are sorted by a wrapping int64 hash of their bits, and a row's
        users are a run of sorted rows equal in every bit. Should two rows
        that differ hash alike, which could split a run, the rows are sorted
        by their bits instead. The hash sort need not be stable (numpy's
        stable sort touches more memory), so a run's first user is its
        smallest index, and the result does not depend on the hash.
        """
        bits = np.ascontiguousarray(self.matrix, dtype=float).view(np.int64)
        mix = np.cumprod(np.full(bits.shape[1], _ROW_MIX, dtype=np.uint64)).view(np.int64)
        keys = bits @ mix
        order = np.argsort(keys)
        new = _run_starts(bits[order])
        if np.any(new[1:] & (keys[order][1:] == keys[order][:-1])):
            order = np.lexsort(bits.T)
            new = _run_starts(bits[order])
        first = np.minimum.reduceat(order, np.flatnonzero(new))
        canonical = np.sort(first)
        row_of_user = np.empty(len(order), dtype=np.intp)
        row_of_user[order] = np.searchsorted(canonical, first)[np.cumsum(new) - 1]
        return self.matrix[canonical], row_of_user

    def entropies(self) -> np.ndarray:
        """Per-user cut entropy in bits."""
        p, row_of_user = self.distinct_rows
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, -p * np.log2(p), 0.0)
        return terms.sum(axis=1)[row_of_user]

    def entropy_variance(self) -> float:
        ent = self.entropies()
        return float(np.var(ent)) if ent.size else 0.0


@dataclass(frozen=True)
class SimulationReport:
    """A run's rounds as arrays, one row per round, and their aggregates."""

    scenario: ScenarioSpec
    arch_name: str
    algorithms: tuple[str, ...]
    user_ids: np.ndarray                # (R, S) each round's users
    times: dict[str, np.ndarray]        # algorithm -> (R,) round times
    comm_times: dict[str, np.ndarray]   # algorithm -> (R,) communication times
    esfl_plan: RowPlan | None           # ESFL's plan without its passes, if priced
    mean_round_time: dict[str, float]
    total_time: dict[str, float]
    mean_comm_time: dict[str, float]
    cut_distribution: CutLayerDistribution | None
    convergence: dict[str, float]

    def to_dict(self) -> dict:
        """JSON-ready structure with deterministic content."""
        out = {
            "scenario": {
                "name": self.scenario.name,
                "comm_options_kbps": list(self.scenario.comm_options),
                "comp_options_tflops": list(self.scenario.comp_options),
                "data_options": list(self.scenario.data_options),
                "population": self.scenario.population,
                "selected_per_round": self.scenario.selected_per_round,
                "rounds": self.scenario.rounds,
                "epochs": self.scenario.epochs,
                "server_tflops": self.scenario.server_tflops,
                "seed": self.scenario.seed,
            },
            "architecture": self.arch_name,
            "algorithms": list(self.algorithms),
            "mean_round_time_s": self.mean_round_time,
            "total_time_s": self.total_time,
            "mean_communication_time_s": self.mean_comm_time,
            "convergence": self.convergence,
            "records": self._records(),
        }
        if self.cut_distribution is not None:
            rows, row_of_user = self.cut_distribution.distinct_rows
            out["cut_distribution"] = {
                "user_ids": list(self.cut_distribution.user_ids),
                "rows": rows.tolist(),
                "row_of_user": row_of_user.tolist(),
                "pooled": self.cut_distribution.pooled.tolist(),
                "entropy_variance_bits": self.cut_distribution.entropy_variance(),
            }
        return out

    def _records(self) -> list[dict]:
        times = {a: t.tolist() for a, t in self.times.items()}
        comms = {a: c.tolist() for a, c in self.comm_times.items()}
        plan = self.esfl_plan
        esfl = [[None] * len(self.user_ids)] * 3 if plan is None else [
            plan.cuts.tolist(), plan.server_compute.tolist(), plan.iterations.tolist()]
        return [{"round": r, "user_ids": user_ids,
                 "times_s": {a: times[a][r] for a in self.algorithms},
                 "communication_times_s": {a: comms[a][r] for a in self.algorithms},
                 "esfl_cuts": cuts, "esfl_server_compute": compute,
                 "esfl_iterations": iterations}
                for r, (user_ids, cuts, compute, iterations)
                in enumerate(zip(self.user_ids.tolist(), *esfl))]


def sample_population_data(spec: ScenarioSpec, rng: np.random.Generator) -> np.ndarray:
    """Per-user sample counts, fixed for the whole run."""
    return rng.choice(np.asarray(spec.data_options, dtype=float), size=spec.population)


def sample_population_resources(
    spec: ScenarioSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user (rate KB/s, compute TFLOPs) draws for sticky-resource mode."""
    comm = rng.choice(np.asarray(spec.comm_options, dtype=float), size=spec.population)
    comp = rng.choice(np.asarray(spec.comp_options, dtype=float), size=spec.population)
    return comm, comp


def sample_rounds(
    spec: ScenarioSpec,
    rng: np.random.Generator,
    population_data: np.ndarray,
    rounds: int,
    sticky: tuple[np.ndarray, np.ndarray] | None = None,
    kb_bytes: float = 1024.0,
) -> UserBatch:
    """``rounds`` rounds of selected users and their resources, as one (R, S) batch.

    Each round selects users uniformly without replacement (ids sorted) and
    then draws their link rates (KB/s) and compute (TFLOPs), unless
    ``sticky`` fixes both per user. Rounds consume ``rng`` one after
    another, so R calls with ``rounds=1`` draw the same rows as one call
    with ``rounds=R``.

    The rows and the generator's final state are those of drawing each
    round as ``rng.choice(population, S, replace=False)``, sorted, then
    ``rng.choice(options, S)`` for rates and for compute. Where ``choice``
    uses Floyd's algorithm (every population up to 10,000, and larger ones
    selecting at most ``population // 50``) and a round selects fewer than
    ``_CHOICE_MIN_SELECTED`` users, :func:`_floyd_rounds` draws many rounds
    per call; otherwise rounds are drawn one by one. This reproduces numpy's
    ``Generator`` as verified on numpy 2.4.6; the sampler property test
    guards other numpy versions.
    """
    size = spec.selected_per_round
    options = None if sticky is not None else (
        np.asarray(spec.comm_options, dtype=float), np.asarray(spec.comp_options, dtype=float))
    if (size >= _CHOICE_MIN_SELECTED
            or spec.population > 10000 and size > spec.population // 50):
        selected, drawn = _choice_rounds(rng, spec.population, size, rounds, options)
    else:
        selected, drawn = _floyd_rounds(rng, spec.population, size, rounds, options)
    comm_kb, comp_tf = drawn if sticky is None else (sticky[0][selected], sticky[1][selected])
    rates = comm_kb * kb_bytes
    return UserBatch(
        user_ids=selected,
        n_samples=population_data[selected],
        compute_flops=comp_tf * TFLOPS,
        up=rates,
        down=rates,
        epochs=np.full(selected.shape, float(spec.epochs)),
        storage_bytes=np.full(selected.shape, np.inf),
        memory_bytes=np.full(selected.shape, np.inf),
    )


# Rounds of at least this many selected users are drawn round by round by
# :func:`_choice_rounds`: numpy's bounded-integer call with an array of
# bounds costs more per value than ``choice``'s own Floyd loop, which
# outweighs the per-round call overhead from about 300 users per round on,
# at 5 to 100 rounds (measured on numpy 2.4.6).
_CHOICE_MIN_SELECTED = 300

# The most bounded integers one ``Generator.integers`` call of
# :func:`_floyd_rounds` draws: rounds are drawn in chunks of whole rounds
# (at least one) of about this many draws, which bounds the temporaries.
_DRAW_CHUNK = 2**18


def _choice_rounds(rng, population, size, rounds, options):
    """Sorted (R, S) selections and, unless ``options`` is None, the
    (2, R, S) values drawn from its (rate, compute) option arrays, round by
    round."""
    selected = np.empty((rounds, size), dtype=int)
    drawn = None if options is None else np.empty((2, rounds, size))
    for r in range(rounds):
        selected[r] = np.sort(rng.choice(population, size=size, replace=False))
        if options is not None:
            # The stream of ``rng.choice(values, size=size)``, without its
            # argument handling.
            for out, values in zip(drawn, options):
                out[r] = values[rng.integers(0, len(values), size=size)]
    return selected, drawn


def _floyd_rounds(rng, population, size, rounds, options):
    """What :func:`_choice_rounds` returns, where ``choice`` runs Floyd's
    algorithm, with one bounded-integer call per chunk of rounds.

    Each round of ``choice`` draws, in order: for Floyd's step s the
    integer t in ``0..j`` with ``j = population - size + s``; for its
    shuffle of the S picks one integer in ``0..i`` for i = S-1 down to 1;
    then one option index per user for rates and one for compute. The
    shuffle's values only reorder a selection that is sorted anyway, so
    they are drawn and dropped.
    """
    low = population - size
    bounds = [np.arange(low, population), np.arange(size - 1, 0, -1)]
    if options is not None:
        bounds += [np.full(size, len(values) - 1) for values in options]
    bounds = np.concatenate(bounds)
    per_chunk = max(1, _DRAW_CHUNK // bounds.size)
    selected = np.empty((rounds, size), dtype=int)
    drawn = None if options is None else np.empty((2, rounds, size))
    for start in range(0, rounds, per_chunk):
        stop = min(start + per_chunk, rounds)
        draws = rng.integers(0, np.tile(bounds, stop - start),
                             endpoint=True).reshape(stop - start, -1)
        if low:
            selected[start:stop] = np.sort(_floyd_picks(draws[:, :size], low), axis=1)
        else:   # the whole population
            selected[start:stop] = np.arange(size)
        if options is not None:
            for k, (out, values) in enumerate(zip(drawn, options)):
                first = (2 + k) * size - 1
                out[start:stop] = values[draws[:, first:first + size]]
    return selected, drawn


def _floyd_picks(t: np.ndarray, low: int) -> np.ndarray:
    """The values Floyd's algorithm takes, per row, from its (R, S) draws.

    Step s draws t_s in ``0..j_s`` (``j_s = low + s``) and takes j_s if t_s
    is already taken, else t_s. Every earlier draw is taken by the time of
    its own step (by it or by an earlier step), so t_s is taken exactly when
    it repeats an earlier draw of its row or equals j_k for an earlier step
    k that took j_k: an OR along the pointers s -> k = t_s - low, which only
    point back, resolved by pointer jumping in O(log S) passes.
    """
    rows, size = t.shape
    steps = np.arange(size)
    n = t.size
    firsts = np.arange(0, n, size)[:, None]           # flat index of each row's step 0
    k = t - low
    took_j = np.zeros(n + 1, dtype=bool)               # the last entry is no step
    # Sorting value * S + step groups equal draws, earliest step first (no
    # int64 overflow: values stay below 10**7 and S below 10**7).
    ranked, order = np.divmod(np.sort(t * size + steps, axis=1), size)
    took_j[(order + firsts)[:, 1:][ranked[:, 1:] == ranked[:, :-1]]] = True
    back = np.append(np.where((k >= 0) & (k < steps), k + firsts, n).ravel(), n)
    live = np.flatnonzero(back < n)
    while live.size:
        to = back[live]
        took_j[live] |= took_j[to]
        back[live] = back[to]
        live = live[back[live] < n]
    return np.where(took_j[:n].reshape(rows, size), low + steps, t)


def _check_pricing(algorithms: Sequence[str], arch: ModelArchitecture,
                   options: SimOptions) -> None:
    """Refuse an algorithm list that is empty, names an unknown algorithm
    or repeats one (a repeated name would label two report rows alike), and
    a fixed cut outside 1..L."""
    check("algorithms", algorithms, (lambda v: not v, "name at least one algorithm"))
    check("algorithms", algorithms, (lambda a: a not in ALGORITHMS,
                                     f"name only {', '.join(ALGORITHMS)}"),
          (lambda a: algorithms.count(a) > 1, "name each algorithm once"), each=True)
    if options.fixed_cut is not None:
        check("fixed_cut", options.fixed_cut, between(1, arch.num_layers))


def price_rounds(
    batch: UserBatch,
    algorithms: Sequence[str],
    arch: ModelArchitecture,
    spec: ScenarioSpec,
    options: SimOptions | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray], RowPlan | None]:
    """The rounds of an (R, S) batch, all planned and priced at once.

    Returns each algorithm's (R,) round times and (R,) communication times,
    as the policies in :mod:`esfl.timing` define them, and ESFL's plan from
    :func:`esfl.allocation.plan_rows` (None without ``"esfl"``). Every
    algorithm is priced on the same users (paired comparison).
    ``algorithms`` and ``options.fixed_cut`` are bounded as
    :func:`run_simulation` bounds them.
    """
    options = options or SimOptions()
    _check_pricing(algorithms, arch, options)
    c_total = spec.server_tflops * TFLOPS
    cfg = options.optimizer
    fixed = default_fixed_cut(batch, arch) if options.fixed_cut is None else options.fixed_cut
    fixed = np.broadcast_to(np.asarray(fixed)[..., None], batch.shape)
    plan = plan_rows(batch, arch, c_total, cfg) if "esfl" in algorithms else None

    policies = {
        "esfl": lambda: esfl_round_time(plan.cuts, plan.server_compute, batch, arch,
                                        cfg.t_agg),
        "fl": lambda: fl_round_time(batch, arch, cfg.t_agg),
        "sfl": lambda: sfl_round_time(batch, arch, fixed, c_total, cfg.t_agg),
        "sl": lambda: sl_round_time(batch, arch, fixed, c_total, cfg.t_agg),
    }
    priced = {algo: policies[algo]() for algo in algorithms}
    return ({algo: time for algo, (time, _) in priced.items()},
            {algo: comm for algo, (_, comm) in priced.items()}, plan)


def run_simulation(
    spec: ScenarioSpec,
    algorithms: Sequence[str],
    arch: ModelArchitecture,
    options: SimOptions | None = None,
) -> SimulationReport:
    """Run all rounds of a scenario and aggregate them.

    Every round is drawn up front from one generator, in the order the
    rounds would draw one by one; all rounds are then planned and priced as
    one (rounds, S) batch. ``algorithms`` names one or more of
    :data:`ALGORITHMS`, each once, and ``options.fixed_cut``, when given,
    is a layer in 1..L; both are checked before any round is drawn.
    """
    options = options or SimOptions()
    algorithms = tuple(algorithms)
    _check_pricing(algorithms, arch, options)
    rng = np.random.default_rng(spec.seed)
    population_data = sample_population_data(spec, rng)
    sticky = (
        sample_population_resources(spec, rng) if options.sticky_resources else None
    )
    batch = sample_rounds(spec, rng, population_data, spec.rounds, sticky,
                          options.kb_bytes)
    times, comms, plan = price_rounds(batch, algorithms, arch, spec, options)

    dist, convergence = None, {}
    if plan is not None:
        dist = _cut_distribution(batch.user_ids, plan.cuts, arch.num_layers)
        convergence = {
            "mean_iterations": float(np.mean(plan.iterations)),
            "max_iterations": float(np.max(plan.iterations)),
            "all_converged": bool(plan.converged.all()),
        }
        plan = replace(plan, passes=())

    return SimulationReport(
        scenario=spec, arch_name=arch.name, algorithms=algorithms,
        user_ids=batch.user_ids, times=times, comm_times=comms, esfl_plan=plan,
        mean_round_time={a: float(np.mean(times[a])) for a in algorithms},
        total_time={a: float(np.sum(times[a])) for a in algorithms},
        mean_comm_time={a: float(np.mean(comms[a])) for a in algorithms},
        cut_distribution=dist, convergence=convergence,
    )


def _cut_distribution(
    user_ids: np.ndarray, cuts: np.ndarray, n_layers: int
) -> CutLayerDistribution:
    """Cut frequencies from the (R, S) user ids and the 1-based cuts they chose.

    The counts are small integers, so every row sum and the pooled sums are
    exact, and the frequencies do not depend on the order rounds are added in.
    """
    ids, inverse = np.unique(user_ids, return_inverse=True)
    counts = np.bincount(inverse.ravel() * n_layers + (np.ravel(cuts) - 1),
                         minlength=ids.size * n_layers).reshape(ids.size, n_layers)
    pooled = counts.sum(axis=0)
    return CutLayerDistribution(
        user_ids=tuple(ids.tolist()),
        matrix=counts / counts.sum(axis=1, keepdims=True),
        pooled=pooled / pooled.sum(),
    )


@dataclass(frozen=True)
class ConvergenceCell:
    scenario: str
    scale: int
    iterations: tuple[int, ...]   # one entry per repetition

    @property
    def max_iterations(self) -> int:
        return max(self.iterations)


def convergence_study(
    arch: ModelArchitecture,
    scenarios: Sequence[ScenarioSpec] | None = None,
    scales: Sequence[int] = (100, 200, 400, 800),
    repetitions: int = 3,
    options: SimOptions | None = None,
    seed: int = 0,
) -> list[ConvergenceCell]:
    """Iterations to the optimizer's fixed point across user scales.

    For each (scenario, scale) cell the optimizer runs on ``scale`` freshly
    drawn users, ``repetitions`` times, all repetitions planned as one batch.
    ``repetitions`` and every scale are integers >= 1, no scale is given
    twice (a repeated scale would redraw its cell's stream), and ``seed`` one
    >= 0. A scale is a population, so it may not exceed ``MAX_POPULATION``,
    and each repetition is one round of the sized scenario, so
    ``repetitions × scale`` may not exceed ``MAX_USER_ROUNDS``. These
    bounds are checked under the names ``repetitions`` and ``scales``, and
    every cell's scenario before any cell is drawn.
    """
    options = options or SimOptions()
    check("repetitions", repetitions, COUNT)
    check("scales", scales, (COUNT[0], "hold integers >= 1"),
          (at_most(MAX_POPULATION)[0], f"hold integers at most {MAX_POPULATION}"),
          (lambda s: scales.count(s) > 1, "hold each scale once"), each=True)
    top = max(scales, default=1)
    check("repetitions", repetitions, (
        lambda r: r * top > MAX_USER_ROUNDS,
        f"be at most {MAX_USER_ROUNDS // top} at scale {top} "
        f"(at most {MAX_USER_ROUNDS} users in all)"))
    check("seed", seed, INTEGER, at_least(0))
    if scenarios is None:
        presets = preset_scenarios()
        scenarios = [presets[k] for k in ("BP", "PR", "RP", "BR")]
    sized = [(s_idx, scale, replace(spec, population=scale, selected_per_round=scale,
                                    rounds=repetitions))
             for s_idx, spec in enumerate(scenarios) for scale in scales]
    cells = []
    for s_idx, scale, spec in sized:
        rng = np.random.default_rng([seed, s_idx, scale])
        population_data = sample_population_data(spec, rng)
        batch = sample_rounds(spec, rng, population_data, repetitions,
                              None, options.kb_bytes)
        plan = plan_rows(batch, arch, spec.server_tflops * TFLOPS, options.optimizer)
        cells.append(ConvergenceCell(spec.name, scale, tuple(plan.iterations.tolist())))
    return cells
