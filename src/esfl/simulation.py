"""Monte-Carlo round simulator comparing ESFL with FL, SL, and SFL.

A scenario fixes the option lists that heterogeneous users draw from
(link rate in KB/s, device compute in TFLOPs, local sample count) plus the
population size, per-round selection count, epochs, and the server budget.
Each simulated round selects users uniformly at random, draws their
resources, plans ESFL with the alternating optimizer, prices the baselines
on the same users (paired comparison), and records totals, communication
components, and the ESFL cut choices.

Rounds do not depend on each other once their users are drawn, so a run
draws every round first, in the order the rounds would draw one by one,
and then plans and prices all of them as one (rounds, S) batch through
:func:`esfl.allocation.plan_rows` and the row-aware policies of
:mod:`esfl.timing`.

Every random draw flows from the scenario seed through one generator, so a
(scenario, seed) pair reproduces bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .allocation import Allocation, OptimizerConfig, plan_rows
from .errors import ConfigError
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
        if not (self.comm_options and self.comp_options and self.data_options):
            raise ConfigError("option lists must be nonempty")
        options = self.comm_options + self.comp_options + self.data_options
        if not all(math.isfinite(x) for x in options + (self.server_tflops,)):
            raise ConfigError("options and server_tflops must be finite")
        if min(self.comm_options) < 0 or min(self.data_options) < 0:
            raise ConfigError("link rates and sample counts must be >= 0")
        if min(self.comp_options) <= 0:
            raise ConfigError("device compute options must be positive")
        if self.selected_per_round > self.population:
            raise ConfigError("selected_per_round cannot exceed the population")
        if self.selected_per_round < 1 or self.rounds < 1:
            raise ConfigError("selected_per_round and rounds must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.server_tflops <= 0:
            raise ConfigError("server_tflops must be positive")


def preset_scenarios() -> dict[str, ScenarioSpec]:
    """The eight stock scenarios.

    BP/PR/RP/BR vary how rich communication and compute are (identical
    data volumes); SH/SL/LS/LH keep option means fixed and vary how spread
    out the options are, with heterogeneous data volumes.
    """
    poor_comm = (10.0, 15.0, 20.0, 25.0)
    rich_comm = (50.0, 75.0, 100.0, 125.0)
    poor_comp = (1.3, 1.95, 2.6, 3.25)
    rich_comp = (6.5, 9.75, 13.0, 16.25)
    wide_comm = (5.0, 10.0, 20.0, 35.0)
    wide_comp = (0.65, 1.3, 2.6, 4.55)
    het_data = (200.0, 400.0, 600.0, 800.0)
    iid_data = (500.0,)

    def spec(name, comm, comp, data):
        return ScenarioSpec(name=name, comm_options=comm, comp_options=comp,
                            data_options=data)

    return {
        "BP": spec("BP", poor_comm, poor_comp, iid_data),
        "PR": spec("PR", poor_comm, rich_comp, iid_data),
        "RP": spec("RP", rich_comm, poor_comp, iid_data),
        "BR": spec("BR", rich_comm, rich_comp, iid_data),
        "SH": spec("SH", poor_comm, poor_comp, het_data),
        "SL": spec("SL", poor_comm, wide_comp, het_data),
        "LS": spec("LS", wide_comm, poor_comp, het_data),
        "LH": spec("LH", wide_comm, wide_comp, het_data),
    }


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
        if not (math.isfinite(self.kb_bytes) and self.kb_bytes > 0):
            raise ConfigError("kb_bytes must be finite and positive")


@dataclass(frozen=True)
class RoundRecord:
    index: int
    user_ids: tuple[int, ...]
    times: dict[str, float]
    comm_times: dict[str, float]
    esfl_allocation: Allocation | None
    esfl_iterations: int | None
    esfl_converged: bool | None


@dataclass(frozen=True)
class CutLayerDistribution:
    """Empirical cut frequencies per population user and pooled."""

    user_ids: tuple[int, ...]
    matrix: np.ndarray          # (users, L); each row sums to 1
    pooled: np.ndarray          # (L,); sums to 1

    def entropies(self) -> np.ndarray:
        """Per-user cut entropy in bits."""
        p = self.matrix
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(p > 0, -p * np.log2(p), 0.0)
        return terms.sum(axis=1)

    def entropy_variance(self) -> float:
        ent = self.entropies()
        return float(np.var(ent)) if ent.size else 0.0


@dataclass(frozen=True)
class SimulationReport:
    scenario: ScenarioSpec
    arch_name: str
    algorithms: tuple[str, ...]
    records: tuple[RoundRecord, ...]
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
            "records": [
                {
                    "round": r.index,
                    "user_ids": list(r.user_ids),
                    "times_s": r.times,
                    "communication_times_s": r.comm_times,
                    "esfl_cuts": list(r.esfl_allocation.cuts) if r.esfl_allocation else None,
                    "esfl_server_compute": (
                        list(r.esfl_allocation.server_compute)
                        if r.esfl_allocation
                        else None
                    ),
                    "esfl_iterations": r.esfl_iterations,
                }
                for r in self.records
            ],
        }
        if self.cut_distribution is not None:
            out["cut_distribution"] = {
                "user_ids": list(self.cut_distribution.user_ids),
                "per_user": self.cut_distribution.matrix.tolist(),
                "pooled": self.cut_distribution.pooled.tolist(),
                "entropy_variance_bits": self.cut_distribution.entropy_variance(),
            }
        return out


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
    """
    size = spec.selected_per_round
    comm_options = np.asarray(spec.comm_options, dtype=float)
    comp_options = np.asarray(spec.comp_options, dtype=float)
    selected = np.empty((rounds, size), dtype=int)
    comm_kb = np.empty((rounds, size))
    comp_tf = np.empty((rounds, size))
    for r in range(rounds):
        selected[r] = np.sort(rng.choice(spec.population, size=size, replace=False))
        if sticky is None:
            comm_kb[r] = rng.choice(comm_options, size=size)
            comp_tf[r] = rng.choice(comp_options, size=size)
    if sticky is not None:
        comm_kb, comp_tf = sticky[0][selected], sticky[1][selected]
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


def price_rounds(
    batch: UserBatch,
    algorithms: Sequence[str],
    arch: ModelArchitecture,
    spec: ScenarioSpec,
    options: SimOptions | None = None,
    first_index: int = 0,
) -> list[RoundRecord]:
    """Records of the rounds of an (R, S) batch, all planned and priced at once.

    ESFL is planned by :func:`esfl.allocation.plan_rows`; the requested
    algorithms are priced on the same users (paired comparison). Times and
    communication times are as the policies in :mod:`esfl.timing` define
    them.
    """
    options = options or SimOptions()
    unknown = set(algorithms) - set(ALGORITHMS)
    if unknown:
        raise ConfigError(f"unknown algorithms: {sorted(unknown)}")
    c_total = spec.server_tflops * TFLOPS
    cfg = options.optimizer
    fixed = options.fixed_cut or default_fixed_cut(batch, arch, cfg.batch_size)
    fixed = np.broadcast_to(np.asarray(fixed)[..., None], batch.shape)
    plan = plan_rows(batch, arch, c_total, cfg) if "esfl" in algorithms else None

    policies = {
        "esfl": lambda: esfl_round_time(plan, batch, arch, cfg.t_agg),
        "fl": lambda: fl_round_time(batch, arch, cfg.t_agg),
        "sfl": lambda: sfl_round_time(batch, arch, fixed, c_total, cfg.t_agg),
        "sl": lambda: sl_round_time(batch, arch, fixed, c_total, cfg.t_agg),
    }
    priced = {algo: policies[algo]() for algo in algorithms}
    times = {algo: time.tolist() for algo, (time, _) in priced.items()}
    comms = {algo: comm.tolist() for algo, (_, comm) in priced.items()}
    return [
        RoundRecord(
            index=first_index + r,
            user_ids=tuple(user_ids),
            times={algo: times[algo][r] for algo in algorithms},
            comm_times={algo: comms[algo][r] for algo in algorithms},
            esfl_allocation=plan.allocation(r) if plan else None,
            esfl_iterations=int(plan.iterations[r]) if plan else None,
            esfl_converged=bool(plan.converged[r]) if plan else None,
        )
        for r, user_ids in enumerate(batch.user_ids.tolist())
    ]


def run_simulation(
    spec: ScenarioSpec,
    algorithms: Sequence[str],
    arch: ModelArchitecture,
    options: SimOptions | None = None,
) -> SimulationReport:
    """Run all rounds of a scenario and aggregate the records.

    Every round is drawn up front from one generator, in the order the
    rounds would draw one by one; all rounds are then planned and priced as
    one (rounds, S) batch.
    """
    options = options or SimOptions()
    algorithms = tuple(algorithms)
    rng = np.random.default_rng(spec.seed)
    population_data = sample_population_data(spec, rng)
    sticky = (
        sample_population_resources(spec, rng) if options.sticky_resources else None
    )
    batch = sample_rounds(spec, rng, population_data, spec.rounds, sticky,
                          options.kb_bytes)
    records = price_rounds(batch, algorithms, arch, spec, options)

    mean_time = {
        a: float(np.mean([rec.times[a] for rec in records])) for a in algorithms
    }
    total_time = {
        a: float(np.sum([rec.times[a] for rec in records])) for a in algorithms
    }
    mean_comm = {
        a: float(np.mean([rec.comm_times[a] for rec in records])) for a in algorithms
    }

    dist = None
    if "esfl" in algorithms:
        cuts = np.array([rec.esfl_allocation.cuts for rec in records])
        dist = _cut_distribution(batch.user_ids, cuts, arch.num_layers)
    convergence = {}
    if "esfl" in algorithms:
        its = [rec.esfl_iterations for rec in records]
        convergence = {
            "mean_iterations": float(np.mean(its)),
            "max_iterations": float(np.max(its)),
            "all_converged": bool(all(rec.esfl_converged for rec in records)),
        }

    return SimulationReport(
        scenario=spec,
        arch_name=arch.name,
        algorithms=algorithms,
        records=tuple(records),
        mean_round_time=mean_time,
        total_time=total_time,
        mean_comm_time=mean_comm,
        cut_distribution=dist,
        convergence=convergence,
    )


def _cut_distribution(
    user_ids: np.ndarray, cuts: np.ndarray, n_layers: int
) -> CutLayerDistribution:
    """Cut frequencies from the (R, S) user ids and the 1-based cuts they chose.

    The counts are small integers, so every row sum and the pooled sums are
    exact, and the frequencies do not depend on the order rounds are added in.
    """
    ids, inverse = np.unique(user_ids, return_inverse=True)
    counts = np.zeros((ids.size, n_layers))
    np.add.at(counts, (inverse.ravel(), np.ravel(cuts) - 1), 1.0)
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
    """
    options = options or SimOptions()
    if scenarios is None:
        presets = preset_scenarios()
        scenarios = [presets[k] for k in ("BP", "PR", "RP", "BR")]
    cells = []
    for s_idx, spec in enumerate(scenarios):
        for scale in scales:
            rng = np.random.default_rng([seed, s_idx, scale])
            sized = replace(spec, population=scale, selected_per_round=scale)
            population_data = sample_population_data(sized, rng)
            batch = sample_rounds(sized, rng, population_data, repetitions,
                                  None, options.kb_bytes)
            plan = plan_rows(batch, arch, sized.server_tflops * TFLOPS,
                             options.optimizer)
            cells.append(ConvergenceCell(spec.name, scale,
                                         tuple(plan.iterations.tolist())))
    return cells
