"""Joint cut-layer and server-compute allocation.

The planner minimizes the straggler's round time over a discrete choice
(each user's cut layer) coupled with a continuous one (how to divide the
server's compute budget among users). The two are solved alternately:

1. Cut pass: with server compute fixed, each user's best cut is an
   independent exhaustive scan over its feasible layers, so one pass costs
   O(S*L) instead of the O(L^S) joint enumeration.
2. Resource pass: with cuts fixed, each user's time is ``a_i/C_i + b_i``
   with constants ``a_i`` (server FLOPs owed to user i) and ``b_i``
   (everything compute-allocation-independent). Minimizing the maximum
   subject to ``sum C_i <= C_total`` equalizes the finishers: the optimum
   satisfies ``C_i = a_i / (K - b_i)`` for a level ``K`` solving the budget
   equation ``sum a_i/(K - b_i) = C_total`` (water-filling). The demand on
   the left is convex and decreasing in K, so a safeguarded Newton method
   started below the root solves it to ``tol`` in a few steps.

Each pass is an exact minimization with the other block fixed, so the
objective is non-increasing across iterations; the loop stops when the
compute vector stalls. Everything is deterministic: ties in the cut scan
break toward the smaller index, and no randomness is used.

One planner serves every caller: :func:`plan_rows` runs R independent
rounds, an (R, S) user batch, through both passes at once and freezes each
round once it stalls; :func:`alternate` is the one-round case.

By default a user's objective is its full round time (model up/down plus
all local epochs plus aggregation). Setting ``epoch_objective`` restricts
both passes to a single epoch's time, which drops the cut-dependent model
transfer term from the cut decision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AllocationError, InfeasibleUserError
from .timing import feasibility_mask, round_terms
from .users import UserBatch, Users
from .workload import ModelArchitecture

_TINY = 1e-300  # denominator floor: guards 0/0 in relative-change tests

# Rows are planned in chunks whose (rows, S, L) cut-pass arrays hold at most
# this many elements (2 MB of float64 each), which bounds the working set.
MAX_CHUNK_ELEMENTS = 1 << 18

# Largest instance brute_force_joint enumerates: at most 6**3 cut tuples.
ORACLE_MAX_USERS = 3
ORACLE_MAX_LAYERS = 6


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 50
    stall_tolerance: float = 1e-6       # relative inf-norm change in C treated as stalled
    bisection_tolerance: float = 1e-9   # resource pass: relative accuracy of the level
    bisection_max_steps: int = 200      # resource pass: cap on demand evaluations
    epoch_objective: bool = False       # optimize one epoch instead of the full round
    t_agg: float = 0.0
    batch_size: int = 1                 # used by the memory feasibility check

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.bisection_max_steps < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.stall_tolerance <= 0 or self.bisection_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if not math.isfinite(self.t_agg):
            raise ValueError("t_agg must be finite")


@dataclass(frozen=True)
class Allocation:
    """A complete decision: per-user cut, per-user server compute, objective."""

    cuts: tuple[int, ...]
    server_compute: tuple[float, ...]
    objective: float


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float
    cuts: tuple[int, ...]
    server_compute: tuple[float, ...]


@dataclass(frozen=True)
class AlternateResult:
    allocation: Allocation
    trace: tuple[IterationRecord, ...]
    iterations: int
    converged: bool


# ---------------------------------------------------------------------------
# Per-user objective terms, all priced by ``timing.round_terms``

def _feasible(batch: UserBatch, arch: ModelArchitecture, batch_size: int) -> np.ndarray:
    """The (..., S, L) feasibility mask; a user with no feasible cut is an error."""
    mask = feasibility_mask(batch, arch, batch_size)
    if not mask.any(axis=-1).all():
        bad = batch.user_ids[~mask.any(axis=-1)].tolist()
        raise InfeasibleUserError(f"users without any feasible cut: {bad}")
    return mask


def _cut_pass(
    batch: UserBatch,
    arch: ModelArchitecture,
    server_compute: np.ndarray | float,
    cfg: OptimizerConfig,
    mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each user's fastest feasible 1-based cut and its objective time.

    One ``argmin`` over the cut axis of the (..., S, L) times; ties break
    toward the smaller index.
    """
    terms = round_terms(batch, arch, None, server_compute, cfg.t_agg)
    times = np.where(mask, terms.epoch if cfg.epoch_objective else terms.total, np.inf)
    choice = np.argmin(times, axis=-1)
    best = np.take_along_axis(times, choice[..., None], axis=-1)[..., 0]
    if not np.isfinite(best).all():
        bad = batch.user_ids[~np.isfinite(best)].tolist()
        raise AllocationError(
            f"users {bad}: every feasible cut prices to infinity "
            f"(dead link with unavoidable traffic?)"
        )
    return choice + 1, best


def server_demand_terms(
    users: Users,
    cuts: Sequence[int] | np.ndarray,
    arch: ModelArchitecture,
    cfg: OptimizerConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Constants (a, b) with per-user time a_i / C_i + b_i for fixed cuts.

    ``a`` is the objective's server time at unit compute and ``b`` the
    objective with the server time left out (infinite server compute).
    """
    cfg = cfg or OptimizerConfig()
    batch = UserBatch.of(users)
    free = round_terms(batch, arch, cuts, math.inf, cfg.t_agg)
    if cfg.epoch_objective:
        return free.server_work, free.epoch
    return batch.epochs * free.server_work, free.total


def _equalize(
    a: np.ndarray,
    b: np.ndarray,
    c_total: float,
    tol: float,
    max_steps: int,
    upper_hint: np.ndarray | float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The min-max resource pass on every row of (..., S) terms at once.

    Returns each row's compute vector, objective and number of demand
    evaluations. See :func:`equalize_min_max` for the method.
    """
    lead = a.shape[:-1]
    a = a.reshape(-1, a.shape[-1])
    b = b.reshape(a.shape)
    active = a > 0
    funded = active.any(axis=1)
    pole = np.where(funded, np.max(np.where(active, b, -np.inf), axis=1), 0.0)
    # offsets below the pole are exact data differences; idle users sit at
    # an infinite offset, so they demand nothing
    gap = np.where(active, pole[:, None] - b, np.inf)
    # solve for the level's offset d above the pole, K = pole + d, which
    # keeps full precision even when d is tiny next to the pole. Start at the
    # larger of two lower bounds on the root: each user's demand alone, and
    # Cauchy-Schwarz, sum a_i/(d + gap_i) >= A^2 / (A d + sum a_i gap_i)
    a_sum = a.sum(axis=1)
    mean_gap = (a * np.where(active, gap, 0.0)).sum(axis=1) / np.where(funded, a_sum, 1.0)
    d_lo = np.maximum(np.max(a / c_total - gap, axis=1), a_sum / c_total - mean_gap)
    d_hi = a_sum / c_total  # demand(d_hi) <= c_total by construction
    point = d_lo.copy()
    steps = np.zeros(len(a), dtype=int)
    live = np.flatnonzero(funded & (d_hi - d_lo > tol * d_hi))
    for _ in range(max_steps):
        if not live.size:
            break
        x = point[live]
        denom = x[:, None] + gap[live]
        share = a[live] / denom
        excess = share.sum(axis=1) - c_total      # > 0 on the infeasible side
        slope = (share / denom).sum(axis=1)       # minus the demand's derivative
        steps[live] += 1
        d_hi[live] = np.where(excess <= 0, np.minimum(d_hi[live], x), d_hi[live])
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            # the demand is convex, so its tangent's root, taken from either
            # side, is a lower bound on the root
            newton = x + excess / slope
        lo = np.fmax(d_lo[live], newton)
        hi = d_hi[live]
        d_lo[live] = lo
        # aim a hair past the root so the next point can close the bracket;
        # an aim below the bracket (a tangent from the feasible side, or a
        # slope lost to underflow) falls back to bisection
        aim = newton * (1.0 + 0.5 * tol)
        point[live] = np.where((lo < aim) & (aim < hi), aim, 0.5 * (lo + hi))
        live = live[hi - lo > tol * hi]

    compute = np.where(active, a / (d_hi[:, None] + gap), 0.0)
    level = np.where(funded, pole + d_hi, -np.inf)
    if upper_hint is not None:
        # an attainable level bounds the root, but its offset above the pole
        # carries the rounding of K - pole; it caps the level, not the compute
        hint = np.broadcast_to(np.asarray(upper_hint, dtype=float), lead).reshape(-1)
        level = np.where(hint > pole, np.minimum(level, hint), level)
    idle = np.max(np.where(active, -np.inf, b), axis=1)
    objective = np.maximum(level, idle)
    return (compute.reshape(lead + a.shape[-1:]), objective.reshape(lead),
            steps.reshape(lead))


def equalize_min_max(
    a: np.ndarray,
    b: np.ndarray,
    c_total: float,
    tol: float = 1e-9,
    max_steps: int = 200,
    upper_hint: np.ndarray | float | None = None,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Minimize max_i (a_i/C_i + b_i) subject to sum C_i <= C_total, C_i >= 0.

    Returns the compute vector and the achieved objective. Users with
    a_i = 0 need no compute; if any a_i > 0 the budget is fully spent and
    every funded user finishes at the common level ``K = pole + d`` above
    the pole ``max b_i`` of the funded users, where d solves the budget
    equation ``sum a_i/(d + gap_i) = C_total`` with ``gap_i = pole - b_i``
    (water-filling).

    That demand is convex and decreasing in d, so a safeguarded Newton
    method solves it in a few steps. It starts on the infeasible side, at
    the larger of two lower bounds on the root (``max_i a_i/C_total - gap_i``
    and its Cauchy-Schwarz bound), where no Newton step can pass the root.
    Each step then aims just beyond the tangent's root, and the solve stops
    once a feasible point lies within ``tol`` (relative to d) of an
    infeasible one, which bounds the budget shortfall by about ``tol``. The
    feasible end is returned; ``max_steps`` caps the demand evaluations.

    ``upper_hint`` may pass the objective of any known-feasible allocation;
    the reported level never exceeds it, so callers iterating on (a, b) keep
    a non-increasing objective regardless of the solver's resolution. The
    compute vector always comes from a feasible point.

    ``a`` and ``b`` may carry leading row axes, (..., S); every row is then
    solved at once and the objective (and ``upper_hint``) has one entry per
    row.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim < 1:
        raise ValueError("a and b must be arrays of equal shape (..., S)")
    if c_total <= 0:
        raise ValueError("compute budget must be strictly positive")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("demand terms must be >= 0")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("demand terms must be finite (dead link with traffic?)")
    compute, objective, _ = _equalize(a, b, c_total, tol, max_steps, upper_hint)
    return compute, (float(objective) if objective.ndim == 0 else objective)


class _Pass(NamedTuple):
    """One pass over the rows still live: their indices and outcomes."""

    iteration: int
    rows: np.ndarray          # (n,) ascending row indices
    objective: np.ndarray     # (n,)
    cuts: np.ndarray          # (n, S)
    server_compute: np.ndarray  # (n, S)


@dataclass(frozen=True, eq=False)
class RowPlan:
    """The plans of R independent rounds, one row each (see :func:`plan_rows`)."""

    cuts: np.ndarray              # (R, S) best allocation's 1-based cuts
    server_compute: np.ndarray    # (R, S) its server FLOPs/s per user
    objective: np.ndarray         # (R,)
    iterations: np.ndarray        # (R,) passes run
    converged: np.ndarray         # (R,) stalled before the iteration cap
    resource_steps: np.ndarray    # (R,) most demand evaluations in one resource pass
    passes: tuple[_Pass, ...]     # every pass, in order; traces are read from them

    def trace(self, row: int) -> tuple[IterationRecord, ...]:
        records = []
        for p in self.passes:
            k = np.searchsorted(p.rows, row)
            if k < len(p.rows) and p.rows[k] == row:
                records.append(IterationRecord(
                    p.iteration, float(p.objective[k]), tuple(p.cuts[k].tolist()),
                    tuple(p.server_compute[k].tolist()),
                ))
        return tuple(records)

    def allocation(self, row: int) -> Allocation:
        return Allocation(tuple(self.cuts[row].tolist()),
                          tuple(self.server_compute[row].tolist()),
                          float(self.objective[row]))

    def result(self, row: int) -> AlternateResult:
        return AlternateResult(
            allocation=self.allocation(row),
            trace=self.trace(row),
            iterations=int(self.iterations[row]),
            converged=bool(self.converged[row]),
        )


def _stalled(new: np.ndarray, prev: np.ndarray, tol: float) -> np.ndarray:
    """Rows whose compute vector changed by less than ``tol`` (relative, inf-norm)."""
    rel = np.abs(new - prev) / np.maximum(np.maximum(np.abs(new), np.abs(prev)), _TINY)
    # 0 -> 0 is no change even though the relative form is 0/0
    rel = np.where((new == 0) & (prev == 0), 0.0, rel)
    return rel.max(axis=-1, initial=0.0) < tol


def plan_rows(
    batch: UserBatch,
    arch: ModelArchitecture,
    c_total: float,
    cfg: OptimizerConfig | None = None,
) -> RowPlan:
    """Plan every round of an (R, S) batch at once, each by alternation.

    Each row alternates cut and resource passes from an equal compute split
    until its compute vector stalls or ``max_iters`` passes ran; a stalled
    row is frozen while the others go on. Each row keeps the best
    allocation it saw and its full iteration trace. Rows are planned in
    chunks of at most ``MAX_CHUNK_ELEMENTS`` (rows x S x L) elements, which
    bounds the working set. A row's plan does not depend on the rows
    planned beside it.
    """
    cfg = cfg or OptimizerConfig()
    if len(batch.shape) != 2:
        raise ValueError("plan_rows needs an (R, S) batch; see alternate for one round")
    n_rows, n_users = batch.shape
    if not n_users:
        raise ValueError("at least one user is required")
    if c_total <= 0:
        raise ValueError("compute budget must be strictly positive")
    mask = _feasible(batch, arch, cfg.batch_size)

    best_cuts = np.zeros(batch.shape, dtype=int)
    best_compute = np.zeros(batch.shape)
    best_objective = np.full(n_rows, np.inf)
    iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    resource_steps = np.zeros(n_rows, dtype=int)
    passes: list[_Pass] = []

    chunk = max(1, MAX_CHUNK_ELEMENTS // (n_users * arch.num_layers))
    for start in range(0, n_rows, chunk):
        live = np.arange(start, min(start + chunk, n_rows))
        compute = np.full((live.size, n_users), c_total / n_users)
        for it in range(1, cfg.max_iters + 1):
            rows = batch.rows(live)
            cuts, best_times = _cut_pass(rows, arch, compute, cfg, mask[live])
            a, b = server_demand_terms(rows, cuts, arch, cfg)
            # the incoming allocation achieves this much, so the level can't
            # need to exceed it; passing it keeps each trace non-increasing
            new, objective, steps = _equalize(
                a, b, c_total, cfg.bisection_tolerance, cfg.bisection_max_steps,
                upper_hint=best_times.max(axis=-1),
            )
            passes.append(_Pass(it, live, objective, cuts, new))
            better = (objective < best_objective[live]) | (it == 1)
            improved = live[better]
            best_objective[improved] = objective[better]
            best_cuts[improved] = cuts[better]
            best_compute[improved] = new[better]
            iterations[live] = it
            resource_steps[live] = np.maximum(resource_steps[live], steps)
            stalled = _stalled(new, compute, cfg.stall_tolerance)
            converged[live[stalled]] = True
            live, compute = live[~stalled], new[~stalled]
            if not live.size:
                break

    return RowPlan(best_cuts, best_compute, best_objective, iterations, converged,
                   resource_steps, tuple(passes))


def alternate(
    users: Users,
    arch: ModelArchitecture,
    c_total: float,
    cfg: OptimizerConfig | None = None,
) -> AlternateResult:
    """Alternate cut and resource passes from an equal compute split.

    Stops when the compute vector's relative change drops below the stall
    tolerance or after ``max_iters`` passes; returns the best allocation
    seen with the full iteration trace. ``converged`` is False when the
    iteration cap was hit first. This is :func:`plan_rows` on one round.
    """
    return plan_rows(UserBatch.of(users).rows(None), arch, c_total, cfg).result(0)


def brute_force_joint(
    users: Users,
    arch: ModelArchitecture,
    c_total: float,
    cfg: OptimizerConfig | None = None,
) -> Allocation:
    """Exact joint optimum by enumerating every cut tuple.

    Only for oracle-sized instances: the resource subproblem is convex and
    solved exactly per tuple, so exhaustiveness over cuts gives the global
    optimum. Instances beyond ``ORACLE_MAX_USERS`` users or
    ``ORACLE_MAX_LAYERS`` layers are refused.
    """
    cfg = cfg or OptimizerConfig()
    if len(users) > ORACLE_MAX_USERS or arch.num_layers > ORACLE_MAX_LAYERS:
        raise ValueError(
            f"instance too large for enumeration: "
            f"{len(users)} users x {arch.num_layers} layers "
            f"(limits {ORACLE_MAX_USERS} x {ORACLE_MAX_LAYERS})"
        )
    batch = UserBatch.of(users)
    mask = _feasible(batch, arch, cfg.batch_size)
    per_user = [(np.flatnonzero(row) + 1).tolist() for row in mask]
    best: Allocation | None = None
    for cuts in itertools.product(*per_user):
        a, b = server_demand_terms(batch, cuts, arch, cfg)
        compute, objective = equalize_min_max(
            a, b, c_total, cfg.bisection_tolerance, cfg.bisection_max_steps)
        if best is None or objective < best.objective:
            best = Allocation(tuple(cuts), tuple(compute), objective)
    assert best is not None
    return best
