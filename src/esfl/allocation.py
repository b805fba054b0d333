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
   satisfies ``C_i = a_i / (K - b_i)`` for a level ``K`` found by monotone
   bisection on the budget equation ``sum a_i/(K - b_i) = C_total``.

Each pass is an exact minimization with the other block fixed, so the
objective is non-increasing across iterations; the loop stops when the
compute vector stalls. Everything is deterministic: ties in the cut scan
break toward the smaller index, and no randomness is used.

By default a user's objective is its full round time (model up/down plus
all local epochs plus aggregation). Setting ``epoch_objective`` restricts
both passes to a single epoch's time, which drops the cut-dependent model
transfer term from the cut decision.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllocationError, InfeasibleUserError
from .timing import feasibility_mask, round_terms
from .users import UserBatch, UserProfile, Users
from .workload import ModelArchitecture

_TINY = 1e-300  # denominator floor: guards 0/0 in relative-change tests


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 50
    stall_tolerance: float = 1e-6       # relative inf-norm change in C treated as stalled
    bisection_tolerance: float = 1e-9   # relative accuracy of the level K
    bisection_max_steps: int = 200
    epoch_objective: bool = False       # optimize one epoch instead of the full round
    t_agg: float = 0.0
    batch_size: int = 1                 # used by the memory feasibility check

    def __post_init__(self) -> None:
        if self.max_iters < 1 or self.bisection_max_steps < 1:
            raise ValueError("iteration limits must be >= 1")
        if self.stall_tolerance <= 0 or self.bisection_tolerance <= 0:
            raise ValueError("tolerances must be positive")


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
    """The (S, L) feasibility mask; a user with no feasible cut is an error."""
    mask = feasibility_mask(batch, arch, batch_size)
    if not mask.any(axis=1).all():
        bad = batch.user_ids[~mask.any(axis=1)].tolist()
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

    Ties break toward the smaller index.
    """
    terms = round_terms(batch, arch, None, server_compute, cfg.t_agg)
    times = np.where(mask, terms.epoch if cfg.epoch_objective else terms.total, np.inf)
    choice = np.argmin(times, axis=1)
    best = times[np.arange(len(batch)), choice]
    if not np.isfinite(best).all():
        bad = batch.user_ids[~np.isfinite(best)].tolist()
        raise AllocationError(
            f"users {bad}: every feasible cut prices to infinity "
            f"(dead link with unavoidable traffic?)"
        )
    return choice + 1, best


def feasible_cuts(
    user: UserProfile,
    arch: ModelArchitecture,
    batch: int = 1,
) -> list[int]:
    """All cut indices the user can hold, 1-based; empty set is an error."""
    mask = _feasible(UserBatch.of([user]), arch, batch)[0]
    return (np.flatnonzero(mask) + 1).tolist()


def best_cut(
    user: UserProfile,
    arch: ModelArchitecture,
    server_flops: float,
    cfg: OptimizerConfig | None = None,
) -> int:
    """Exhaustive scan for the user's fastest feasible cut given its server share.

    Ties break toward the smaller index. A zero server share restricts the
    scan to cuts with no server-side work.
    """
    cfg = cfg or OptimizerConfig()
    batch = UserBatch.of([user])
    mask = _feasible(batch, arch, cfg.batch_size)
    cuts, _ = _cut_pass(batch, arch, server_flops, cfg, mask)
    return int(cuts[0])


def server_demand_terms(
    users: Users,
    cuts: Sequence[int],
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


def equalize_min_max(
    a: np.ndarray,
    b: np.ndarray,
    c_total: float,
    tol: float = 1e-9,
    max_steps: int = 200,
    upper_hint: float | None = None,
) -> tuple[np.ndarray, float]:
    """Minimize max_i (a_i/C_i + b_i) subject to sum C_i <= C_total, C_i >= 0.

    Returns the compute vector and the achieved objective. Users with
    a_i = 0 need no compute; if any a_i > 0 the budget is fully spent and
    every funded user finishes at the common level. The bisection bracket
    always exists: demand sum a_i/(K - b_i) runs from +inf (K just above
    the pole max b_i) down to 0. The bracket width is driven below ``tol``
    relative to the level's offset above the pole, which bounds the budget
    shortfall by about ``tol`` in every regime.

    ``upper_hint`` may pass the objective of any known-feasible allocation;
    the level never exceeds it, so callers iterating on (a, b) keep a
    non-increasing objective regardless of bisection resolution.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be 1-d arrays of equal length")
    if c_total <= 0:
        raise ValueError("compute budget must be strictly positive")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("demand terms must be >= 0")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("demand terms must be finite (dead link with traffic?)")

    active = a > 0
    if not active.any():
        return np.zeros_like(a), float(b.max(initial=0.0))

    aa = a[active]
    ba = b[active]
    pole = float(ba.max())
    gap = pole - ba  # >= 0, exact data differences (no cancellation)
    # bisect the level's offset d above the pole, K = pole + d; working in
    # d keeps full precision even when d is tiny relative to the pole
    d_lo = 0.0
    d_hi = float(aa.sum()) / c_total  # demand(d_hi) <= c_total by construction
    if upper_hint is not None and 0.0 < upper_hint - pole < d_hi:
        d_hi = upper_hint - pole
    for _ in range(max_steps):
        mid = 0.5 * (d_lo + d_hi)
        if not d_lo < mid < d_hi:
            break  # bracket exhausted at float resolution
        if float(np.sum(aa / (mid + gap))) > c_total:
            d_lo = mid
        else:
            d_hi = mid
        if d_hi - d_lo <= tol * d_hi:
            break

    # feasible end of the bracket: demand(d_hi) <= c_total
    compute = np.zeros_like(a)
    compute[active] = aa / (d_hi + gap)
    level = pole + d_hi
    objective = max(level, float(b[~active].max(initial=-math.inf)))
    return compute, float(objective)


def allocate_server_compute(
    users: Users,
    cuts: Sequence[int],
    c_total: float,
    arch: ModelArchitecture,
    cfg: OptimizerConfig | None = None,
    upper_hint: float | None = None,
) -> tuple[np.ndarray, float]:
    """Optimal server-compute division for fixed cuts; returns (C, objective)."""
    cfg = cfg or OptimizerConfig()
    a, b = server_demand_terms(users, cuts, arch, cfg)
    return equalize_min_max(
        a, b, c_total, cfg.bisection_tolerance, cfg.bisection_max_steps, upper_hint
    )


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
    iteration cap was hit first.
    """
    cfg = cfg or OptimizerConfig()
    batch = UserBatch.of(users)
    if not len(batch):
        raise ValueError("at least one user is required")
    if c_total <= 0:
        raise ValueError("compute budget must be strictly positive")
    mask = _feasible(batch, arch, cfg.batch_size)

    compute = np.full(len(batch), c_total / len(batch))
    prev = compute.copy()
    trace: list[IterationRecord] = []
    best: Allocation | None = None
    converged = False

    for it in range(1, cfg.max_iters + 1):
        choice, best_times = _cut_pass(batch, arch, compute, cfg, mask)
        cuts = tuple(choice.tolist())
        # the incoming allocation achieves this much, so the level can't
        # need to exceed it; passing it keeps the trace non-increasing
        reachable = float(best_times.max())
        compute, objective = allocate_server_compute(
            batch, cuts, c_total, arch, cfg, upper_hint=reachable
        )
        trace.append(IterationRecord(it, objective, cuts, tuple(compute)))
        if best is None or objective < best.objective:
            best = Allocation(cuts, tuple(compute), objective)
        rel = np.abs(compute - prev) / np.maximum(
            np.maximum(np.abs(compute), np.abs(prev)), _TINY
        )
        # 0 -> 0 is no change even though the relative form is 0/0
        rel = np.where((compute == 0) & (prev == 0), 0.0, rel)
        prev = compute.copy()
        if float(rel.max(initial=0.0)) < cfg.stall_tolerance:
            converged = True
            break

    assert best is not None
    return AlternateResult(
        allocation=best,
        trace=tuple(trace),
        iterations=len(trace),
        converged=converged,
    )


def brute_force_joint(
    users: Sequence[UserProfile],
    arch: ModelArchitecture,
    c_total: float,
    cfg: OptimizerConfig | None = None,
    *,
    max_users: int = 3,
    max_layers: int = 6,
) -> Allocation:
    """Exact joint optimum by enumerating every cut tuple.

    Only for oracle-sized instances: the resource subproblem is convex and
    solved exactly per tuple, so exhaustiveness over cuts gives the global
    optimum. Larger instances are refused.
    """
    cfg = cfg or OptimizerConfig()
    if len(users) > max_users or arch.num_layers > max_layers:
        raise ValueError(
            f"instance too large for enumeration: "
            f"{len(users)} users x {arch.num_layers} layers "
            f"(limits {max_users} x {max_layers})"
        )
    per_user = [feasible_cuts(u, arch, cfg.batch_size) for u in users]
    batch = UserBatch.of(users)
    best: Allocation | None = None
    for cuts in itertools.product(*per_user):
        compute, objective = allocate_server_compute(batch, cuts, c_total, arch, cfg)
        if best is None or objective < best.objective:
            best = Allocation(tuple(cuts), tuple(compute), objective)
    assert best is not None
    return best
