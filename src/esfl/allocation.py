"""Joint cut-layer and server-compute allocation.

The planner minimizes the straggler's round time over a discrete choice
(each user's cut layer) coupled with a continuous one (how to divide the
server's compute budget among users). The two are solved alternately:

1. Cut pass: with server compute fixed, each user's best cut is an
   independent exhaustive scan over its feasible layers, so one pass costs
   O(S*L) instead of the O(L^S) joint enumeration. Users of one round
   equal in their latency attributes and deepest feasible cut (one kind)
   get the same compute in every pass, so the scan prices one user of each
   kind and gives its cut to the others; that grouping lives inside the
   cut pass, which takes and returns per-user arrays. Only the server
   time changes between passes, so everything else is priced once per plan.
2. Resource pass: with cuts fixed, each user's time is ``a_i/C_i + b_i``
   with constants ``a_i`` (server FLOPs owed to user i) and ``b_i``
   (everything compute-allocation-independent), read from the cut pass's
   priced terms at the user's kind and cut. Minimizing the maximum
   subject to ``sum C_i <= C_total`` equalizes the finishers: the optimum
   satisfies ``C_i = a_i / (K - b_i)`` for a level ``K`` solving the budget
   equation ``sum a_i/(K - b_i) = C_total`` (water-filling). The demand on
   the left is convex and decreasing in K, so a safeguarded Newton method
   started below the root solves it in a few steps.

Each pass is an exact minimization with the other block fixed, so the
objective is non-increasing across iterations; the loop stops when the
compute vector stalls. A cut pass that returns its row's last cuts has
reached the fixed point: the resource pass is row-independent, so it would
repeat its last solve bit for bit, and the row keeps that solve instead,
with no demand evaluated, and stalls. Everything is deterministic: ties in
the cut scan break toward the smaller index, and no randomness is used.

One planner serves every caller: :func:`plan_rows` runs R independent
rounds, an (R, S) user batch, through both passes at once and freezes each
round once it stalls; an (S,) batch is one round. Its :class:`RowPlan`
holds every result as arrays, one row per round, and every pass's outcome
as the trace.

The alternation may stop above the joint optimum, which
:func:`exact_level` finds by bisection on the level (minimax resource
allocation; Ibaraki & Katoh, 1988), O(S*L) per step, on the cut pass's
terms.

By default a user's objective is its full round time (model up/down plus
all local epochs plus aggregation). Setting ``epoch_objective`` restricts
both passes to a single epoch's time, which drops the cut-dependent model
transfer term from the cut decision; a cut whose model would cross a dead
link stays blocked, as every round moves the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (COUNT, POSITIVE, AllocationError, InfeasibleUserError, at_least,
                     check, id_list, magnitude)
from .timing import ServerFreeTerms, deepest_cut, round_terms
from .users import UserBatch
from .workload import ModelArchitecture

_TINY = 1e-300  # denominator floor: guards 0/0 in relative-change tests

# Rows are planned in chunks of at most this many (rows x S x L) elements, 2 MB
# of float64, which bounds the cut pass's (kinds, L) arrays and the working set.
MAX_CHUNK_ELEMENTS = 1 << 18

STALL_TOLERANCE = 1e-6       # relative inf-norm change in C treated as stalled
BISECTION_TOLERANCE = 1e-9   # resource pass: relative accuracy of the level
BISECTION_MAX_STEPS = 200    # resource pass: cap on demand evaluations
EXACT_TOLERANCE = 1e-13      # exact_level: relative accuracy of the level

# equalize_min_max takes a caller's terms in the range that the latency model
# gives the planner's own (README, "Input range"): a server work ``a`` that is
# 0 or within 1e-50..L·1e86 and a server-free time ``b`` of at most L·1e127,
# with room for L. Then at any budget in range ``a * gap`` stays below 1e250,
# ``a_sum / c_total`` below S·1e120 and a Newton slope below S·1e100.
DEMAND_A_RANGE = (1e-60, 1e100)
DEMAND_B_MAX = 1e150


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 50
    epoch_objective: bool = False       # optimize one epoch instead of the full round
    t_agg: float = 0.0                  # aggregation seconds per round

    def __post_init__(self) -> None:
        check("max_iters", self.max_iters, COUNT)
        check("t_agg", self.t_agg, magnitude("s"), at_least(0))


# ---------------------------------------------------------------------------
# Per-user objective terms, all priced by ``timing.round_terms``

# The attributes that price a user's latency; its limits reach the planner as
# its deepest feasible cut. Users of one row bitwise equal in all five and in
# that cut get the same cuts and compute in every pass: the first pass splits
# the budget equally, and the resource pass is elementwise in (a, b).
_PRICED = ("n_samples", "compute_flops", "up", "down", "epochs")
# odd multipliers of the hash that sorts equal users next to each other
_MIX = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
                 0xD6E8FEB86659FD93, 0x27D4EB2F165667C5, 0x85EBCA77C2B2AE63],
                dtype=np.uint64).view(np.int64)


class _Kinds(NamedTuple):
    """The users of (R, S) rows grouped into kinds: users of one row whose
    priced attributes (``_PRICED``) and deepest feasible cuts are equal."""

    row: np.ndarray         # (N,) each kind's row
    col: np.ndarray         # (N,) the column of one of its users
    of_user: np.ndarray     # (R, S) each user's kind

    def keep_rows(self, keep: np.ndarray) -> tuple[_Kinds, np.ndarray]:
        """The kinds of the rows that the mask ``keep`` selects, renumbered,
        and the mask of the kinds kept."""
        kept = keep[self.row]
        row = (np.cumsum(keep) - 1)[self.row[kept]]
        return _Kinds(row, self.col[kept], (np.cumsum(kept) - 1)[self.of_user[keep]]), kept


def _kinds(batch: UserBatch, deepest: np.ndarray) -> _Kinds:
    """The kinds of an (R, S) batch's users of deepest feasible cuts ``deepest``.

    Users are sorted by a hash of their row, attribute bits and deepest
    cut, and a kind is a run of sorted users equal in all of them; so
    ``0.0`` and ``-0.0`` stay apart. A hash collision can only split a kind
    in two, which costs time but no exactness.
    """
    n_rows, n_users = batch.shape
    columns = [np.repeat(np.arange(n_rows, dtype=np.int64), n_users)]
    columns += [np.asarray(getattr(batch, name), dtype=float).reshape(-1).view(np.int64)
                for name in _PRICED] + [deepest.reshape(-1).astype(np.int64)]
    key = columns[0].copy()
    for mix, column in zip(_MIX, columns[1:]):
        key *= mix                  # wraps around
        key += key >> 32
        key += column
    order = np.argsort(key)
    new = np.zeros(key.size, dtype=bool)
    new[:1] = True
    for column in columns:
        ordered = column[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    of_user = np.empty(key.size, dtype=np.intp)
    of_user[order] = np.cumsum(new) - 1
    row, col = np.divmod(order[new], n_users)
    return _Kinds(row, col, of_user.reshape(batch.shape))


class _CutPass(NamedTuple):
    """Cut passes over (R, S) rows of users that price one user of each
    kind. The server-independent terms of the kinds are priced once; each
    pass adds only the server time, in one reused buffer, and gives each
    kind's cut and time to all of its users."""

    user_ids: np.ndarray        # (R, S)
    kinds: _Kinds
    terms: ServerFreeTerms      # (N, L), one row per kind
    buffer: np.ndarray          # (N, L); later passes use its leading rows

    @classmethod
    def of(cls, batch: UserBatch, kinds: _Kinds, deepest: np.ndarray,
           arch: ModelArchitecture, cfg: OptimizerConfig, rows: slice = slice(None)
           ) -> _CutPass:
        """The passes over the rows ``rows`` of a checked (R, S) batch whose
        kinds are ``kinds`` and users' deepest feasible cuts ``deepest``. A
        kind gathers only its ``_PRICED`` columns: no id, and no limits."""
        keep = np.zeros(batch.shape[0], dtype=bool)
        keep[rows] = True
        kinds, _ = kinds.keep_rows(keep)
        users, at, n = batch.rows(rows), (kinds.row, kinds.col), len(kinds.row)
        unread = np.broadcast_to(np.inf, n)     # the deepest cut holds the limits
        priced = UserBatch(unread, *(getattr(users, f)[at] for f in _PRICED), unread, unread)
        terms = round_terms(priced, arch, None, math.inf, cfg.t_agg)
        return cls(users.user_ids, kinds,
                   terms.server_free(cfg.epoch_objective, deepest[rows][at]),
                   np.empty((n, arch.num_layers)))

    def demand(self, cuts: np.ndarray, rows: np.ndarray | slice = slice(None)
               ) -> tuple[np.ndarray, np.ndarray]:
        """The resource pass's terms (a, b) of the rows ``rows`` at their
        1-based (R, S) ``cuts``: each user's kind's terms at its cut."""
        return self.terms.demand(self.kinds.of_user[rows], cuts[rows] - 1)

    def keep_rows(self, keep: np.ndarray) -> _CutPass:
        """The passes over the rows the mask ``keep`` selects. They reuse
        these passes' arrays in place (see :meth:`ServerFreeTerms.keep_rows`),
        so only the result may be used afterwards."""
        kinds, kept = self.kinds.keep_rows(keep)
        return _CutPass(self.user_ids[keep], kinds, self.terms.keep_rows(kept), self.buffer)

    def __call__(self, server_compute: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each user's fastest feasible 1-based cut and its objective time at
        the (R, S) ``server_compute``, both (R, S).

        One ``argmin`` over the cut axis of the kinds' (N, L) times; ties
        break toward the smaller index. An error names every user of each
        kind it is about, in row order.
        """
        of_user = self.kinds.of_user
        compute = server_compute[self.kinds.row, self.kinds.col]
        times = self.terms.price(compute, out=self.buffer[:len(compute)])
        choice = np.argmin(times, axis=-1)
        best = np.take_along_axis(times, choice[..., None], axis=-1)[..., 0]
        dead = ~np.isfinite(best)
        if dead.any():
            raise AllocationError(
                f"users {id_list(self.user_ids[dead[of_user]])}: every feasible cut "
                f"prices to infinity (dead link with unavoidable traffic?)"
            )
        return (choice + 1)[of_user], best[of_user]


def server_demand_terms(
    batch: UserBatch,
    cuts: Sequence[int] | np.ndarray | None,
    arch: ModelArchitecture,
    cfg: OptimizerConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Constants (a, b) with per-user time a_i / C_i + b_i for fixed cuts;
    ``cuts=None`` gives (..., S, L) terms, as :func:`round_terms` does.

    ``a`` is the objective's server time at unit compute and ``b`` the
    objective with the server time left out (infinite server compute).
    The planner reads them from its cut pass (:meth:`ServerFreeTerms.demand`);
    this prices them apart, the planner's independent reference.
    """
    cfg = cfg or OptimizerConfig()
    free = round_terms(batch, arch, cuts, math.inf, cfg.t_agg)
    if cfg.epoch_objective:
        return free.server_work, free.epoch
    return free.epochs * free.server_work, free.total


def _equalize(a: np.ndarray, b: np.ndarray, c_total: float
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The min-max resource pass on every row of (..., S) terms at once.

    Returns each row's compute vector, number of demand evaluations and
    levels: the (3, ...) stack of the funded users' common level (-inf if
    none), their pole (0 if none) and the largest ``b`` of an idle user
    (-inf if none), from which :func:`_objective` takes the objective. See
    :func:`equalize_min_max` for the method.
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
    d_hi = a_sum / c_total  # demand(d_hi) <= c_total by construction
    d_lo = np.maximum(np.max(a / c_total - gap, axis=1), d_hi - mean_gap)
    point = d_lo.copy()
    steps = np.zeros(len(a), dtype=int)
    tol = BISECTION_TOLERANCE
    live = np.flatnonzero(funded & (d_hi - d_lo > tol * d_hi))
    for _ in range(BISECTION_MAX_STEPS):
        if not live.size:
            break
        x = point[live]
        denom = x[:, None] + gap[live]
        share = a[live] / denom
        excess = share.sum(axis=1) - c_total      # > 0 on the infeasible side
        slope = (share / denom).sum(axis=1)       # minus the demand's derivative
        # the demand is convex, so its tangent's root, taken from either
        # side, is a lower bound on the root
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x + excess / slope
        # aim a hair past the root so the next point can close the bracket;
        # an aim below the bracket (a tangent from the feasible side, or a
        # slope lost to underflow) falls back to bisection
        aim = newton * (1.0 + 0.5 * tol)
        steps[live] += 1
        d_hi[live] = np.where(excess <= 0, np.minimum(d_hi[live], x), d_hi[live])
        lo = np.fmax(d_lo[live], newton)
        hi = d_hi[live]
        d_lo[live] = lo
        point[live] = np.where((lo < aim) & (aim < hi), aim, 0.5 * (lo + hi))
        live = live[hi - lo > tol * hi]

    compute = np.where(active, a / (d_hi[:, None] + gap), 0.0)
    level = np.where(funded, pole + d_hi, -np.inf)
    idle = np.max(np.where(active, -np.inf, b), axis=1)
    return (compute.reshape(lead + a.shape[-1:]), steps.reshape(lead),
            np.stack([level, pole, idle]).reshape((3,) + lead))


def _objective(levels: np.ndarray, upper_hint: np.ndarray | float | None = None
               ) -> np.ndarray:
    """The objective of a resource pass with the (3, ...) ``levels`` of
    :func:`_equalize`: the larger of its level, capped by ``upper_hint``, and
    its idle users' time.

    An attainable level bounds the root, but its offset above the pole
    carries the rounding of K - pole; so the hint caps the level, not the
    compute, and only where it lies above the pole.
    """
    level, pole, idle = levels
    if upper_hint is not None:
        hint = np.broadcast_to(np.asarray(upper_hint, dtype=float), np.shape(level))
        level = np.where(hint > pole, np.minimum(level, hint), level)
    return np.maximum(level, idle)


def equalize_min_max(
    a: np.ndarray,
    b: np.ndarray,
    c_total: float,
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
    once a feasible point lies within ``BISECTION_TOLERANCE`` (relative to
    d) of an infeasible one, which bounds the budget shortfall by about that
    much. The feasible end is returned; ``BISECTION_MAX_STEPS`` caps the
    demand evaluations. ``c_total`` is bounded as :func:`plan_rows` bounds it,
    and ``a`` and ``b`` as the latency model bounds the planner's own terms
    (``DEMAND_A_RANGE``, ``DEMAND_B_MAX``), so that no step overflows; a term
    outside raises ``ValueError``.

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
    check("c_total", c_total, magnitude("FLOP/s"), POSITIVE)
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("demand terms must be >= 0")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("demand terms must be finite (dead link with traffic?)")
    low, high = DEMAND_A_RANGE
    bad = a[(a != 0) & ((a < low) | (a > high))]
    if bad.size:
        raise ValueError(f"demand terms a must be 0 or within {low:g}..{high:g}, "
                         f"not {float(bad[0])!r}")
    bad = b[b > DEMAND_B_MAX]
    if bad.size:
        raise ValueError(f"demand terms b must be at most {DEMAND_B_MAX:g}, "
                         f"not {float(bad[0])!r}")
    compute, _, levels = _equalize(a, b, c_total)
    objective = _objective(levels, upper_hint)
    return compute, (float(objective) if objective.ndim == 0 else objective)


class _Pass(NamedTuple):
    """One pass over the rows still live: their indices and outcomes."""

    iteration: int
    rows: np.ndarray          # (n,) ascending row indices
    objective: np.ndarray     # (n,)
    cuts: np.ndarray          # (n, S)
    server_compute: np.ndarray  # (n, S)
    steps: np.ndarray         # (n,) demand evaluations of the resource pass;
                              # 0 where it reused its row's last solve


@dataclass(frozen=True, eq=False)
class RowPlan:
    """The plans of R independent rounds, one row each (see :func:`plan_rows`)."""

    cuts: np.ndarray              # (R, S) best allocation's 1-based cuts
    server_compute: np.ndarray    # (R, S) its server FLOPs/s per user
    objective: np.ndarray         # (R,)
    iterations: np.ndarray        # (R,) passes run
    converged: np.ndarray         # (R,) stalled before the iteration cap
    passes: tuple[_Pass, ...]     # every pass, in order: the trace


def _stalled(new: np.ndarray, prev: np.ndarray, tol: float) -> np.ndarray:
    """Rows whose compute vector changed by less than ``tol`` (relative, inf-norm)."""
    rel = np.abs(new - prev) / np.maximum(np.maximum(np.abs(new), np.abs(prev)), _TINY)
    # 0 -> 0 is no change even though the relative form is 0/0
    rel = np.where((new == 0) & (prev == 0), 0.0, rel)
    return rel.max(axis=-1, initial=0.0) < tol


def _checked_rows(batch: UserBatch, arch: ModelArchitecture, c_total: float
                  ) -> tuple[UserBatch, _Kinds, np.ndarray]:
    """``batch`` as (R, S) rows, checked, with its kinds and its users'
    (R, S) deepest feasible cuts; a user with no feasible cut is an error."""
    if len(batch.shape) == 1:
        batch = batch.rows(None)
    if len(batch.shape) != 2:
        raise ValueError("planning needs an (R, S) or an (S,) batch")
    if not batch.shape[1]:
        raise ValueError("at least one user is required")
    check("c_total", c_total, magnitude("FLOP/s"), POSITIVE)
    idle = batch.epochs < 1
    if idle.any():
        raise ValueError(f"users {id_list(np.unique(batch.user_ids[idle]))}: "
                         f"planning needs epochs >= 1")
    deepest = deepest_cut(batch, arch)
    stuck = deepest == 0
    if stuck.any():
        raise InfeasibleUserError(
            f"users without any feasible cut: {id_list(batch.user_ids[stuck])}")
    return batch, _kinds(batch, deepest), deepest


def plan_rows(
    batch: UserBatch,
    arch: ModelArchitecture,
    c_total: float,
    cfg: OptimizerConfig | None = None,
) -> RowPlan:
    """Plan every round of an (R, S) batch at once, each by alternation; an
    (S,) batch is planned as one round, row 0 of the plan.

    Each row alternates cut and resource passes from an equal compute split
    until its compute vector stalls or ``max_iters`` passes ran (``converged``
    is False when the cap came first); a stalled row is frozen while the
    others go on. A row whose cut pass repeats the cuts of its last pass
    keeps that pass's compute and levels, with the level re-capped by the
    new pass's hint and 0 demand evaluations: solving again would give the
    same bits. Each row keeps the best allocation it saw, and
    ``passes`` every pass's outcome. Rows are planned in
    chunks of at most ``MAX_CHUNK_ELEMENTS`` (rows x S x L) elements, which
    bounds the working set. A row's plan does not depend on the rows
    planned beside it.

    The cut pass takes and returns per-user arrays, but prices one user of
    each kind of a chunk: users of one row equal bit for bit in the five
    attributes that price their latency (``_PRICED``) and in their deepest
    feasible cut. It gathers the compute at those users, gives each kind's
    cut and time to every user of the kind, and drops a frozen row's kinds
    with the row. That is exact: such users get the same compute in every
    pass, since the first splits the budget equally and the resource pass
    is elementwise in each user's (a, b), which it reads from its kind's
    terms at its cut; a chunk's kinds are priced once. The resource pass
    and the stall test run per user, so every sum keeps its order; a batch
    without repeated users is one kind per user.

    Users with fewer than one epoch cannot be planned and raise
    ``ValueError``. A budget ``c_total`` that is not positive, of a magnitude
    in 1e-20..1e20 FLOP/s (``esfl.errors.MAGNITUDE_MIN``), raises a
    ``ConfigError`` naming ``c_total``. Inside that range no price
    overflows, so a cut pass fails only on a dead link; its error names
    every user of each kind it is about, in row order.
    """
    cfg = cfg or OptimizerConfig()
    batch, kinds, deepest = _checked_rows(batch, arch, c_total)
    n_rows, n_users = batch.shape

    best_cuts = np.zeros(batch.shape, dtype=int)
    best_compute = np.zeros(batch.shape)
    best_objective = np.full(n_rows, np.inf)
    iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    passes: list[_Pass] = []

    chunk = max(1, MAX_CHUNK_ELEMENTS // (n_users * arch.num_layers))
    for start in range(0, n_rows, chunk):
        rows = slice(start, min(start + chunk, n_rows))
        live = np.arange(rows.start, rows.stop)
        cut_pass = _CutPass.of(batch, kinds, deepest, arch, cfg, rows)
        compute = np.full((live.size, n_users), c_total / n_users)
        # the cuts and levels of each live row's last solve (no cut is 0)
        last_cuts = np.zeros(compute.shape, dtype=int)
        levels = np.empty((3, live.size))
        for it in range(1, cfg.max_iters + 1):
            cuts, best_times = cut_pass(compute)
            # a row whose cuts repeat its last solve's would repeat that solve
            # bit for bit, as the resource pass is row-independent: it keeps
            # its compute and levels, with no demand evaluated
            fresh = (cuts != last_cuts).any(axis=-1)
            new, steps = compute, np.zeros(live.size, dtype=int)
            if fresh.all():
                new, steps, levels = _equalize(*cut_pass.demand(cuts), c_total)
            elif fresh.any():
                new = compute.copy()
                new[fresh], steps[fresh], levels[:, fresh] = _equalize(
                    *cut_pass.demand(cuts, fresh), c_total)
            # the incoming allocation achieves this much, so the level can't
            # need to exceed it; capping by it keeps each trace non-increasing
            objective = _objective(levels, best_times.max(axis=-1))
            passes.append(_Pass(it, live, objective, cuts, new, steps))
            better = (objective < best_objective[live]) | (it == 1)
            improved = live[better]
            best_objective[improved] = objective[better]
            best_cuts[improved] = cuts[better]
            best_compute[improved] = new[better]
            iterations[live] = it
            going = ~_stalled(new, compute, STALL_TOLERANCE)
            converged[live[~going]] = True
            live, compute = live[going], new[going]
            last_cuts, levels = cuts[going], levels[:, going]
            if not live.size:
                break
            if not going.all():
                cut_pass = cut_pass.keep_rows(going)

    return RowPlan(best_cuts, best_compute, best_objective, iterations, converged,
                   tuple(passes))


def exact_level(
    batch: UserBatch,
    arch: ModelArchitecture,
    c_total: float,
    cfg: OptimizerConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's joint optimum, (R,), and its (R, S) 1-based cuts of least
    server demand (ties to the smaller cut), for an (R, S) or (S,) batch
    checked as :func:`plan_rows` checks it.

    User i finishes by the level K on ``D_i(K) = min_c a_ic/(K - b_ic)``
    server compute (0 where ``a_ic = 0``), so K is attainable exactly when
    ``sum_i D_i(K) <= c_total``. Each row bisects K, to ``EXACT_TOLERANCE``
    relative, up from its slowest user's fastest server-free time and down
    from the level of an equal split.

    Users are priced once per kind, as :func:`plan_rows` prices them: the
    equal split's times and the (N, L) terms (a, b) come from the planner's
    cut pass, each step's reach is (N, L) over the N kinds, and each user's
    reach is gathered before the row's sum, in user order.
    """
    cfg = cfg or OptimizerConfig()
    batch, kinds, deepest = _checked_rows(batch, arch, c_total)
    # the planner's first cut pass: each user at its fastest cut of an equal split
    split = np.full(batch.shape, c_total / batch.shape[1])
    cut_pass = _CutPass.of(batch, kinds, deepest, arch, cfg)
    _, split_times = cut_pass(split)
    a, b = cut_pass.terms.demand()      # (N, L), one row per kind; b is +inf where blocked
    per_work = np.divide(1.0, a, out=np.full_like(a, np.inf), where=a > 0)
    lo, hi = b.min(axis=-1)[kinds.of_user].max(axis=-1), split_times.max(axis=-1)
    for _ in range(BISECTION_MAX_STEPS):
        live = hi - lo > EXACT_TOLERANCE * hi
        if not live.any():
            break
        mid = 0.5 * (lo + hi)
        # each user's best reach, (R, S); NaN needs nothing
        best = _reach(mid[kinds.row], b, per_work).max(axis=-1)[kinds.of_user]
        with np.errstate(divide="ignore", over="ignore"):
            fits = np.nansum(1.0 / np.maximum(best, 0.0), axis=-1) <= c_total
        hi = np.where(live & fits, mid, hi)
        lo = np.where(live & ~fits, mid, lo)
    reach = _reach(hi[kinds.row], b, per_work)
    reach[np.isnan(reach)] = np.inf
    # each user has a cut with b <= hi, since hi >= lo: its reach is >= 0
    return hi, (reach.argmax(axis=-1) + 1)[kinds.of_user]


def _reach(level: np.ndarray, b: np.ndarray, per_work: np.ndarray) -> np.ndarray:
    """``(level - b)/a`` at each cut of (N, L) terms: the inverse of the least
    server compute that finishes it by the (N,) ``level``; <= 0 too late, NaN
    at ``b = level`` if a = 0."""
    with np.errstate(invalid="ignore", over="ignore"):
        return (level[:, None] - b) * per_work
