"""Per-user round latency for split training and its baselines.

One split-training epoch for a user is strictly sequential: device forward
compute ``t_c``, activation upload ``t_b``, server compute ``t_C`` (forward
remainder plus the full backward pass share), activation-gradient download
``t_B``. A round wraps the epochs with device-model upload/download and a
fixed aggregation term::

    total = t_up + t_down + epochs * (t_c + t_b + t_C + t_B) + t_agg

:func:`round_terms` is the one implementation of that formula; the
planner's passes, the reports and the four round policies below (ESFL,
FL, SFL, SL) derive from it. Each policy returns ``(round time,
communication time)``, the latter for the user that set the round time.

Every function here also takes an (R, S) batch of R independent rounds
and then returns one value per round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import AllocationError, InfeasibleLinkError, InfeasibleUserError
from .users import UserBatch, Users
from .workload import ModelArchitecture

if TYPE_CHECKING:  # pragma: no cover
    from .allocation import Allocation, RowPlan


def _guarded_div(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator with 0/x = 0 even for x = 0; +inf otherwise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = numerator / denominator
    return np.where(numerator == 0.0, 0.0, out)


@dataclass(frozen=True)
class RoundTerms:
    """Per-user latency terms in seconds, shape (..., S) or (..., S, L).

    Holds the inputs broadcast against each other and computes a term only
    when it is read, so the (S, L) cut pass never holds every term matrix at
    once. The four epoch terms are per epoch. Moving bytes over a zero-rate
    link, or server work without server compute, costs +inf.
    """

    n_samples: np.ndarray
    compute_flops: np.ndarray
    up: np.ndarray
    down: np.ndarray
    epochs: np.ndarray
    user_flops: np.ndarray      # per sample, at the cut
    server_flops: np.ndarray    # per sample, at the cut
    act_bytes: np.ndarray       # per sample and direction, at the cut
    model_bytes: np.ndarray     # device-side model at the cut
    server_compute: np.ndarray
    t_agg: float

    @property
    def t_up(self) -> np.ndarray:
        return _guarded_div(self.model_bytes, self.up)

    @property
    def t_down(self) -> np.ndarray:
        return _guarded_div(self.model_bytes, self.down)

    @property
    def t_c(self) -> np.ndarray:
        return self.user_flops * self.n_samples / self.compute_flops

    @property
    def t_b(self) -> np.ndarray:
        return _guarded_div(self.act_bytes * self.n_samples, self.up)

    @property
    def server_work(self) -> np.ndarray:
        """Server FLOPs per epoch: ``t_C`` at unit server compute."""
        return self.server_flops * self.n_samples

    @property
    def t_C(self) -> np.ndarray:
        return _guarded_div(self.server_work, self.server_compute)

    @property
    def t_B(self) -> np.ndarray:
        return _guarded_div(self.act_bytes * self.n_samples, self.down)

    @property
    def epoch(self) -> np.ndarray:
        return self.t_c + self.t_b + self.t_C + self.t_B

    @property
    def total(self) -> np.ndarray:
        return self.t_up + self.t_down + self.epochs * self.epoch + self.t_agg

    @property
    def fixed(self) -> np.ndarray:
        """The total without server time: ``total`` at infinite server compute."""
        return (self.t_up + self.t_down
                + self.epochs * (self.t_c + self.t_b + self.t_B) + self.t_agg)

    @property
    def communication(self) -> np.ndarray:
        """Model movement plus activation traffic across all epochs."""
        return self.t_up + self.t_down + self.epochs * (self.t_b + self.t_B)


def round_terms(
    batch: UserBatch,
    arch: ModelArchitecture,
    cuts: Sequence[int] | np.ndarray | None,
    server_compute: np.ndarray | float,
    t_agg: float = 0.0,
) -> RoundTerms:
    """Every user's latency terms at one cut each, or at every cut.

    ``cuts`` holds one 1-based cut per user, or one cut for all users, and
    gives terms shaped like the batch, (S,) or (R, S); ``None`` gives
    (..., S, L) terms whose last-axis index ``l - 1`` prices cut ``l``.
    ``server_compute`` is each user's server FLOPs/s, shaped like the
    batch, or a scalar.

    Explicit cuts must be runnable: a model beyond the user's storage,
    traffic over a zero-rate link, or server work without server compute
    raises. ``cuts=None`` raises nothing and leaves storage/memory limits to
    :func:`feasibility_mask`.
    """
    user_flops = arch.user_flops_by_cut
    act = arch.act_bytes_by_cut
    model = arch.model_bytes_by_cut
    server_compute = np.asarray(server_compute, dtype=float)
    user = (batch.n_samples, batch.compute_flops, batch.up, batch.down, batch.epochs)
    if cuts is None:
        user = tuple(x[..., None] for x in user)
        if server_compute.ndim:
            server_compute = server_compute[..., None]
    else:
        idx = np.asarray(cuts, dtype=int) - 1
        if (idx.shape not in ((), batch.shape)
                or idx.min() < 0 or idx.max() >= arch.num_layers):
            raise ValueError(f"need one cut in 1..{arch.num_layers}, or one per user")
        user_flops, act, model = user_flops[idx], act[idx], model[idx]
    terms = RoundTerms(*user, user_flops, arch.total_compute_per_sample - user_flops,
                       act, model, server_compute, t_agg)
    if cuts is not None:
        moves_bytes = (model > 0) | (act * batch.n_samples > 0)
        for bad, error, what in (
            (model > batch.storage_bytes, InfeasibleUserError, "cut model exceeds storage"),
            (((batch.up == 0) | (batch.down == 0)) & moves_bytes,
             InfeasibleLinkError, "traffic scheduled over a zero-rate link"),
            ((terms.server_work > 0) & (server_compute <= 0), AllocationError,
             "server work left without server compute"),
        ):
            if bad.any():
                bad = np.broadcast_to(bad, batch.shape)
                raise error(f"users {batch.user_ids[bad].tolist()}: {what}")
    return terms


# Users whose totals lie this close (relative) to the round time share it.
# It is the planner's default level tolerance: the min-max resource pass
# ends every funded user at one level, up to that resolution.
TIE_RTOL = 1e-9


PerRound = float | np.ndarray   # a Python float for one round, else (R,)


def _per_row(x: np.ndarray) -> PerRound:
    """A Python scalar for one round, else the per-round array."""
    return x.item() if np.ndim(x) == 0 else x


def feasibility_mask(users: Users, arch: ModelArchitecture, batch: int = 1) -> np.ndarray:
    """Boolean (..., S, L) mask of cuts satisfying storage and memory limits."""
    users = UserBatch.of(users)
    model_b = arch.model_bytes_by_cut
    mem_b = model_b + batch * arch.cum_act_bytes_by_cut
    return ((model_b <= users.storage_bytes[..., None])
            & (mem_b <= users.memory_bytes[..., None]))


def default_fixed_cut(
    users: Users, arch: ModelArchitecture, batch: int = 1
) -> int | np.ndarray:
    """Smallest cut index whose storage/memory needs every user can meet.

    One cut for a (S,) batch, one per round for an (R, S) batch.
    """
    shared = feasibility_mask(users, arch, batch).all(axis=-2)
    if not shared.any(axis=-1).all():
        raise InfeasibleUserError("no cut layer is feasible for every user")
    return _per_row(np.argmax(shared, axis=-1) + 1)


def _straggler(
    terms: RoundTerms, communication: np.ndarray
) -> tuple[PerRound, PerRound]:
    """The round time and the communication of the user that set it.

    The round time is the largest total. Users within ``TIE_RTOL`` of it
    tie, as every funded user does under min-max equalization; of those, the
    one with the largest server-independent time ``fixed`` set the level, and
    remaining ties go to the lower index. So the attributed user does not
    change with the last digits of the server compute.
    """
    totals = terms.total
    time = totals.max(axis=-1)
    tied = totals >= (time * (1.0 - TIE_RTOL))[..., None]
    k = np.argmax(np.where(tied, terms.fixed, -np.inf), axis=-1)
    comm = np.take_along_axis(communication, k[..., None], axis=-1)[..., 0]
    return _per_row(time), _per_row(comm)


def esfl_round_time(
    alloc: "Allocation | RowPlan", users: Users, arch: ModelArchitecture,
    t_agg: float = 0.0,
) -> tuple[PerRound, PerRound]:
    """Per-user cuts and server compute; the slowest user ends the round."""
    terms = round_terms(UserBatch.of(users), arch, alloc.cuts, alloc.server_compute, t_agg)
    return _straggler(terms, terms.communication)


def fl_round_time(
    users: Users, arch: ModelArchitecture, t_agg: float = 0.0
) -> tuple[PerRound, PerRound]:
    """Fully local training at the last layer; only the model moves."""
    terms = round_terms(UserBatch.of(users), arch, arch.num_layers, 0.0, t_agg)
    return _straggler(terms, terms.t_up + terms.t_down)


def sfl_round_time(
    users: Users,
    arch: ModelArchitecture,
    fixed_l: int | np.ndarray,
    server_total_flops: float,
    t_agg: float = 0.0,
) -> tuple[PerRound, PerRound]:
    """Shared cut layer with the server budget split equally; straggler paced."""
    terms = round_terms(UserBatch.of(users), arch, fixed_l,
                        server_total_flops / len(users), t_agg)
    return _straggler(terms, terms.communication)


def sl_round_time(
    users: Users,
    arch: ModelArchitecture,
    fixed_l: int | np.ndarray,
    server_total_flops: float,
    t_agg: float = 0.0,
) -> tuple[PerRound, PerRound]:
    """Sequential relay: each user in turn gets the whole server.

    The round and its communication are sums over users; the aggregation
    runs once, after the last user.
    """
    terms = round_terms(UserBatch.of(users), arch, fixed_l, server_total_flops)
    # summed in user order, as the relay runs: cumsum adds strictly left to right
    time = np.cumsum(terms.total, axis=-1)[..., -1] + t_agg
    comm = np.cumsum(terms.communication, axis=-1)[..., -1]
    return _per_row(time), _per_row(comm)
