"""Per-user round latency for split training and its baselines.

One split-training epoch for a user is strictly sequential: device forward
compute ``t_c``, activation upload ``t_b``, server compute ``t_C`` (forward
remainder plus the full backward pass share), activation-gradient download
``t_B``. A round wraps the epochs with device-model upload/download and a
fixed aggregation term::

    total = t_up + t_down + epochs * (t_c + t_b + t_C + t_B) + t_agg

:func:`round_terms` is the one implementation of that formula; the
planner's passes, the reports and the four round policies below (ESFL,
FL, SFL, SL) derive from it. The planner prices it once per plan, into
:class:`ServerFreeTerms`, which sums the same way and feeds both its
passes. A policy prices each term once, into :class:`PricedTerms`, and
reads every sum from it. Each policy returns ``(round time,
communication time)``, the latter for the user that set the round time.

Every function here takes its users as one :class:`~esfl.users.UserBatch`;
given an (R, S) batch of R independent rounds, it returns one value per
round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import AllocationError, InfeasibleLinkError, InfeasibleUserError, id_list
from .users import UserBatch
from .workload import ModelArchitecture


def _guarded_div(
    numerator: np.ndarray,
    denominator: np.ndarray,
    out: np.ndarray | None = None,
    zero: np.ndarray | None = None,
) -> np.ndarray:
    """numerator / denominator with 0/x = 0 even for x = 0; +inf otherwise,
    also for x = -0.0. No quotient of inputs in the magnitude range (see
    :data:`esfl.errors.MAGNITUDE_MIN`) overflows, so an overflow warns.

    Writes into ``out`` when given; ``zero`` may pass ``numerator == 0``
    when the caller already holds it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # adding 0.0 turns -0.0 into +0.0 and leaves every other value as it is
        out = np.divide(numerator, np.add(denominator, 0.0), out=out)
    np.copyto(out, 0.0, where=numerator == 0.0 if zero is None else zero)
    return out


def _epoch_time(device: np.ndarray, server: np.ndarray, download: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """One epoch, ``t_c + t_b + t_C + t_B`` given ``device = t_c + t_b``.

    The one spelling of the epoch sum; with ``out`` (which may be
    ``server``) it is summed in place, in the same order.
    """
    out = np.add(device, server, out=out)
    out += download
    return out


def _round_time(move: np.ndarray, epochs: np.ndarray, epoch: np.ndarray,
                t_agg: float, out: np.ndarray | None = None) -> np.ndarray:
    """A round, ``t_up + t_down + epochs * epoch + t_agg`` given
    ``move = t_up + t_down``.

    The one spelling of the round sum; with ``out`` (which may be
    ``epoch``) it is summed in place, in the same order.
    """
    out = np.multiply(epochs, epoch, out=out)
    out = np.add(move, out, out=out)
    out += t_agg
    return out


class _TermSums:
    """The sums of the latency terms ``t_up, t_down, t_c, t_b, t_C, t_B``,
    each spelled once, for a class that holds or computes those terms and
    has ``epochs`` and ``t_agg``. A sum reads each term it needs once."""

    @property
    def epoch(self) -> np.ndarray:
        return _epoch_time(self.t_c + self.t_b, self.t_C, self.t_B)

    @property
    def total(self) -> np.ndarray:
        return _round_time(self.t_up + self.t_down, self.epochs, self.epoch, self.t_agg)

    @property
    def fixed(self) -> np.ndarray:
        """The total without server time: ``total`` at infinite server compute."""
        return _round_time(self.t_up + self.t_down, self.epochs,
                           self.t_c + self.t_b + self.t_B, self.t_agg)

    @property
    def communication(self) -> np.ndarray:
        """Model movement plus activation traffic across all epochs."""
        return self.t_up + self.t_down + self.epochs * (self.t_b + self.t_B)

    def objective(self, epoch_only: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """One epoch's time (with ``epoch_only``) or the round's, and the
        same at infinite server compute: what :func:`straggler` reads."""
        if epoch_only:
            return self.epoch, self.t_c + self.t_b + self.t_B
        return self.total, self.fixed


@dataclass(frozen=True)
class RoundTerms(_TermSums):
    """Per-user latency terms in seconds, shape (..., S) or (..., S, L).

    Holds the inputs broadcast against each other and computes a term only
    when it is read, so the (S, L) cut pass never holds every term matrix at
    once. The four epoch terms are per epoch. Moving bytes over a zero-rate
    link, or server work without server compute, costs +inf. A sum prices
    the terms it reads each time; :meth:`priced` prices them once.
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

    def priced(self) -> PricedTerms:
        """Every term priced once, for a caller that reads several sums."""
        return PricedTerms(self.t_up, self.t_down, self.t_c, self.t_b, self.t_C,
                           self.t_B, self.epochs, self.t_agg)

    def server_free(self, epoch_only: bool, deepest: np.ndarray) -> ServerFreeTerms:
        """The server-independent terms, priced now, of ``epoch`` (with
        ``epoch_only``) or ``total``; see :class:`ServerFreeTerms`. The cuts
        past each user's (..., S) ``deepest`` are blocked, and so, as every
        round moves the model though one epoch leaves it out, is a cut whose
        model would cross a dead link: their device term is +inf."""
        device, move = self.t_c + self.t_b, self.t_up + self.t_down
        np.copyto(device, np.inf, where=np.arange(device.shape[-1]) >= deepest[..., None])
        if epoch_only:
            np.copyto(device, np.inf, where=move == np.inf)
            move = None
        return ServerFreeTerms(
            device, self.t_B, move,
            self.server_flops, self.n_samples, self.server_work == 0.0,
            self.epochs, self.t_agg,
        )


@dataclass(frozen=True)
class PricedTerms(_TermSums):
    """The six terms of a :class:`RoundTerms`, priced once, with the same
    sums, so a caller that reads several sums gets the same bits."""

    t_up: np.ndarray
    t_down: np.ndarray
    t_c: np.ndarray
    t_b: np.ndarray
    t_C: np.ndarray
    t_B: np.ndarray
    epochs: np.ndarray
    t_agg: float


def _keep_rows(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Move the rows ``keep`` selects to the front of ``a``; a view of them."""
    n = np.count_nonzero(keep)
    a[:n] = a[keep]
    return a[:n]


class ServerFreeTerms(NamedTuple):
    """``RoundTerms.epoch`` or ``total`` split at the server time ``t_C``.

    The planner's cut passes price every cut at a new server compute each
    time, and nothing else changes between them; so these terms are priced
    once and :meth:`price` adds only ``t_C``. Every sum keeps the order of
    ``RoundTerms``, so a price equals the uncached objective bit for bit;
    a blocked cut's device term is +inf, so it prices to +inf.
    """

    device: np.ndarray          # t_c + t_b; +inf at a blocked cut
    download: np.ndarray        # t_B
    move: np.ndarray | None     # t_up + t_down; None prices one epoch
    # server_work = server_flops * n_samples is rebuilt in each pass's buffer:
    # one multiply costs less than holding one more (..., S, L) array
    server_flops: np.ndarray    # (L,) per sample
    n_samples: np.ndarray       # (..., S, 1)
    no_work: np.ndarray         # server_work == 0: no server time at any compute
    epochs: np.ndarray
    t_agg: float

    def keep_rows(self, keep: np.ndarray) -> ServerFreeTerms:
        """The terms of the rows that the mask ``keep`` selects on the
        leading axis, moved to the front of these terms' own arrays.

        Those arrays are overwritten, so only the result may be used
        afterwards; shrinking in place holds one row copy at a time
        instead of a second set of terms.
        """
        # n_samples and epochs may view the caller's batch, so they are copied
        return ServerFreeTerms(
            _keep_rows(self.device, keep), _keep_rows(self.download, keep),
            None if self.move is None else _keep_rows(self.move, keep),
            self.server_flops, self.n_samples[keep], _keep_rows(self.no_work, keep),
            self.epochs[keep], self.t_agg,
        )

    def price(self, server_compute: np.ndarray | float, out: np.ndarray) -> np.ndarray:
        """The objective at ``server_compute`` (shaped like the batch, or a
        scalar), written into ``out``; the cached terms are only read."""
        compute = np.asarray(server_compute, dtype=float)
        if compute.ndim:
            compute = compute[..., None]
        work = np.multiply(self.server_flops, self.n_samples, out=out)
        t_C = _guarded_div(work, compute, out=out, zero=self.no_work)
        times = _epoch_time(self.device, t_C, self.download, out=out)
        if self.move is not None:
            times = _round_time(self.move, self.epochs, times, self.t_agg, out=out)
        return times

    def demand(self, kind: np.ndarray | None = None, cut: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """The terms (a, b) of the objective ``a / C + b`` at server compute C:
        ``a`` the server FLOPs owed per unit of compute, ``b`` the objective at
        infinite compute (+inf at a blocked cut), summed as :meth:`price` sums.
        (..., S, L), or of (N, L) terms gathered at each 0-based ``cut`` of row
        ``kind``."""
        terms = self
        if kind is not None:
            at = kind * self.device.shape[-1] + cut     # np.take reads the (N, L) flat
            terms = ServerFreeTerms(
                *(None if x is None else np.take(x, at) for x in self[:3]),
                np.take(self.server_flops, cut), np.take(self.n_samples, kind),
                np.take(self.no_work, at), np.take(self.epochs, kind), self.t_agg)
        work = terms.server_flops * terms.n_samples
        a = work if terms.move is None else terms.epochs * work
        return a, terms.price(np.inf, out=np.empty(work.shape))


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
    :func:`deepest_cut`.
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
                raise error(f"users {id_list(batch.user_ids[bad])}: {what}")
    return terms


# Users whose totals lie this close (relative) to the round time share it.
# It is the planner's default level tolerance: the min-max resource pass
# ends every funded user at one level, up to that resolution.
TIE_RTOL = 1e-9


PerRound = float | np.ndarray   # a Python float for one round, else (R,)


def _per_row(x: np.ndarray) -> PerRound:
    """A Python scalar for one round, else the per-round array."""
    return x.item() if np.ndim(x) == 0 else x


def deepest_cut(batch: UserBatch, arch: ModelArchitecture) -> np.ndarray:
    """Each user's deepest cut within its storage and memory limits, (..., S);
    0 when no cut fits.

    A cut needs the device model in storage, and the device model plus one
    sample's activations up to the cut in memory. Both are sums of layer
    sizes >= 0, so they grow with the cut: the feasible cuts are 1..deepest.
    """
    model_b = arch.model_bytes_by_cut
    mem_b = model_b + arch.cum_act_bytes_by_cut
    return np.minimum(np.searchsorted(model_b, batch.storage_bytes, "right"),
                      np.searchsorted(mem_b, batch.memory_bytes, "right"))


def feasibility_mask(batch: UserBatch, arch: ModelArchitecture) -> np.ndarray:
    """Boolean (..., S, L) mask of cuts satisfying storage and memory limits:
    those up to each user's :func:`deepest_cut`."""
    return np.arange(arch.num_layers) < deepest_cut(batch, arch)[..., None]


def default_fixed_cut(batch: UserBatch, arch: ModelArchitecture) -> int | np.ndarray:
    """Smallest cut index whose storage/memory needs every user can meet:
    cut 1, SFL's and SL's default, as feasible cuts run from 1 to each
    user's :func:`deepest_cut`, unless some user has none, which raises.

    One cut for a (S,) batch, one per round for an (R, S) batch.
    """
    if (deepest_cut(batch, arch) == 0).any():
        raise InfeasibleUserError("no cut layer is feasible for every user")
    return _per_row(np.ones(batch.shape[:-1], dtype=int))


def straggler(times: np.ndarray, server_free: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """The largest of each row of (..., S) ``times`` and the user that set it.

    Users within ``TIE_RTOL`` of the largest time tie, as every funded user
    does under min-max equalization; of those, the one with the largest
    ``server_free`` time (its time at infinite server compute) set the
    level, and remaining ties go to the lower index. So the attributed user
    does not change with the last digits of the server compute.
    """
    time = times.max(axis=-1)
    tied = times >= (time * (1.0 - TIE_RTOL))[..., None]
    return time, np.argmax(np.where(tied, server_free, -np.inf), axis=-1)


def _straggler(
    terms: PricedTerms, communication: np.ndarray
) -> tuple[PerRound, PerRound]:
    """The round time, the largest total, and the communication of the
    user that set it, as :func:`straggler` attributes it."""
    time, k = straggler(*terms.objective())
    comm = np.take_along_axis(communication, k[..., None], axis=-1)[..., 0]
    return _per_row(time), _per_row(comm)


def esfl_round_time(
    cuts: Sequence[int] | np.ndarray, server_compute: np.ndarray | float,
    batch: UserBatch, arch: ModelArchitecture, t_agg: float = 0.0,
) -> tuple[PerRound, PerRound]:
    """Per-user cuts and server compute; the slowest user ends the round."""
    terms = round_terms(batch, arch, cuts, server_compute, t_agg).priced()
    return _straggler(terms, terms.communication)


def fl_round_time(
    batch: UserBatch, arch: ModelArchitecture, t_agg: float = 0.0
) -> tuple[PerRound, PerRound]:
    """Fully local training at the last layer; only the model moves."""
    terms = round_terms(batch, arch, arch.num_layers, 0.0, t_agg).priced()
    return _straggler(terms, terms.t_up + terms.t_down)


def sfl_round_time(
    batch: UserBatch,
    arch: ModelArchitecture,
    fixed_l: int | np.ndarray,
    server_total_flops: float,
    t_agg: float = 0.0,
) -> tuple[PerRound, PerRound]:
    """Shared cut layer with the server budget split equally; straggler paced."""
    terms = round_terms(batch, arch, fixed_l, server_total_flops / len(batch),
                        t_agg).priced()
    return _straggler(terms, terms.communication)


def sl_round_time(
    batch: UserBatch,
    arch: ModelArchitecture,
    fixed_l: int | np.ndarray,
    server_total_flops: float,
    t_agg: float = 0.0,
) -> tuple[PerRound, PerRound]:
    """Sequential relay: each user in turn gets the whole server.

    The round and its communication are sums over users; the aggregation
    runs once, after the last user.
    """
    terms = round_terms(batch, arch, fixed_l, server_total_flops).priced()
    # summed in user order, as the relay runs: cumsum adds strictly left to right
    time = np.cumsum(terms.total, axis=-1)[..., -1] + t_agg
    comm = np.cumsum(terms.communication, axis=-1)[..., -1]
    return _per_row(time), _per_row(comm)
