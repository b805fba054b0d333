"""User device profiles: data volume, local resources, and link rates.

Besides the one-user :class:`UserProfile`, this module owns the users.json
schema of ``esfl optimize``: :func:`entry_problem` and
:func:`channel_problem` check the keys of a user and of its channel block,
and :func:`batch_from_columns` checks every value, one array per field,
and builds the :class:`UserBatch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .comm import ChannelParams, LinkRates, shannon_rates
from .errors import ConfigError


@dataclass(frozen=True)
class UserProfile:
    """One end device participating in a training round."""

    user_id: int
    n_samples: float            # local training samples used per epoch
    compute_flops: float        # local compute c_i, FLOPs/s
    rates: LinkRates
    epochs: int = 5             # local epochs per round
    storage_bytes: float = math.inf
    memory_bytes: float = math.inf

    def __post_init__(self) -> None:
        # NaN fails every comparison below, and only the limits may be +inf
        if not (math.isfinite(self.n_samples) and math.isfinite(self.compute_flops)):
            raise ConfigError("n_samples and compute_flops must be finite")
        if math.isnan(self.storage_bytes) or math.isnan(self.memory_bytes):
            raise ConfigError("storage and memory limits must not be NaN")
        if self.n_samples < 0:
            raise ConfigError("n_samples must be >= 0")
        if self.compute_flops <= 0:
            raise ConfigError("compute_flops must be strictly positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.storage_bytes < 0 or self.memory_bytes < 0:
            raise ConfigError("storage and memory limits must be >= 0")


@dataclass(frozen=True)
class UserBatch:
    """Struct-of-arrays view of a user list: one (..., S) array per attribute.

    Built once per planner or round call, so the latency kernel and the
    feasibility mask read arrays instead of re-walking Python objects. A
    batch of shape (R, S) holds R independent rounds of S users each.
    """

    user_ids: np.ndarray
    n_samples: np.ndarray
    compute_flops: np.ndarray
    up: np.ndarray                 # link rates, bytes/s
    down: np.ndarray
    epochs: np.ndarray             # float, so it multiplies without casts
    storage_bytes: np.ndarray
    memory_bytes: np.ndarray

    @classmethod
    def of(cls, users: Users) -> UserBatch:
        """The batch for ``users``; a batch passes through unchanged."""
        if isinstance(users, UserBatch):
            return users
        rows = [(u.n_samples, u.compute_flops, u.rates.up, u.rates.down, u.epochs,
                 u.storage_bytes, u.memory_bytes) for u in users]
        columns = np.array(rows, dtype=float).reshape(-1, 7).T.copy()
        return cls(np.array([u.user_id for u in users], dtype=int), *columns)

    def rows(self, index) -> UserBatch:
        """The batch with every attribute indexed by ``index`` on its row axes.

        ``rows(None)`` adds a leading row axis to a one-round batch.
        """
        return UserBatch(*(getattr(self, f.name)[index] for f in fields(self)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.user_ids.shape

    def __len__(self) -> int:
        """Users per round, S."""
        return self.user_ids.shape[-1]


Users = Sequence[UserProfile] | UserBatch  # what the batch-aware functions accept


# ---------------------------------------------------------------------------
# users.json, column by column

USER_FIELDS = frozenset({
    "n_samples", "tflops", "kbps", "kbps_up", "kbps_down", "channel",
    "epochs", "storage_mb", "memory_mb",
})
CHANNEL_FIELDS = tuple(f.name for f in fields(ChannelParams))
_RATE_PAIR = frozenset({"kbps_up", "kbps_down"})
_REQUIRED = frozenset({"n_samples", "tflops"})


def entry_problem(keys: frozenset) -> str | None:
    """What is wrong with a users.json entry that has these keys, if anything."""
    unknown = keys - USER_FIELDS
    if unknown:
        return f"unknown keys {sorted(unknown)}"
    missing = _REQUIRED - keys
    if missing:
        return f"missing {sorted(missing)}"
    pair = keys & _RATE_PAIR
    if ("kbps" in keys) + bool(pair) + ("channel" in keys) != 1:
        return "give exactly one of kbps, kbps_up/kbps_down, or channel"
    if pair and pair != _RATE_PAIR:
        return "kbps_up and kbps_down go together"
    return None


def channel_problem(keys: frozenset) -> str | None:
    """What is wrong with a channel block that has these keys, if anything."""
    unknown = keys - set(CHANNEL_FIELDS)
    if unknown:
        return f"unknown keys in channel: {sorted(unknown)}"
    missing = set(CHANNEL_FIELDS) - keys
    if missing:
        return f"channel lacks {sorted(missing)}"
    return None


Column = tuple[np.ndarray, list]    # ascending user indices, raw JSON values
Rule = tuple[Callable[[np.ndarray], np.ndarray], str]   # (failing mask, what)
Kind = tuple[frozenset, str]                            # (JSON types, what)

_NUMBER: Kind = (frozenset({int, float}), "a number")   # bool is not a number
_COUNT: Kind = (frozenset({int}), "an integer >= 1")
_FINITE: Rule = (lambda v: ~np.isfinite(v), "finite")
_AT_LEAST_0: Rule = (lambda v: v < 0, ">= 0")
_ABOVE_0: Rule = (lambda v: v <= 0, "> 0")
_NOT_NAN: Rule = (np.isnan, "a number")
_AT_LEAST_1: Rule = (lambda v: v < 1, "an integer >= 1")


class _FirstBad:
    """The first failure over a run of column checks: the lowest user index,
    and of the checks failing there, the earliest."""

    def __init__(self) -> None:
        self.user: int | None = None
        self.message = ""

    def check(self, field: str, users: np.ndarray, bad: np.ndarray, what: str,
              raw: list | None = None) -> None:
        if bad.any():
            k = int(bad.argmax())
            i = int(users[k])
            if self.user is None or i < self.user:
                self.user = i
                self.message = f"user {i}: {field} must be {what}"
                if raw is not None:
                    self.message += f", not {raw[k]!r}"


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:   # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def batch_from_columns(count: int, columns: Mapping[str, Column],
                       kb_bytes: float) -> UserBatch:
    """The checked batch of the ``count`` users of a users.json document.

    ``columns`` maps each field, or ``channel.<key>`` for a key of the
    channel blocks, to the users that give it and their raw JSON values.
    The keys must have passed :func:`entry_problem` and
    :func:`channel_problem`. Each field is read as one float array and
    checked with array masks, with exactly the checks of
    :class:`UserProfile`, :class:`LinkRates` and :class:`ChannelParams`;
    numbers must be JSON ints or floats (not bools) and ``epochs`` a JSON
    int. Channel rates are priced by :func:`shannon_rates`, so every array
    equals the one :meth:`UserBatch.of` builds from per-user profiles.
    Raises :class:`ConfigError` naming the first bad user and its field.
    """
    first = _FirstBad()

    def read(field: str, scale: float, *rules: Rule,
             kind: Kind = _NUMBER) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(users, scaled values, mask of the users whose value passes)."""
        users, raw = columns.get(field, (np.zeros(0, dtype=int), []))
        numbers = raw
        types, what = kind
        if not set(map(type, raw)) <= types:
            typed = np.array([type(v) in types for v in raw], dtype=bool)
            first.check(field, users, ~typed, what, raw)
            numbers = [v if ok else math.nan for v, ok in zip(raw, typed)]
        try:
            values = np.array(numbers, dtype=float)
        except OverflowError:
            values = np.array(list(map(_float, numbers)))
        values = values * scale
        ok = np.ones(len(users), dtype=bool)
        for bad_of, what in rules:
            bad = bad_of(values)
            first.check(field, users, bad, what, raw)
            ok &= ~bad
        return users, values, ok

    def spread(default: float, *parts: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        out = np.full(count, default)
        for users, values in parts:
            out[users] = values
        return out

    rate: Rule = (_FINITE[0], "finite in bytes/s")
    with np.errstate(over="ignore", invalid="ignore"):
        n_users, n_samples, _ = read("n_samples", 1.0, _FINITE, _AT_LEAST_0)
        c_users, compute, _ = read("tflops", 1e12, (_FINITE[0], "finite in FLOP/s"),
                                   _ABOVE_0)
        sym, sym_rate, _ = read("kbps", kb_bytes, rate, _AT_LEAST_0)
        up_users, up_rate, _ = read("kbps_up", kb_bytes, rate, _AT_LEAST_0)
        down_users, down_rate, _ = read("kbps_down", kb_bytes, rate, _AT_LEAST_0)
        e_users, epochs, _ = read("epochs", 1.0, _AT_LEAST_1, _FINITE, kind=_COUNT)
        s_users, storage, _ = read("storage_mb", 2**20, _NOT_NAN, _AT_LEAST_0)
        m_users, memory, _ = read("memory_mb", 2**20, _NOT_NAN, _AT_LEAST_0)

        # Price only the channels whose every value passed, so a bad value
        # is named as itself and never reaches the capacity formula.
        chan = [read(f"channel.{key}", 1.0, _FINITE,
                     _AT_LEAST_0 if key.endswith("_gain") else _ABOVE_0)
                for key in CHANNEL_FIELDS]
        ch_users = chan[0][0]
        priced = np.logical_and.reduce([ok for _, _, ok in chan])
        b, p_up, p_down, g_up, g_down, n0 = (values[priced] for _, values, _ in chan)
        ch_up = np.full(len(ch_users), math.nan)
        ch_down = ch_up.copy()
        ch_up[priced] = shannon_rates(b, p_up, g_up, n0) / 8.0
        ch_down[priced] = shannon_rates(b, p_down, g_down, n0) / 8.0
        first.check("channel", ch_users,
                    priced & ~(np.isfinite(ch_up) & np.isfinite(ch_down)),
                    "priced to finite link rates")
    if first.user is not None:
        raise ConfigError(first.message)

    return UserBatch(
        np.arange(count),
        spread(math.nan, (n_users, n_samples)),
        spread(math.nan, (c_users, compute)),
        spread(math.nan, (sym, sym_rate), (up_users, up_rate), (ch_users, ch_up)),
        spread(math.nan, (sym, sym_rate), (down_users, down_rate), (ch_users, ch_down)),
        spread(5.0, (e_users, epochs)),
        spread(math.inf, (s_users, storage)),
        spread(math.inf, (m_users, memory)),
    )
