"""User devices, as one struct-of-arrays :class:`UserBatch`.

A user is a few numbers: data volume, device compute, up/down link rates,
local epochs, and storage/memory limits. :meth:`UserBatch.checked` builds a
round of users from arrays and checks every value against one table of
rules in library units (``_RULES``). The module also owns the users.json
schema of ``esfl optimize``: :func:`read_users` checks a parsed document's
shape, the keys of every user and channel block, once per distinct key
set, and every value, one array per field by the rules of the batch field
it fills, and builds the :class:`UserBatch`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import compress
from operator import itemgetter
from typing import Callable

import numpy as np

from .errors import IN_RANGE, MAGNITUDE_MAX, MAGNITUDE_MIN, ConfigError

Rule = tuple[Callable[[np.ndarray], np.ndarray], str]   # (failing mask, what)

_FINITE: Rule = (lambda v: ~np.isfinite(v), "finite")
_AT_LEAST_0: Rule = (lambda v: v < 0, ">= 0")
_ABOVE_0: Rule = (lambda v: v <= 0, "> 0")
_NOT_NAN: Rule = (np.isnan, "a number")


def _out_of_range(v: np.ndarray) -> np.ndarray:
    """Where ``v`` is neither 0 nor of a magnitude in the range (NaN is not)."""
    size = np.abs(v)
    return (v != 0) & ~((size >= MAGNITUDE_MIN) & (size <= MAGNITUDE_MAX))


_RATE: Rule = (_out_of_range, f"0 or {IN_RANGE} bytes/s")

# The value rules of each UserBatch field, in library units and in field
# order; a value must pass every rule of its field.
_RULES: dict[str, tuple[Rule, ...]] = {
    "n_samples": ((_out_of_range, f"0 or {IN_RANGE} samples"), _AT_LEAST_0),
    "compute_flops": ((_out_of_range, f"{IN_RANGE} FLOP/s"), _ABOVE_0),
    "up": (_RATE, _AT_LEAST_0),
    "down": (_RATE, _AT_LEAST_0),
    "epochs": ((lambda v: (v < 1) | (np.floor(v) != v), "an integer >= 1"),
               (_out_of_range, IN_RANGE)),
    "storage_bytes": (_NOT_NAN, _AT_LEAST_0),
    "memory_bytes": (_NOT_NAN, _AT_LEAST_0),
}


class _FirstBad:
    """The first failure over a run of column checks: the lowest user index,
    and of the checks failing there, the earliest. A user is named by its
    index, or by its entry in ``names`` when given."""

    def __init__(self, names: np.ndarray | None = None) -> None:
        self.names = names
        self.user: int | None = None
        self.message = ""

    def check(self, field: str, users: np.ndarray, bad: np.ndarray, what: str,
              raw: list | None = None) -> None:
        if bad.any():
            k = int(bad.argmax())
            i = int(users[k])
            if self.user is None or i < self.user:
                self.user = i
                name = i if self.names is None else self.names[i]
                self.message = f"user {name}: {field} must be {what}"
                if raw is not None:
                    self.message += f", not {raw[k]!r}"

    def raise_any(self, where: str = "") -> None:
        if self.user is not None:
            raise ConfigError(where + self.message)


@dataclass(frozen=True)
class UserBatch:
    """Struct-of-arrays users: one (..., S) array per attribute.

    The latency kernel and :func:`~esfl.timing.deepest_cut` read these arrays. A batch
    of shape (R, S) holds R independent rounds of S users each. The
    constructor checks nothing; :meth:`checked` builds a checked round.
    """

    user_ids: np.ndarray
    n_samples: np.ndarray          # local training samples used per epoch
    compute_flops: np.ndarray      # device compute, FLOP/s
    up: np.ndarray                 # link rates, bytes/s
    down: np.ndarray
    epochs: np.ndarray             # per round; float, so it multiplies without casts
    storage_bytes: np.ndarray      # +inf: unlimited
    memory_bytes: np.ndarray

    @classmethod
    def checked(cls, n_samples, compute_flops, up, down, epochs=5,
                storage_bytes=math.inf, memory_bytes=math.inf,
                user_ids=None) -> UserBatch:
        """One round of users, each argument an (S,) array or a scalar for
        every user, checked against ``_RULES``.

        ``user_ids`` defaults to 0..S-1. Raises :class:`ConfigError` naming
        the first bad user, by its id, and its field.
        """
        *columns, ids = np.broadcast_arrays(
            *(np.array(v, dtype=float, ndmin=1) for v in (
                n_samples, compute_flops, up, down, epochs, storage_bytes, memory_bytes)),
            np.array(-1 if user_ids is None else user_ids, dtype=int, ndmin=1))
        if ids.ndim != 1:
            raise ValueError("a checked batch holds one round: arrays of shape (S,)")
        ids = np.arange(len(ids)) if user_ids is None else ids.copy()
        columns = np.array(columns)
        first = _FirstBad(ids)
        users = np.arange(len(ids))
        for (field, rules), values in zip(_RULES.items(), columns):
            for bad_of, what in rules:
                first.check(field, users, bad_of(values), what)
        first.raise_any()
        return cls(ids, *columns)

    def rows(self, index) -> UserBatch:
        """The batch with every attribute indexed by ``index`` on its row axes.

        ``rows(None)`` adds a leading row axis to a one-round batch.
        """
        return UserBatch(*(getattr(self, f.name)[index] for f in fields(self)))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.user_ids.shape

    def __len__(self) -> int:
        """The number of users per round, S."""
        return self.user_ids.shape[-1]


def shannon_rates(bandwidth_hz: np.ndarray, power_w: np.ndarray, gain: np.ndarray,
                  noise_density_w_per_hz: np.ndarray) -> np.ndarray:
    """Each user's channel capacity in bits/s, ``B * log2(1 + P*g / (B*N0))``,
    from float arrays, unchecked.

    The log is ``math.log2`` per user: ``np.log2`` differs from it in the
    last bit on some inputs, and a user's rate must not depend on how many
    users are priced with it. An SNR that overflows or divides by zero
    gives an infinite or NaN rate.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        snr = power_w * gain / (bandwidth_hz * noise_density_w_per_hz)
        log = np.fromiter(map(math.log2, (1.0 + snr).tolist()), float, snr.size)
        return bandwidth_hz * log


# ---------------------------------------------------------------------------
# users.json, column by column

_Column = tuple[np.ndarray, list]   # ascending user indices, raw JSON values
_USER_FIELDS = frozenset({
    "n_samples", "tflops", "kbps", "kbps_up", "kbps_down", "channel",
    "epochs", "storage_mb", "memory_mb",
})
_CHANNEL_FIELDS = ("bandwidth_hz", "uplink_power_w", "downlink_power_w",
                   "uplink_gain", "downlink_gain", "noise_density_w_per_hz")
_RATE_PAIR = frozenset({"kbps_up", "kbps_down"})
_REQUIRED = frozenset({"n_samples", "tflops"})


def _entry_problem(keys: frozenset) -> str | None:
    """What is wrong with a users.json entry that has these keys, if anything."""
    unknown = keys - _USER_FIELDS
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


def _channel_problem(keys: frozenset) -> str | None:
    """What is wrong with a channel block that has these keys, if anything."""
    unknown = keys - set(_CHANNEL_FIELDS)
    if unknown:
        return f"unknown keys in channel: {sorted(unknown)}"
    missing = set(_CHANNEL_FIELDS) - keys
    if missing:
        return f"channel lacks {sorted(missing)}"
    return None


def _key_sets(objects: list[dict]) -> tuple[dict[tuple, int], np.ndarray]:
    """Each distinct key tuple of ``objects`` with the index of its first
    object, filed by ``setdefault`` in one pass, and each object's key code:
    that index. Tuples, in document order, because comparing equal tuples
    of interned keys is far cheaper than comparing equal frozensets."""
    firsts: dict[tuple, int] = {}
    codes = map(firsts.setdefault, map(tuple, objects), range(len(objects)))
    return firsts, np.fromiter(codes, np.intp, len(objects))


def _column(objects: list[dict], firsts: dict, codes: np.ndarray, key: str) -> _Column:
    """The indices of the objects that have ``key``, and their values, by
    the key sets first seen in ``objects`` (a cut list lacks the others)."""
    live = [(i, key in keys) for keys, i in firsts.items() if i < len(objects)]
    if all(has for _, has in live):
        return np.arange(len(objects)), list(map(itemgetter(key), objects))
    table = np.zeros(len(objects), dtype=bool)
    table[[i for i, has in live if has]] = True
    has = table[codes]
    return np.flatnonzero(has), list(map(itemgetter(key), compress(objects, has.tolist())))


def _misshapen(objects: list, problem_of, name: str):
    """Where the first misshapen item of ``objects`` is, and what is wrong.

    An item is misshapen when it is not a JSON object or ``problem_of``
    refuses its keys, which it sees once per distinct key set. Returns
    (index, problem), or (length, None) when all are well shaped, and the
    ``_key_sets`` of the items before that index.
    """
    stop, problem = len(objects), None
    if not set(map(type, objects)) <= {dict}:
        stop = next(i for i, obj in enumerate(objects) if type(obj) is not dict)
        problem = f"{name}must be an object, not {type(objects[stop]).__name__}"
    firsts, codes = _key_sets(objects[:stop])
    for keys, i in firsts.items():
        if i < stop and (what := problem_of(frozenset(keys))):
            stop, problem = i, what
    return stop, problem, firsts, codes[:stop]


Kind = tuple[frozenset, str]        # (JSON types, what)

_NUMBER: Kind = (frozenset({int, float}), "a number")   # bool is not a number
_COUNT: Kind = (frozenset({int}), "an integer >= 1")


def _float(value) -> float:
    try:
        return float(value)
    except OverflowError:   # an integer beyond the float range
        return math.inf if value > 0 else -math.inf


def read_users(doc, kb_bytes: float, where: str) -> UserBatch:
    """The checked batch of the users of ``doc``, a parsed users.json document.

    ``doc`` must be an object whose only key, ``users``, holds a nonempty
    list of user objects. Their keys, and those of their channel blocks, are
    checked once per distinct key set. Each field is then gathered into one
    column, read as one float array, scaled to library units (``kb_bytes``
    per KB) and checked with array masks by the ``_RULES`` of the batch
    field it fills (``tflops`` those of ``compute_flops``, ``kbps`` those of
    ``up`` and ``down``, ...); numbers must be JSON ints or floats (not
    bools) and ``epochs`` a JSON int. Channel rates are priced by
    :func:`shannon_rates`. The batch is built unchecked: these reads already
    apply every rule of :meth:`UserBatch.checked`.

    Raises :class:`ConfigError` that starts with ``where`` and names the
    first bad user by index, its JSON field (``channel.<key>`` for a channel
    value) and raw value. The first misshapen user ends the columns, so
    that a bad value of an earlier user is the one named.
    """
    if type(doc) is not dict:
        raise ConfigError(f"{where}: expected an object with a 'users' list, "
                          f"not {type(doc).__name__}")
    unknown = doc.keys() - {"users"}
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    entries = doc.get("users")
    if type(entries) is not list or not entries:
        raise ConfigError(f"{where}: 'users' must be a nonempty list")

    count, problem, firsts, codes = _misshapen(entries, _entry_problem, "")
    entries = entries[:count]
    ch_users, blocks = _column(entries, firsts, codes, "channel")
    ch_stop, ch_problem, _, _ = _misshapen(blocks, _channel_problem, "channel ")
    if ch_problem:
        count, problem = int(ch_users[ch_stop]), ch_problem
        entries, codes = entries[:count], codes[:count]
        ch_users, blocks = ch_users[:ch_stop], blocks[:ch_stop]
    first = _FirstBad()

    def read(field: str, scale: float, rules: tuple[Rule, ...], kind: Kind = _NUMBER,
             column: _Column | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(users, scaled values, mask of the users whose value passes) of
        ``column``, by default the column of ``field``."""
        users, raw = _column(entries, firsts, codes, field) if column is None else column
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

    with np.errstate(over="ignore", invalid="ignore"):
        n_users, n_samples, _ = read("n_samples", 1.0, _RULES["n_samples"])
        c_users, compute, _ = read("tflops", 1e12, _RULES["compute_flops"])
        sym, sym_rate, _ = read("kbps", kb_bytes, _RULES["up"])
        up_users, up_rate, _ = read("kbps_up", kb_bytes, _RULES["up"])
        down_users, down_rate, _ = read("kbps_down", kb_bytes, _RULES["down"])
        e_users, epochs, _ = read("epochs", 1.0, _RULES["epochs"], kind=_COUNT)
        s_users, storage, _ = read("storage_mb", 2**20, _RULES["storage_bytes"])
        m_users, memory, _ = read("memory_mb", 2**20, _RULES["memory_bytes"])

        # Price only the channels whose every value passed, so a bad value
        # is named as itself and never reaches the capacity formula.
        chan = [read(f"channel.{key}", 1.0,
                     (_FINITE, _AT_LEAST_0 if key.endswith("_gain") else _ABOVE_0),
                     column=(ch_users, list(map(itemgetter(key), blocks))))
                for key in _CHANNEL_FIELDS]
        priced = np.logical_and.reduce([ok for _, _, ok in chan])
        b, p_up, p_down, g_up, g_down, n0 = (values[priced] for _, values, _ in chan)
        ch_up = np.full(len(ch_users), math.nan)
        ch_down = ch_up.copy()
        ch_up[priced] = shannon_rates(b, p_up, g_up, n0) / 8.0
        ch_down[priced] = shannon_rates(b, p_down, g_down, n0) / 8.0
        first.check("channel", ch_users,
                    priced & (_out_of_range(ch_up) | _out_of_range(ch_down)),
                    f"priced to link rates {_RATE[1]}")
    first.raise_any(f"{where} ")
    if problem:
        raise ConfigError(f"{where} user {count}: {problem}")

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
