"""Per-layer architecture profiles and cut-dependent workload quantities.

A profile lists, for every layer in execution order, the parameter count,
the forward-pass compute, and the activation size emitted per sample, all
in units of 1e6 as tabulated in architecture tables. Cutting the network
after layer ``l`` leaves layers ``1..l`` on the device and ``l+1..L`` on
the server, so every latency-relevant quantity is a prefix aggregate:

* device training compute per sample: ``sum(fwd[:l]) * (1 + kappa) * 1e6``,
  where ``kappa`` scales backward-pass cost relative to forward;
* activation traffic per sample in either direction: ``act[l] * bpe * 1e6``;
* device-resident model size: ``sum(params[:l]) * bpe * 1e6`` bytes;
* device training memory: model bytes plus ``batch`` times the cumulative
  activation bytes up to the cut (a standard lower bound, since the memory
  requirement is otherwise unspecified by the profile format).

Profiles are immutable after loading, their derived arrays included, and
safe to share across threads; :func:`load_builtin` shares each shipped one.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import FINITE, POSITIVE, ProfileError, at_least, check

ELEMENT_SCALE = 1e6  # profile columns are tabulated in units of 1e6


@dataclass(frozen=True)
class LayerProfile:
    """One row of an architecture profile (raw tabulated units)."""

    index: int               # 1-based position in execution order
    name: str
    param_count: float       # 1e6 parameter elements
    fwd_flops: float         # 1e6 FLOPs per sample, forward pass only
    activation_count: float  # 1e6 activation elements per sample

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ProfileError(f"layer {self.name!r}: index must be >= 1")
        for field in ("param_count", "fwd_flops", "activation_count"):
            value = getattr(self, field)
            if not math.isfinite(value) or value < 0:
                raise ProfileError(
                    f"layer {self.name!r}: {field} must be finite and >= 0, got {value!r}"
                )


@dataclass(frozen=True)
class ModelArchitecture:
    """An ordered layer profile plus the unit conventions applied to it."""

    name: str
    layers: tuple[LayerProfile, ...]
    bytes_per_element: float = 4.0
    bwd_multiplier: float = 2.0  # backward compute = bwd_multiplier * forward

    def __post_init__(self) -> None:
        if len(self.layers) < 2:
            raise ProfileError(
                f"architecture {self.name!r}: needs at least 2 layers to admit a cut"
            )
        check("bytes_per_element", self.bytes_per_element, FINITE, POSITIVE)
        check("bwd_multiplier", self.bwd_multiplier, FINITE, at_least(0))
        for pos, layer in enumerate(self.layers, start=1):
            if layer.index != pos:
                raise ProfileError(
                    f"architecture {self.name!r}: layer indices must be 1..L in order, "
                    f"got {layer.index} at position {pos}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    # Derived arrays, indexed by cut position (entry l-1 describes cut l). They
    # are read-only: every plan priced with this profile reads them.

    @cached_property
    def user_flops_by_cut(self) -> np.ndarray:
        """Device training FLOPs per sample for each cut."""
        fwd = np.array([l.fwd_flops for l in self.layers])
        return _frozen(np.cumsum(fwd) * (1.0 + self.bwd_multiplier) * ELEMENT_SCALE)

    @cached_property
    def act_bytes_by_cut(self) -> np.ndarray:
        """Activation bytes per sample crossing each cut (either direction)."""
        act = np.array([l.activation_count for l in self.layers])
        return _frozen(act * self.bytes_per_element * ELEMENT_SCALE)

    @cached_property
    def model_bytes_by_cut(self) -> np.ndarray:
        """Device-side model bytes for each cut."""
        params = np.array([l.param_count for l in self.layers])
        return _frozen(np.cumsum(params) * self.bytes_per_element * ELEMENT_SCALE)

    @cached_property
    def cum_act_bytes_by_cut(self) -> np.ndarray:
        """Cumulative activation bytes for layers up to each cut."""
        act = np.array([l.activation_count for l in self.layers])
        return _frozen(np.cumsum(act) * self.bytes_per_element * ELEMENT_SCALE)

    @property
    def total_compute_per_sample(self) -> float:
        """Training FLOPs per sample for the whole network."""
        return float(self.user_flops_by_cut[-1])


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# Profile documents: columnar text with a header row. '#' starts a comment.
# Blank numeric fields are permitted only on the final layer (zero-size head).

_COLUMNS = ("layer", "params", "fwd_flops", "activation")


def load_architecture(
    source: str | Path | io.TextIOBase,
    *,
    name: str | None = None,
    bytes_per_element: float = 4.0,
    bwd_multiplier: float = 2.0,
) -> ModelArchitecture:
    """Parse a profile document from a path or open text stream. A file
    whose content fails to parse or validate, or is not UTF-8 text, is a
    :class:`ProfileError` whose message starts with the file's path."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            with open(path, "r", encoding="utf-8") as fp:
                return load_architecture(
                    fp, name=path.stem if name is None else name,
                    bytes_per_element=bytes_per_element, bwd_multiplier=bwd_multiplier)
        except (ProfileError, UnicodeDecodeError) as exc:
            raise ProfileError(f"{path}: {exc}") from None
    rows = _parse_rows(source)
    if name is None:
        name = "unnamed"
    if not rows:
        raise ProfileError("profile document lists no layers")
    if len(rows) < 2:
        raise ProfileError("profile lists a single layer; no valid cut exists")

    layers = []
    for pos, (lineno, layer_name, fields) in enumerate(rows, start=1):
        is_last = pos == len(rows)
        values = []
        for col, text in zip(_COLUMNS[1:], fields):
            if text == "":
                if not is_last:
                    raise ProfileError(
                        f"line {lineno}: empty {col} is only permitted on the final layer"
                    )
                values.append(0.0)
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ProfileError(
                    f"line {lineno}: cannot parse {col} value {text!r}"
                ) from None
        layers.append(LayerProfile(pos, layer_name, *values))

    return ModelArchitecture(
        name=name,
        layers=tuple(layers),
        bytes_per_element=bytes_per_element,
        bwd_multiplier=bwd_multiplier,
    )


def _parse_rows(fp) -> list[tuple[int, str, list[str]]]:
    rows = []
    header_seen = False
    for lineno, line in enumerate(fp, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = [f.strip() for f in next(csv.reader([stripped]))]
        if not header_seen:
            if [f.lower() for f in fields] != list(_COLUMNS):
                raise ProfileError(
                    f"line {lineno}: expected header {','.join(_COLUMNS)!r}"
                )
            header_seen = True
            continue
        if len(fields) != len(_COLUMNS):
            raise ProfileError(
                f"line {lineno}: expected {len(_COLUMNS)} fields, got {len(fields)}"
            )
        rows.append((lineno, fields[0], fields[1:]))
    if not header_seen:
        raise ProfileError("profile document has no header row")
    return rows


@cache
def builtin_profiles() -> tuple[str, ...]:
    """Names of the profile documents shipped with the package, listed once
    per process: the package data does not change while it runs."""
    files = resources.files("esfl.profiles")
    return tuple(sorted(p.name[:-4] for p in files.iterdir() if p.name.endswith(".csv")))


# Shipped profiles parsed so far, by name and the repr of each unit convention,
# which keeps 4 and 4.0, or 0.0 and -0.0, apart
_BUILTIN: dict[tuple[str, str, str], ModelArchitecture] = {}


def load_builtin(
    name: str, *, bytes_per_element: float = 4.0, bwd_multiplier: float = 2.0
) -> ModelArchitecture:
    """Load a shipped profile by name (see :func:`builtin_profiles`).

    Each (name, bytes_per_element, bwd_multiplier) is parsed once per
    process; later calls return the same profile, which is immutable.
    """
    key = (name, repr(bytes_per_element), repr(bwd_multiplier))
    arch = _BUILTIN.get(key)
    if arch is None:
        ref = resources.files("esfl.profiles").joinpath(f"{name}.csv")
        if not ref.is_file():
            raise ProfileError(f"unknown built-in profile {name!r}; "
                               f"available: {', '.join(builtin_profiles())}")
        with ref.open("r", encoding="utf-8") as fp:
            arch = _BUILTIN[key] = load_architecture(
                fp,
                name=name,
                bytes_per_element=bytes_per_element,
                bwd_multiplier=bwd_multiplier,
            )
    return arch
