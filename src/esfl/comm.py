"""Per-user link rates, either tabulated directly or from channel capacity.

Experiments normally tabulate symmetric rates in KB/s ("direct" mode); the
capacity model ("shannon" mode) derives rates from bandwidth, transmit
power, channel gain, and noise density, for sensitivity studies. All
functions are pure; :func:`shannon_rates` prices many users at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError

KB = 1024.0  # bytes per tabulated "KB"; some sources mean 1000


@dataclass(frozen=True)
class ChannelParams:
    """Physical uplink/downlink parameters for one user."""

    bandwidth_hz: float
    uplink_power_w: float
    downlink_power_w: float
    uplink_gain: float
    downlink_gain: float
    noise_density_w_per_hz: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ConfigError(f"{f.name} must be finite")
        for field in ("bandwidth_hz", "uplink_power_w", "downlink_power_w",
                      "noise_density_w_per_hz"):
            if getattr(self, field) <= 0:
                raise ConfigError(f"{field} must be strictly positive")
        if self.uplink_gain < 0 or self.downlink_gain < 0:
            raise ConfigError("channel gains must be >= 0")


@dataclass(frozen=True)
class LinkRates:
    """Achievable link rates in bytes per second."""

    up: float
    down: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.up) and math.isfinite(self.down)):
            raise ConfigError("link rates must be finite")
        if self.up < 0 or self.down < 0:
            raise ConfigError("link rates must be >= 0")


def shannon_rate(bandwidth_hz: float, power_w: float, gain: float,
                 noise_density_w_per_hz: float) -> float:
    """Capacity in bits/s: B * log2(1 + P*g / (B*N0))."""
    if bandwidth_hz <= 0 or noise_density_w_per_hz <= 0:
        raise ValueError("bandwidth and noise density must be strictly positive")
    if power_w < 0 or gain < 0:
        raise ValueError("power and gain must be >= 0")
    args = (bandwidth_hz, power_w, gain, noise_density_w_per_hz)
    return float(shannon_rates(*(np.array([a], dtype=float) for a in args))[0])


def shannon_rates(bandwidth_hz: np.ndarray, power_w: np.ndarray, gain: np.ndarray,
                  noise_density_w_per_hz: np.ndarray) -> np.ndarray:
    """:func:`shannon_rate` of each user, from float arrays, unchecked.

    The log is ``math.log2`` per user: ``np.log2`` differs from it in the
    last bit on some inputs, and a user's rate must not depend on how many
    users are priced with it. The inputs must lie in :func:`shannon_rate`'s
    ranges; an SNR that overflows or divides by zero gives an infinite or
    NaN rate.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        snr = power_w * gain / (bandwidth_hz * noise_density_w_per_hz)
        log = np.fromiter(map(math.log2, (1.0 + snr).tolist()), float, snr.size)
        return bandwidth_hz * log


def link_rates(
    mode: str,
    *,
    direct_kbps: float | tuple[float, float] | None = None,
    channel: ChannelParams | None = None,
    kb_bytes: float = KB,
) -> LinkRates:
    """Build LinkRates from either tabulated KB/s or channel parameters.

    Direct mode takes a single symmetric rate or an (up, down) pair in
    KB/s; shannon mode converts capacity from bits/s to bytes/s.
    """
    if mode == "direct":
        if direct_kbps is None or channel is not None:
            raise ConfigError("direct mode requires direct_kbps and no channel")
        if isinstance(direct_kbps, tuple):
            up_kb, down_kb = direct_kbps
        else:
            up_kb = down_kb = direct_kbps
        return LinkRates(up=up_kb * kb_bytes, down=down_kb * kb_bytes)
    if mode == "shannon":
        if channel is None or direct_kbps is not None:
            raise ConfigError("shannon mode requires channel and no direct_kbps")
        up = shannon_rate(channel.bandwidth_hz, channel.uplink_power_w,
                          channel.uplink_gain, channel.noise_density_w_per_hz)
        down = shannon_rate(channel.bandwidth_hz, channel.downlink_power_w,
                            channel.downlink_gain, channel.noise_density_w_per_hz)
        return LinkRates(up=up / 8.0, down=down / 8.0)
    raise ConfigError(f"unknown link mode {mode!r}; use 'direct' or 'shannon'")

