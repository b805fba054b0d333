"""Link rates: tabulated KB/s or channel capacity, as ``read_users`` prices
them from a users.json document."""

import math

import numpy as np
import pytest

from esfl import ConfigError, UserBatch
from esfl.users import read_users, shannon_rates

_CHANNEL_FIELDS = ("bandwidth_hz", "uplink_power_w", "downlink_power_w",
                   "uplink_gain", "downlink_gain", "noise_density_w_per_hz")
_CHANNEL = (1e6, 1.0, 1.0, 1.0, 1.0, 1e-9)   # in _CHANNEL_FIELDS order


def _rate(bandwidth_hz, power_w, gain, noise_density_w_per_hz):
    """One user's capacity in bits/s."""
    args = (bandwidth_hz, power_w, gain, noise_density_w_per_hz)
    return float(shannon_rates(*(np.array([a], dtype=float) for a in args))[0])


def _read(*entries, kb_bytes=1024.0):
    """The batch of a users.json document of ``entries``."""
    return read_users({"users": list(entries)}, kb_bytes, "users.json")


def _channel_user(*channel):
    return {"n_samples": 1, "tflops": 1, "channel": dict(zip(_CHANNEL_FIELDS, channel))}


class TestShannonRate:
    def test_zero_gain_gives_zero_rate(self):
        assert _rate(1e6, 1.0, 0.0, 1e-9) == 0.0

    def test_unit_snr(self):
        # P*g/(B*N0) = 1 -> rate = B * log2(2) = B
        assert _rate(1e6, 1e-3, 1.0, 1e-9) == pytest.approx(1e6, rel=1e-12)

    def test_snr_three(self):
        # P*g/N0 = 3e6 with B = 1e6 -> log2(4) = 2 -> 2e6 bits/s
        assert _rate(1e6, 3e-3, 1.0, 1e-9) == pytest.approx(2e6, rel=1e-12)

    def test_invalid_inputs(self):
        # the channel rules refuse what the capacity formula cannot price
        for k, value in ((0, 0.0), (5, 0.0), (1, -1.0)):
            channel = list(_CHANNEL)
            channel[k] = value
            with pytest.raises(ConfigError, match=f"user 0: channel.{_CHANNEL_FIELDS[k]}"):
                _read(_channel_user(*channel))

    def test_concave_increasing_in_bandwidth(self):
        # three-point finite differences at fixed P*g/N0 > 0
        snr_scale = 5e6
        rates = [_rate(b, snr_scale, 1.0, 1.0) for b in (1e6, 2e6, 3e6)]
        assert rates[0] < rates[1] < rates[2]
        assert rates[1] - rates[0] > rates[2] - rates[1]

    def test_monotone_in_power_and_gain(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = float(rng.uniform(1e5, 1e7))
            n0 = float(rng.uniform(1e-10, 1e-8))
            p = float(rng.uniform(0.1, 10.0))
            g = float(rng.uniform(0.0, 2.0))
            assert _rate(b, p * 1.5, g, n0) >= _rate(b, p, g, n0)
            assert _rate(b, p, g + 0.5, n0) >= _rate(b, p, g, n0)

    def test_batch_form_equals_the_formula_in_python_floats(self):
        # np.log2 differs from math.log2 in the last bit on about 0.1% of
        # inputs; 10**4 random channels catch a switch to it.
        rng = np.random.default_rng(11)
        n = 10_000
        b = rng.uniform(1e3, 1e7, n)
        p = rng.uniform(1e-4, 10.0, n)
        g = np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.0, 2.0, n))
        n0 = 10.0 ** rng.uniform(-12, -6, n)
        want = [bi * math.log2(1.0 + pi * gi / (bi * ni))
                for bi, pi, gi, ni in zip(b.tolist(), p.tolist(), g.tolist(), n0.tolist())]
        assert shannon_rates(b, p, g, n0).tolist() == want
        assert [_rate(*args) for args in zip(b[:100], p, g, n0)] == want[:100]
        assert shannon_rates(*(np.zeros(0),) * 4).shape == (0,)

    def test_snr_overflow_gives_inf_or_nan(self):
        # B*N0 underflows to zero, so the SNR divides by zero
        rates = shannon_rates(np.array([1e-200, 1e-200]), np.array([1.0, 1.0]),
                              np.array([1.0, 0.0]), np.array([1e-200, 1e-200]))
        assert rates[0] == math.inf and math.isnan(rates[1])
        with pytest.raises(ConfigError, match="channel must be priced to link rates 0 or "
                                              "within 1e-20..1e20 bytes/s"):
            _read(_channel_user(1e-200, 1.0, 1.0, 1.0, 1.0, 1e-200))


class TestLinkRates:
    def test_direct_single_rate_is_symmetric(self):
        batch = _read({"n_samples": 1, "tflops": 1, "kbps": 10})
        assert (batch.up[0], batch.down[0]) == (10240.0, 10240.0)

    def test_direct_asymmetric_pair(self):
        batch = _read({"n_samples": 1, "tflops": 1, "kbps_up": 10, "kbps_down": 50})
        assert batch.up[0] == 10 * 1024.0
        assert batch.down[0] == 50 * 1024.0

    def test_kb_convention_override(self):
        batch = _read({"n_samples": 1, "tflops": 1, "kbps": 10}, kb_bytes=1000.0)
        assert batch.up[0] == 10000.0

    def test_shannon_zero_gain_gives_zero_rates(self):
        batch = _read(_channel_user(1e6, 1.0, 1.0, 0.0, 0.0, 1e-9))
        assert (batch.up[0], batch.down[0]) == (0.0, 0.0)

    def test_shannon_converts_bits_to_bytes(self):
        batch = _read(_channel_user(1e6, 1e-3, 1e-3, 1.0, 1.0, 1e-9))
        assert batch.up[0] == pytest.approx(1e6 / 8.0, rel=1e-12)

    def test_mode_payload_mismatch(self):
        # a user gives exactly one kind of link
        one_of = "give exactly one of kbps, kbps_up/kbps_down, or channel"
        channel = _channel_user(*_CHANNEL)["channel"]
        for link in ({"kbps": 10, "channel": channel},
                     {"kbps": 10, "kbps_up": 10, "kbps_down": 10}, {}):
            with pytest.raises(ConfigError, match=f"^users.json user 0: {one_of}$"):
                _read({"n_samples": 1, "tflops": 1, **link})
        for link in ({"kbps": 10}, {"kbps_up": 10, "kbps_down": 10}, {"channel": channel}):
            _read({"n_samples": 1, "tflops": 1, **link})

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigError, match="user 0: up must be >= 0"):
            UserBatch.checked(1.0, 1e12, -1.0, 1.0)

    def test_non_finite_rates_rejected(self):
        for up in (math.nan, math.inf):
            with pytest.raises(ConfigError, match="user 0: up must be 0 or within "
                                                  "1e-20..1e20 bytes/s"):
                UserBatch.checked(1.0, 1e12, up, 1.0)


class TestChannelValidation:
    def test_strictly_positive_fields(self):
        for k, value in ((0, 0.0), (3, -0.1)):
            channel = list(_CHANNEL)
            channel[k] = value
            with pytest.raises(ConfigError):
                _read(_channel_user(*channel))

    def test_non_finite_fields_rejected(self):
        for k in range(6):
            for value in (math.nan, math.inf):
                channel = list(_CHANNEL)
                channel[k] = value
                with pytest.raises(ConfigError, match=f"{_CHANNEL_FIELDS[k]} must be finite"):
                    _read(_channel_user(*channel))
