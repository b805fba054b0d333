import math

import numpy as np
import pytest

from esfl import (
    ChannelParams,
    ConfigError,
    LinkRates,
    link_rates,
    shannon_rate,
)
from esfl.comm import shannon_rates


class TestShannonRate:
    def test_zero_gain_gives_zero_rate(self):
        assert shannon_rate(1e6, 1.0, 0.0, 1e-9) == 0.0

    def test_unit_snr(self):
        # P*g/(B*N0) = 1 -> rate = B * log2(2) = B
        assert shannon_rate(1e6, 1e-3, 1.0, 1e-9) == pytest.approx(1e6, rel=1e-12)

    def test_snr_three(self):
        # P*g/N0 = 3e6 with B = 1e6 -> log2(4) = 2 -> 2e6 bits/s
        assert shannon_rate(1e6, 3e-3, 1.0, 1e-9) == pytest.approx(2e6, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            shannon_rate(0.0, 1.0, 1.0, 1e-9)
        with pytest.raises(ValueError):
            shannon_rate(1e6, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            shannon_rate(1e6, -1.0, 1.0, 1e-9)

    def test_concave_increasing_in_bandwidth(self):
        # three-point finite differences at fixed P*g/N0 > 0
        snr_scale = 5e6
        rates = [shannon_rate(b, snr_scale, 1.0, 1.0) for b in (1e6, 2e6, 3e6)]
        assert rates[0] < rates[1] < rates[2]
        assert rates[1] - rates[0] > rates[2] - rates[1]

    def test_monotone_in_power_and_gain(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b = float(rng.uniform(1e5, 1e7))
            n0 = float(rng.uniform(1e-10, 1e-8))
            p = float(rng.uniform(0.1, 10.0))
            g = float(rng.uniform(0.0, 2.0))
            assert shannon_rate(b, p * 1.5, g, n0) >= shannon_rate(b, p, g, n0)
            assert shannon_rate(b, p, g + 0.5, n0) >= shannon_rate(b, p, g, n0)

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
        assert [shannon_rate(*args) for args in zip(b[:100], p, g, n0)] == want[:100]
        assert shannon_rates(*(np.zeros(0),) * 4).shape == (0,)

    def test_snr_overflow_gives_inf_or_nan(self):
        # B*N0 underflows to zero, so the SNR divides by zero
        rates = shannon_rates(np.array([1e-200, 1e-200]), np.array([1.0, 1.0]),
                              np.array([1.0, 0.0]), np.array([1e-200, 1e-200]))
        assert rates[0] == math.inf and math.isnan(rates[1])
        assert shannon_rate(1e-200, 1.0, 1.0, 1e-200) == math.inf
        with pytest.raises(ConfigError, match="finite"):
            link_rates("shannon", channel=ChannelParams(1e-200, 1.0, 1.0, 1.0, 1.0, 1e-200))


class TestLinkRates:
    def test_direct_single_rate_is_symmetric(self):
        rates = link_rates("direct", direct_kbps=10)
        assert rates == LinkRates(up=10240.0, down=10240.0)

    def test_direct_asymmetric_pair(self):
        rates = link_rates("direct", direct_kbps=(10, 50))
        assert rates.up == 10 * 1024.0
        assert rates.down == 50 * 1024.0

    def test_kb_convention_override(self):
        rates = link_rates("direct", direct_kbps=10, kb_bytes=1000.0)
        assert rates.up == 10000.0

    def test_shannon_zero_gain_gives_zero_rates(self):
        ch = ChannelParams(1e6, 1.0, 1.0, 0.0, 0.0, 1e-9)
        assert link_rates("shannon", channel=ch) == LinkRates(0.0, 0.0)

    def test_shannon_converts_bits_to_bytes(self):
        ch = ChannelParams(1e6, 1e-3, 1e-3, 1.0, 1.0, 1e-9)
        rates = link_rates("shannon", channel=ch)
        assert rates.up == pytest.approx(1e6 / 8.0, rel=1e-12)

    def test_mode_payload_mismatch(self):
        ch = ChannelParams(1e6, 1.0, 1.0, 1.0, 1.0, 1e-9)
        with pytest.raises(ConfigError):
            link_rates("direct", channel=ch)
        with pytest.raises(ConfigError):
            link_rates("shannon", direct_kbps=10)
        with pytest.raises(ConfigError):
            link_rates("direct", direct_kbps=10, channel=ch)
        with pytest.raises(ConfigError):
            link_rates("fancy", direct_kbps=10)

    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigError):
            LinkRates(-1.0, 1.0)

    def test_non_finite_rates_rejected(self):
        for up in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                LinkRates(up, 1.0)


class TestChannelValidation:
    def test_strictly_positive_fields(self):
        with pytest.raises(ConfigError):
            ChannelParams(0.0, 1.0, 1.0, 1.0, 1.0, 1e-9)
        with pytest.raises(ConfigError):
            ChannelParams(1e6, 1.0, 1.0, -0.1, 1.0, 1e-9)

    def test_non_finite_fields_rejected(self):
        for k in range(6):
            for value in (math.nan, math.inf):
                args = [1e6, 1.0, 1.0, 1.0, 1.0, 1e-9]
                args[k] = value
                with pytest.raises(ConfigError):
                    ChannelParams(*args)
