"""``UserBatch.checked``: the one checked way to build a round of users."""

import math

import numpy as np
import pytest

from esfl import ConfigError, UserBatch


def _columns(**changes):
    """Three valid users' columns in library units, with ``changes``."""
    return {"n_samples": [200.0, 400.0, 600.0], "compute_flops": 1.3e12,
            "up": 10240.0, "down": [10240.0, 5120.0, 0.0], **changes}


class TestChecked:
    def test_defaults_and_broadcast(self):
        batch = UserBatch.checked(**_columns())
        assert batch.shape == (3,)
        assert batch.user_ids.tolist() == [0, 1, 2]
        assert batch.compute_flops.tolist() == [1.3e12] * 3
        assert batch.epochs.dtype == float and batch.epochs.tolist() == [5.0] * 3
        assert batch.storage_bytes.tolist() == batch.memory_bytes.tolist() == [math.inf] * 3

    def test_arrays_are_the_batchs_own(self):
        n_samples = np.array([200.0, 400.0, 600.0])
        batch = UserBatch.checked(**_columns(n_samples=n_samples))
        n_samples[0] = 1.0
        assert batch.n_samples[0] == 200.0

    def test_zero_and_fractional_epochs_refused(self):
        for epochs in (0, 2.5, -1, math.nan):
            with pytest.raises(ConfigError, match="^user 1: epochs must be "):
                UserBatch.checked(**_columns(epochs=[5, epochs, 5]))
        assert UserBatch.checked(**_columns(epochs=[1, 2, 20])).epochs.tolist() == [1, 2, 20]

    def test_first_bad_user_is_named_by_id(self):
        # user ids 7, 8, 9: the lowest bad position wins, whatever its field
        bad = _columns(compute_flops=[1.3e12, 1.3e12, 0.0], memory_bytes=[0.0, -1.0, 0.0])
        with pytest.raises(ConfigError, match=r"^user 8: memory_bytes must be >= 0$"):
            UserBatch.checked(**bad, user_ids=[7, 8, 9])
        # of the rules failing at one user, the earliest field's
        bad = _columns(n_samples=[200.0, math.inf, 600.0], up=[1.0, -1.0, 1.0])
        with pytest.raises(ConfigError,
                           match=r"^user 1: n_samples must be 0 or within 1e-20\.\.1e20 samples$"):
            UserBatch.checked(**bad)

    def test_unlimited_storage_but_no_nan(self):
        UserBatch.checked(**_columns(storage_bytes=math.inf, memory_bytes=0.0))
        with pytest.raises(ConfigError, match="user 0: storage_bytes must be a number"):
            UserBatch.checked(**_columns(storage_bytes=math.nan))

    def test_one_round_only(self):
        with pytest.raises(ValueError, match="one round"):
            UserBatch.checked(np.ones((2, 3)), 1e12, 1.0, 1.0)
        with pytest.raises(ValueError):
            UserBatch.checked(**_columns(user_ids=[0, 1]))
