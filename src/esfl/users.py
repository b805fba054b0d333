"""User device profiles: data volume, local resources, and link rates."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .comm import LinkRates
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
