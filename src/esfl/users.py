"""User device profiles: data volume, local resources, and link rates."""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Struct-of-arrays view of a user list: one (S,) array per attribute.

    Built once per planner or round call, so the latency kernel and the
    feasibility mask read arrays instead of re-walking Python objects.
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

    def __len__(self) -> int:
        return len(self.user_ids)


Users = Sequence[UserProfile] | UserBatch  # what the batch-aware functions accept
