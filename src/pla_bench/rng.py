"""Deterministic, hierarchically derivable random number generation.

Every stochastic routine in the package takes an explicit ``Rng``. A
parent stream can mint independent child streams with :meth:`Rng.derive`,
keyed by integer indices, so that parallel shards draw identical numbers
no matter how work is scheduled across processes.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError


class Rng:
    """Counter-based generator (Philox) addressed by (seed, key path).

    ``Rng(seed).derive(3, 7)`` always denotes the same stream, independent
    of whatever was drawn from the parent or siblings beforehand.
    """

    __slots__ = ("seed", "key", "gen")

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        if not (0 <= int(seed) < 2**64):
            raise ConfigError("seed must fit in 64 unsigned bits")
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.key)
        self.gen = np.random.Generator(np.random.Philox(ss))

    def derive(self, *indices: int) -> "Rng":
        """Child stream addressed by appending ``indices`` to the key path."""
        return Rng(self.seed, self.key + tuple(int(i) for i in indices))

    # Pass through the numpy Generator API for the handful of methods the
    # package actually uses; anything else is reachable via ``.gen``.
    def standard_normal(self, *args, **kwargs):
        return self.gen.standard_normal(*args, **kwargs)

    def standard_exponential(self, *args, **kwargs):
        return self.gen.standard_exponential(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self.gen.uniform(*args, **kwargs)

    def integers(self, *args, **kwargs):
        return self.gen.integers(*args, **kwargs)

    def permutation(self, *args, **kwargs):
        return self.gen.permutation(*args, **kwargs)

    def choice(self, *args, **kwargs):
        return self.gen.choice(*args, **kwargs)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, key={self.key})"
