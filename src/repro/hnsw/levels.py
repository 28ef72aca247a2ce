"""Stochastic level assignment for hierarchical graph indices.

HNSW draws each inserted node's maximum level from an exponentially
decaying distribution ``l = floor(-ln(U) * m_L)`` with normalization
constant ``m_L = 1/ln(M)`` (paper §2.1).  ACORN deliberately keeps the
*same* constant despite its denser M·γ lists (paper §6.3.1 "Hierarchy"):
sampling nodes of any predicate subgraph at HNSW's level rates is what
makes the subgraph emulate an oracle partition, and is exactly the
property Qdrant's flattened variant loses (paper §8).
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.rng import default_rng


def level_normalization(m: int) -> float:
    """The constant ``m_L = 1 / ln(M)``."""
    if m < 2:
        raise ValueError(f"M must be at least 2, got {m}")
    return 1.0 / math.log(m)


class LevelGenerator:
    """Draws maximum-level indices for inserted nodes."""

    def __init__(self, m: int, seed: int | np.random.Generator | None = None) -> None:
        self.m_l = level_normalization(m)
        self._rng = default_rng(seed)

    def draw(self) -> int:
        """Sample one maximum level: ``floor(-ln(unif(0,1)) * m_L)``."""
        u = self._rng.random()
        # random() lies in [0, 1); guard the measure-zero log(0) case.
        while u == 0.0:
            u = self._rng.random()
        return int(-math.log(u) * self.m_l)

    @property
    def state(self) -> dict:
        """The bit generator's state: restoring it on another generator
        makes that one continue this one's stream (persistence saves it
        so ``add()`` after a load replays ``add()`` without the load)."""
        return self._rng.bit_generator.state

    @state.setter
    def state(self, state: dict) -> None:
        bit_generator = getattr(np.random, state["bit_generator"])()
        bit_generator.state = state
        self._rng = np.random.Generator(bit_generator)

    def expected_levels(self) -> float:
        """``E[l + 1] = m_L + 1`` (paper §6.1)."""
        return self.m_l + 1.0
