"""ACORN construction parameters and validation (paper Table 1, §5.2)."""

from __future__ import annotations

import dataclasses
import enum
import math


class PruningStrategy(enum.Enum):
    """Level-0 pruning strategies compared in the paper's Figure 12."""

    ACORN = "acorn"               # predicate-agnostic 2-hop pruning (§5.2)
    RNG_BLIND = "rng-blind"       # HNSW's metadata-blind RNG heuristic
    RNG_METADATA = "rng-metadata"  # FilteredDiskANN-style label-aware RNG
    NONE = "none"                 # keep all M·γ candidates


@dataclasses.dataclass(frozen=True)
class AcornParams:
    """Construction parameters for an ACORN index.

    Attributes:
        m: HNSW degree bound M; search truncates every recovered
            neighborhood to M, and the level constant is m_L = 1/ln(M).
        gamma: neighbor expansion factor γ; each node collects M·γ
            candidate edges during construction.  γ = 1/s_min, the
            inverse of the minimum selectivity served before falling
            back to pre-filtering.
        m_beta: compression parameter Mβ ∈ [0, M·γ]; the number of
            nearest candidates retained verbatim on level 0 before
            2-hop pruning applies (§5.2).
        ef_construction: efc, candidate-list size during insertion.  The
            effective construction ef is max(efc, M·γ) because ACORN
            needs at least M·γ candidates per node.
        pruning: which level-0 pruning rule to apply (Figure 12 ablation).
        truncate_construction: whether construction-time traversal reads
            only the first M entries of each neighbor list (the paper's
            metadata-agnostic lookup, §5.2).  Disabling it scans full
            M·γ lists during insertion — slower, marginally better
            candidates; exposed for the construction ablation bench.
        compressed_levels: ``nc``, the number of levels (bottom-up) the
            pruning rule compresses.  The paper targets level 0 only
            (nc = 1) since it dominates the footprint, but §6.1 notes
            compression "could be applied to more levels in bottom-up
            order to further reduce the index size"; this implements
            that generalization.  Ignored when ``pruning`` is NONE.
        flatten_levels: reproduce Qdrant's flattened-graph variant
            (paper §8): draw levels with m_L = 1/ln(M·γ) instead of
            1/ln(M), collapsing the hierarchy the way directly raising
            HNSW's M would.  ACORN deliberately keeps m_L tied to M;
            this switch exists for the ablation showing why.
    """

    m: int = 32
    gamma: int = 12
    m_beta: int | None = None
    ef_construction: int = 40
    pruning: PruningStrategy = PruningStrategy.ACORN
    truncate_construction: bool = True
    compressed_levels: int = 1
    flatten_levels: bool = False

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError(f"M must be at least 2, got {self.m}")
        if self.gamma < 1:
            raise ValueError(f"gamma must be at least 1, got {self.gamma}")
        if self.ef_construction < 1:
            raise ValueError(f"efc must be positive, got {self.ef_construction}")
        if self.m_beta is None:
            object.__setattr__(self, "m_beta", self.m)
        if not 0 <= self.m_beta <= self.m * self.gamma:
            raise ValueError(
                f"M_beta must lie in [0, M*gamma] = [0, {self.m * self.gamma}], "
                f"got {self.m_beta}"
            )
        if not isinstance(self.pruning, PruningStrategy):
            object.__setattr__(self, "pruning", PruningStrategy(self.pruning))
        if self.compressed_levels < 0:
            raise ValueError(
                f"compressed_levels must be non-negative, got "
                f"{self.compressed_levels}"
            )

    @property
    def max_degree(self) -> int:
        """M·γ, the candidate-edge budget per node."""
        return self.m * self.gamma

    @property
    def s_min(self) -> float:
        """Minimum predicate selectivity served by graph search: 1/γ."""
        return 1.0 / self.gamma

    @property
    def m_l(self) -> float:
        """Level normalization constant: 1/ln(M), or 1/ln(M·γ) when the
        Qdrant-style flattening ablation is enabled."""
        base = self.max_degree if self.flatten_levels else self.m
        return 1.0 / math.log(max(base, 2))

    @property
    def effective_ef_construction(self) -> int:
        """max(efc, M·γ) — enough candidates for the expanded lists."""
        return max(self.ef_construction, self.max_degree)

    @classmethod
    def from_s_min(
        cls,
        s_min: float,
        m: int = 32,
        m_beta: int | None = None,
        ef_construction: int = 40,
    ) -> "AcornParams":
        """Choose γ = ceil(1/s_min) from a target minimum selectivity.

        This is the paper's recommended parameterization: pick the
        lowest selectivity the graph should serve before the search
        pre-filters, and size γ accordingly.
        """
        if not 0.0 < s_min <= 1.0:
            raise ValueError(f"s_min must lie in (0, 1], got {s_min}")
        return cls(
            m=m,
            gamma=max(1, math.ceil(1.0 / s_min)),
            m_beta=m_beta,
            ef_construction=ef_construction,
        )

    @classmethod
    def acorn_1(cls, m: int = 32, ef_construction: int = 40) -> "AcornParams":
        """ACORN-1's fixed construction: γ = 1, Mβ = M, no pruning (§5.3)."""
        return cls(
            m=m,
            gamma=1,
            m_beta=m,
            ef_construction=ef_construction,
            pruning=PruningStrategy.NONE,
        )
