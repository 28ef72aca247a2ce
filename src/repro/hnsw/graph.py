"""Layered adjacency storage shared by HNSW and ACORN indices.

Levels are stored sparsely: level 0 contains every node, higher levels
only the nodes whose sampled maximum level reaches them.  Neighbor lists
are plain Python lists of node ids kept in ascending-distance-from-owner
order — ordering is semantically meaningful for ACORN, whose search
takes the *first* M (or first Mβ) entries of a list.
"""

from __future__ import annotations

import hashlib

import numpy as np


def csr_rows(keys, values: list, starts: np.ndarray, stops: np.ndarray) -> dict:
    """``{key: values[start:stop]}`` for each key and its bounds, in
    order — how per-node lists are cut from a level's CSR (a decoded
    image's, or a fold's remapped copy of its base's)."""
    return {key: values[start:stop] for key, start, stop in zip(
        keys, starts.tolist(), stops.tolist())}


class LayeredGraph:
    """A multi-level directed graph over integer node ids.

    Attributes:
        entry_point: id of the global entry node (-1 while empty).
    """

    def __init__(self) -> None:
        self._levels: list[dict[int, list[int]]] = []
        self._node_levels: list[int] = []
        self.entry_point = -1

    @classmethod
    def from_adjacency(
        cls,
        node_levels: list[int],
        levels: list[dict[int, list[int]]],
        entry_point: int,
    ) -> "LayeredGraph":
        """A graph holding ``levels`` (one ``{node_id: neighbor list}``
        mapping per level, nodes in ascending id order) as they are —
        how a loaded index rebuilds its graph from the stored CSR."""
        graph = cls()
        graph._node_levels = node_levels
        graph._levels = levels
        graph.entry_point = entry_point
        return graph

    def __len__(self) -> int:
        return len(self._node_levels)

    @property
    def max_level(self) -> int:
        """Highest populated level index (-1 while empty)."""
        return len(self._levels) - 1

    def node_level(self, node_id: int) -> int:
        """Maximum level index of ``node_id`` (paper's ``l(v)``)."""
        return self._node_levels[node_id]

    def add_node(self, node_id: int, level: int) -> None:
        """Register a node present on levels ``0..level`` inclusive."""
        if node_id != len(self._node_levels):
            raise ValueError(
                f"nodes must be added densely: expected id {len(self._node_levels)}, "
                f"got {node_id}"
            )
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        self._node_levels.append(level)
        while len(self._levels) <= level:
            self._levels.append({})
        for lev in range(level + 1):
            self._levels[lev][node_id] = []
        # The entry point is NOT updated here: indices promote a node to
        # entry only after linking it, so in-progress inserts are never
        # used as search seeds.

    def neighbors(self, node_id: int, level: int) -> list[int]:
        """The (mutable) neighbor list of ``node_id`` at ``level``."""
        return self._levels[level][node_id]

    def level_adjacency(self, level: int) -> dict[int, list[int]]:
        """The live ``{node_id: neighbor list}`` mapping of ``level``.

        The mapping itself, not a copy: the insert kernel
        (:func:`~repro.hnsw.traversal.search_live_level`) indexes it
        once per hop instead of calling :meth:`neighbors`.  Read-only
        for callers — edit lists through :meth:`set_neighbors`.
        """
        return self._levels[level]

    def set_neighbors(self, node_id: int, level: int, neighbor_ids: list[int]) -> None:
        """Replace the neighbor list of ``node_id`` at ``level``."""
        self._levels[level][node_id] = list(neighbor_ids)

    def nodes_at_level(self, level: int) -> list[int]:
        """All node ids present on ``level``."""
        return list(self._levels[level])

    def num_nodes_at_level(self, level: int) -> int:
        """Population of ``level``."""
        return len(self._levels[level])

    def num_edges(self, level: int | None = None) -> int:
        """Directed edge count on ``level`` (or across all levels)."""
        if level is not None:
            return sum(len(lst) for lst in self._levels[level].values())
        return sum(self.num_edges(lev) for lev in range(len(self._levels)))

    def average_out_degree(self, level: int) -> float:
        """Mean neighbor-list length on ``level`` (0.0 if empty)."""
        population = self.num_nodes_at_level(level)
        if population == 0:
            return 0.0
        return self.num_edges(level) / population

    def nbytes(self, bytes_per_edge: int = 4) -> int:
        """Approximate serialized footprint of the adjacency structure.

        Counts ``bytes_per_edge`` per directed edge plus a 4-byte level
        marker per node, matching how the paper sizes graph indices
        (Table 5 reports vectors + index together; callers add the
        vector payload).
        """
        return self.num_edges() * bytes_per_edge + 4 * len(self._node_levels)

    def checksum(self) -> str:
        """Content-exact digest of the graph.

        Hashes the entry point, every node's level, and every per-level
        adjacency list (in node-id order, preserving stored neighbor
        order).  Two graphs share a checksum iff they have identical
        adjacency — the equality the byte-identity tests assert.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(str(self.entry_point).encode())
        for level in self._node_levels:
            h.update(b"|%d" % level)
        for lev, adjacency in enumerate(self._levels):
            h.update(b"/L%d" % lev)
            for node in sorted(adjacency):
                row = np.asarray([node, -1] + adjacency[node], dtype=np.int64)
                h.update(row.tobytes())
        return h.hexdigest()

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on breakage.

        Invariants: every neighbor exists on the same level, no
        self-loops, no duplicate entries within one list.  Used by tests
        and available to callers debugging a custom construction.
        """
        for level, adjacency in enumerate(self._levels):
            for node_id, neighbor_ids in adjacency.items():
                assert len(set(neighbor_ids)) == len(neighbor_ids), (
                    f"duplicate neighbors for node {node_id} at level {level}"
                )
                for other in neighbor_ids:
                    assert other != node_id, (
                        f"self-loop at node {node_id}, level {level}"
                    )
                    assert other in adjacency, (
                        f"node {node_id} at level {level} links to {other}, "
                        f"which is absent from that level"
                    )
