"""Butterfly networks (Section 4.2).

An ``R x R`` butterfly (R = 2^m) has nodes ``(level, row)`` with
``level`` in 0..m and ``row`` in 0..R-1, so N = (m+1) 2^m ~ R log2 R.
Level-i nodes connect to level-(i+1) nodes by a *straight* edge (same
row) and a *cross* edge (rows differing in bit i).

The paper lays butterflies out as PN clusters: partitioned into
``r (log2 R + 1)``-node clusters whose quotient is a generalized
hypercube with 4 parallel links per adjacent pair (ref. [35]).  The
``row_pair_partition`` here realizes that structure for r = 2: cluster
``q`` holds rows ``2q`` and ``2q+1`` across all levels; the four edges
between clusters ``q`` and ``q ^ 2^(i-1)`` are the two cross pairs of
level i (two rows, two directions).  Tests verify the quotient is the
(m-1)-dimensional binary hypercube with uniform multiplicity 4.
"""

from __future__ import annotations

from typing import Sequence

from repro.topology.base import Edge, Network, Node
from repro.topology.partition import Partition

__all__ = ["Butterfly"]


class Butterfly(Network):
    """The (unwrapped) butterfly with 2^m rows and m+1 levels."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m >= 1")
        self.m = m
        self.rows = 1 << m
        self.levels = m + 1
        self.name = f"butterfly(m={m})"

    def _build_nodes(self) -> Sequence[Node]:
        return [
            (lvl, row) for row in range(self.rows) for lvl in range(self.levels)
        ]

    def _build_edges(self) -> Sequence[Edge]:
        edges: list[Edge] = []
        for row in range(self.rows):
            for lvl in range(self.m):
                edges.append(((lvl, row), (lvl + 1, row)))  # straight
                edges.append(((lvl, row), (lvl + 1, row ^ (1 << lvl))))  # cross
        return edges

    def row_pair_partition(self) -> Partition:
        """The r = 2 clustering of Section 4.2 (see module docstring).

        Requires m >= 2 so the quotient has at least one dimension.
        Cluster labels are ints 0 .. 2^(m-1) - 1.
        """
        if self.m < 2:
            raise ValueError("row-pair partition needs m >= 2")
        mapping = {(lvl, row): row >> 1 for (lvl, row) in self.nodes}
        return Partition(mapping, name="butterfly-row-pairs")
