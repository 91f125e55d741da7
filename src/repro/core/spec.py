"""Input specification for the orthogonal multilayer layout builder.

The orthogonal scheme (Section 2.4) sees a network as an R x C grid of
*cells* -- a cell is either one node or one cluster block (recursive
grid scheme, Section 2.3) -- plus links classified as:

* **row links**: both endpoints in the same cell row; routed in the
  horizontal channel above that row;
* **column links**: both endpoints in the same cell column; routed in
  the vertical channel right of that column;
* **extra links**: arbitrary endpoints (the folded-hypercube /
  enhanced-cube diameter links of Section 5.3); each is granted one
  dedicated horizontal track in its source row's channel and one
  dedicated vertical track in its target column's channel, exactly the
  accounting behind the paper's 49N^2/(9L^2) folded-hypercube bound.

Link endpoints name real network nodes, so cluster blocks know which
member node each inter-cluster wire must reach.

Links come in one of two forms.  The schemes emit :class:`LinkColumns`:
int columns of cell rows and columns, node ids into one node table,
kinds and edge keys.  Hand-written specs list :class:`LinkSpec`
objects per kind; :meth:`LayoutSpec.link_columns` converts them to
columns in one pass, and that is the only place a ``LinkSpec`` is read.
Validation (:meth:`LayoutSpec.check`) runs on the columns with array
masks and reports the first offending link.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as _np

__all__ = ["NodeCell", "BlockCell", "LinkSpec", "LinkColumns", "LayoutSpec"]

Node = Hashable
CellPos = tuple[int, int]  # (row, col)

# Link kinds, numbered in the order their names sort ("col" < "extra" <
# "row"); the builder numbers block strips 3.
COL, EXTRA, ROW = range(3)


@dataclass(slots=True)
class NodeCell:
    """A cell holding a single network node as a ``side x side`` square.

    Under the Thompson convention ``side`` is the node degree; the
    multilayer model lets it grow up to ``o(Area/N)`` without affecting
    the leading constants (the scalability claim of Section 3.2), which
    benchmarks exercise by sweeping ``side``.
    """

    node: Node
    side: int

    def __post_init__(self) -> None:
        if self.side < 1:
            raise ValueError("node side >= 1")


@dataclass(slots=True)
class BlockCell:
    """A cell holding a cluster, laid out as a strip inside the block.

    The strip layout (one level of the recursive grid scheme of Section
    2.3) places the cluster's nodes side by side, routes intra-cluster
    edges in tracks *below* the node row, and reserves a distribution
    region *above* it where external links fan in: top-entering links
    drop straight to their target node's pin; side-entering links ride
    a dedicated distribution track to the target's column first.

    Parameters
    ----------
    label:
        The cluster's identity (the quotient supernode).
    nodes:
        Member nodes in strip order (choose a low-cutwidth order; e.g.
        cycle order for CCC clusters, binary order for hypercube
        clusters).
    edges:
        Intra-cluster edges between member nodes.
    node_side:
        Side of each member node's square.
    """

    label: Hashable
    nodes: list[Node]
    edges: list[tuple[Node, Node]]
    node_side: int

    def __post_init__(self) -> None:
        if self.node_side < 1:
            raise ValueError("node side >= 1")
        members = set(self.nodes)
        if len(members) != len(self.nodes):
            raise ValueError(f"block {self.label!r}: duplicate members")
        for u, v in self.edges:
            if u not in members or v not in members:
                raise ValueError(
                    f"block {self.label!r}: edge ({u!r},{v!r}) leaves block"
                )


@dataclass(slots=True)
class LinkSpec:
    """One network edge to route between cells.

    ``u_node`` / ``v_node`` are the real endpoints; ``u_cell`` /
    ``v_cell`` their grid positions.  ``edge_key`` discriminates
    parallel links (PN-cluster quotients).
    """

    u_cell: CellPos
    v_cell: CellPos
    u_node: Node
    v_node: Node
    edge_key: int = 0

    @property
    def same_row(self) -> bool:
        return self.u_cell[0] == self.v_cell[0]

    @property
    def same_col(self) -> bool:
        return self.u_cell[1] == self.v_cell[1]


@dataclass(slots=True)
class LinkColumns:
    """A spec's links as int columns, one entry per link.

    ``u_node`` / ``v_node`` index :attr:`nodes`; ``kind`` is
    :data:`COL`, :data:`EXTRA` or :data:`ROW`, and the links of one
    kind keep their column order as their index.  This is the form the
    schemes emit and the builder consumes.
    """

    nodes: list[Node]
    kind: _np.ndarray
    u_row: _np.ndarray
    u_col: _np.ndarray
    v_row: _np.ndarray
    v_col: _np.ndarray
    u_node: _np.ndarray
    v_node: _np.ndarray
    edge_key: _np.ndarray

    @classmethod
    def from_specs(
        cls, row_links: Sequence[LinkSpec], col_links: Sequence[LinkSpec],
        extra_links: Sequence[LinkSpec],
    ) -> "LinkColumns":
        """Columns for :class:`LinkSpec` lists, in one pass."""
        index: dict[Node, int] = {}
        ident = lambda v: index.setdefault(v, len(index))  # noqa: E731
        flat = [
            (*link.u_cell, *link.v_cell, ident(link.u_node),
             ident(link.v_node), link.edge_key)
            for link in (*row_links, *col_links, *extra_links)
        ]
        a = _np.array(flat, dtype=_np.int64).reshape(-1, 7)
        kind = _np.repeat(
            [ROW, COL, EXTRA],
            [len(row_links), len(col_links), len(extra_links)],
        )
        return cls(list(index), kind, *a.T)

    def link(self, i: int) -> LinkSpec:
        """Link ``i`` as a :class:`LinkSpec` (for messages)."""
        return LinkSpec(
            (int(self.u_row[i]), int(self.u_col[i])),
            (int(self.v_row[i]), int(self.v_col[i])),
            self.nodes[self.u_node[i]], self.nodes[self.v_node[i]],
            int(self.edge_key[i]),
        )


@dataclass(slots=True)
class NodeHomes:
    """Where each node of a node table lives, as per-node columns.

    ``row``/``col`` give the home cell (-1: in no cell), ``block`` the
    number of the home :class:`BlockCell` in :attr:`blocks` (-1 for a
    :class:`NodeCell`), ``member`` the strip position inside it, and
    ``side`` the node square's side.
    """

    nodes: list[Node]
    index: dict[Node, int]
    row: _np.ndarray
    col: _np.ndarray
    block: _np.ndarray
    member: _np.ndarray
    side: _np.ndarray
    blocks: list[tuple[CellPos, BlockCell]]


@dataclass(slots=True)
class LayoutSpec:
    """Complete input to :func:`repro.core.builder.build_orthogonal_layout`.

    Links come either as :attr:`links` columns (what the schemes emit)
    or as :class:`LinkSpec` lists, the hand-written form; not both.
    """

    rows: int
    cols: int
    cells: dict[CellPos, NodeCell | BlockCell]
    row_links: list[LinkSpec] = field(default_factory=list)
    col_links: list[LinkSpec] = field(default_factory=list)
    extra_links: list[LinkSpec] = field(default_factory=list)
    layers: int = 2
    name: str = "layout"
    links: LinkColumns | None = None

    def link_columns(self) -> LinkColumns:
        """The links as columns, converting the lists if need be."""
        if self.links is None:
            return LinkColumns.from_specs(
                self.row_links, self.col_links, self.extra_links
            )
        if self.row_links or self.col_links or self.extra_links:
            raise ValueError("give links as columns or as lists, not both")
        return self.links

    def validate(self) -> None:
        self.check(self.link_columns())

    def check(self, links: LinkColumns) -> NodeHomes:
        """Validate the spec with ``links`` as its links; return the
        nodes' homes.  The first offending link (rows, then columns,
        then extras) is reported."""
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must be at least 1 x 1")
        if self.layers < 2:
            raise ValueError(
                "the multilayer grid model needs L >= 2 (one horizontal "
                "+ one vertical layer)"
            )
        for pos in self.cells:
            i, j = pos
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise ValueError(f"cell {pos} outside the {self.rows}x{self.cols} grid")
        homes = self._homes(links.nodes)
        ur, uc, vr, vc = links.u_row, links.u_col, links.v_row, links.v_col
        same_cell = (ur == vr) & (uc == vc)
        stray = (
            (homes.row[links.u_node] != ur) | (homes.col[links.u_node] != uc)
            | (homes.row[links.v_node] != vr) | (homes.col[links.v_node] != vc)
        )
        for kind, shape, why in (
            (ROW, (ur != vr) | same_cell, "bad row link {}"),
            (COL, (uc != vc) | same_cell, "bad column link {}"),
            (EXTRA, same_cell, "extra link within one cell: {}"),
        ):
            bad = (links.kind == kind) & (shape | stray)
            if bad.any():
                i = int(_np.argmax(bad))
                link = links.link(i)
                if shape[i]:
                    raise ValueError(why.format(link))
                self._check_endpoint(link.u_cell, link.u_node)
                self._check_endpoint(link.v_cell, link.v_node)
        return homes

    def _check_endpoint(self, pos: CellPos, node: Node) -> None:
        cell = self.cells.get(pos)
        if cell is None:
            raise ValueError(f"link endpoint in empty cell {pos}")
        if isinstance(cell, NodeCell):
            if cell.node != node:
                raise ValueError(
                    f"link names node {node!r} but cell {pos} holds "
                    f"{cell.node!r}"
                )
        elif node not in cell.nodes:
            raise ValueError(
                f"link names node {node!r} absent from block at {pos}"
            )

    def _homes(self, nodes: list[Node]) -> NodeHomes:
        nodes = list(nodes)
        index = {v: i for i, v in enumerate(nodes)}
        placed: list[tuple[int, int, int, int, int, int]] = []
        blocks = []
        for pos, cell in self.cells.items():
            if isinstance(cell, NodeCell):
                members, b, side = [cell.node], -1, cell.side
            else:
                members, b, side = cell.nodes, len(blocks), cell.node_side
                blocks.append((pos, cell))
            for m, v in enumerate(members):
                i = index.setdefault(v, len(index))
                if i == len(nodes):
                    nodes.append(v)
                placed.append((i, *pos, b, m, side))
        cols = _np.array(placed, dtype=_np.int64).reshape(-1, 6).T
        twice = _np.bincount(cols[0], minlength=len(nodes)) > 1
        if twice.any():
            raise ValueError(f"node placed twice: {nodes[int(_np.argmax(twice))]!r}")
        row, col, block, member, side = (
            _np.full(len(nodes), fill, dtype=_np.int64) for fill in (-1, -1, -1, 0, 0)
        )
        for arr, values in zip((row, col, block, member, side), cols[1:]):
            arr[cols[0]] = values
        return NodeHomes(nodes, index, row, col, block, member, side, blocks)

    def all_links(self) -> Sequence[LinkSpec]:
        """The :class:`LinkSpec` lists, concatenated."""
        return [*self.row_links, *self.col_links, *self.extra_links]
