"""The :class:`GridLayout` container: placements + wire table + layers.

A layout's *area* is the area of the smallest upright rectangle
containing all nodes and wires (Section 2.2); its *volume* is
``layers * area``.  Both are exact integer quantities here, since the
model is the paper's own grid model rather than a physical substrate.

A layout stores its geometry once, as a
:class:`~repro.grid.table.WireTable`: producers hand it a finished
table, mutations (``place``, ``add_wire``, ``replace_wire``,
``splice``) swap in an edited one, and measurement reads its columns.
:attr:`GridLayout.wires` is a read-only :class:`WireView` of ``Wire``
objects built from the rows on first read and kept in step by later
edits (only the inserted rows are built), so code that only measures,
validates or serializes never creates one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Hashable

from repro.grid.geometry import Rect
from repro.grid.table import WireTable
from repro.grid.wire import Wire, sorted_pair

__all__ = ["Placement", "GridLayout", "WireView"]


@dataclass(frozen=True, slots=True)
class Placement:
    """A node embedded as a square (or rectangle) in the active layer."""

    node: Hashable
    rect: Rect
    layer: int = 1


class WireView(Sequence):
    """A layout's wires as ``Wire`` objects, in table order: read-only,
    and kept in step with the layout's edits (slices are tuples)."""

    __slots__ = ("_items",)

    def __init__(self, items: list):
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._items[i])
        return self._items[i]

    def __iter__(self):
        return iter(self._items)


class GridLayout:
    """A complete multilayer grid layout.

    Attributes
    ----------
    layers:
        Number of wiring layers ``L`` the layout is entitled to use
        (the multilayer 2-D grid model).  Wires may use fewer -- with
        odd ``L`` the orthogonal scheme uses ``L - 1`` (Section 2.4) --
        but never more; the validator enforces the bound.
    placements:
        Node squares, keyed by node label.  Add nodes with
        :meth:`place`; the table's node columns follow this dict.
    wires:
        Routed nets, one per network edge (parallel edges are separate
        wires distinguished by ``edge_key``): a read-only view of the
        table's rows (a :class:`WireView`).
    meta:
        Free-form provenance written by the layout schemes (scheme name,
        channel structure, track counts); benches and tests read it.
    """

    __slots__ = ("layers", "placements", "meta", "_table", "_wires")

    def __init__(
        self,
        layers: int,
        placements: dict[Hashable, Placement] | None = None,
        table: WireTable | None = None,
        meta: dict | None = None,
    ):
        """A layout over ``placements`` whose geometry is ``table`` (a
        :class:`~repro.grid.table.WireTable` built over them; none
        means no wires yet)."""
        self.layers = layers
        self.placements = {} if placements is None else placements
        self.meta = {} if meta is None else meta
        self._table = (
            WireTable.from_wires((), self.placements) if table is None
            else table
        )
        self._wires: list[Wire] | None = None

    def __repr__(self) -> str:
        return (
            f"GridLayout(layers={self.layers!r}, "
            f"placements={len(self.placements)}, "
            f"wires={self._table.num_wires}, meta={self.meta!r})"
        )

    @property
    def wires(self) -> WireView:
        """The wires as ``Wire`` objects, built from the table's rows on
        first read (edit through the mutation methods, not the view)."""
        if self._wires is None:
            self._wires = self._table.build_wires()
        return WireView(self._wires)

    # -- construction ---------------------------------------------------

    def place(self, node: Hashable, rect: Rect, layer: int = 1) -> None:
        if node in self.placements:
            raise ValueError(f"node placed twice: {node!r}")
        self.placements[node] = Placement(node, rect, layer)
        self._table = self._table.with_nodes(self.placements)

    def add_wire(self, wire: Wire) -> None:
        n = self._table.num_wires
        self.splice(n, n, WireTable.from_wires([wire], {}))

    def replace_wire(self, i: int, wire: Wire) -> None:
        """Swap wire ``i`` for ``wire``."""
        i = range(self._table.num_wires)[i]  # IndexError when out of range
        self.splice(i, i + 1, WireTable.from_wires([wire], {}))

    def splice(self, i: int, j: int, rows: WireTable) -> None:
        """Replace wires ``i..j-1`` with the wires of ``rows`` (``i ==
        j`` inserts)."""
        if not 0 <= i <= j <= self._table.num_wires:
            raise IndexError(f"bad wire range {i}..{j}")
        self._table = self._table.splice(i, j, rows)
        if self._wires is not None:
            # Keep a view already built in step: only the new rows
            # become ``Wire`` objects.
            self._wires[i:j] = rows.build_wires()

    def wire_table(self) -> WireTable:
        """The layout's geometry: a structure-of-arrays
        :class:`~repro.grid.table.WireTable`."""
        return self._table

    # -- measurement ----------------------------------------------------

    def bounding_box(self) -> Rect:
        """Smallest upright rectangle containing all nodes and wires."""
        bounds = self.wire_table().bounds()
        if bounds is None:
            return Rect(0, 0, 0, 0)
        x0, y0, x1, y1 = bounds
        return Rect(x0, y0, x1 - x0, y1 - y0)

    @property
    def width(self) -> int:
        return self.bounding_box().w

    @property
    def height(self) -> int:
        return self.bounding_box().h

    @property
    def area(self) -> int:
        bb = self.bounding_box()
        return bb.w * bb.h

    @property
    def volume(self) -> int:
        return self.layers * self.area

    def max_wire_length(self) -> int:
        return self.wire_table().max_wire_length()

    def total_wire_length(self) -> int:
        return self.wire_table().total_wire_length()

    def layers_used(self) -> set[int]:
        return self.wire_table().layers_used()

    def via_count(self) -> int:
        return self.wire_table().via_count()

    # -- structure ------------------------------------------------------

    def edge_multiset(self) -> dict[tuple, int]:
        """Multiset of routed node pairs, for topology verification."""
        table = self.wire_table()
        out: dict[tuple, int] = {}
        for u, v in zip(table.wire_u, table.wire_v):
            key = sorted_pair(u, v)
            out[key] = out.get(key, 0) + 1
        return out

    def wire_lengths_by_edge(self) -> dict[tuple, int]:
        """Map (u, v, edge_key) -> routed length, endpoints sorted."""
        table = self.wire_table()
        return {
            (*sorted_pair(u, v), k): ln
            for u, v, k, ln in zip(
                table.wire_u, table.wire_v, table.wire_edge_key,
                table.wire_lengths(),
            )
        }

    def summary(self) -> dict:
        """A metrics snapshot used by benches and EXPERIMENTS.md."""
        bb = self.bounding_box()
        return {
            "nodes": len(self.placements),
            "wires": self.wire_table().num_wires,
            "layers": self.layers,
            "layers_used": len(self.layers_used()),
            "width": bb.w,
            "height": bb.h,
            "area": bb.w * bb.h,
            "volume": self.layers * bb.w * bb.h,
            "max_wire_length": self.max_wire_length(),
            "total_wire_length": self.total_wire_length(),
            "vias": self.via_count(),
        }
