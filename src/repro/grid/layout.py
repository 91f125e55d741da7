"""The :class:`GridLayout` container: placements + wires + layer count.

A layout's *area* is the area of the smallest upright rectangle
containing all nodes and wires (Section 2.2); its *volume* is
``layers * area``.  Both are exact integer quantities here, since the
model is the paper's own grid model rather than a physical substrate.

Measurement methods route through the layout's cached
:class:`~repro.grid.table.WireTable` -- a structure-of-arrays flattening
of the wire geometry built once per layout (see :meth:`GridLayout.wire_table`
for the cache-invalidation rule).  A layout can also be *table-born*
(:meth:`GridLayout.from_table`, the orthogonal builder's output): the
table is its geometry from the start, and the ``Wire`` list is built
from the table's rows on first access to :attr:`GridLayout.wires`, so
code that only measures, validates or serializes never creates one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from repro import obs
from repro.grid.geometry import Rect, Segment
from repro.grid.wire import Wire, sorted_pair

__all__ = ["Placement", "GridLayout"]


@dataclass(frozen=True, slots=True)
class Placement:
    """A node embedded as a square (or rectangle) in the active layer."""

    node: Hashable
    rect: Rect
    layer: int = 1


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
        Node squares, keyed by node label.
    wires:
        Routed nets, one per network edge (parallel edges are separate
        wires distinguished by ``edge_key``).  A table-born layout (see
        :meth:`from_table`) builds this list from its table's rows on
        first access.
    meta:
        Free-form provenance written by the layout schemes (scheme name,
        channel structure, track counts); benches and tests read it.
    """

    __slots__ = (
        "layers", "placements", "_wires", "meta",
        "_table", "_table_stamp", "_dirty",
    )

    def __init__(
        self,
        layers: int,
        placements: dict[Hashable, Placement] | None = None,
        wires: list[Wire] | None = None,
        meta: dict | None = None,
    ):
        self.layers = layers
        self.placements = {} if placements is None else placements
        self._wires: list[Wire] | None = [] if wires is None else wires
        self.meta = {} if meta is None else meta
        self._table = None
        self._table_stamp: tuple = ()
        #: Lazily attached :class:`repro.grid.dirty.DirtyTracker`;
        #: ``None`` until the first ``validate_layout(...,
        #: incremental=True)`` call opts this layout into dirty-region
        #: bookkeeping.
        self._dirty = None

    @classmethod
    def from_table(
        cls,
        layers: int,
        placements: dict[Hashable, Placement],
        table,
        meta: dict | None = None,
    ) -> "GridLayout":
        """A layout whose geometry is ``table`` (a
        :class:`~repro.grid.table.WireTable` built over ``placements``).

        The table is the layout's cached kernel from the start, and the
        ``Wire`` list is built from its rows only when something reads
        :attr:`wires`; from then on the identity stamp of
        :meth:`wire_table` applies as for any layout.
        """
        layout = cls(layers=layers, placements=placements, meta=meta)
        layout._wires = None
        layout._table = table
        return layout

    def __repr__(self) -> str:
        n = self._table.num_wires if self._wires is None else len(self._wires)
        return (
            f"GridLayout(layers={self.layers!r}, "
            f"placements={len(self.placements)}, wires={n}, "
            f"meta={self.meta!r})"
        )

    @property
    def wires(self) -> list[Wire]:
        return self._build_wires()

    def _build_wires(self) -> list[Wire]:
        """The wire list, built from the table rows on first use by a
        table-born layout (which then caches its table by stamp)."""
        wires = self._wires
        if wires is None:
            wires = self._wires = self._table.build_wires()
            self._table_stamp = (len(self.placements), tuple(wires))
        return wires

    # -- construction ---------------------------------------------------

    def place(self, node: Hashable, rect: Rect, layer: int = 1) -> None:
        if node in self.placements:
            raise ValueError(f"node placed twice: {node!r}")
        self._build_wires()
        self.placements[node] = Placement(node, rect, layer)
        self._table = None
        if self._dirty is not None:
            self._dirty.on_place(rect, layer)

    def add_wire(self, wire: Wire) -> None:
        self.wires.append(wire)
        self._table = None
        if self._dirty is not None:
            self._dirty.on_add(wire)

    def replace_wire(self, i: int, wire: Wire) -> None:
        """Swap wire ``i`` for a new object, recording dirty regions.

        The canonical mutation: wires are immutable by convention, so
        edits replace whole :class:`Wire` objects.  Equivalent to
        ``layout.wires[i] = wire`` (the table stamp catches either),
        but this entry point also tells the attached dirty tracker, so
        incremental revalidation stays sound.
        """
        self.wires[i] = wire
        self._table = None
        if self._dirty is not None:
            self._dirty.on_replace(i, wire)

    # -- geometry kernel ------------------------------------------------

    def wire_table(self):
        """The layout's structure-of-arrays geometry kernel, cached.

        A table-born layout (:meth:`from_table`) returns its table as
        is until its wires are built.  Otherwise the mutation API
        (``place``, ``add_wire``, ``replace_wire``) drops the cache
        directly; direct ``wires[i] = ...`` assignment is caught by an
        identity stamp -- placement count plus the wire objects
        themselves, compared by ``is``.  The stamp holds strong
        references, so a replaced wire cannot be freed and have its
        ``id()`` recycled by a lookalike while the cache is alive (the
        allocator reuses addresses eagerly; comparing stored ``id()``
        ints alone served stale tables under exactly that reuse).
        Mutating a ``Wire``'s own ``segments`` list in place is still
        not detected -- wires are immutable by convention; replace
        them instead, or call ``invalidate_table()``.

        A rebuild runs inside a ``wire_table.build`` span, so traces
        charge it to the table rather than to whichever caller first
        asked for it.
        """
        from repro.grid.table import WireTable

        if self._wires is None:
            if len(self.placements) == len(self._table.node_x0):
                return self._table
            # Placements changed behind place(): rebuild from wires.
            self._build_wires()
            self._table = None
        stamp = self._table_stamp
        wires = self._wires
        if (
            self._table is None
            or stamp[0] != len(self.placements)
            or len(stamp[1]) != len(wires)
            or any(a is not b for a, b in zip(stamp[1], wires))
        ):
            with obs.span("wire_table.build", wires=len(wires)):
                self._table = WireTable(self)
            self._table_stamp = (len(self.placements), tuple(wires))
        return self._table

    def invalidate_table(self) -> None:
        """Drop the cached :class:`WireTable` (rebuilt on next use).

        A table-born layout builds its wires first, so no geometry is
        lost.  Also poisons any attached dirty tracker: an explicit
        invalidation signals out-of-band mutation, so the next
        incremental validation falls back to a full sweep.
        """
        self._build_wires()
        self._table = None
        self._table_stamp = ()
        if self._dirty is not None:
            self._dirty.mark_all()

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

    def segments(self) -> Iterable[tuple[Wire, Segment]]:
        for w in self.wires:
            for s in w.segments:
                yield (w, s)

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
