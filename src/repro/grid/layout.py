"""The :class:`GridLayout` container: placements + wires + layer count.

A layout's *area* is the area of the smallest upright rectangle
containing all nodes and wires (Section 2.2); its *volume* is
``layers * area``.  Both are exact integer quantities here, since the
model is the paper's own grid model rather than a physical substrate.

Measurement methods route through the layout's cached
:class:`~repro.grid.table.WireTable` -- a structure-of-arrays flattening
of the wire geometry built once per layout (see :meth:`GridLayout.wire_table`
for the cache-invalidation rule).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro import obs
from repro.grid.geometry import Rect, Segment
from repro.grid.wire import Wire

__all__ = ["Placement", "GridLayout"]


@dataclass(frozen=True, slots=True)
class Placement:
    """A node embedded as a square (or rectangle) in the active layer."""

    node: Hashable
    rect: Rect
    layer: int = 1


@dataclass(slots=True)
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
        wires distinguished by ``edge_key``).
    meta:
        Free-form provenance written by the layout schemes (scheme name,
        channel structure, track counts); benches and tests read it.
    """

    layers: int
    placements: dict[Hashable, Placement] = field(default_factory=dict)
    wires: list[Wire] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    _table: object = field(default=None, repr=False, compare=False)
    _table_stamp: tuple = field(default=(), repr=False, compare=False)
    #: Lazily attached :class:`repro.grid.dirty.DirtyTracker`; ``None``
    #: until the first ``validate_layout(..., incremental=True)`` call
    #: opts this layout into dirty-region bookkeeping.
    _dirty: object = field(default=None, repr=False, compare=False)

    # -- construction ---------------------------------------------------

    def place(self, node: Hashable, rect: Rect, layer: int = 1) -> None:
        if node in self.placements:
            raise ValueError(f"node placed twice: {node!r}")
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

        The mutation API (``place``, ``add_wire``, ``replace_wire``)
        drops the cache directly; direct ``wires[i] = ...`` assignment
        is caught by an identity stamp -- placement count plus the wire
        objects themselves, compared by ``is``.  The stamp holds strong
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

        stamp = self._table_stamp
        if (
            self._table is None
            or stamp[0] != len(self.placements)
            or len(stamp[1]) != len(self.wires)
            or any(a is not b for a, b in zip(stamp[1], self.wires))
        ):
            with obs.span("wire_table.build", wires=len(self.wires)):
                self._table = WireTable(self)
            self._table_stamp = (len(self.placements), tuple(self.wires))
        return self._table

    def invalidate_table(self) -> None:
        """Drop the cached :class:`WireTable` (rebuilt on next use).

        Also poisons any attached dirty tracker: an explicit
        invalidation signals out-of-band mutation, so the next
        incremental validation falls back to a full sweep.
        """
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
        out: dict[tuple, int] = {}
        for w in self.wires:
            a, b, _ = w.key()
            key = (a, b)
            out[key] = out.get(key, 0) + 1
        return out

    def wire_lengths_by_edge(self) -> dict[tuple, int]:
        """Map (u, v, edge_key) -> routed length, endpoints sorted."""
        lengths = self.wire_table().wire_lengths()
        return {w.key(): ln for w, ln in zip(self.wires, lengths)}

    def segments(self) -> Iterable[tuple[Wire, Segment]]:
        for w in self.wires:
            for s in w.segments:
                yield (w, s)

    def summary(self) -> dict:
        """A metrics snapshot used by benches and EXPERIMENTS.md."""
        bb = self.bounding_box()
        return {
            "nodes": len(self.placements),
            "wires": len(self.wires),
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
