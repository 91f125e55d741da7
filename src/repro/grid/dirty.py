"""Dirty-region tracking for incremental revalidation.

A :class:`DirtyTracker` rides on a :class:`~repro.grid.layout.GridLayout`
(lazily attached the first time ``validate_layout(..., incremental=True)``
is called) and records which *boxes* -- ``(x0, x1, y0, y1, l0, l1)``,
a planar rectangle times a layer range -- each mutation touched.
Every mutation reaches it as rows:

* :meth:`on_splice` (``GridLayout.splice``, and through it
  ``add_wire`` and ``replace_wire``) marks the removed wires' cached
  boxes and the new rows' boxes dirty, and updates the per-wire box
  array to match the layout's wires (in place for a one-for-one
  edit);
* :meth:`on_place` (``GridLayout.place``) marks the new node
  rectangle on its layer.

Correctness contract: after a *successful* validation, only conflicts
involving an element touched **since that validation** can newly
appear, and every such conflict's counterpart geometrically intersects
the dirty element's own box (conflicts require shared grid points,
overlapping layer intervals at shared points, or overlapping
rectangles).  Re-validating the sub-layout of wires and nodes whose
boxes intersect the dirty boxes therefore decides the whole layout's
verdict -- *relative to the last successful validation*: conflicts
purely among untouched elements were already ruled out then.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DirtyTracker"]


class DirtyTracker:
    """Touched boxes since the last full validation."""

    __slots__ = ("full", "validated", "bands", "boxes", "placed")

    #: Above this many distinct dirty boxes the incremental path stops
    #: paying off (bookkeeping itself becomes the cost) and the
    #: validator falls back to a full sweep.
    MAX_BANDS = 256

    def __init__(self) -> None:
        self.full = True
        self.validated = False
        #: Dirty ``(x0, x1, y0, y1, l0, l1)`` boxes, in mutation order.
        self.bands: list[tuple[int, ...]] = []
        #: Box columns ``x0, x1, y0, y1, l0, l1`` (``(6, W)``) of the
        #: layout's wires.
        self.boxes = np.zeros((6, 0), dtype=np.int64)
        #: Whether a node was placed since the last success (only then
        #: can node squares newly overlap).
        self.placed = False

    # -- mutation hooks (called by GridLayout) --------------------------

    def on_splice(self, i: int, j: int, rows) -> None:
        """Wires ``i..j-1`` were replaced by the wires of table ``rows``."""
        if self.full:
            return
        from repro import accel

        new = accel.wire_boxes(rows)
        self.bands += zip(*self.boxes[:, i:j].tolist())
        self.bands += zip(*new.tolist())
        if new.shape[1] == j - i:  # the tracker owns ``boxes``
            self.boxes[:, i:j] = new
        else:
            self.boxes = np.concatenate(
                (self.boxes[:, :i], new, self.boxes[:, j:]), axis=1
            )

    def on_place(self, rect, layer: int) -> None:
        if self.full:
            return
        self.bands.append((rect.x0, rect.x1, rect.y0, rect.y1, layer, layer))
        self.placed = True

    # -- validator protocol ---------------------------------------------

    def needs_full(self) -> bool:
        return self.full or not self.validated

    def reset_after_full(self, layout) -> None:
        """Record a successful full validation: capture per-wire boxes
        from the layout's table and arm incremental mode."""
        from repro import accel

        self.boxes = accel.wire_boxes(layout.wire_table())
        self.full = False
        self.validated = True
        self.clear_bands()

    def clear_bands(self) -> None:
        """Record a successful incremental validation."""
        self.bands = []
        self.placed = False

    def coalesced_bands(self) -> list[tuple[int, ...]]:
        """The dirty set with duplicate boxes removed (stable order)."""
        return list(dict.fromkeys(self.bands))

    def select_wires(self, bands) -> list[int]:
        """Indices of wires whose box intersects any dirty box (closed
        intervals: a conflict needs only a shared grid point)."""
        return np.flatnonzero(hits(self.boxes, bands)).tolist()


def hits(cols, bands):
    """Per row of the columns ``cols`` (``x0, x1, y0, y1`` and
    optionally ``l0, l1``): does its box meet any of ``bands``, closed
    intervals on every axis it carries?"""
    b = np.asarray(bands, dtype=np.int64).reshape(-1, 6).T[:, :, None]
    hit = (cols[1] >= b[0]) & (cols[0] <= b[1])
    for k in range(2, len(cols), 2):
        hit &= (cols[k + 1] >= b[k]) & (cols[k] <= b[k + 1])
    return hit.any(axis=0)
