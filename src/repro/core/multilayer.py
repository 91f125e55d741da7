"""Track-to-layer assignment: the heart of the multilayer transform.

Section 2.4: a channel with ``h`` tracks is split into ``G = floor(L/2)``
groups of at most ``ceil(h / G)`` tracks; group ``g`` keeps its in-group
offset as physical position and moves its horizontal runs to layer
``2g + 1`` and its vertical runs to layer ``2g + 2``.  With ``L = 2``
this degenerates to the Thompson model (all horizontal on layer 1, all
vertical on layer 2).  Odd ``L`` uses ``L - 1`` wiring layers, which is
where the paper's ``L^2 - 1`` denominators come from.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LayerGroups", "TrackSlot"]


@dataclass(frozen=True, slots=True)
class TrackSlot:
    """Physical realization of a logical track: in-channel offset plus
    the layer pair of its group."""

    offset: int
    h_layer: int  # layer for horizontal runs of this group
    v_layer: int  # layer for vertical runs of this group


@dataclass(frozen=True, slots=True)
class LayerGroups:
    """Splits logical track indices of one channel into layer groups."""

    tracks: int
    layers: int

    @property
    def groups(self) -> int:
        return max(self.layers // 2, 1)

    @property
    def per_group(self) -> int:
        """Tracks per group: ceil(h / G); the channel's physical extent."""
        if self.tracks == 0:
            return 0
        g = self.groups
        return -(-self.tracks // g)

    def slot(self, track: int) -> TrackSlot:
        if not (0 <= track < self.tracks):
            raise ValueError(f"track {track} outside 0..{self.tracks - 1}")
        return TrackSlot(*self.locate(track))

    def locate(self, track: int) -> tuple[int, int, int]:
        """``(offset, h_layer, v_layer)`` of an in-range track: the
        :meth:`slot` arithmetic without the range check or the object,
        for the builder's per-wire loops."""
        g, offset = divmod(track, self.per_group)
        return offset, 2 * g + 1, 2 * g + 2

    def physical_extent(self) -> int:
        """Grid lines the channel occupies (its width or height)."""
        return self.per_group
