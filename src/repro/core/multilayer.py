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

__all__ = ["LayerGroups", "TrackSlot", "group_extent", "locate"]


def group_extent(tracks, layers: int):
    """Tracks per group, ``ceil(tracks / G)``: the physical extent of a
    channel of ``tracks`` tracks (ints or int arrays)."""
    return -(-tracks // max(layers // 2, 1))


def locate(track, per_group):
    """``(offset, h_layer, v_layer)`` of ``track`` in a channel of
    ``per_group`` tracks per group (ints or int arrays)."""
    g, offset = divmod(track, per_group)
    return offset, 2 * g + 1, 2 * g + 2


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
        return group_extent(self.tracks, self.layers)

    def slot(self, track: int) -> TrackSlot:
        if not (0 <= track < self.tracks):
            raise ValueError(f"track {track} outside 0..{self.tracks - 1}")
        return TrackSlot(*locate(track, self.per_group))

    def physical_extent(self) -> int:
        """Grid lines the channel occupies (its width or height)."""
        return self.per_group
