"""Baseline transforms the paper compares against (Section 2.2).

Two ways of "using" L layers *without* designing for them:

* **Folding** a Thompson (2-layer) layout: cut the layout into
  ``floor(L/2)`` vertical slabs and stack them.  Area divides by
  ``floor(L/2)``; the wire multiset is untouched, so volume
  (``L x area``) and the maximum wire length stay put (folds reroute
  wires across slab boundaries but change lengths only by O(1) per
  crossing, which the paper and we both neglect).

* **Multilayer collinear layout**: a collinear layout whose track stack
  is divided among the layer groups.  Only the channel height shrinks
  (by at most L/2); the node row keeps its full width, so the area
  falls by at most L/2 and the volume not at all.

Both are implemented as metric transforms of a measured 2-layer layout
so that benches can print multilayer-scheme vs folding vs collinear
side by side -- the content of claims (1)-(3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.metrics import LayoutMetrics
from repro.grid.geometry import Rect
from repro.grid.layout import GridLayout, Placement
from repro.grid.table import WireTable

__all__ = [
    "FoldedMetrics",
    "fold_metrics",
    "collinear_multilayer_metrics",
    "fold_layout",
]


@dataclass(frozen=True, slots=True)
class FoldedMetrics:
    """Metrics of a folded (or otherwise transformed) baseline layout."""

    name: str
    layers: int
    area: float
    volume: float
    max_wire: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "L": self.layers,
            "area": self.area,
            "volume": self.volume,
            "max_wire": self.max_wire,
        }


def fold_metrics(thompson: LayoutMetrics, layers: int) -> FoldedMetrics:
    """Fold a measured Thompson layout into ``layers`` layers.

    The fold stacks ``t = floor(layers/2)`` slabs, each with its own
    pair of wiring layers (and, per the paper's premise, its own active
    layer for the nodes it carries).
    """
    if thompson.layers != 2:
        raise ValueError("fold_metrics expects a 2-layer (Thompson) layout")
    t = max(layers // 2, 1)
    area = thompson.area / t
    return FoldedMetrics(
        name=f"folded({thompson.name}) L={layers}",
        layers=layers,
        area=area,
        volume=thompson.area * 2.0,  # t slabs x 2 layers x (area/t)
        max_wire=float(thompson.max_wire),
    )


def fold_layout(layout: GridLayout, layers: int) -> GridLayout:
    """Geometrically fold a Thompson layout into ``layers`` layers.

    This constructs the Section 2.2 folding baseline as a real,
    validator-checked multilayer 3-D grid layout -- not just the
    analytic transform of :func:`fold_metrics`:

    1. the layout is cut into ``t = floor(layers/2)`` slabs of equal
       column counts (it must come from the orthogonal builder, whose
       ``meta`` carries the column geometry, with uniform column pitch
       and ``cols`` divisible by ``t``);
    2. slab ``s`` keeps its y geometry, mirrors its x geometry on
       alternate slabs (paper folding), moves its wiring to layers
       ``(2s+1, 2s+2)`` and its nodes to active layer ``2s+1``;
    3. every horizontal run crossing a fold continues on the next
       slab's layers through a via spanning the intervening layer.
       (Fold planes stay clear of vertical wiring automatically: a
       vertical segment at a cut abscissa belongs to the right-hand
       slab, whose V layer lies outside the fold via's z-range, and
       original edge-disjointness rules out any other wire at a fold
       crossing's track ordinate.)

    Area shrinks by ~t; the wire multiset, lengths (up to +1 per alley
    crossed) and volume are unchanged -- exactly the paper's point
    about why folding is the inferior way to use extra layers.
    """
    if layout.layers != 2:
        raise ValueError("fold_layout expects a 2-layer (Thompson) layout")
    t = max(layers // 2, 1)
    if t == 1:
        return layout
    widths = layout.meta.get("col_widths")
    extents = layout.meta.get("col_channel_extents")
    if widths is None or extents is None:
        raise ValueError(
            "fold_layout needs the orthogonal builder's channel metadata"
        )
    cols = len(widths)
    if cols % t:
        raise ValueError(f"{cols} cell columns do not split into {t} slabs")
    pitches = [w + e for w, e in zip(widths, extents)]
    if len(set(pitches)) > 1:
        raise ValueError("fold_layout requires uniform column pitch")
    pitch = pitches[0]
    per_slab = cols // t
    slab_w = per_slab * pitch  # original width of every slab
    # Cut positions in original coordinates (left edge of each slab).
    cuts = np.arange(t + 1) * slab_w

    def slab_of(x):
        return np.minimum(x // slab_w, t - 1)

    def mapx(x, s):
        local = x - cuts[s]
        return np.where(s % 2 == 1, slab_w - local, local)

    placements = {}
    for p in layout.placements.values():
        s = int(slab_of(p.rect.x0))
        if int(slab_of(max(p.rect.x1 - 1, p.rect.x0))) != s:
            raise ValueError(f"node {p.node!r} straddles a fold cut")
        xa, xb = mapx(p.rect.x0, s), mapx(p.rect.x1, s)
        placements[p.node] = Placement(
            p.node, Rect(int(min(xa, xb)), p.rect.y0, p.rect.w, p.rect.h),
            layer=2 * s + 1,
        )

    # Each segment, oriented along its path, becomes one piece per slab
    # it crosses: a vertical run stays in the slab of its abscissa (a
    # run at a cut belongs to the right-hand slab), a horizontal run is
    # split at the interior cuts, pieces in path order.
    tab = layout.wire_table()
    rev = tab.seg_rev.astype(bool)
    x1, x2 = tab.seg_x1, tab.seg_x2
    sx, ex = np.where(rev, x2, x1), np.where(rev, x1, x2)
    sy = np.where(rev, tab.seg_y2, tab.seg_y1)
    ey = np.where(rev, tab.seg_y1, tab.seg_y2)
    vert = x1 == x2
    s_lo = slab_of(x1)
    s_hi = np.where(vert, s_lo, slab_of(x2 - 1))
    pieces = s_hi - s_lo + 1
    seg = np.repeat(np.arange(tab.num_segments), pieces)
    cum = np.concatenate(([0], np.cumsum(pieces)))
    k = np.arange(cum[-1]) - cum[seg]
    s = np.where(ex[seg] >= sx[seg], s_lo[seg] + k, s_hi[seg] - k)
    lo = np.maximum(x1[seg], cuts[s])
    hi = np.minimum(x2[seg], cuts[s + 1])
    fwd = ex[seg] > sx[seg]
    v = vert[seg]
    px0 = mapx(np.where(v, x1[seg], np.where(fwd, lo, hi)), s)
    px1 = mapx(np.where(v, x1[seg], np.where(fwd, hi, lo)), s)
    old_layer = tab.seg_layer[seg]
    up = np.where(v, old_layer == 2, old_layer != 1)
    paths = np.stack(
        (px0, sy[seg], px1, ey[seg], 2 * s + np.where(up, 2, 1)), axis=1
    )
    table = WireTable.from_paths(
        paths, cum[tab.wire_seg_start], tab.wire_u, tab.wire_v,
        tab.wire_edge_key, placements,
    )
    return GridLayout(
        layers, placements, table,
        meta={
            "scheme": "folded-thompson",
            "name": f"folded({layout.meta.get('name', 'layout')}) L={layers}",
            "source_area": layout.area,
            "slabs": t,
        },
    )


def collinear_multilayer_metrics(
    collinear: LayoutMetrics, layers: int
) -> FoldedMetrics:
    """The multilayer *collinear* baseline: track stack height divides
    by ``floor(layers/2)``, width is unchanged."""
    if collinear.layers != 2:
        raise ValueError("expects a 2-layer collinear layout")
    t = max(layers // 2, 1)
    height = max(collinear.height / t, 1.0)
    area = collinear.width * height
    return FoldedMetrics(
        name=f"collinear-multilayer({collinear.name}) L={layers}",
        layers=layers,
        area=area,
        volume=area * layers,
        max_wire=float(collinear.max_wire),
    )
