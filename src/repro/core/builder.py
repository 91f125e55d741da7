"""The orthogonal multilayer layout builder (Sections 2.3-2.4).

Given a :class:`~repro.core.spec.LayoutSpec` -- an R x C grid of cells,
row/column/extra links, and a layer budget L -- this module produces a
fully-routed :class:`~repro.grid.layout.GridLayout` that passes the
multilayer grid model validator.

Geometry (y grows downward)::

      <- CW_0 -><-W_0-><- CW_1 -><-W_1-> ...
      +--------+      +--------+
      | row-0 horizontal channel (H_0 grid lines)  |
      +--------+      +--------+
      | cell   | col  | cell   | col
      | (0,0)  | chan | (0,1)  | chan
      +--------+  0   +--------+  1
      | row-1 horizontal channel ...

* Row links route in the channel *above* their row: a vertical stub up
  from the source pin, a horizontal run on the assigned track, a stub
  down to the target pin.
* Column links route in the channel *right* of their column, entering
  plain nodes through right-side pins and cluster blocks through
  dedicated *distribution tracks* in the block's fan-in region.
* Extra links (Section 5.3) get one dedicated horizontal track in the
  source row's channel and one dedicated vertical track in the target
  column's channel.

The builder works on int columns end to end.  Links arrive as a
:class:`~repro.core.spec.LinkColumns` (a spec of
:class:`~repro.core.spec.LinkSpec` lists is converted once, in
:meth:`LayoutSpec.link_columns`), and every phase is array arithmetic
over link ends: pins and distribution slots come from one
``numpy.lexsort`` each (:func:`allocate_pins`), channel extents from
doubled cell coordinates, packing from the one left-edge loop in
:func:`repro.grid.tracks.left_edge`, and routing from stacked
``(links, segments, 5)`` path arrays that go straight into
:meth:`WireTable.from_paths`.  ``Wire`` objects are built from the
table's rows only if someone reads ``layout.wires``.

Pin and distribution-slot sort keys end in ``(kind, rank of str(index),
end)``, which orders ties as the string form of a ``(kind, index,
end)`` token does.

Layer discipline: horizontal segments on odd layers, vertical segments
on even layers; a channel's tracks are split into ``G = floor(L/2)``
groups, group g using layers (2g+1, 2g+2) -- the multilayer transform
of Section 2.4.  Legality is structural: horizontal runs on one
(layer, line) come from one packed track; vertical stubs sit on
per-node-unique pin abscissae; and the pin/distribution-track ordering
rule (wires arriving from the smaller coordinate get smaller pins)
makes track sharing by touching intervals safe.
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Sequence

import numpy as np

from repro import obs
from repro.core.multilayer import group_extent, locate
from repro.core.spec import (
    COL, EXTRA, ROW, LayoutSpec, LinkColumns, NodeCell, NodeHomes,
)
from repro.grid.geometry import Rect
from repro.grid.layout import GridLayout, Placement
from repro.grid.table import WireTable
from repro.grid.tracks import left_edge

__all__ = ["build_orthogonal_layout", "allocate_pins"]

Node = Hashable

# Link kinds, numbered in the order their names sort ("col" < "extra" <
# "row" < "strip").  Pin and distribution-slot ties between two link
# ends are broken by the string form of the end's (kind, index, end)
# token; the key tail (kind, rank of str(index), end) sorts the same
# way, as "," sorts before every digit.
_COL, _EXTRA, _ROW, _STRIP = COL, EXTRA, ROW, 3
_SIDES = ("top", "right", "bottom", "left")
_TOP, _RIGHT, _BOTTOM = 0, 1, 2


def group_rank(group: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Each element's position within its group, counted in ``order``
    (an ordering of the indices that sorts ``group``)."""
    g = group[order]
    n = len(g)
    new = np.ones(n, dtype=bool)
    new[1:] = g[1:] != g[:-1]
    start = np.maximum.accumulate(np.where(new, np.arange(n), 0))
    out = np.empty(n, dtype=np.int64)
    out[order] = np.arange(n) - start
    return out


def allocate_pins(
    group, keys: Sequence, capacity=None, nodes: Sequence[Node] = (),
) -> np.ndarray:
    """Ordered pin offsets for requests on node sides.

    Request ``i`` asks for a pin on side ``group[i]`` (``node * 4 +
    side``, sides numbered top, right, bottom, left; ``node`` indexes
    ``nodes``) and sorts by the key columns ``keys``, most significant
    first.  Within a side, requests get offsets 0, 1, 2, ... in key
    order.  ``capacity[i]`` is the number of pins request ``i``'s side
    offers; an over-full side raises ``ValueError`` naming the first
    one requested.  Two requests with equal keys on one side are one
    link end asking twice, and raise too.  The distribution slots of
    block cells reuse this with ``group`` the block and no capacity.
    """
    group = np.asarray(group, dtype=np.int64)
    keys = [np.asarray(k, dtype=np.int64) for k in keys]

    def where(g: int) -> str:
        return f"node {nodes[g // 4]!r} side {_SIDES[g % 4]}" if nodes else f"group {g}"

    if capacity is not None:
        counts = np.bincount(group)[group]
        over = counts > np.asarray(capacity)
        if over.any():
            i = int(np.argmax(over))
            raise ValueError(
                f"{where(int(group[i]))}: {int(counts[i])} pins requested "
                f"but the square only offers {int(capacity[i])} (raise node_side)"
            )
    order = np.lexsort((*keys[::-1], group))
    a, b = order[:-1], order[1:]
    same = group[a] == group[b]
    for k in keys:
        same &= k[a] == k[b]
    if same.any():
        i = int(a[np.argmax(same)])
        raise ValueError(
            f"{where(int(group[i]))}: duplicate request "
            f"{tuple(int(k[i]) for k in keys)}"
        )
    return group_rank(group, order)


def _str_rank(n: int) -> np.ndarray:
    """``rank[i]`` = position of ``str(i)`` among ``str(0 .. n - 1)`` in
    string order: digits left-aligned, a prefix before its extensions."""
    i = np.arange(n, dtype=np.int64)
    width = len(str(max(n - 1, 0)))
    length = np.ones(n, dtype=np.int64)
    for d in range(1, width):
        length += i >= 10 ** d
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((length, i * 10 ** (width - length)))] = np.arange(n)
    return rank


def build_orthogonal_layout(spec: LayoutSpec) -> GridLayout:
    """Run the full orthogonal multilayer layout scheme on ``spec``."""
    links = spec.link_columns()
    homes = spec.check(links)
    return _Builder(spec, links, homes).build()


class _Ends:
    """The links of one kind as columns: ``idx`` (the link's index in
    its kind), ``key`` (edge key), and ``(n, 2)`` per-end columns, u end
    then v end -- cell ``row``/``col`` (for strips: block number and
    member position), ``node`` id, pin ``off``set and distribution
    ``slot``."""

    __slots__ = ("idx", "row", "col", "node", "key", "off", "slot")

    def __init__(self, row, col, node, key=None, idx=None):
        self.idx = np.arange(len(row), dtype=np.int64) if idx is None else idx
        self.row, self.col, self.node = row, col, node
        self.key = key
        self.off = np.zeros_like(row)
        self.slot = np.zeros_like(row)


def _requests(ends: _Ends, srank, kind: int, group, direction, other):
    """``(n, 2, 6)`` request rows ``[group, direction, other, kind,
    rank of str(idx), end]`` for both ends of each link."""
    r = np.empty(ends.node.shape + (6,), dtype=np.int64)
    r[..., 0] = group
    r[..., 1] = direction
    r[..., 2] = other
    r[..., 3] = kind
    r[..., 4] = srank[ends.idx][:, None]
    r[..., 5] = (0, 1)
    return r


class _Builder:
    def __init__(self, spec: LayoutSpec, links: LinkColumns, homes: NodeHomes):
        self.spec = spec
        self.homes = homes
        self.G = max(spec.layers // 2, 1)
        cols = np.stack((
            links.u_row, links.v_row, links.u_col, links.v_col,
            links.u_node, links.v_node,
        ))
        for kind, attr in ((_ROW, "row"), (_COL, "col"), (_EXTRA, "extra")):
            sel = np.flatnonzero(links.kind == kind)
            r, c, n = cols[:, sel].reshape(3, 2, -1).transpose(0, 2, 1)
            setattr(self, attr, _Ends(r, c, n, links.edge_key[sel]))

    # -- top level -------------------------------------------------------

    def build(self) -> GridLayout:
        with obs.span(
            "build", name=self.spec.name, layers=self.spec.layers,
            rows=self.spec.rows, cols=self.spec.cols,
        ) as sp:
            layout = self._build_phases(sp)
        obs.count("builder.layouts_built")
        obs.count("builder.wires_routed", layout.wire_table().num_wires)
        obs.count(
            "builder.tracks_packed",
            int(self.row_totals.sum() + self.col_totals.sum()),
        )
        return layout

    def _build_phases(self, sp) -> GridLayout:
        with obs.span("prepare_blocks"):
            self._prepare_blocks()
            self._allocate_dist_slots()
        with obs.span("request_pins"):
            self._request_pins()
        with obs.span("pack_channels"):
            self._pack_channels()
        with obs.span("compute_geometry"):
            self._compute_geometry()
        with obs.span("place_nodes"):
            placements = self._place_nodes()
        routed = []
        for phase, route, ends in (
            ("route_row_links", self._route_row_links, self.row),
            ("route_col_links", self._route_col_links, self.col),
            ("route_extra_links", self._route_extra_links, self.extra),
            ("route_strips", self._route_strips, self.strip),
        ):
            with obs.span(phase):
                paths, keep = route(ends)
                routed.append((paths[keep], keep.sum(axis=1), ends))
        ends = np.cumsum(np.concatenate([[0]] + [n for _, n, _ in routed]))
        label = self.homes.nodes.__getitem__
        u, v = np.concatenate([e.node for *_, e in routed]).T.tolist()
        strip = self.strip
        keys = [e.key.tolist() for *_, e in routed[:3]]
        keys.append(zip(["strip"] * len(strip.idx), strip.idx.tolist()))
        table = WireTable.from_paths(
            np.concatenate([p for p, _, _ in routed]), ends,
            list(map(label, u)), list(map(label, v)),
            list(chain.from_iterable(keys)), placements,
        )
        sp.add("wires", table.num_wires)
        return GridLayout(
            self.spec.layers,
            placements,
            table,
            meta={
                "scheme": "orthogonal-multilayer",
                "name": self.spec.name,
                "rows": self.spec.rows,
                "cols": self.spec.cols,
                "layer_groups": self.G,
                "row_tracks": self.row_totals.tolist(),
                "col_tracks": self.col_totals.tolist(),
                "row_channel_extents": self.row_extents.tolist(),
                "col_channel_extents": self.col_extents.tolist(),
                "col_widths": self.col_widths.tolist(),
                "row_heights": self.row_heights.tolist(),
            },
        )

    # -- phase 1: blocks ---------------------------------------------------

    def _prepare_blocks(self) -> None:
        """Block geometry, and the strip edges of every block as
        columns, block by block, ``idx`` counting inside each block."""
        homes = self.homes
        blocks = [cell for _, cell in homes.blocks]
        B = len(blocks)
        pos = np.array([p for p, _ in homes.blocks], dtype=np.int64).reshape(-1, 2)
        self.block_row, self.block_col = pos.T
        self.block_side = np.array([c.node_side for c in blocks], dtype=np.int64)
        self.block_width = self.block_side * np.array(
            [len(c.nodes) for c in blocks], dtype=np.int64
        )
        sizes = np.array([len(c.edges) for c in blocks], dtype=np.int64)
        S = int(sizes.sum())
        node = np.fromiter(
            map(homes.index.__getitem__,
                chain.from_iterable(chain.from_iterable(c.edges for c in blocks))),
            dtype=np.int64, count=2 * S,
        ).reshape(-1, 2)
        block = np.repeat(np.arange(B, dtype=np.int64), sizes)
        self.strip = _Ends(
            np.stack((block, block), axis=1), homes.member[node], node,
            idx=np.arange(S, dtype=np.int64) - _exclusive_cumsum(sizes)[block],
        )
        self.srank = _str_rank(1 + max(
            len(self.row.idx), len(self.col.idx), len(self.extra.idx),
            int(sizes.max(initial=0)),
        ))

    def _allocate_dist_slots(self) -> None:
        """Give each side-entering link end a distribution track.

        Slots are ordered so links arriving from above precede links
        departing below; this is what lets two such links share a
        vertical channel track that touches at this block's row.  Only
        the v end of an extra link enters from the side; its vertical
        run approaches from the source row's channel.
        """
        block = self.homes.block
        reqs = []
        for ends, kind in ((self.col, _COL), (self.extra, _EXTRA)):
            other = ends.row[:, ::-1]
            b = block[ends.node]
            wants = b >= 0
            if kind == _EXTRA:
                wants[:, 0] = False
            r = _requests(ends, self.srank, kind, b, other >= ends.row, other)
            reqs.append((ends, wants, r[wants]))
        every = np.concatenate([r for *_, r in reqs])
        slots = allocate_pins(every[:, 0], every[:, 1:].T)
        at = 0
        for ends, wants, r in reqs:
            ends.slot[wants] = slots[at:at + len(r)]
            at += len(r)
        self.dist_extent = np.bincount(
            every[:, 0], minlength=len(self.block_row)
        )

    # -- phase 2: pins -----------------------------------------------------

    def _request_pins(self) -> None:
        """One ordered pin per link end.

        A key's direction is 0 when the other end lies before this one
        along the side (it arrives) and 1 when it lies at or after it
        (it departs); block members climbing to a distribution track
        sort last, with direction 2 and other 0.
        """
        homes = self.homes
        in_block = homes.block >= 0
        row, col, extra, strip = self.row, self.col, self.extra, self.strip
        srank = self.srank

        def ask(ends, kind, side, direction, other):
            return _requests(
                ends, srank, kind, ends.node * 4 + side, direction, other
            )

        # Row links: both ends on top pins, ordered by the other end's
        # column; wires arriving from the left before wires departing
        # right.
        other = row.col[:, ::-1]
        reqs = [ask(row, _ROW, _TOP, other >= row.col, other)]

        # Column links: plain nodes use right-side pins (ordered by the
        # other end's row); block members use a top pin for the climb
        # to the distribution track.
        blk = in_block[col.node]
        other = col.row[:, ::-1]
        reqs.append(ask(
            col, _COL, np.where(blk, _TOP, _RIGHT),
            np.where(blk, 2, other >= col.row), np.where(blk, 0, other),
        ))

        # Extra links: the source uses a top pin, ordered like a row
        # wire toward the target column's channel; the target enters
        # from the right side (plain node) or via a distribution track.
        blk = in_block[extra.node]
        blk[:, 0] = False
        other = np.stack((2 * extra.col[:, 1] + 1, extra.row[:, 0]), axis=1)
        here = np.stack((2 * extra.col[:, 0], extra.row[:, 1]), axis=1)
        side = np.where(blk, _TOP, _RIGHT)
        side[:, 0] = _TOP
        reqs.append(ask(
            extra, _EXTRA, side,
            np.where(blk, 2, other >= here), np.where(blk, 0, other),
        ))

        # Intra-block strip wiring: bottom pins, ordered left to right.
        other = strip.col[:, ::-1]
        reqs.append(ask(strip, _STRIP, _BOTTOM, other >= strip.col, other))

        r = np.concatenate([q.reshape(-1, 6) for q in reqs])
        group = r[:, 0]
        offsets = allocate_pins(
            group, r[:, 1:].T, homes.side[group // 4], homes.nodes
        )
        at = 0
        for ends in (row, col, extra, strip):
            size = ends.node.size
            ends.off[...] = offsets[at:at + size].reshape(-1, 2)
            at += size

    # -- phase 3: channel packing ------------------------------------------

    def _x_rank(self, ends: _Ends) -> np.ndarray:
        """Top-pin abscissa offsets within the cell: a block member's
        strip position, refined by the pin offset."""
        homes = self.homes
        return homes.member[ends.node] * homes.side[ends.node] + ends.off

    @staticmethod
    def _pack(chan, ext, count):
        """Left-edge pack links with end extents ``ext`` per channel."""
        track, totals = left_edge(chan, ext.min(axis=1), ext.max(axis=1), count)
        return np.array(track, dtype=np.int64), np.array(totals, dtype=np.int64)

    def _pack_channels(self) -> None:
        spec, G = self.spec, self.G
        row, col, extra = self.row, self.col, self.extra

        # An end's extent along its channel is its doubled cell
        # coordinate refined by its rank, encoded as one int
        # 2 * cell * K + rank.
        self.row_x = self._x_rank(row)
        K = 1 + int(self.row_x.max(initial=0))
        self.row_track, row_packed = self._pack(
            row.row[:, 0], 2 * row.col * K + self.row_x, spec.rows
        )
        # A column link end's rank is its right-pin offset on a plain
        # node, its distribution slot in a block.
        col_y = np.where(self.homes.block[col.node] >= 0, col.slot, col.off)
        K = 1 + int(col_y.max(initial=0))
        self.col_track, col_packed = self._pack(
            col.col[:, 0], 2 * col.row * K + col_y, spec.cols
        )

        # Each channel's extra links get dedicated tracks past the
        # packed ones, per layer group; both channels of a link share
        # the group so its via spans one layer pair only.
        self.extra_group = extra.idx % G
        out = []
        for packed, chan in ((row_packed, extra.row[:, 0]),
                             (col_packed, extra.col[:, 1])):
            per_group = group_extent(packed, spec.layers)
            key = chan * G + self.extra_group
            rank = group_rank(key, np.argsort(key, kind="stable"))
            deepest = np.bincount(key, minlength=len(packed) * G)
            out.append((
                per_group, per_group[chan] + rank,
                packed + np.bincount(chan, minlength=len(packed)),
                per_group + deepest.reshape(-1, G).max(axis=1, initial=0),
            ))
        (self.row_per_group, self.extra_h_offset, self.row_totals,
         self.row_extents) = out[0]
        (self.col_per_group, self.extra_v_offset, self.col_totals,
         self.col_extents) = out[1]

        # Intra-block strips, below each block's node row; bottom pin
        # offsets stay below the member's side.
        strip = self.strip
        block = strip.row[:, 0]
        self.strip_track, strip_tracks = self._pack(
            block, strip.col * self.block_side[block][:, None] + strip.off,
            len(self.block_row),
        )
        self.strip_per_group = group_extent(
            np.maximum(strip_tracks, 1), spec.layers
        )
        # One grid line of clearance below the deepest strip track so
        # it can never coincide with the next row channel's top track.
        self.strip_extent = np.where(
            strip_tracks > 0, group_extent(strip_tracks, spec.layers) + 1, 0
        )

    # -- phase 4: geometry ---------------------------------------------------

    def _compute_geometry(self) -> None:
        spec, homes = self.spec, self.homes
        width = np.zeros((spec.rows, spec.cols), dtype=np.int64)
        height = np.zeros_like(width)
        plain = np.flatnonzero((homes.block < 0) & (homes.row >= 0))
        width[homes.row[plain], homes.col[plain]] = homes.side[plain]
        height[homes.row[plain], homes.col[plain]] = homes.side[plain]
        width[self.block_row, self.block_col] = self.block_width
        height[self.block_row, self.block_col] = (
            self.dist_extent + self.block_side + self.strip_extent
        )
        self.col_widths = width.max(axis=0)
        self.row_heights = height.max(axis=1)
        self.cell_x = _exclusive_cumsum(self.col_widths + self.col_extents)
        self.chan_x = self.cell_x + self.col_widths
        self.chan_y = _exclusive_cumsum(self.row_extents + self.row_heights)
        self.cell_y = self.chan_y + self.row_extents
        # Top edge of each node square, per node: a block's members sit
        # below its fan-in region.
        fan_in = np.zeros(len(homes.nodes), dtype=np.int64)
        member = homes.block >= 0
        fan_in[member] = self.dist_extent[homes.block[member]]
        self.node_top = np.where(
            homes.row >= 0, self.cell_y[homes.row] + fan_in, 0
        )

    # -- phase 5: placement & routing ----------------------------------------

    def _place_nodes(self) -> dict[Node, Placement]:
        cell_x, cell_y = self.cell_x.tolist(), self.cell_y.tolist()
        fan_in = iter(self.dist_extent.tolist())
        placements: dict[Node, Placement] = {}
        for (i, j), cell in self.spec.cells.items():
            x0, y0 = cell_x[j], cell_y[i]
            if isinstance(cell, NodeCell):
                s = cell.side
                placements[cell.node] = Placement(cell.node, Rect(x0, y0, s, s))
            else:
                s = cell.node_side
                ny = y0 + next(fan_in)
                for m, v in enumerate(cell.nodes):
                    placements[v] = Placement(v, Rect(x0 + m * s, ny, s, s))
        return placements

    def _side_entry(self, ends: _Ends, e: int):
        """Where end ``e`` of each link enters from the side: a block
        member climbs from its top pin (``x``, ``top``) to its
        distribution track at ``y``; a plain node leaves its right pin
        at (``x``, ``y``).  Returns ``(x, top, y, in block)``."""
        homes = self.homes
        node = ends.node[:, e]
        blk = homes.block[node] >= 0
        r, c = ends.row[:, e], ends.col[:, e]
        y = self.cell_y[r] + np.where(blk, ends.slot[:, e], ends.off[:, e])
        x = self.cell_x[c] + np.where(
            blk, self._x_rank(ends)[:, e], homes.side[node]
        )
        return x, self.node_top[node], y, blk

    # Each router returns its links' paths as ``(n, k, 5)`` oriented
    # segment rows through k + 1 vertices, and which segments to keep:
    # a plain node's side entry has no climb, and no run when its pin
    # already lies on the channel track.

    def _route_row_links(self, row: _Ends):
        i = row.row[:, 0]
        o, h, v = locate(self.row_track, self.row_per_group[i])
        y_t = self.chan_y[i] + o
        xu, xv = (self.cell_x[row.col] + self.row_x).T
        yu, yv = self.node_top[row.node].T
        paths = _paths((xu, xu, xv, xv), (yu, y_t, y_t, yv), (v, h, v))
        return paths, np.ones(paths.shape[:2], dtype=bool)

    def _route_col_links(self, col: _Ends):
        j = col.col[:, 0]
        o, h, v = locate(self.col_track, self.col_per_group[j])
        x_t = self.chan_x[j] + o
        xu, tu, yu, bu = self._side_entry(col, 0)
        xv, tv, yv, bv = self._side_entry(col, 1)
        paths = _paths(
            (xu, xu, x_t, x_t, xv, xv), (tu, yu, yu, yv, yv, tv),
            (v, h, v, h, v),
        )
        keep = np.stack((bu, xu != x_t, np.ones_like(bu), xv != x_t, bv), axis=1)
        return paths, keep

    def _route_extra_links(self, extra: _Ends):
        g = self.extra_group
        h, v = 2 * g + 1, 2 * g + 2
        y_h = self.chan_y[extra.row[:, 0]] + self.extra_h_offset
        x_v = self.chan_x[extra.col[:, 1]] + self.extra_v_offset
        xu = self.cell_x[extra.col[:, 0]] + self._x_rank(extra)[:, 0]
        yu = self.node_top[extra.node[:, 0]]
        # Up to the dedicated horizontal track, across to the target
        # column's dedicated vertical track, down it, then the v end's
        # side entry walked back from the channel.
        x, top, y, blk = self._side_entry(extra, 1)
        paths = _paths(
            (xu, xu, x_v, x_v, x, x), (yu, y_h, y_h, y, y, top),
            (v, h, v, h, v),
        )
        always = np.ones_like(blk)
        keep = np.stack((always, always, always, x != x_v, blk), axis=1)
        return paths, keep

    def _route_strips(self, strip: _Ends):
        b = strip.row[:, 0]
        o, h, v = locate(self.strip_track, self.strip_per_group[b])
        s = self.block_side[b]
        bottom = self.cell_y[self.block_row[b]] + self.dist_extent[b] + s
        y_t = bottom + 1 + o
        xu, xv = (
            self.cell_x[self.block_col[b]][:, None] + strip.col * s[:, None]
            + strip.off
        ).T
        paths = _paths((xu, xu, xv, xv), (bottom, y_t, y_t, bottom), (v, h, v))
        return paths, np.ones(paths.shape[:2], dtype=bool)


def _paths(xs, ys, layers) -> np.ndarray:
    """``(n, k, 5)`` oriented segment rows ``[sx, sy, ex, ey, layer]``
    of paths through the vertices ``(xs[i], ys[i])``, segment ``i`` on
    ``layers[i]``."""
    k = len(layers)
    out = np.empty((len(xs[0]), k, 5), dtype=np.int64)
    for i in range(k):
        out[:, i, 0] = xs[i]
        out[:, i, 1] = ys[i]
        out[:, i, 2] = xs[i + 1]
        out[:, i, 3] = ys[i + 1]
        out[:, i, 4] = layers[i]
    return out


def _exclusive_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.zeros(len(a), dtype=np.int64)
    np.cumsum(a[:-1], out=out[1:])
    return out
