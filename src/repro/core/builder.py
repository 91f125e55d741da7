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

The routing phases emit oriented segment rows, not ``Segment``/``Wire``
objects: the layout is handed a finished
:class:`~repro.grid.table.WireTable` (:meth:`GridLayout.from_table`)
and builds ``Wire`` objects from its rows only if someone reads
``layout.wires``.  Pin and packing bookkeeping runs on integer
link-end ids (see ``_Builder.__init__``); pin and distribution-slot
sort keys end in ``(kind, str(index), end)``, which orders ties as the
string form of a ``(kind, index, end)`` token does.

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

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro import obs
from repro.core.multilayer import LayerGroups
from repro.core.pins import PinAllocator
from repro.core.spec import BlockCell, LayoutSpec, NodeCell
from repro.grid.geometry import Rect
from repro.grid.layout import GridLayout, Placement
from repro.grid.table import WireTable
from repro.grid.tracks import Interval, pack_intervals

__all__ = ["build_orthogonal_layout"]

Node = Hashable
CellPos = tuple[int, int]

# Link kinds, numbered in the order their names sort ("col" < "extra" <
# "row" < "strip").  Pin and distribution-slot ties between two link
# ends are broken by the string form of the end's (kind, index, end)
# token; the key tail (kind, str(index), end) sorts the same way, as ","
# sorts before every digit.
_COL, _EXTRA, _ROW, _STRIP = range(4)
_SIDES = ("top", "right", "bottom", "left")


# ---------------------------------------------------------------------------
# Internal bookkeeping


@dataclass(slots=True)
class _BlockInfo:
    """Derived data for one block cell."""

    cell: BlockCell
    member_index: dict[Node, int]
    width: int
    strip_tracks: int  # logical intra-cluster tracks
    strip_extent: int  # physical grid lines below the node row
    strip_base: int  # id of this block's first strip edge
    dist_slots: dict[int, int] = field(default_factory=dict)  # end id -> y offset
    strip_assignment: dict[int, int] = field(default_factory=dict)

    @property
    def dist_extent(self) -> int:
        return len(self.dist_slots)

    @property
    def height(self) -> int:
        # fan-in region + node row + strip-track region
        return self.dist_extent + self.cell.node_side + self.strip_extent


@dataclass(slots=True)
class _Geometry:
    """Absolute coordinates of the grid skeleton."""

    cell_x: list[int]  # left edge of cell column j
    chan_x: list[int]  # left edge of vertical channel j
    chan_y: list[int]  # top edge of horizontal channel i (above row i)
    cell_y: list[int]  # top edge of cell row i
    col_widths: list[int]
    row_heights: list[int]


class _Rows:
    """Oriented segment rows, wire-major, as the routing phases emit
    them: ``[sx, sy, ex, ey, layer]`` per segment, from the segment's
    path start to its path end."""

    __slots__ = ("flat", "ends", "u", "v", "keys")

    def __init__(self) -> None:
        self.flat: list[int] = []
        self.ends = [0]  # CSR segment offsets
        self.u: list[Node] = []
        self.v: list[Node] = []
        self.keys: list = []

    def wire(self, u: Node, v: Node, key, path: Sequence[int]) -> None:
        self.flat += path
        self.ends.append(len(self.flat) // 5)
        self.u.append(u)
        self.v.append(v)
        self.keys.append(key)


def _extend_reversed(path: list[int], segs: list[tuple]) -> None:
    """Append ``segs`` (oriented pin -> channel) to ``path`` walked
    back from the channel to the pin."""
    for sx, sy, ex, ey, layer in reversed(segs):
        path += (ex, ey, sx, sy, layer)


def build_orthogonal_layout(spec: LayoutSpec) -> GridLayout:
    """Run the full orthogonal multilayer layout scheme on ``spec``."""
    spec.validate()
    builder = _Builder(spec)
    return builder.build()


class _Builder:
    def __init__(self, spec: LayoutSpec):
        self.spec = spec
        self.G = max(spec.layers // 2, 1)
        self.pins = PinAllocator()
        self.blocks: dict[CellPos, _BlockInfo] = {}
        # Link-end ids: end e (0 = u, 1 = v) of link idx of a kind is
        # (kind * M + idx) * 2 + e, strip edges numbered across blocks.
        # A pin or distribution-slot request sorts by the tuple
        # (direction, other, kind, str(idx), end).
        strips = sum(
            len(c.edges) for c in spec.cells.values()
            if isinstance(c, BlockCell)
        )
        self.M = 1 + max(
            len(spec.row_links), len(spec.col_links),
            len(spec.extra_links), strips,
        )
        # Per-link routing choices, filled in phase order.
        self.row_track: list[int] = []  # row-link index -> track
        self.row_rank: list[tuple[int, int]] = []  # (u, v) pin abscissa offsets
        self.col_track: list[int] = []
        # Extra links: (offset, group) per channel; both channels of a
        # link share the group so its via spans one layer pair only.
        self.extra_group: dict[int, int] = {}
        self.extra_h_offset: dict[int, int] = {}
        self.extra_v_offset: dict[int, int] = {}
        self.row_groups: list[LayerGroups] = []  # per channel
        self.col_groups: list[LayerGroups] = []
        self.row_tracks_total: list[int] = []
        self.col_tracks_total: list[int] = []
        self.row_extents: list[int] = []
        self.col_extents: list[int] = []

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
            sum(self.row_tracks_total) + sum(self.col_tracks_total),
        )
        return layout

    def _build_phases(self, sp) -> GridLayout:
        with obs.span("prepare_blocks"):
            self._prepare_blocks()
            self._allocate_dist_slots()
        with obs.span("request_pins"):
            self._request_pins()
            self.pins.freeze()
        with obs.span("pack_channels"):
            self._pack_channels()
        with obs.span("compute_geometry"):
            geo = self._compute_geometry()
        with obs.span("place_nodes"):
            placements = self._place_nodes(geo)
        rows = _Rows()
        with obs.span("route_row_links"):
            self._route_row_links(geo, rows)
        with obs.span("route_col_links"):
            self._route_col_links(geo, rows)
        with obs.span("route_extra_links"):
            self._route_extra_links(geo, rows)
        with obs.span("route_strips"):
            self._route_strips(geo, rows)
        table = WireTable.from_paths(
            rows.flat, rows.ends, rows.u, rows.v, rows.keys, placements
        )
        sp.add("wires", table.num_wires)
        return GridLayout.from_table(
            self.spec.layers,
            placements,
            table,
            meta={
                "scheme": "orthogonal-multilayer",
                "name": self.spec.name,
                "rows": self.spec.rows,
                "cols": self.spec.cols,
                "layer_groups": self.G,
                "row_tracks": list(self.row_tracks_total),
                "col_tracks": list(self.col_tracks_total),
                "row_channel_extents": list(self.row_extents),
                "col_channel_extents": list(self.col_extents),
                "col_widths": geo.col_widths,
                "row_heights": geo.row_heights,
            },
        )

    # -- phase 1: blocks ---------------------------------------------------

    def _prepare_blocks(self) -> None:
        base = 0
        for pos, cell in self.spec.cells.items():
            if not isinstance(cell, BlockCell):
                continue
            member_index = {v: m for m, v in enumerate(cell.nodes)}
            width = len(cell.nodes) * cell.node_side
            self.blocks[pos] = _BlockInfo(
                cell=cell,
                member_index=member_index,
                width=width,
                strip_tracks=0,
                strip_extent=0,
                strip_base=base,
            )
            base += len(cell.edges)

    def _allocate_dist_slots(self) -> None:
        """Give each side-entering link end a distribution track.

        Slots are ordered so links arriving from above precede links
        departing below; this is what lets two such links share a
        vertical channel track that touches at this block's row.
        """
        M = self.M
        requests: dict[CellPos, list[tuple[tuple, int]]] = {}

        def ask(pos: CellPos, other_row: int, kind: int, idx: int, end: int) -> None:
            key = (other_row >= pos[0], other_row, kind, str(idx), end)
            requests.setdefault(pos, []).append((key, (kind * M + idx) * 2 + end))

        for idx, link in enumerate(self.spec.col_links):
            if link.u_cell in self.blocks:
                ask(link.u_cell, link.v_cell[0], _COL, idx, 0)
            if link.v_cell in self.blocks:
                ask(link.v_cell, link.u_cell[0], _COL, idx, 1)
        for idx, link in enumerate(self.spec.extra_links):
            # Only the v end of an extra link enters from the side; the
            # vertical run approaches from the source row's channel.
            if link.v_cell in self.blocks:
                ask(link.v_cell, link.u_cell[0], _EXTRA, idx, 1)

        for pos, reqs in requests.items():
            reqs.sort()
            info = self.blocks[pos]
            for slot, (_, end_id) in enumerate(reqs):
                info.dist_slots[end_id] = slot

    # -- phase 2: pins -----------------------------------------------------

    def _request_pins(self) -> None:
        # A key's direction is 0 when the other end lies before this one
        # along the side (it arrives) and 1 when it lies at or after it
        # (it departs); block members climbing to a distribution track
        # sort last, with direction 2.
        spec, blocks, M = self.spec, self.blocks, self.M
        request, set_capacity = self.pins.request, self.pins.set_capacity
        for cell in spec.cells.values():
            if isinstance(cell, NodeCell):
                for side in _SIDES:
                    set_capacity(cell.node, side, cell.side)
            else:
                for v in cell.nodes:
                    for side in _SIDES:
                        set_capacity(v, side, cell.node_side)

        # Row links: both ends attach at top pins; ordering key places
        # wires arriving from the left before wires departing right.
        for idx, link in enumerate(spec.row_links):
            ju, jv = link.u_cell[1], link.v_cell[1]
            e, s = (_ROW * M + idx) * 2, str(idx)
            request(link.u_node, "top", (jv >= ju, jv, _ROW, s, 0), e)
            request(link.v_node, "top", (ju >= jv, ju, _ROW, s, 1), e + 1)

        # Column links: plain nodes use right-side pins (ordered by the
        # other end's row); block members use a top pin for the climb to
        # the distribution track (no ordering constraint).
        for idx, link in enumerate(spec.col_links):
            e, s = (_COL * M + idx) * 2, str(idx)
            for end, pos, node, other in (
                (0, link.u_cell, link.u_node, link.v_cell[0]),
                (1, link.v_cell, link.v_node, link.u_cell[0]),
            ):
                if pos in blocks:
                    request(node, "top", (2, 0, _COL, s, end), e + end)
                else:
                    request(
                        node, "right",
                        (other >= pos[0], other, _COL, s, end), e + end,
                    )

        # Extra links: source uses a top pin (ordered like a row wire
        # toward the target column's channel); target enters from the
        # right side (plain node) or via a distribution track (block).
        for idx, link in enumerate(spec.extra_links):
            e, s = (_EXTRA * M + idx) * 2, str(idx)
            self_d = 2 * link.u_cell[1]
            other_d = 2 * link.v_cell[1] + 1  # the target column's channel
            request(
                link.u_node, "top", (other_d >= self_d, other_d, _EXTRA, s, 0), e
            )
            v_pos, i_u = link.v_cell, link.u_cell[0]
            if v_pos in blocks:
                request(link.v_node, "top", (2, 0, _EXTRA, s, 1), e + 1)
            else:
                request(
                    link.v_node, "right",
                    (i_u >= v_pos[0], i_u, _EXTRA, s, 1), e + 1,
                )

        # Intra-block strip wiring: bottom pins, ordered left-to-right.
        for info in blocks.values():
            index = info.member_index
            for eidx, (u, v) in enumerate(info.cell.edges):
                mu, mv = index[u], index[v]
                e, s = (_STRIP * M + info.strip_base + eidx) * 2, str(eidx)
                request(u, "bottom", (mv >= mu, mv, _STRIP, s, 0), e)
                request(v, "bottom", (mu >= mv, mu, _STRIP, s, 1), e + 1)

    # -- phase 3: channel packing ------------------------------------------

    def _cell_rank(self, pos: CellPos, node: Node, end_id: int, axis: str) -> int:
        """The pin's offset within its cell along the channel axis.

        For row channels (axis 'x') this is the top-pin abscissa offset;
        for column channels (axis 'y') the right-pin / distribution-track
        ordinate offset.  Ranks refine the doubled cell coordinate so
        interval packing reasons about true geometric extents.
        """
        info = self.blocks.get(pos)
        if axis == "x":
            off = self.pins.offset(end_id)
            if info is not None:
                return info.member_index[node] * info.cell.node_side + off
            return off
        # axis == 'y'
        if info is not None:
            return info.dist_slots[end_id]
        return self.pins.offset(end_id)

    def _pack_channel_links(
        self, links, kind: int, axis: int, count: int,
    ) -> tuple[list[int], list[int], list[tuple[int, int]]]:
        """Left-edge pack the links of every channel along one axis
        (0: row channels, 1: column channels).

        Returns ``(track per link, tracks per channel, (u, v) ranks per
        link)``.  An end's extent is its doubled cell coordinate refined
        by its rank, encoded as one int ``2 * cell * K + rank``.
        """
        M, rank = self.M, self._cell_rank
        name = "xy"[axis]
        ranks = []
        for idx, link in enumerate(links):
            e = (kind * M + idx) * 2
            ranks.append((
                rank(link.u_cell, link.u_node, e, name),
                rank(link.v_cell, link.v_node, e + 1, name),
            ))
        K = 1 + max((max(r) for r in ranks), default=0)
        cross = 1 - axis  # the cell coordinate along the channel
        per_chan: list[list[int]] = [[] for _ in range(count)]
        intervals: list[list[Interval]] = [[] for _ in range(count)]
        for idx, link in enumerate(links):
            ru, rv = ranks[idx]
            a = 2 * link.u_cell[cross] * K + ru
            b = 2 * link.v_cell[cross] * K + rv
            c = link.u_cell[axis]
            per_chan[c].append(idx)
            intervals[c].append(Interval(a, b) if a < b else Interval(b, a))
        track = [0] * len(links)
        totals = []
        for c in range(count):
            assignment, n = pack_intervals(intervals[c])
            for local, idx in enumerate(per_chan[c]):
                track[idx] = assignment[local]
            totals.append(n)
        return track, totals, ranks

    def _pack_channels(self) -> None:
        spec = self.spec
        G = self.G
        for idx in range(len(spec.extra_links)):
            self.extra_group[idx] = idx % G

        # Row channels, then column channels; each channel's extra
        # links get dedicated tracks past the packed ones, per group.
        self.row_track, row_packed, self.row_rank = self._pack_channel_links(
            spec.row_links, _ROW, 0, spec.rows
        )
        self.col_track, col_packed, _ = self._pack_channel_links(
            spec.col_links, _COL, 1, spec.cols
        )
        for packed, groups, totals, extents, offsets, chan_of in (
            (row_packed, self.row_groups, self.row_tracks_total,
             self.row_extents, self.extra_h_offset,
             lambda link: link.u_cell[0]),
            (col_packed, self.col_groups, self.col_tracks_total,
             self.col_extents, self.extra_v_offset,
             lambda link: link.v_cell[1]),
        ):
            extras: list[list[int]] = [[] for _ in packed]
            for idx, link in enumerate(spec.extra_links):
                extras[chan_of(link)].append(idx)
            for c, count in enumerate(packed):
                groups.append(LayerGroups(count, spec.layers))
                cap = groups[-1].per_group
                per_group: dict[int, int] = {}
                for idx in extras[c]:
                    g = self.extra_group[idx]
                    offsets[idx] = cap + per_group.get(g, 0)
                    per_group[g] = per_group.get(g, 0) + 1
                totals.append(count + len(extras[c]))
                extents.append(cap + max(per_group.values(), default=0))

        # Intra-block strips.
        M, off = self.M, self.pins.offset
        for info in self.blocks.values():
            index = info.member_index
            K = info.cell.node_side  # bottom pin offsets are below it
            intervals = []
            for eidx, (u, v) in enumerate(info.cell.edges):
                e = (_STRIP * M + info.strip_base + eidx) * 2
                a = index[u] * K + off(e)
                b = index[v] * K + off(e + 1)
                intervals.append(Interval(a, b) if a < b else Interval(b, a))
            assignment, count = pack_intervals(intervals)
            info.strip_tracks = count
            # One grid line of clearance below the deepest strip track so
            # it can never coincide with the next row channel's top track.
            extent = LayerGroups(count, self.spec.layers).physical_extent()
            info.strip_extent = extent + 1 if count else 0
            info.strip_assignment = assignment

    # -- phase 4: geometry ---------------------------------------------------

    def _cell_width(self, pos: CellPos) -> int:
        cell = self.spec.cells.get(pos)
        if cell is None:
            return 0
        if isinstance(cell, NodeCell):
            return cell.side
        return self.blocks[pos].width

    def _cell_height(self, pos: CellPos) -> int:
        cell = self.spec.cells.get(pos)
        if cell is None:
            return 0
        if isinstance(cell, NodeCell):
            return cell.side
        return self.blocks[pos].height

    def _compute_geometry(self) -> _Geometry:
        spec = self.spec
        col_widths = [
            max(
                (self._cell_width((i, j)) for i in range(spec.rows)),
                default=0,
            )
            for j in range(spec.cols)
        ]
        row_heights = [
            max(
                (self._cell_height((i, j)) for j in range(spec.cols)),
                default=0,
            )
            for i in range(spec.rows)
        ]
        cell_x, chan_x = [], []
        x = 0
        for j in range(spec.cols):
            cell_x.append(x)
            x += col_widths[j]
            chan_x.append(x)
            x += self.col_extents[j]
        chan_y, cell_y = [], []
        y = 0
        for i in range(spec.rows):
            chan_y.append(y)
            y += self.row_extents[i]
            cell_y.append(y)
            y += row_heights[i]
        return _Geometry(
            cell_x=cell_x,
            chan_x=chan_x,
            chan_y=chan_y,
            cell_y=cell_y,
            col_widths=col_widths,
            row_heights=row_heights,
        )

    # -- phase 5: placement & routing ----------------------------------------

    def _place_nodes(self, geo: _Geometry) -> dict[Node, Placement]:
        placements: dict[Node, Placement] = {}

        def place(node: Node, rect: Rect) -> None:
            if node in placements:
                raise ValueError(f"node placed twice: {node!r}")
            placements[node] = Placement(node, rect)

        for pos, cell in self.spec.cells.items():
            i, j = pos
            x0, y0 = geo.cell_x[j], geo.cell_y[i]
            if isinstance(cell, NodeCell):
                place(cell.node, Rect(x0, y0, cell.side, cell.side))
            else:
                info = self.blocks[pos]
                s = cell.node_side
                ny = y0 + info.dist_extent
                for m, v in enumerate(cell.nodes):
                    place(v, Rect(x0 + m * s, ny, s, s))
        return placements

    # pin coordinate helpers ---------------------------------------------

    def _node_top_y(self, pos: CellPos, geo: _Geometry) -> int:
        info = self.blocks.get(pos)
        if info is None:
            return geo.cell_y[pos[0]]
        return geo.cell_y[pos[0]] + info.dist_extent

    def _pin_end(
        self, pos: CellPos, node: Node, end_id: int, x_t: int, h: int,
        geo: _Geometry,
    ) -> tuple[list[tuple], int]:
        """Oriented segments from a side-entering link end's pin to the
        vertical channel track at ``x_t``, plus the ordinate where the
        channel run meets them.

        A plain node leaves through its right-side pin; a block member
        climbs from its top pin to its distribution track, then rides
        it to the channel.
        """
        info = self.blocks.get(pos)
        i, j = pos
        if info is None:
            x = geo.cell_x[j] + self.spec.cells[pos].side
            y = geo.cell_y[i] + self.pins.offset(end_id)
            return ([(x, y, x_t, y, h)] if x != x_t else []), y
        px = geo.cell_x[j] + self._cell_rank(pos, node, end_id, "x")
        py = geo.cell_y[i] + info.dist_extent
        dy = geo.cell_y[i] + info.dist_slots[end_id]
        return [(px, py, px, dy, h + 1), (px, dy, x_t, dy, h)], dy

    # routing ---------------------------------------------------------------

    def _route_row_links(self, geo: _Geometry, rows: _Rows) -> None:
        cell_x, chan_y = geo.cell_x, geo.chan_y
        top_y = self._node_top_y
        wire = rows.wire
        for idx, link in enumerate(self.spec.row_links):
            i = link.u_cell[0]
            o, h, v = self.row_groups[i].locate(self.row_track[idx])
            y_t = chan_y[i] + o
            ru, rv = self.row_rank[idx]
            xu = cell_x[link.u_cell[1]] + ru
            xv = cell_x[link.v_cell[1]] + rv
            yu = top_y(link.u_cell, geo)
            yv = top_y(link.v_cell, geo)
            wire(link.u_node, link.v_node, link.edge_key, (
                xu, yu, xu, y_t, v,
                xu, y_t, xv, y_t, h,
                xv, y_t, xv, yv, v,
            ))

    def _route_col_links(self, geo: _Geometry, rows: _Rows) -> None:
        M = self.M
        wire = rows.wire
        for idx, link in enumerate(self.spec.col_links):
            j = link.u_cell[1]
            o, h, v = self.col_groups[j].locate(self.col_track[idx])
            x_t = geo.chan_x[j] + o
            e = (_COL * M + idx) * 2
            head, yu = self._pin_end(link.u_cell, link.u_node, e, x_t, h, geo)
            tail, yv = self._pin_end(link.v_cell, link.v_node, e + 1, x_t, h, geo)
            path = [c for seg in head for c in seg]
            path += (x_t, yu, x_t, yv, v)
            _extend_reversed(path, tail)
            wire(link.u_node, link.v_node, link.edge_key, path)

    def _route_extra_links(self, geo: _Geometry, rows: _Rows) -> None:
        M = self.M
        for idx, link in enumerate(self.spec.extra_links):
            i_u = link.u_cell[0]
            j_v = link.v_cell[1]
            g = self.extra_group[idx]
            h_layer, v_layer = 2 * g + 1, 2 * g + 2
            y_h = geo.chan_y[i_u] + self.extra_h_offset[idx]
            x_v = geo.chan_x[j_v] + self.extra_v_offset[idx]
            e = (_EXTRA * M + idx) * 2

            xu = geo.cell_x[link.u_cell[1]] + self._cell_rank(
                link.u_cell, link.u_node, e, "x"
            )
            yu = self._node_top_y(link.u_cell, geo)
            path = [
                xu, yu, xu, y_h, v_layer,
                xu, y_h, x_v, y_h, h_layer,
            ]
            # Target entry: down the dedicated vertical track, then
            # the v end's pin path walked back from the channel.
            tail, y = self._pin_end(
                link.v_cell, link.v_node, e + 1, x_v, h_layer, geo
            )
            path += (x_v, y_h, x_v, y, v_layer)
            _extend_reversed(path, tail)
            rows.wire(link.u_node, link.v_node, link.edge_key, path)

    def _route_strips(self, geo: _Geometry, rows: _Rows) -> None:
        M, off = self.M, self.pins.offset
        for pos, info in self.blocks.items():
            cell = info.cell
            index = info.member_index
            s = cell.node_side
            assignment = info.strip_assignment
            groups = LayerGroups(max(info.strip_tracks, 1), self.spec.layers)
            node_bottom = geo.cell_y[pos[0]] + info.dist_extent + s
            x0 = geo.cell_x[pos[1]]
            for eidx, (u, v) in enumerate(cell.edges):
                o, h_layer, v_layer = groups.locate(assignment[eidx])
                y_t = node_bottom + 1 + o
                e = (_STRIP * M + info.strip_base + eidx) * 2
                xu = x0 + index[u] * s + off(e)
                xv = x0 + index[v] * s + off(e + 1)
                rows.wire(u, v, ("strip", eidx), (
                    xu, node_bottom, xu, y_t, v_layer,
                    xu, y_t, xv, y_t, h_layer,
                    xv, y_t, xv, node_bottom, v_layer,
                ))
