"""Structure-of-arrays geometry kernel for routed layouts.

A :class:`WireTable` flattens a :class:`~repro.grid.layout.GridLayout`'s
wires into contiguous integer arrays -- segment endpoints and layers in
wire-major path order, per-wire index ranges (CSR offsets), and the
z-runs (vias and risers) -- so every downstream consumer of layout
geometry (metrics, link delays, serialization, the brute-force oracle's
occupancy expansion, the renderers) can read flat data instead of
re-walking per-wire ``Wire``/``Segment`` object graphs.  Thompson-style
grid layouts are natively flat integer data (paper Section 2.1), so the
table is both the fast path and the compact representation: on the
paper-scale cases it is several times smaller than the object graph
(``python -m repro stats --mem`` prints the accounting).

The table is **immutable data** with two origins.  The orthogonal
builder routes straight into it: :meth:`WireTable.from_paths` takes the
oriented segment rows its phases emit, and :meth:`WireTable.from_rows`
runs the ``Segment``/``Wire`` construction checks on them with numpy;
the layout is then *table-born* and builds its ``Wire`` objects from
the rows (:meth:`WireTable.build_wires`) only when something reads
``layout.wires``.  Any other layout's table is derived from its wires
by ``WireTable(layout)``, once, and cached by
:meth:`GridLayout.wire_table`.  The cache is revalidated against an
identity stamp -- the number of placements plus the ``Wire`` objects
in ``layout.wires`` -- so appending a wire, placing a node, or
replacing a wire object (the mutation harness in :mod:`repro.check`
does exactly that) all invalidate it.  Mutating a ``Wire``'s *own*
``segments`` list in place is not detected and is unsupported
everywhere in this codebase: wires are replaced, never edited.

The arrays are numpy ndarrays, and the reductions below run on them
directly.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (layout -> table)
    from repro.grid.layout import GridLayout

__all__ = ["WireTable", "object_graph_bytes"]


def _i64(values: list[int]):
    return _np.asarray(values, dtype=_np.int64)


class WireTable:
    """Flat-array view of one layout's wires.

    Array schema (all int64; ``W`` wires, ``S`` segments, ``Z`` z-runs):

    ``seg_x1, seg_y1, seg_x2, seg_y2, seg_layer``
        One entry per segment, in wire-major path order (exactly the
        order ``layout.wires[i].segments`` stores them), endpoints
        normalized as ``Segment`` stores them.
    ``seg_rev``
        int8 flag per segment: 1 when the wire's path traverses the
        segment from ``(x2, y2)`` to ``(x1, y1)`` (i.e. against the
        normalized endpoint order), else 0.  Together with the
        normalized endpoints this recovers the oriented path: the
        junction between consecutive segments ``i`` and ``i + 1`` is
        segment ``i``'s path *end*, ``(x1, y1)`` if ``seg_rev[i]``
        else ``(x2, y2)``.
    ``wire_seg_start``
        CSR offsets, length ``W + 1``: wire ``i``'s segments occupy
        rows ``wire_seg_start[i] : wire_seg_start[i + 1]``.
    ``zrun_x, zrun_y, zrun_lo, zrun_hi`` / ``wire_zrun_start``
        One entry per z-run -- a via between consecutive segments on
        different layers, or a riser's vertical run -- mirroring
        ``Wire.z_occupancy()`` exactly, with CSR offsets per wire.
    ``wire_length``
        ``Wire.length`` per wire (planar segment lengths; a riser's
        z-extent).
    ``wire_is_riser``
        1 for riser wires, else 0.
    ``wire_u, wire_v, wire_edge_key``
        Per-wire node labels and parallel-edge key (plain lists: labels
        are arbitrary hashables shared with the layout).
    ``node_x0, node_y0, node_x1, node_y1, node_layer``
        Placement rectangle corners and active layer, in
        ``layout.placements`` order (bounding-box input; node identity
        stays on the layout).
    """

    __slots__ = (
        "num_wires", "num_segments", "num_zruns",
        "seg_x1", "seg_y1", "seg_x2", "seg_y2", "seg_layer", "seg_rev",
        "wire_seg_start",
        "zrun_x", "zrun_y", "zrun_lo", "zrun_hi", "wire_zrun_start",
        "wire_length", "wire_is_riser",
        "wire_u", "wire_v", "wire_edge_key",
        "node_x0", "node_y0", "node_x1", "node_y1", "node_layer",
        "_seg_rows", "_zrun_rows", "_lengths_list", "_units",
        "_endpoints",
    )

    def __init__(self, layout: "GridLayout"):
        from repro.grid.wire import walk_path

        sx1: list[int] = []
        sy1: list[int] = []
        sx2: list[int] = []
        sy2: list[int] = []
        slay: list[int] = []
        srev: list[int] = []
        seg_start = [0]
        zx: list[int] = []
        zy: list[int] = []
        zlo: list[int] = []
        zhi: list[int] = []
        zrun_start = [0]
        wlen: list[int] = []
        wriser: list[int] = []
        wires = layout.wires

        for w in wires:
            if w.riser is not None:
                x, y, lo, hi = w.riser
                zx.append(x)
                zy.append(y)
                zlo.append(lo)
                zhi.append(hi)
                wlen.append(hi - lo)
                wriser.append(1)
            else:
                segs = w.segments
                length = 0
                prev_layer = None
                for s, (_, end) in zip(segs, walk_path(segs, w.u, w.v)):
                    sx1.append(s.x1)
                    sy1.append(s.y1)
                    sx2.append(s.x2)
                    sy2.append(s.y2)
                    slay.append(s.layer)
                    srev.append(1 if end == (s.x1, s.y1) else 0)
                    length += (s.x2 - s.x1) + (s.y2 - s.y1)
                    if prev_layer is not None and prev_layer != s.layer:
                        # The junction is the *start* of this segment
                        # along the path == end of the previous one.
                        zx.append(start_x)
                        zy.append(start_y)
                        zlo.append(min(prev_layer, s.layer))
                        zhi.append(max(prev_layer, s.layer))
                    prev_layer = s.layer
                    start_x, start_y = end
                wlen.append(length)
                wriser.append(0)
            seg_start.append(len(sx1))
            zrun_start.append(len(zx))

        self.num_wires = len(wires)
        self.num_segments = len(sx1)
        self.num_zruns = len(zx)
        self.seg_x1 = _i64(sx1)
        self.seg_y1 = _i64(sy1)
        self.seg_x2 = _i64(sx2)
        self.seg_y2 = _i64(sy2)
        self.seg_layer = _i64(slay)
        self.seg_rev = _np.asarray(srev, dtype=_np.int8)
        self.wire_seg_start = _i64(seg_start)
        self.zrun_x = _i64(zx)
        self.zrun_y = _i64(zy)
        self.zrun_lo = _i64(zlo)
        self.zrun_hi = _i64(zhi)
        self.wire_zrun_start = _i64(zrun_start)
        self.wire_length = _i64(wlen)
        self.wire_is_riser = _i64(wriser)
        self.wire_u = [w.u for w in wires]
        self.wire_v = [w.v for w in wires]
        self.wire_edge_key = [w.edge_key for w in wires]
        self._set_nodes(layout.placements)

    def _set_nodes(self, placements) -> None:
        nx0: list[int] = []
        ny0: list[int] = []
        nx1: list[int] = []
        ny1: list[int] = []
        nlay: list[int] = []
        for p in placements.values():
            nx0.append(p.rect.x0)
            ny0.append(p.rect.y0)
            nx1.append(p.rect.x1)
            ny1.append(p.rect.y1)
            nlay.append(p.layer)
        self.node_x0 = _i64(nx0)
        self.node_y0 = _i64(ny0)
        self.node_x1 = _i64(nx1)
        self.node_y1 = _i64(ny1)
        self.node_layer = _i64(nlay)
        self._seg_rows = None
        self._zrun_rows = None
        self._lengths_list = None
        self._units = None
        self._endpoints = None

    # -- construction from rows -----------------------------------------

    @classmethod
    def from_paths(
        cls, paths, wire_seg_start, wire_u, wire_v, wire_edge_key,
        placements,
    ) -> "WireTable":
        """A table from *oriented* segment rows, as a router emits them.

        ``paths`` is an ``(S, 5)`` int array of ``[sx, sy, ex, ey,
        layer]`` rows, each segment running from its path start to its
        path end, wire-major.  The rows are normalized here -- endpoint
        order and ``seg_rev`` exactly as :class:`Segment` and
        :func:`~repro.grid.wire.walk_path` would store them, so a
        single-segment wire keeps ``seg_rev = 0`` -- and handed to
        :meth:`from_rows`, which runs the construction checks.
        """
        p = _np.asarray(paths, dtype=_np.int64).reshape(-1, 5)
        sx, sy, ex, ey = p[:, 0], p[:, 1], p[:, 2], p[:, 3]
        flip = (sx > ex) | ((sx == ex) & (sy > ey))
        starts = _i64(wire_seg_start)
        rev = flip.astype(_np.int8)
        rev[starts[:-1][_np.diff(starts) == 1]] = 0
        return cls.from_rows(
            _np.where(flip, ex, sx), _np.where(flip, ey, sy),
            _np.where(flip, sx, ex), _np.where(flip, sy, ey), p[:, 4],
            rev, starts, wire_u, wire_v, wire_edge_key, placements,
        )

    @classmethod
    def from_rows(
        cls, seg_x1, seg_y1, seg_x2, seg_y2, seg_layer, seg_rev,
        wire_seg_start, wire_u, wire_v, wire_edge_key, placements,
    ) -> "WireTable":
        """A table straight from planar segment columns (no risers).

        The columns follow the class schema; ``wire_u``/``wire_v``/
        ``wire_edge_key`` name each wire and ``placements`` is the
        layout's placement dict.  The rows get the checks ``Segment``
        and ``Wire`` construction would run, vectorized, raising the
        same exception types: segments are axis-aligned, non-zero, on
        layers >= 1 and endpoint-normalized (``ValueError``); every
        wire has a segment, its consecutive segments chain -- segment
        ``i``'s path end is segment ``i + 1``'s path start -- and its
        first two do not share both endpoints (``WirePathError``).
        """
        from repro.grid.wire import WirePathError

        x1, y1 = _i64(seg_x1), _i64(seg_y1)
        x2, y2 = _i64(seg_x2), _i64(seg_y2)
        layer = _i64(seg_layer)
        rev = _np.asarray(seg_rev, dtype=_np.int8)
        starts = _i64(wire_seg_start)
        S, W = len(x1), len(wire_u)
        if not (
            len(y1) == len(x2) == len(y2) == len(layer) == len(rev) == S
            and len(starts) == W + 1 == len(wire_v) + 1
            == len(wire_edge_key) + 1
            and starts[0] == 0 and starts[-1] == S
        ):
            raise ValueError("segment and wire columns do not line up")

        def first(mask, why: str) -> None:
            if mask.any():
                i = int(_np.argmax(mask))
                row = (int(x1[i]), int(y1[i]), int(x2[i]), int(y2[i]),
                       int(layer[i]))
                raise ValueError(f"segment {why}: {row}")

        first((x1 != x2) & (y1 != y2), "is not axis-aligned")
        first((x1 == x2) & (y1 == y2), "has zero length")
        first(layer < 1, "layer must be >= 1")
        first((x1 > x2) | ((x1 == x2) & (y1 > y2)),
              "endpoints are not in normalized order")
        counts = _np.diff(starts)
        if (counts < 1).any():
            wi = int(_np.argmax(counts < 1))
            raise WirePathError(
                f"wire {wire_u[wi]}-{wire_v[wi]} has no segments"
            )
        single = starts[:-1][counts == 1]
        if rev[single].any():
            raise ValueError("a single-segment wire must have seg_rev 0")

        r = rev.astype(bool)
        sx, sy = _np.where(r, x2, x1), _np.where(r, y2, y1)
        ex, ey = _np.where(r, x1, x2), _np.where(r, y1, y2)
        # Pair i joins segments i and i + 1 of one wire.
        same = _np.ones(max(S - 1, 0), dtype=bool)
        same[starts[1:-1] - 1] = False
        broken = same & ((ex[:-1] != sx[1:]) | (ey[:-1] != sy[1:]))
        firsts = starts[:-1][counts > 1]
        uturn = _np.zeros(max(S - 1, 0), dtype=bool)
        uturn[firsts] = (sx[firsts] == ex[firsts + 1]) & (
            sy[firsts] == ey[firsts + 1]
        )
        bad = broken | uturn
        if bad.any():
            i = int(_np.argmax(bad))
            wi = int(_np.searchsorted(starts, i, side="right")) - 1
            why = (
                "shares both endpoints with segment 0" if uturn[i]
                else "does not continue the path"
            )
            raise WirePathError(
                f"wire {wire_u[wi]}-{wire_v[wi]}: segment "
                f"{i + 1 - int(starts[wi])} {why} at "
                f"{(int(ex[i]), int(ey[i]))}"
            )

        via = _np.zeros(S, dtype=bool)
        via[:-1] = same & (layer[:-1] != layer[1:])
        (zi,) = _np.nonzero(via)
        lens = (x2 - x1) + (y2 - y1)

        self = cls.__new__(cls)
        self.num_wires = W
        self.num_segments = S
        self.num_zruns = len(zi)
        self.seg_x1, self.seg_y1 = x1, y1
        self.seg_x2, self.seg_y2 = x2, y2
        self.seg_layer = layer
        self.seg_rev = rev
        self.wire_seg_start = starts
        self.zrun_x = ex[zi]
        self.zrun_y = ey[zi]
        self.zrun_lo = _np.minimum(layer[zi], layer[zi + 1])
        self.zrun_hi = _np.maximum(layer[zi], layer[zi + 1])
        self.wire_zrun_start = _np.concatenate(
            ([0], _np.cumsum(via))
        )[starts].astype(_np.int64)
        self.wire_length = (
            _np.add.reduceat(lens, starts[:-1]) if W else _i64([])
        )
        self.wire_is_riser = _np.zeros(W, dtype=_np.int64)
        self.wire_u = list(wire_u)
        self.wire_v = list(wire_v)
        self.wire_edge_key = list(wire_edge_key)
        self._set_nodes(placements)
        return self

    def build_wires(self) -> list:
        """The :class:`~repro.grid.wire.Wire` objects the rows describe,
        in table order -- what a table-born layout's ``wires`` holds."""
        from repro.grid.geometry import Segment
        from repro.grid.wire import Wire

        rows = self.segment_rows()
        starts = self.wire_seg_start.tolist()
        zstarts = self.wire_zrun_start.tolist()
        riser = self.wire_is_riser.tolist()
        out = []
        for wi in range(self.num_wires):
            u, v = self.wire_u[wi], self.wire_v[wi]
            key = self.wire_edge_key[wi]
            if riser[wi]:
                z = zstarts[wi]
                out.append(Wire.make_riser(
                    u, v, int(self.zrun_x[z]), int(self.zrun_y[z]),
                    int(self.zrun_lo[z]), int(self.zrun_hi[z]),
                    edge_key=key,
                ))
            else:
                segs = [Segment(*row) for row in rows[starts[wi]:starts[wi + 1]]]
                out.append(Wire(u, v, segs, edge_key=key))
        return out

    # -- measurement ----------------------------------------------------

    def bounds(self) -> tuple[int, int, int, int] | None:
        """(x0, y0, x1, y1) over node rects and segment endpoints, or
        ``None`` when the layout has neither (risers never count,
        matching the object path)."""
        if self.num_segments == 0 and len(self.node_x0) == 0:
            return None
        xs = (self.node_x0, self.node_x1, self.seg_x1, self.seg_x2)
        ys = (self.node_y0, self.node_y1, self.seg_y1, self.seg_y2)
        x0 = min(int(a.min()) for a in xs if len(a))
        x1 = max(int(a.max()) for a in xs if len(a))
        y0 = min(int(a.min()) for a in ys if len(a))
        y1 = max(int(a.max()) for a in ys if len(a))
        return (x0, y0, x1, y1)

    def wire_lengths(self) -> list[int]:
        """Per-wire routed lengths as plain ints (``Wire.length``)."""
        if self._lengths_list is None:
            self._lengths_list = self.wire_length.tolist()
        return self._lengths_list

    def max_wire_length(self) -> int:
        if self.num_wires == 0:
            return 0
        return int(self.wire_length.max())

    def total_wire_length(self) -> int:
        if self.num_wires == 0:
            return 0
        return int(self.wire_length.sum())

    def via_count(self) -> int:
        """``sum(len(w.vias()))``: one via per z-run (a riser's single
        z-run counts once, exactly as ``Wire.vias`` reports it)."""
        return self.num_zruns

    def layers_used(self) -> set[int]:
        """Union of segment layers and riser z-spans (inclusive),
        mirroring ``GridLayout.layers_used``: a via between two planar
        layers does *not* claim the layers it passes through."""
        used = set(_np.unique(self.seg_layer).tolist())
        starts = self.wire_zrun_start
        for wi, riser in enumerate(self.wire_is_riser):
            if riser:
                z = starts[wi]
                used.update(range(int(self.zrun_lo[z]), int(self.zrun_hi[z]) + 1))
        return used

    def link_delay_values(self, *, alpha: float = 1.0, base: float = 1.0) -> list[int]:
        """``max(1, ceil(base + alpha * length))`` per wire, vectorized."""
        d = _np.ceil(base + alpha * self.wire_length.astype(_np.float64))
        return _np.maximum(1, d.astype(_np.int64)).tolist()

    # -- row views (serialization, rendering) ---------------------------

    def segment_rows(self) -> list[list[int]]:
        """``[x1, y1, x2, y2, layer]`` per segment, wire-major path
        order -- exactly the lists ``layout_to_json`` serializes."""
        if self._seg_rows is None:
            stacked = _np.stack(
                (self.seg_x1, self.seg_y1, self.seg_x2, self.seg_y2,
                 self.seg_layer),
                axis=1,
            ) if self.num_segments else _np.empty((0, 5), dtype=_np.int64)
            self._seg_rows = stacked.tolist()
        return self._seg_rows

    def wire_segment_rows(self, wi: int) -> list[list[int]]:
        rows = self.segment_rows()
        starts = self.wire_seg_start
        return rows[int(starts[wi]):int(starts[wi + 1])]

    def zrun_rows(self) -> list[tuple[tuple[int, int], int, int]]:
        """``((x, y), z_lo, z_hi)`` per z-run (``Wire.z_occupancy``)."""
        if self._zrun_rows is None:
            self._zrun_rows = [
                ((int(self.zrun_x[i]), int(self.zrun_y[i])),
                 int(self.zrun_lo[i]), int(self.zrun_hi[i]))
                for i in range(self.num_zruns)
            ]
        return self._zrun_rows

    def wire_zruns(self, wi: int) -> list[tuple[tuple[int, int], int, int]]:
        rows = self.zrun_rows()
        starts = self.wire_zrun_start
        return rows[int(starts[wi]):int(starts[wi + 1])]

    def wire_vias(self, wi: int) -> list[tuple[int, int]]:
        """Planar via positions of wire ``wi`` (``Wire.vias``)."""
        return [pt for pt, _, _ in self.wire_zruns(wi)]

    def wire_endpoints(self):
        """Per-wire planar path pins ``(sx, sy, ex, ey)``, cached.

        ``(sx[i], sy[i])`` is wire ``i``'s path start (``Wire.start``)
        and ``(ex[i], ey[i])`` its path end (``Wire.end``), recovered
        from ``seg_rev``; a riser's start and end share its planar
        point.
        """
        if self._endpoints is not None:
            return self._endpoints
        W = self.num_wires
        if W == 0:
            empty = _np.empty(0, dtype=_np.int64)
            self._endpoints = (empty, empty, empty, empty)
            return self._endpoints
        starts = self.wire_seg_start
        first = starts[:-1]
        last = starts[1:] - 1
        riser = self.wire_is_riser.astype(bool)
        if self.num_segments:
            f = _np.clip(first, 0, self.num_segments - 1)
            l = _np.clip(last, 0, self.num_segments - 1)
            revf = self.seg_rev[f].astype(bool)
            revl = self.seg_rev[l].astype(bool)
            sx = _np.where(revf, self.seg_x2[f], self.seg_x1[f])
            sy = _np.where(revf, self.seg_y2[f], self.seg_y1[f])
            ex = _np.where(revl, self.seg_x1[l], self.seg_x2[l])
            ey = _np.where(revl, self.seg_y1[l], self.seg_y2[l])
        else:
            sx = _np.zeros(W, dtype=_np.int64)
            sy = _np.zeros(W, dtype=_np.int64)
            ex = _np.zeros(W, dtype=_np.int64)
            ey = _np.zeros(W, dtype=_np.int64)
        if riser.any():
            zi = self.wire_zrun_start[:-1][riser]
            sx[riser] = self.zrun_x[zi]
            sy[riser] = self.zrun_y[zi]
            ex[riser] = self.zrun_x[zi]
            ey[riser] = self.zrun_y[zi]
        self._endpoints = (sx, sy, ex, ey)
        return self._endpoints

    # -- occupancy expansion (oracle) -----------------------------------

    def _unit_expansion(self):
        """Bulk unit expansion of every segment, cached.

        Returns ``(edges, edge_start, points, point_start)`` where
        ``edges[k] = (x, y, layer, horizontal)`` is the lower endpoint
        of one unit grid edge, ``points`` covers every grid point of
        every segment (endpoints included, shared junctions repeated
        per segment -- exactly ``Segment.planar_points``), and the
        ``*_start`` arrays are per-wire CSR offsets.  Order is
        wire-major, path order, ascending coordinate within a segment.
        """
        if self._units is not None:
            return self._units
        if not self.num_segments:
            edges, points = [], []
            edge_start = [0] * (self.num_wires + 1)
            point_start = [0] * (self.num_wires + 1)
            self._units = (edges, edge_start, points, point_start)
            return self._units
        x1, y1 = self.seg_x1, self.seg_y1
        lens = (self.seg_x2 - x1) + (self.seg_y2 - y1)
        horiz = (self.seg_y1 == self.seg_y2)
        cum = _np.concatenate(([0], _np.cumsum(lens)))

        def expand(counts, count_cum):
            sid = _np.repeat(_np.arange(self.num_segments), counts)
            off = _np.arange(int(count_cum[-1])) - _np.repeat(
                count_cum[:-1], counts
            )
            h = horiz[sid]
            ex = x1[sid] + _np.where(h, off, 0)
            ey = y1[sid] + _np.where(h, 0, off)
            return _np.stack(
                (ex, ey, self.seg_layer[sid], h.astype(_np.int64)),
                axis=1,
            ).tolist()

        edges = expand(lens, cum)
        pcum = cum + _np.arange(self.num_segments + 1)
        points = expand(lens + 1, pcum)
        edge_start = cum[self.wire_seg_start].tolist()
        point_start = pcum[self.wire_seg_start].tolist()
        self._units = (edges, edge_start, points, point_start)
        return self._units

    def wire_unit_edges(self, wi: int):
        """Unit planar grid edges of wire ``wi`` as
        ``((x, y, layer), (x', y', layer))`` pairs, in the order the
        brute-force oracle enumerates them."""
        edges, edge_start, _, _ = self._unit_expansion()
        out = []
        for x, y, lay, h in edges[edge_start[wi]:edge_start[wi + 1]]:
            if h:
                out.append(((x, y, lay), (x + 1, y, lay)))
            else:
                out.append(((x, y, lay), (x, y + 1, lay)))
        return out

    def wire_cover_points(self, wi: int) -> list[tuple[int, int, int]]:
        """Every ``(x, y, layer)`` grid point covered by wire ``wi``'s
        segments (junction points repeated per covering segment)."""
        _, _, points, point_start = self._unit_expansion()
        return [
            (x, y, lay)
            for x, y, lay, _ in points[point_start[wi]:point_start[wi + 1]]
        ]

    def wire_cover_point_rows(self, wi: int) -> list[list[int]]:
        """Raw ``[x, y, layer, horizontal]`` cover-point rows of wire
        ``wi`` (the ASCII renderer keys glyphs off the orientation)."""
        _, _, points, point_start = self._unit_expansion()
        return points[point_start[wi]:point_start[wi + 1]]

    # -- memory accounting ----------------------------------------------

    def nbytes(self) -> int:
        """Bytes held by the core arrays (derived row/expansion caches
        excluded -- they are transient render helpers, not the
        representation)."""
        total = 0
        for name in (
            "seg_x1", "seg_y1", "seg_x2", "seg_y2", "seg_layer", "seg_rev",
            "wire_seg_start", "zrun_x", "zrun_y", "zrun_lo", "zrun_hi",
            "wire_zrun_start", "wire_length", "wire_is_riser",
            "node_x0", "node_y0", "node_x1", "node_y1", "node_layer",
        ):
            total += int(getattr(self, name).nbytes)
        return total


def object_graph_bytes(layout: "GridLayout") -> int:
    """Bytes held by the layout's *geometry object graph*: the wire
    list, ``Wire``/``Segment``/``Point`` instances, riser tuples, any
    materialized path-point caches, placement ``Placement``/``Rect``
    objects -- plus the coordinate ``int`` objects they reference
    (deduplicated by identity; CPython's small-int cache keeps shared
    ones from double-counting).  Node labels and ``meta`` are excluded:
    the :class:`WireTable` shares them with the object graph rather
    than replacing them, so they cancel out of the comparison
    ``python -m repro stats --mem`` prints.
    """
    seen: set[int] = set()

    def size(obj) -> int:
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return sys.getsizeof(obj)

    total = size(layout.wires)
    for w in layout.wires:
        total += size(w) + size(w.segments)
        for s in w.segments:
            total += size(s)
            for v in (s.x1, s.y1, s.x2, s.y2, s.layer):
                total += size(v)
        if w.riser is not None:
            total += size(w.riser)
            for v in w.riser:
                total += size(v)
        pts = getattr(w, "_pts", None)
        if pts is not None:
            total += size(pts)
            for p in pts:
                total += size(p) + size(p.x) + size(p.y) + size(p.layer)
    total += size(layout.placements)
    for p in layout.placements.values():
        total += size(p) + size(p.rect)
        for v in (p.rect.x0, p.rect.y0, p.rect.w, p.rect.h, p.layer):
            total += size(v)
    return total
