"""Structure-of-arrays geometry store for routed layouts.

A :class:`WireTable` holds a layout's wires as contiguous integer
arrays -- segment endpoints and layers in wire-major path order,
per-wire index ranges (CSR offsets), and the z-runs (vias and risers).
It is the only geometry a :class:`~repro.grid.layout.GridLayout`
stores.  Thompson-style grid layouts are natively flat integer data
(paper Section 2.1), so every consumer of layout geometry (metrics,
link delays, serialization, the validator's kernels, the renderers)
reads columns, and the table is several times smaller than the
equivalent object graph (``python -m repro stats --mem`` prints the
accounting).

Tables are **immutable data**, made only from rows:

* :meth:`WireTable.from_paths` takes *oriented* segment rows, as the
  orthogonal builder, folding and two-sided collinear layouts emit
  them;
* :meth:`WireTable.from_rows` takes normalized rows plus ``seg_rev``
  -- or derives ``seg_rev`` by walking each path exactly as
  :func:`~repro.grid.wire.walk_path` does, which is how serialized
  layouts and the fuzzer's row edits load -- and riser rows; it runs
  the ``Segment``/``Wire`` construction checks with numpy;
* :meth:`WireTable.from_wires` is the adapter for hand-built ``Wire``
  objects (``GridLayout.add_wire``/``replace_wire``).

Edits return new tables, all through :meth:`gather` (runs or picks of
wires from several tables, one after another): :meth:`splice` replaces
a run of wires (``GridLayout`` mutations), :meth:`select` keeps a
subset, :meth:`stack` piles tables up with a layer offset each (3-D
decks), and :meth:`with_nodes` refreshes the placement columns.
``Wire`` objects exist only as the read-only view :meth:`build_wires`
materializes for code that walks objects: the validator's scalar
diagnose sweeps, the brute-force oracle, and tests.

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


def _i64(values):
    return _np.asarray(values, dtype=_np.int64)


#: Per-segment, per-z-run and per-wire columns: what splicing and
#: selecting tables carry (the node columns follow the placements).
_SEG_COLUMNS = ("seg_x1", "seg_y1", "seg_x2", "seg_y2", "seg_layer", "seg_rev")
_ZRUN_COLUMNS = ("zrun_x", "zrun_y", "zrun_lo", "zrun_hi")
_WIRE_COLUMNS = ("wire_length", "wire_is_riser")
_LABEL_COLUMNS = ("wire_u", "wire_v", "wire_edge_key")
_COLUMNS = (
    _SEG_COLUMNS + _ZRUN_COLUMNS + _WIRE_COLUMNS + _LABEL_COLUMNS
    + ("wire_seg_start", "wire_zrun_start")
)
_NODE_COLUMNS = ("node_x0", "node_y0", "node_x1", "node_y1", "node_layer")
_NO_NODES = dict.fromkeys(_NODE_COLUMNS, _np.zeros(0, dtype=_np.int64))


class WireTable:
    """Flat-array geometry of one layout's wires.

    Array schema (all int64; ``W`` wires, ``S`` segments, ``Z`` z-runs):

    ``seg_x1, seg_y1, seg_x2, seg_y2, seg_layer``
        One entry per segment, in wire-major path order (exactly the
        order ``layout.wires[i].segments`` lists them), endpoints
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
        1 for riser wires (no segments, one z-run), else 0.
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

    @classmethod
    def _make(cls, cols: dict, placements=None, nodes=None) -> "WireTable":
        """A table over ``cols`` (every column in :data:`_COLUMNS`),
        with node columns from ``placements`` or shared with the table
        ``nodes``."""
        self = cls.__new__(cls)
        if nodes is not None:
            cols = {**cols, **{n: getattr(nodes, n) for n in _NODE_COLUMNS}}
        elif not placements:
            cols = {**cols, **_NO_NODES}
        else:
            rects = [p.rect for p in placements.values()]
            x0, y0 = _i64([r.x0 for r in rects]), _i64([r.y0 for r in rects])
            cols = {
                **cols, "node_x0": x0, "node_y0": y0,
                "node_x1": x0 + _i64([r.w for r in rects]),
                "node_y1": y0 + _i64([r.h for r in rects]),
                "node_layer": _i64([p.layer for p in placements.values()]),
            }
        for name, value in cols.items():
            setattr(self, name, value)
        self.num_wires = len(self.wire_u)
        self.num_segments = len(self.seg_x1)
        self.num_zruns = len(self.zrun_x)
        self._seg_rows = self._zrun_rows = self._lengths_list = None
        self._units = self._endpoints = None
        return self

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
        *, risers=None,
    ) -> "WireTable":
        """A table straight from normalized segment columns.

        The columns follow the class schema; ``wire_u``/``wire_v``/
        ``wire_edge_key`` name each wire and ``placements`` is the
        layout's placement dict.  ``seg_rev=None`` derives the flags by
        walking each path as :func:`~repro.grid.wire.walk_path` orients
        it.  ``risers`` holds ``[wire, x, y, z_lo, z_hi]`` rows, one per
        riser wire, whose segment range must be empty.

        The rows get the checks ``Segment`` and ``Wire`` construction
        would run, vectorized, raising the same exception types:
        segments are axis-aligned, non-zero, on layers >= 1 and
        endpoint-normalized (``ValueError``); every planar wire has a
        segment, its consecutive segments chain -- segment ``i``'s path
        end is segment ``i + 1``'s path start -- and its first two do
        not share both endpoints; a riser carries no segments and
        spans ``1 <= z_lo < z_hi`` (``WirePathError``).
        """
        from repro.grid.wire import WirePathError

        x1, y1 = _i64(seg_x1), _i64(seg_y1)
        x2, y2 = _i64(seg_x2), _i64(seg_y2)
        layer = _i64(seg_layer)
        starts = _i64(wire_seg_start)
        S, W = len(x1), len(wire_u)
        rv = _np.zeros((0, 5), dtype=_np.int64) if risers is None else (
            _i64(risers).reshape(-1, 5)
        )
        if not (
            len(y1) == len(x2) == len(y2) == len(layer) == S
            and (seg_rev is None or len(seg_rev) == S)
            and len(starts) == W + 1 == len(wire_v) + 1
            == len(wire_edge_key) + 1
            and starts[0] == 0 and starts[-1] == S
            and ((rv[:, 0] >= 0) & (rv[:, 0] < W)).all()
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
        is_riser = _np.zeros(W, dtype=_np.int64)
        is_riser[rv[:, 0]] = 1
        bad = (counts[rv[:, 0]] > 0) | (rv[:, 3] < 1) | (rv[:, 3] >= rv[:, 4])
        if bad.any():
            wi, _, _, zlo, zhi = rv[int(_np.argmax(bad))].tolist()
            raise WirePathError(
                f"wire {wire_u[wi]}-{wire_v[wi]}: bad riser (layers "
                f"{zlo}..{zhi}, {counts[wi]} planar segments)"
            )
        empty = (counts < 1) & (is_riser == 0)
        if empty.any():
            wi = int(_np.argmax(empty))
            raise WirePathError(
                f"wire {wire_u[wi]}-{wire_v[wi]} has no segments"
            )
        if seg_rev is None:
            rev = _walk_rev(x1, y1, x2, y2, starts)
        else:
            rev = _np.asarray(seg_rev, dtype=_np.int8)
        single = starts[:-1][counts == 1]
        if rev[single].any():
            raise ValueError("a single-segment wire must have seg_rev 0")

        r = rev.astype(bool)
        sx, sy = _np.where(r, x2, x1), _np.where(r, y2, y1)
        ex, ey = _np.where(r, x1, x2), _np.where(r, y1, y2)
        # Pair i joins segments i and i + 1 of one wire.
        same = _np.ones(max(S - 1, 0), dtype=bool)
        cuts = starts[1:-1]
        same[cuts[(cuts > 0) & (cuts < S)] - 1] = False
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
        # Vias and risers, merged wire-major (a riser wire has no vias,
        # and a stable sort keeps each wire's vias in path order).
        zwire = _np.concatenate((
            _np.searchsorted(starts, zi, side="right") - 1, rv[:, 0],
        ))
        order = _np.argsort(zwire, kind="stable")
        lens = _np.concatenate(([0], _np.cumsum((x2 - x1) + (y2 - y1))))
        wire_length = lens[starts[1:]] - lens[starts[:-1]]
        wire_length[rv[:, 0]] = rv[:, 4] - rv[:, 3]
        return cls._make({
            "seg_x1": x1, "seg_y1": y1, "seg_x2": x2, "seg_y2": y2,
            "seg_layer": layer, "seg_rev": rev, "wire_seg_start": starts,
            "zrun_x": _np.concatenate((ex[zi], rv[:, 1]))[order],
            "zrun_y": _np.concatenate((ey[zi], rv[:, 2]))[order],
            "zrun_lo": _np.concatenate((
                _np.minimum(layer[zi], layer[zi + 1]), rv[:, 3],
            ))[order],
            "zrun_hi": _np.concatenate((
                _np.maximum(layer[zi], layer[zi + 1]), rv[:, 4],
            ))[order],
            "wire_zrun_start": _np.concatenate((
                [0], _np.cumsum(_np.bincount(zwire, minlength=W)),
            )).astype(_np.int64),
            "wire_length": wire_length.astype(_np.int64),
            "wire_is_riser": is_riser,
            "wire_u": list(wire_u),
            "wire_v": list(wire_v),
            "wire_edge_key": list(wire_edge_key),
        }, placements)

    @classmethod
    def from_wires(cls, wires, placements) -> "WireTable":
        """The rows of hand-built :class:`~repro.grid.wire.Wire`
        objects, which checked themselves on construction:
        ``seg_rev`` from :func:`~repro.grid.wire.walk_path`, z-runs
        from ``Wire.z_occupancy``."""
        from repro.grid.wire import walk_path

        segs, zruns, starts = [], [], [(0, 0)]
        for w in wires:
            if w.riser is None:
                for s, (_, end) in zip(
                    w.segments, walk_path(w.segments, w.u, w.v)
                ):
                    segs.append((s.x1, s.y1, s.x2, s.y2, s.layer,
                                 end == (s.x1, s.y1)))
            zruns += [(*pt, lo, hi) for pt, lo, hi in w.z_occupancy()]
            starts.append((len(segs), len(zruns)))
        seg = _i64(segs).reshape(-1, 6).T
        per_wire = _i64([(w.length, w.riser is not None) for w in wires])
        cols = dict(zip(_SEG_COLUMNS, seg))
        cols["seg_rev"] = seg[5].astype(_np.int8)
        cols.update(zip(_ZRUN_COLUMNS, _i64(zruns).reshape(-1, 4).T))
        cols.update(zip(_WIRE_COLUMNS, per_wire.reshape(-1, 2).T))
        cols["wire_seg_start"], cols["wire_zrun_start"] = _i64(starts).T
        cols["wire_u"] = [w.u for w in wires]
        cols["wire_v"] = [w.v for w in wires]
        cols["wire_edge_key"] = [w.edge_key for w in wires]
        return cls._make(cols, placements)

    def build_wires(self) -> list:
        """The :class:`~repro.grid.wire.Wire` objects the rows describe,
        in table order -- what ``layout.wires`` views."""
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

    # -- edits (each returns a new table) -------------------------------

    @classmethod
    def gather(cls, pieces, placements=None, nodes=None) -> "WireTable":
        """The wires ``idx`` (a slice or an int sequence) of each
        ``(table, idx)`` of ``pieces``, one piece after another, with
        node columns from ``placements`` or shared with the table
        ``nodes``."""
        pieces = [
            (t, idx if isinstance(idx, slice) else _i64(idx))
            for t, idx in pieces
        ]
        cols = {}
        for names, offsets in (
            (_SEG_COLUMNS, "wire_seg_start"), (_ZRUN_COLUMNS, "wire_zrun_start"),
        ):
            counts, rows = [], []
            for t, idx in pieces:
                starts = getattr(t, offsets)
                if isinstance(idx, slice):
                    a, b, _ = idx.indices(len(starts) - 1)
                    counts.append(_np.diff(starts[a:b + 1]))
                    rows.append(slice(starts[a], starts[b]))
                else:
                    lo, n = starts[idx], starts[idx + 1] - starts[idx]
                    counts.append(n)
                    rows.append(
                        _np.repeat(lo - _np.cumsum(n) + n, n)
                        + _np.arange(n.sum())
                    )
            cols[offsets] = _np.concatenate(
                ([0], _np.cumsum(_np.concatenate(counts)))
            ).astype(_np.int64)
            for name in names:
                cols[name] = _np.concatenate(
                    [getattr(t, name)[r] for (t, _), r in zip(pieces, rows)]
                )
        for name in _WIRE_COLUMNS:
            cols[name] = _np.concatenate(
                [getattr(t, name)[idx] for t, idx in pieces]
            )
        for name in _LABEL_COLUMNS:
            cols[name] = [
                x for t, idx in pieces for x in (
                    getattr(t, name)[idx] if isinstance(idx, slice)
                    else [getattr(t, name)[k] for k in idx.tolist()]
                )
            ]
        return cls._make(cols, placements, nodes)

    def splice(self, i: int, j: int, rows: "WireTable") -> "WireTable":
        """This table with wires ``i..j-1`` replaced by ``rows``'
        wires (``i == j`` inserts), sharing the node columns."""
        return self.gather(
            [(self, slice(0, i)), (rows, slice(None)), (self, slice(j, None))],
            nodes=self,
        )

    def select(self, wire_idx, placements) -> "WireTable":
        """The table of wires ``wire_idx`` over ``placements``."""
        return self.gather([(self, wire_idx)], placements)

    @classmethod
    def stack(cls, tables, offsets, placements) -> "WireTable":
        """The wires of ``tables``, one after another, table ``k``'s
        segments and z-runs raised ``offsets[k]`` layers, over
        ``placements``."""
        raised = []
        for table, dz in zip(tables, offsets):
            cols = {name: getattr(table, name) for name in _COLUMNS}
            for name in ("seg_layer", "zrun_lo", "zrun_hi"):
                cols[name] = cols[name] + dz
            raised.append((cls._make(cols, {}), slice(None)))
        return cls.gather(raised, placements)

    def with_nodes(self, placements) -> "WireTable":
        """This table's wires over new placement columns."""
        return self._make(
            {name: getattr(self, name) for name in _COLUMNS}, placements
        )

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
        order -- the rows ``layout_to_json`` writes as text."""
        if self._seg_rows is None:
            self._seg_rows = _np.stack((
                self.seg_x1, self.seg_y1, self.seg_x2, self.seg_y2,
                self.seg_layer,
            ), axis=1).tolist()
        return self._seg_rows

    def wire_segment_rows(self, wi: int) -> list[list[int]]:
        """The :meth:`segment_rows` of wire ``wi``, read from its rows
        only."""
        a, b = int(self.wire_seg_start[wi]), int(self.wire_seg_start[wi + 1])
        return _np.stack([
            c[a:b] for c in
            (self.seg_x1, self.seg_y1, self.seg_x2, self.seg_y2, self.seg_layer)
        ], axis=1).tolist()

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
            # Risers own empty ranges at either end; clamp their rows.
            f = _np.minimum(first, self.num_segments - 1)
            l = _np.maximum(last, 0)
            revf = self.seg_rev[f].astype(bool)
            revl = self.seg_rev[l].astype(bool)
            sx = _np.where(revf, self.seg_x2[f], self.seg_x1[f])
            sy = _np.where(revf, self.seg_y2[f], self.seg_y1[f])
            ex = _np.where(revl, self.seg_x1[l], self.seg_x2[l])
            ey = _np.where(revl, self.seg_y1[l], self.seg_y2[l])
        else:
            sx, sy, ex, ey = _np.zeros((4, W), dtype=_np.int64)
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
        return sum(
            int(getattr(self, name).nbytes) for name in _COLUMNS + _NODE_COLUMNS
            if name not in _LABEL_COLUMNS
        )


def _walk_rev(x1, y1, x2, y2, starts):
    """``seg_rev`` of normalized rows, oriented as
    :func:`~repro.grid.wire.walk_path` walks each path -- one step per
    segment position, across all wires at once: segment 0 ends at the
    endpoint it shares with segment 1, and each later segment runs
    forward when its ``(x1, y1)`` is the previous segment's end.  Rows
    that do not chain get flags the row checks then reject."""
    rev = _np.zeros(len(x1), dtype=_np.int8)
    counts = _np.diff(starts)
    wires = _np.flatnonzero(counts > 1)
    i = starts[wires]
    rev[i] = ((x1[i] == x1[i + 1]) & (y1[i] == y1[i + 1])) | (
        (x1[i] == x2[i + 1]) & (y1[i] == y2[i + 1])
    )
    for k in range(1, int(counts.max(initial=0))):
        r = rev[i].astype(bool)
        ex, ey = _np.where(r, x1[i], x2[i]), _np.where(r, y1[i], y2[i])
        live = counts[wires] > k
        wires, i = wires[live], i[live] + 1
        rev[i] = (x1[i] != ex[live]) | (y1[i] != ey[live])
    return rev


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
