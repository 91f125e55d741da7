"""Legality checker for the multilayer grid model.

The checks implement Section 2's rules:

1. **Edge-disjointness.** No two wires may overlap: on each layer,
   no grid *edge* (unit segment between adjacent grid points) is used
   by two wires.  Wires may cross at a grid point (Thompson's model
   explicitly allows crossings), so point sharing is legal as long as
   neither wire bends there.
2. **No knock-knees / shared vias.**  A grid point may be a bend or via
   of at most one wire.  (Two wires bending at the same point is the
   knock-knee configuration the Thompson model forbids, ref. [6].)
3. **Layer budget.**  Every segment lies on a layer in ``1..L``.
4. **Node interference.**  No wire segment passes through the open
   interior of any node square, and node squares are pairwise
   interior-disjoint.
5. **Pin attachment.**  Each wire's endpoints lie on the perimeter of
   the squares of the nodes it connects, and no two wires share a pin
   point of the same node.
6. **Self-consistency.**  Each wire is a connected path (enforced at
   construction) whose consecutive same-layer segments are not
   collinear (those should have been merged) and which does not
   overlap itself.

``validate_layout`` raises :class:`LayoutError` with a precise message
on the first violation, or returns a small report on success.

Execution strategy (fast accept, scalar diagnose): every check first
runs a vectorized *clean test* from :mod:`repro.accel` over the
layout's :class:`~repro.grid.table.WireTable`, its only geometry.
A clean verdict is only returned when the scalar check provably
accepts; on suspicion the original scalar sweep re-runs over the
``layout.wires`` view and produces its usual byte-identical error
message (or accepts, for the few deliberately conservative kernels).
Error paths therefore cost one extra vector pass plus the view;
accept paths -- the overwhelming majority in sweeps, serving, and
fuzzing -- never build a ``Wire``.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import Hashable

from repro import accel as _accel
from repro import obs
from repro.grid.layout import GridLayout
from repro.grid.wire import Wire, sorted_pair

__all__ = ["LayoutError", "validate_layout"]


class LayoutError(AssertionError):
    """A multilayer-grid-model rule violation."""


def validate_layout(
    layout: GridLayout,
    *,
    check_node_interference: bool = True,
    check_pins: bool = True,
    check_parity: bool = False,
) -> dict:
    """Check ``layout`` against the multilayer grid model rules.

    Parameters
    ----------
    check_node_interference:
        Verify no wire crosses a node interior and nodes are disjoint.
        (Quadratic-ish in crowded layouts; can be disabled for very
        large sweeps after spot-checking.)
    check_pins:
        Verify wire endpoints land on their nodes' perimeters, uniquely.
    check_parity:
        Additionally enforce the *scheme convention* that horizontal
        segments use odd layers and vertical segments even layers.  Not
        a model rule; useful when testing the orthogonal scheme.

    Returns a report dict (counts of segments, conflicts checked).
    """
    checks: list = [_check_layer_budget]
    if check_parity:
        checks.append(_check_parity)
    checks += [
        _check_wire_self_consistency,
        _check_edge_disjointness,
        _check_bend_exclusivity,
        _check_via_occupancy,
    ]
    if check_node_interference:
        checks.append(_check_node_interference)
    if check_pins:
        checks.append(_check_pins)

    seg_count = 0
    num_wires = layout.wire_table().num_wires
    with obs.span(
        "validate", wires=num_wires, layers=layout.layers
    ) as sp:
        for check in checks:
            with obs.span(check.__name__.lstrip("_")):
                result = check(layout)
            if check is _check_edge_disjointness:
                seg_count = result
        sp.add("checks", len(checks)).add("segments", seg_count)
    obs.count("validator.layouts_validated")
    obs.count("validator.checks_run", len(checks))
    obs.count("validator.segments_checked", seg_count)
    return {
        "segments": seg_count,
        "wires": num_wires,
        "nodes": len(layout.placements),
        "layers": layout.layers,
        "checks": len(checks),
    }


# ---------------------------------------------------------------------------
# Checks: kernelized wrappers (fast accept) + scalar sweeps (diagnose)


def _check_layer_budget(layout: GridLayout) -> None:
    table = layout.wire_table()
    if _accel.layer_budget_clean(table, layout.layers):
        return
    _layer_budget_scalar(layout)


def _layer_budget_scalar(layout: GridLayout) -> None:
    for w in layout.wires:
        used = w.layers_used()
        if used and (min(used) < 1 or max(used) > layout.layers):
            raise LayoutError(
                f"wire {w.u}-{w.v}: layers {sorted(used)} exceed the "
                f"L={layout.layers} budget"
            )


def _check_parity(layout: GridLayout) -> None:
    table = layout.wire_table()
    if _accel.parity_clean(table):
        return
    _parity_scalar(layout)


def _parity_scalar(layout: GridLayout) -> None:
    for w in layout.wires:
        for s in w.segments:
            if s.horizontal and s.layer % 2 == 0:
                raise LayoutError(
                    f"parity: horizontal segment on even layer {s.layer} "
                    f"in wire {w.u}-{w.v}"
                )
            if s.vertical and s.layer % 2 == 1:
                raise LayoutError(
                    f"parity: vertical segment on odd layer {s.layer} "
                    f"in wire {w.u}-{w.v}"
                )


def _check_wire_self_consistency(layout: GridLayout) -> None:
    table = layout.wire_table()
    if _accel.self_consistency_clean(table):
        return
    _self_consistency_scalar(layout)


def _self_consistency_scalar(layout: GridLayout) -> None:
    for w in layout.wires:
        for a, b in zip(w.segments, w.segments[1:]):
            if a.layer == b.layer and a.horizontal == b.horizontal:
                raise LayoutError(
                    f"wire {w.u}-{w.v}: consecutive collinear same-layer "
                    f"segments should be merged: {a} / {b}"
                )


def _check_edge_disjointness(layout: GridLayout) -> int:
    """Sweep each (layer, grid line) for properly-overlapping spans."""
    table = layout.wire_table()
    total, clean = _accel.edge_sweep(table)
    if clean:
        return total
    return _edge_disjointness_scalar(layout)


def _edge_disjointness_scalar(layout: GridLayout) -> int:
    lines: dict[tuple, list[tuple[int, int, int]]] = defaultdict(list)
    for wi, w in enumerate(layout.wires):
        for s in w.segments:
            lo, hi = s.span
            lines[s.line].append((lo, hi, wi))
    total = 0
    for line, spans in lines.items():
        total += len(spans)
        spans.sort()
        # Sentinel must sit below any coordinate: spans may be negative
        # (e.g. corrupted layouts fed in by the differential fuzzer).
        max_hi: float = float("-inf")
        max_hi_owner = -1
        for lo, hi, wi in spans:
            if lo < max_hi:
                other = layout.wires[max_hi_owner]
                mine = layout.wires[wi]
                raise LayoutError(
                    f"overlap on {line}: wire {mine.u}-{mine.v} and wire "
                    f"{other.u}-{other.v} share grid edges in "
                    f"[{lo}, {min(hi, max_hi)}]"
                )
            if hi > max_hi:
                max_hi = hi
                max_hi_owner = wi
    return total


def _check_bend_exclusivity(layout: GridLayout) -> None:
    table = layout.wire_table()
    if _accel.bend_clean(table):
        return
    _bend_exclusivity_scalar(layout)


def _bend_exclusivity_scalar(layout: GridLayout) -> None:
    """Bends and vias must be node-disjoint in the 3-D grid.

    A via between layers a and b occupies the 3-D grid nodes
    (x, y, a..b); a same-layer turn occupies (x, y, a).  Two wires may
    meet at the same planar point only if their occupied layer ranges
    are disjoint -- e.g. a layer-1/2 via and a layer-3/4 via may stack,
    but two same-layer turns at one point are a knock-knee and two
    overlapping via stacks would share a z-edge or node.
    """
    occupied: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    def claim(pt: tuple[int, int], lo: int, hi: int, wi: int) -> None:
        for (plo, phi, owner) in occupied.get(pt, ()):
            if owner != wi and lo <= phi and plo <= hi:
                a, b = layout.wires[owner], layout.wires[wi]
                raise LayoutError(
                    f"knock-knee / via conflict at {pt}: wires "
                    f"{a.u}-{a.v} (layers {plo}-{phi}) and {b.u}-{b.v} "
                    f"(layers {lo}-{hi}) occupy overlapping layers"
                )
        occupied.setdefault(pt, []).append((lo, hi, wi))

    for wi, w in enumerate(layout.wires):
        if w.riser is not None:
            x, y, zlo, zhi = w.riser
            claim((x, y), zlo, zhi, wi)
            continue
        bends = w.bends()
        for i in range(len(w.segments) - 1):
            s1, s2 = w.segments[i], w.segments[i + 1]
            lo = min(s1.layer, s2.layer)
            hi = max(s1.layer, s2.layer)
            claim(bends[i], lo, hi, wi)


def _check_via_occupancy(layout: GridLayout) -> None:
    table = layout.wire_table()
    if _accel.via_clean(table):
        return
    _via_occupancy_scalar(layout)


def _via_occupancy_scalar(layout: GridLayout) -> None:
    """A via's z-run blocks its planar point on every layer it spans.

    The bend-exclusivity check covers via-vs-via and via-vs-bend; this
    one covers via-vs-*straight-segment*: no wire may run through a
    grid point occupied by another wire's via on one of the via's
    strictly interior layers.  (Sharing the via's *endpoint* layer at a
    point is a crossing, which the Thompson model permits; multi-layer
    fold vias of Section 2.2's folding baseline span three layers and
    are the main clients of this rule.)
    """
    import bisect

    # Collect the z-runs first: most layouts have few (or no) vias
    # spanning interior layers, and the line index below only needs
    # the layers those interiors touch.
    runs: list[tuple[int, Wire, tuple[int, int], int, int]] = []
    interior_layers: set[int] = set()
    for wi, w in enumerate(layout.wires):
        for pt, zlo, zhi in w.z_occupancy():
            if zhi - zlo >= 2:
                runs.append((wi, w, pt, zlo, zhi))
                interior_layers.update(range(zlo + 1, zhi))
    if not runs:
        return

    # Index spans per (orientation, layer, line-coordinate), restricted
    # to the layers some via interior crosses.
    lines: dict[tuple, list[tuple[int, int, int]]] = defaultdict(list)
    for wi, w in enumerate(layout.wires):
        for s in w.segments:
            if s.layer in interior_layers:
                lo, hi = s.span
                lines[s.line].append((lo, hi, wi))
    index: dict[tuple, tuple[list[int], list[int]]] = {}
    for key, spans in lines.items():
        spans.sort()
        prefix_max_hi: list[int] = []
        top = spans[0][1]
        for _, hi, _ in spans:
            if hi > top:
                top = hi
            prefix_max_hi.append(top)
        index[key] = ([lo for lo, _, _ in spans], prefix_max_hi)

    def segment_covers(key: tuple, coord: int, self_wire: int) -> int | None:
        spans = lines.get(key)
        if not spans:
            return None
        starts, prefix_max_hi = index[key]
        # Walk candidates with lo <= coord from the right; once the
        # prefix's max hi drops to coord, nothing earlier can reach it.
        i = bisect.bisect_right(starts, coord) - 1
        while i >= 0 and prefix_max_hi[i] > coord:
            lo, hi, wi = spans[i]
            # Exclude pure endpoint touching: that is a crossing.
            if lo < coord < hi and wi != self_wire:
                return wi
            i -= 1
        return None

    for wi, w, pt, zlo, zhi in runs:
        for layer in range(zlo + 1, zhi):
            x, y = pt
            hit = segment_covers(("h", layer, y), x, wi)
            if hit is None:
                hit = segment_covers(("v", layer, x), y, wi)
            if hit is not None:
                other = layout.wires[hit]
                raise LayoutError(
                    f"via of wire {w.u}-{w.v} at {pt} (layers "
                    f"{zlo}-{zhi}) is pierced on layer {layer} by "
                    f"wire {other.u}-{other.v}"
                )


def _check_node_interference(layout: GridLayout) -> None:
    """Nodes are interior-disjoint and unpierced, per active layer.

    The multilayer 3-D grid model embeds a node in its active layer(s)
    only: two nodes on *different* active layers may overlap in plan
    view (that is the whole point of folding, Section 2.2), and a wire
    conflicts with a node only when its segment's layer matches the
    node's.  Multilayer *2-D* grid layouts place every node on layer 1,
    so for them this degenerates to the planar rule.

    Both sweeps take the kernel fast path.  A clean node-overlap
    verdict is exact *and* establishes the band-disjointness the
    segment sweeps (kernel and scalar alike) rely on; on suspicion
    the scalar overlap sweep diagnoses -- or, by accepting,
    re-establishes that invariant -- before any segment sweep runs.
    """
    table = layout.wire_table()
    if not _accel.node_overlap_clean(table):
        _node_overlap_scalar(layout)
    if not _accel.node_sweep_clean(table):
        _node_seg_sweep_scalar(layout)


def _node_overlap_scalar(layout: GridLayout) -> None:
    by_layer: dict[int, list] = defaultdict(list)
    for p in layout.placements.values():
        by_layer[p.layer].append(p)

    for layer, placements in by_layer.items():
        # Sweep along whichever axis has more distinct coordinates:
        # collinear schemes stack every node in one column (or row), and
        # sweeping the shared axis would never retire anything from the
        # active set, degenerating to a quadratic all-pairs scan.
        if len({p.rect.x0 for p in placements}) >= len(
            {p.rect.y0 for p in placements}
        ):
            lo, hi = (lambda r: r.x0), (lambda r: r.x1)
        else:
            lo, hi = (lambda r: r.y0), (lambda r: r.y1)
        placements.sort(key=lambda p: lo(p.rect))
        active: list = []
        for p in placements:
            active = [q for q in active if hi(q.rect) > lo(p.rect)]
            for q in active:
                if p.rect.intersects(q.rect):
                    raise LayoutError(
                        f"node squares overlap on layer {layer}: "
                        f"{p.node!r} at {p.rect} and {q.node!r} at {q.rect}"
                    )
            active.append(p)


def _node_seg_sweep_scalar(layout: GridLayout) -> None:
    import bisect

    by_layer: dict[int, list] = defaultdict(list)
    for p in layout.placements.values():
        by_layer[p.layer].append(p)

    # Wire segments may not pass through the open interior of a node
    # on the segment's own layer.  This is the validator's hottest
    # sweep, so it prunes hard: segments are bucketed by layer once
    # (not rescanned per layer), and each layer's node rects are
    # grouped into y-bands -- same (y0, y1) extent -- inside which
    # interior-disjointness makes the x-intervals non-overlapping and
    # sorted, so a bisect plus a bounded backward walk visits only
    # rects whose x- and y-ranges genuinely overlap the segment's.
    segments_by_layer: dict[int, list[tuple]] = defaultdict(list)
    for w in layout.wires:
        for s in w.segments:
            if s.layer in by_layer:
                segments_by_layer[s.layer].append((s, w))

    for layer, segs in segments_by_layer.items():
        banded: dict[tuple[int, int], list] = defaultdict(list)
        for p in by_layer[layer]:
            # Zero-extent rects have no interior to cross, and (being
            # exempt from disjointness) would break the sorted-x1
            # invariant the backward walk relies on.
            if p.rect.w and p.rect.h:
                banded[(p.rect.y0, p.rect.y1)].append(p)
        bands = []
        for (y0, y1), ps in banded.items():
            ps.sort(key=lambda p: p.rect.x0)
            bands.append((y0, y1, [p.rect.x0 for p in ps], ps))
        for s, w in segs:
            sx_lo, sx_hi = (s.x1, s.x2) if s.x1 <= s.x2 else (s.x2, s.x1)
            sy_lo, sy_hi = (s.y1, s.y2) if s.y1 <= s.y2 else (s.y2, s.y1)
            for y0, y1, xs, ps in bands:
                if sy_hi <= y0 or sy_lo >= y1:
                    continue  # no strictly interior y in this band
                i = bisect.bisect_left(xs, sx_hi) - 1
                while i >= 0:
                    p = ps[i]
                    r = p.rect
                    if r.x1 <= sx_lo:
                        break  # x1 sorted within the band: done
                    if r.segment_crosses_interior(s):
                        raise LayoutError(
                            f"wire {w.u}-{w.v} crosses interior of node "
                            f"{p.node!r} at {r}: segment {s}"
                        )
                    i -= 1


def _check_pins(layout: GridLayout) -> None:
    table = layout.wire_table()
    placements = layout.placements
    rows = dict(zip(placements, range(len(placements))))
    u_rows = list(map(rows.get, table.wire_u))
    v_rows = list(map(rows.get, table.wire_v))
    if None in u_rows or None in v_rows:
        # Unplaced endpoint: let the scalar check raise its message.
        return _pins_scalar(layout)
    if _accel.pins_clean(table, u_rows, v_rows):
        return
    _pins_scalar(layout)


def _pins_scalar(layout: GridLayout) -> None:
    pin_owner: dict[tuple[Hashable, tuple[int, int]], int] = {}
    for wi, w in enumerate(layout.wires):
        pairing = _orient_endpoints(layout, w)
        if pairing is None:
            raise LayoutError(
                f"wire {w.u}-{w.v}: endpoints {w.start}/{w.end} do not lie "
                f"on the perimeters of its nodes"
            )
        for node, pt in pairing:
            key = (node, pt.planar())
            prev = pin_owner.get(key)
            if prev is not None and prev != wi:
                other = layout.wires[prev]
                raise LayoutError(
                    f"pin conflict at {pt.planar()} on node {node!r}: "
                    f"wires {other.u}-{other.v} and {w.u}-{w.v}"
                )
            pin_owner[key] = wi


def _orient_endpoints(layout: GridLayout, w: Wire):
    """Match the wire's geometric endpoints to its (u, v) nodes.

    Multi-segment wires are traced from the u side, but a single-segment
    wire's stored order is normalization-dependent, so both pairings are
    tried.  Returns [(node, point), (node, point)] or None.
    """
    pu = layout.placements.get(w.u)
    pv = layout.placements.get(w.v)
    if pu is None or pv is None:
        raise LayoutError(f"wire {w.u}-{w.v} references an unplaced node")
    s, e = w.start, w.end
    if pu.rect.on_perimeter(s.x, s.y) and pv.rect.on_perimeter(e.x, e.y):
        return [(w.u, s), (w.v, e)]
    if pu.rect.on_perimeter(e.x, e.y) and pv.rect.on_perimeter(s.x, s.y):
        return [(w.u, e), (w.v, s)]
    return None


def _validate_scalar_reference(
    layout: GridLayout,
    *,
    check_node_interference: bool = True,
    check_pins: bool = True,
    check_parity: bool = False,
) -> None:
    """Run every scalar sweep directly, bypassing the accel kernels.

    The reference battery for the E7i bench and the kernel-vs-scalar
    tests: same checks, same order, same error messages as
    ``validate_layout`` -- minus the kernel fast path.
    """
    _layer_budget_scalar(layout)
    if check_parity:
        _parity_scalar(layout)
    _self_consistency_scalar(layout)
    _edge_disjointness_scalar(layout)
    _bend_exclusivity_scalar(layout)
    _via_occupancy_scalar(layout)
    if check_node_interference:
        _node_overlap_scalar(layout)
        _node_seg_sweep_scalar(layout)
    if check_pins:
        _pins_scalar(layout)


def check_topology(layout: GridLayout, expected_edges: list[tuple]) -> None:
    """Verify the routed wires realize exactly ``expected_edges``.

    ``expected_edges`` is a list of (u, v) pairs (repeats = parallel
    edges).  Raises :class:`LayoutError` on any mismatch.  Both sides
    map to placement rows with one ``map`` each and compare as packed
    int pair keys; the label-pair dicts are built only to word a
    mismatch, or when a label is not placed.
    """
    table = layout.wire_table()
    placements = layout.placements
    rows = dict(zip(placements, range(len(placements))))
    want = list(map(rows.get, chain.from_iterable(expected_edges)))
    u_rows = list(map(rows.get, table.wire_u))
    v_rows = list(map(rows.get, table.wire_v))
    if (
        len(want) == 2 * len(expected_edges)
        and None not in want and None not in u_rows and None not in v_rows
        and _accel.edges_match(want, u_rows, v_rows, len(placements))
    ):
        return
    _topology_scalar(layout, expected_edges)


def _topology_scalar(layout: GridLayout, expected_edges: list[tuple]) -> None:
    want: dict[tuple, int] = {}
    for u, v in expected_edges:
        a, b = sorted_pair(u, v)
        want[(a, b)] = want.get((a, b), 0) + 1
    have = layout.edge_multiset()
    if want != have:
        missing = {k: c for k, c in want.items() if have.get(k, 0) != c}
        extra = {k: c for k, c in have.items() if want.get(k, 0) != c}
        raise LayoutError(
            "routed edge multiset differs from the network: "
            f"missing/changed {dict(list(missing.items())[:5])} ... "
            f"extra/changed {dict(list(extra.items())[:5])}"
        )
