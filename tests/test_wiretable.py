"""WireTable parity: the geometry kernel vs the object graph, exactly.

Every consumer rerouted onto :class:`~repro.grid.table.WireTable`
(metrics, delays, serialization, renderers) promises *byte-identical*
outputs.  This module checks that promise on the full topology zoo at
two layer budgets plus every network in the counterexample corpus:
each table accessor against the same value computed by walking the
``Wire``/``Segment`` objects, and every rendering against the
rendering of an independently rebuilt copy of the layout.
"""

from pathlib import Path

import pytest

from repro.batch.spec import dispatch_scheme
from repro.check.shrink import iter_corpus
from repro.cli import _zoo_networks
from repro.grid.io import layout_from_json, layout_to_json
from repro.routing.paths import layout_link_delays
from repro.viz.ascii_art import ascii_grid_layout
from repro.viz.svg import svg_layer_stack, svg_layout

CORPUS_DIR = Path(__file__).parent / "corpus"

_LAYOUT_CACHE: dict = {}


def _corpus_networks() -> list:
    nets = []
    seen = set()
    for _path, case in iter_corpus(CORPUS_DIR):
        if case.network.name not in seen:
            seen.add(case.network.name)
            nets.append(case.network)
    return nets


def _cases() -> list:
    cases = []
    for net in _zoo_networks():
        for L in (2, 4):
            cases.append((f"zoo:{net.name}:L{L}", net, L))
    for net in _corpus_networks():
        cases.append((f"corpus:{net.name}:L2", net, 2))
    return cases


_CASES = _cases()


def _layout(case_id: str, net, layers: int):
    lay = _LAYOUT_CACHE.get(case_id)
    if lay is None:
        lay = dispatch_scheme(net, layers=layers, scheme="auto")
        _LAYOUT_CACHE[case_id] = lay
    return lay


def _ceil_delay(length: int, alpha: float, base: float) -> int:
    return max(1, int(-(-(base + alpha * length) // 1)))


@pytest.mark.parametrize(
    "case_id,net,layers", _CASES, ids=[c[0] for c in _CASES]
)
def test_object_graph_parity(case_id, net, layers):
    """Table accessors == per-wire object walks, wire by wire."""
    lay = _layout(case_id, net, layers)
    table = lay.wire_table()
    wires = lay.wires
    assert table.num_wires == len(wires)

    assert table.wire_lengths() == [w.length for w in wires]
    assert table.via_count() == sum(len(w.z_occupancy()) for w in wires)
    expected_layers: set = set()
    for w in wires:
        expected_layers |= w.layers_used()
    assert table.layers_used() == expected_layers

    starts = table.wire_seg_start
    seg_rows = table.segment_rows()
    for wi, w in enumerate(wires):
        rows = seg_rows[int(starts[wi]):int(starts[wi + 1])]
        assert rows == [
            [s.x1, s.y1, s.x2, s.y2, s.layer] for s in w.segments
        ], f"segment rows differ on wire {wi} ({w.u}-{w.v})"
        assert table.wire_segment_rows(wi) == rows
        assert table.wire_vias(wi) == w.vias()
        assert table.wire_zruns(wi) == w.z_occupancy()

    for alpha, base in ((1.0, 1.0), (0.37, 2.5)):
        got = layout_link_delays(lay, alpha=alpha, base=base)
        want: dict = {}
        for w in wires:
            d = _ceil_delay(w.length, alpha, base)
            for key in ((w.u, w.v), (w.v, w.u)):
                if key not in want or d < want[key]:
                    want[key] = d
        assert got == want, f"link delays differ at alpha={alpha}"


def _segment_units(s):
    """``(x, y, layer, horizontal)`` per grid point of one segment."""
    return [(x, y, s.layer, int(s.horizontal)) for x, y in s.planar_points()]


@pytest.mark.parametrize(
    "case_id,net,layers", _CASES, ids=[c[0] for c in _CASES]
)
def test_numpy_vs_fallback_parity(case_id, net, layers):
    """The table's array reductions equal the object-graph walks.

    Bounds, CSR offsets, z-runs, link delays, and the oracle's unit
    expansion, each recomputed from ``Wire``/``Segment`` objects.
    """
    lay = _layout(case_id, net, layers)
    table = lay.wire_table()
    wires = lay.wires

    xs, ys = [], []
    for p in lay.placements.values():
        xs += [p.rect.x0, p.rect.x1]
        ys += [p.rect.y0, p.rect.y1]
    for w in wires:
        for s in w.segments:
            xs += [s.x1, s.x2]
            ys += [s.y1, s.y2]
    assert table.bounds() == (min(xs), min(ys), max(xs), max(ys))

    seg_start = [0]
    for w in wires:
        seg_start.append(seg_start[-1] + len(w.segments))
    assert table.wire_seg_start.tolist() == seg_start
    assert table.zrun_rows() == [z for w in wires for z in w.z_occupancy()]
    for alpha, base in ((1.0, 1.0), (0.37, 2.5)):
        assert table.link_delay_values(alpha=alpha, base=base) == [
            _ceil_delay(w.length, alpha, base) for w in wires
        ]
    for wi, w in enumerate(wires):
        points = [u for s in w.segments for u in _segment_units(s)]
        assert table.wire_cover_point_rows(wi) == [list(u) for u in points]
        assert table.wire_cover_points(wi) == [u[:3] for u in points]
        edges = []
        for s in w.segments:
            units = _segment_units(s)
            edges += [(a[:3], b[:3]) for a, b in zip(units, units[1:])]
        assert table.wire_unit_edges(wi) == edges


@pytest.mark.parametrize(
    "case_id,net,layers", _CASES, ids=[c[0] for c in _CASES]
)
def test_rendered_bytes_parity(case_id, net, layers):
    """JSON, SVGs and ASCII are byte-identical after a JSON round trip,
    which rebuilds the object graph and its table from scratch."""
    def render(lay):
        return (
            layout_to_json(lay),
            svg_layout(lay, legend=True),
            svg_layer_stack(lay),
            ascii_grid_layout(lay, max_width=10_000),
        )

    lay = _layout(case_id, net, layers)
    original = render(lay)
    rebuilt = render(layout_from_json(original[0]))
    for name, a, b in zip(("json", "svg", "stack", "ascii"), original, rebuilt):
        assert a == b, f"{name} output differs after a round trip"


def test_table_cache_invalidation():
    """Appending or replacing a wire rebuilds the cached table."""
    from repro.topology import Ring

    lay = dispatch_scheme(Ring(6), layers=2, scheme="auto")
    t1 = lay.wire_table()
    assert lay.wire_table() is t1  # cached

    from repro.grid.wire import Wire

    w0 = lay.wires[0]
    lay.wires[0] = Wire(
        w0.u, w0.v, list(w0.segments), edge_key=w0.edge_key
    )
    t2 = lay.wire_table()
    assert t2 is not t1, "wire replacement must invalidate the table"

    lay.invalidate_table()
    assert lay.wire_table() is not t2


def test_table_cache_survives_id_reuse():
    """A replaced wire's recycled address must not serve a stale table.

    CPython frees the old ``Wire`` the moment the last reference
    drops and eagerly hands its address to the next allocation, so a
    stamp of stored ``id()`` ints can collide with a *different* wire
    at the same address and keep a stale cache (the fuzzer's
    dirty-region stage caught ``clone_layout`` serializing pre-edit
    geometry this way).  Assert the two mechanisms that close the
    hole: the stamp strong-references the stamped wires (their ids
    cannot be recycled while the cache lives), and the mutation API
    drops the cache without consulting the stamp at all.
    """
    from repro.grid.wire import Wire
    from repro.topology import Ring

    lay = dispatch_scheme(Ring(6), layers=2, scheme="auto")
    t1 = lay.wire_table()
    # The builder hands over a finished table; the stamp applies once
    # the wires are built from its rows.
    lay.wires
    assert lay.wire_table() is t1
    stamped = lay._table_stamp[1]
    assert len(stamped) == len(lay.wires)
    assert all(a is b for a, b in zip(stamped, lay.wires))

    w0 = lay.wires[0]
    lay.replace_wire(
        0, Wire(w0.u, w0.v, list(w0.segments), edge_key=w0.edge_key)
    )
    assert lay._table is None, "mutation API must drop the cache eagerly"
    t2 = lay.wire_table()
    assert t2 is not t1
    # The old stamp kept w0 alive until the rebuild; the new one holds
    # the replacement.
    assert lay._table_stamp[1][0] is lay.wires[0]
