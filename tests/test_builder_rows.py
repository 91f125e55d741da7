"""Layouts as rows: the builder's table vs the object view.

The orthogonal builder emits oriented segment rows and hands its layout
a finished :class:`~repro.grid.table.WireTable`, the layout's only
geometry; ``Wire`` objects are built from those rows only when
something reads the read-only ``layout.wires`` view.  This module pins
that design down: the builder's table equals, array for array, the
rows its view converts back to; every mutation entry point edits the
rows; corrupted rows are refused by the row constructor; and the
sweep-job path (build -> validate -> measure -> serialize -> cache)
never creates a ``Wire``.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.batch.cache import LayoutCache
from repro.batch.runner import run_sweep_job
from repro.batch.spec import SweepJob, dispatch_scheme
from repro.cli import _zoo_networks
from repro.core import builder
from repro.core.builder import build_orthogonal_layout
from repro.core.delay import performance
from repro.core.metrics import measure
from repro.core.models import model_of
from repro.core.spec import BlockCell, LayoutSpec, LinkSpec, NodeCell
from repro.grid.geometry import Rect, Segment
from repro.grid.io import layout_from_json, layout_to_json
from repro.grid.layout import GridLayout
from repro.grid.table import WireTable
from repro.grid.validate import check_topology, validate_layout
from repro.grid.wire import Wire, WirePathError
from repro.topology import EnhancedCube, KAryNCubeCluster

ARRAYS = (
    "seg_x1", "seg_y1", "seg_x2", "seg_y2", "seg_layer", "seg_rev",
    "wire_seg_start", "zrun_x", "zrun_y", "zrun_lo", "zrun_hi",
    "wire_zrun_start", "wire_length", "wire_is_riser",
    "node_x0", "node_y0", "node_x1", "node_y1", "node_layer",
)
COLUMNS = ("wire_u", "wire_v", "wire_edge_key")


def _networks() -> list:
    # The zoo covers the block-cell families (CCC, butterfly, HSN) and
    # extra links (folded hypercube); add a k-ary cluster network and
    # the enhanced cube's extra links.
    return _zoo_networks() + [KAryNCubeCluster(4, 2, 2), EnhancedCube(4)]


_CASES = [(net, L) for net in _networks() for L in (2, 3, 4, 8)]


def _build(net, layers):
    return dispatch_scheme(net, layers=layers, scheme="auto")


def _assert_tables_equal(got: WireTable, want: WireTable) -> None:
    for attr in ("num_wires", "num_segments", "num_zruns") + COLUMNS:
        assert getattr(got, attr) == getattr(want, attr), attr
    for attr in ARRAYS:
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype, attr
        assert np.array_equal(a, b), attr


@pytest.mark.parametrize(
    "net,layers", _CASES, ids=[f"{n.name}:L{L}" for n, L in _CASES]
)
def test_builder_table_matches_rebuilt_wires(net, layers):
    """The builder's rows equal, array for array, the rows its own
    ``Wire`` view converts back to and the rows its JSON loads back to
    (``seg_rev`` re-derived by walking each path, both ways)."""
    lay = _build(net, layers)
    assert lay.meta["scheme"] == "orthogonal-multilayer"
    assert lay._wires is None, "the builder must hand over rows only"
    table = lay.wire_table()
    rebuilt = WireTable.from_wires(lay.wires, lay.placements)
    _assert_tables_equal(table, rebuilt)
    # Serialized rows load back with ``seg_rev`` re-derived by the
    # vectorized path walk.
    loaded = layout_from_json(layout_to_json(lay)).wire_table()
    _assert_tables_equal(table, loaded)
    # Reading the view leaves the table as the layout's geometry.
    assert lay.wire_table() is table


def _wire_docs(lay) -> list:
    return json.loads(layout_to_json(lay))["wires"]


class TestMutationKeepsGeometry:
    """Every mutation entry point edits the table's rows."""

    def _layout(self):
        return _build(_networks()[2], 4)  # the 5-cube

    def test_add_wire(self):
        lay = self._layout()
        before = _wire_docs(lay)
        w = lay.wires[0]
        extra = Wire(w.u, w.v, list(w.segments), edge_key=7)
        lay = self._layout()
        lay.add_wire(extra)
        after = _wire_docs(lay)
        assert after[:-1] == before
        assert after[-1]["edge_key"] == 7
        assert after[-1]["segments"] == before[0]["segments"]

    def test_replace_wire(self):
        lay = self._layout()
        before = layout_to_json(lay)
        lay2 = self._layout()
        w = lay2.wires[3]
        lay2.replace_wire(3, Wire(w.u, w.v, list(w.segments), edge_key=w.edge_key))
        assert layout_to_json(lay2) == before

    def test_place(self):
        lay = self._layout()
        before = json.loads(layout_to_json(lay))
        lay.place("extra-node", Rect(-10, -10, 2, 2))
        after = json.loads(layout_to_json(lay))
        assert after["wires"] == before["wires"]
        assert after["placements"][:-1] == before["placements"]
        assert after["placements"][-1]["node"] == "extra-node"

    def test_wires_view_is_read_only(self):
        lay = self._layout()
        w = lay.wires[0]
        with pytest.raises(TypeError):
            lay.wires[0] = w
        with pytest.raises(AttributeError):
            lay.wires.append(w)
        assert isinstance(lay.wires[:2], tuple)

    def test_queued_replacements_match_splices(self):
        """One-for-one ``GridLayout.splice`` replacements equal the same
        ``WireTable.splice`` swaps, risers and wires of other lengths
        included."""
        from repro.core.threedee import layout_product_3d
        from repro.topology import Ring

        lay = layout_product_3d(Ring(4), Ring(4), Ring(3), layers=6)
        table = lay.wire_table()
        risers = np.flatnonzero(table.wire_is_riser).tolist()
        donors = [risers[0], 0, 7, risers[-1], 3]
        at = {2: 0, 5: 1, risers[1]: 2, table.num_wires - 1: 3, 0: 4}
        want = table
        for i, k in at.items():
            rows = table.select([donors[k]], {})
            lay.splice(i, i + 1, rows)
            want = want.splice(i, i + 1, rows)
        _assert_tables_equal(lay.wire_table(), want)

    def test_every_mutation_reaches_table_and_json(self):
        """Each entry point reaches the next ``wire_table()`` and
        ``layout_to_json``, and a view read before the edit follows
        it."""
        lay = self._layout()
        w = lay.wires[5]
        moved = Wire(w.u, w.v, [
            Segment(s.x1, s.y1, s.x2, s.y2, s.layer + 2) for s in w.segments
        ], edge_key=w.edge_key)
        edits = [
            ("place", lambda: lay.place("extra", Rect(-9, -9, 2, 2))),
            ("add_wire", lambda: lay.add_wire(moved)),
            ("replace_wire", lambda: lay.replace_wire(5, moved)),
            ("splice", lambda: lay.splice(0, 1, WireTable.from_wires([], {}))),
        ]
        for name, edit in edits:
            table, view, text = lay.wire_table(), lay.wires, layout_to_json(lay)
            edit()
            assert lay.wire_table() is not table, name
            assert list(view) == list(lay.wires), name
            assert layout_to_json(lay) != text, name
            assert _wire_docs(lay) == [
                json.loads(layout_to_json(_single(lay, x)))["wires"][0]
                for x in lay.wires
            ], name
        docs = _wire_docs(lay)
        assert len(docs) == lay.wire_table().num_wires == len(lay.wires)
        assert docs[-1]["segments"][0][4] == w.segments[0].layer + 2
        assert json.loads(layout_to_json(lay))["placements"][-1]["node"] == (
            "extra"
        )


def _single(lay, wire) -> GridLayout:
    """A layout holding only ``wire``, over ``lay``'s placements."""
    one = GridLayout(lay.layers, dict(lay.placements))
    one.add_wire(wire)
    return one


def _columns(table: WireTable) -> dict:
    return {
        "seg_x1": table.seg_x1.copy(), "seg_y1": table.seg_y1.copy(),
        "seg_x2": table.seg_x2.copy(), "seg_y2": table.seg_y2.copy(),
        "seg_layer": table.seg_layer.copy(), "seg_rev": table.seg_rev.copy(),
        "wire_seg_start": table.wire_seg_start.copy(),
        "wire_u": list(table.wire_u), "wire_v": list(table.wire_v),
        "wire_edge_key": list(table.wire_edge_key),
    }


@pytest.fixture(scope="module")
def ring_layout():
    return _build(_networks()[0], 2)  # the 12-ring: 3-segment row wires


class TestRowConstructor:
    def _from_rows(self, lay, cols):
        return WireTable.from_rows(placements=lay.placements, **cols)

    def test_clean_rows_round_trip(self, ring_layout):
        table = self._from_rows(ring_layout, _columns(ring_layout.wire_table()))
        _assert_tables_equal(table, ring_layout.wire_table())

    @pytest.mark.parametrize("corrupt,exc,match", [
        ("diagonal", ValueError, "not axis-aligned"),
        ("zero", ValueError, "zero length"),
        ("layer", ValueError, "layer must be >= 1"),
        ("order", ValueError, "normalized order"),
        ("chain", WirePathError, "does not continue the path"),
        ("uturn", WirePathError, "shares both endpoints"),
        ("empty", WirePathError, "has no segments"),
        ("ragged", ValueError, "do not line up"),
    ])
    def test_corrupted_rows_raise(self, ring_layout, corrupt, exc, match):
        cols = _columns(ring_layout.wire_table())
        x1, y1, x2, y2 = (cols[k] for k in ("seg_x1", "seg_y1", "seg_x2", "seg_y2"))
        lay = cols["seg_layer"]
        starts = cols["wire_seg_start"]
        i = int(starts[1])  # first segment of wire 1
        if corrupt == "diagonal":
            x2[i] += 1
            y2[i] += 1
        elif corrupt == "zero":
            x2[i], y2[i] = x1[i], y1[i]
        elif corrupt == "layer":
            lay[i] = 0
        elif corrupt == "order":
            x1[i], y1[i], x2[i], y2[i] = x2[i], y2[i], x1[i], y1[i]
        elif corrupt == "chain":
            # Slide the middle run of wire 1 off its stubs.
            x1[i + 1] += 100
            x2[i + 1] += 100
        elif corrupt == "uturn":
            # Wire 1's second segment retraces its first.
            for k in ("seg_x1", "seg_y1", "seg_x2", "seg_y2"):
                cols[k][i + 1] = cols[k][i]
            cols["seg_rev"][i + 1] = 1 - cols["seg_rev"][i]
            cols["seg_layer"][i + 1] = cols["seg_layer"][i] + 2
        elif corrupt == "empty":
            starts[1] = starts[0]
        elif corrupt == "ragged":
            cols["seg_layer"] = lay[:-1]
        with pytest.raises(exc, match=match):
            self._from_rows(ring_layout, cols)

    def test_single_segment_wire_keeps_rev_zero(self):
        lay = GridLayout(layers=2)
        lay.place("a", Rect(0, 0, 2, 2))
        lay.place("b", Rect(6, 0, 2, 2))
        # The path runs from b's pin back to a's: against the
        # normalized order, yet stored with seg_rev 0 (walk_path).
        table = WireTable.from_paths(
            [6, 1, 2, 1, 1], [0, 1], ["b"], ["a"], [0], lay.placements
        )
        assert table.seg_rev.tolist() == [0]
        assert (table.seg_x1[0], table.seg_x2[0]) == (2, 6)
        lay.add_wire(Wire("b", "a", [Segment.make(6, 1, 2, 1, 1)]))
        _assert_tables_equal(table, lay.wire_table())
        with pytest.raises(ValueError, match="seg_rev 0"):
            WireTable.from_rows(
                [2], [1], [6], [1], [1], [1], [0, 1], ["b"], ["a"], [0],
                lay.placements,
            )


    def test_riser_rows(self):
        """Riser rows load next to planar ones, z-runs in wire order,
        and a riser spanning no layers or owning segments is refused."""
        riser = Wire.make_riser("a", "b", 1, 0, 1, 3, edge_key=5)
        planar = Wire("a", "b", [Segment.make(0, 0, 2, 0, 1),
                                 Segment.make(2, 0, 2, 3, 2)])
        table = WireTable.from_rows(
            [0, 2], [0, 0], [2, 2], [0, 3], [1, 2], None, [0, 0, 2],
            ["a", "a"], ["b", "b"], [5, 0], {}, risers=[[0, 1, 0, 1, 3]],
        )
        _assert_tables_equal(table, WireTable.from_wires([riser, planar], {}))
        for bad in ([0, 1, 0, 3, 3], [1, 1, 0, 1, 3]):
            with pytest.raises(WirePathError, match="riser"):
                WireTable.from_rows(
                    [0, 2], [0, 0], [2, 2], [0, 3], [1, 2], None, [0, 0, 2],
                    ["a", "a"], ["b", "b"], [5, 0], {}, risers=[bad],
                )


def test_job_path_builds_no_wires(monkeypatch, tmp_path):
    """build -> validate -> measure -> serialize -> cache never creates
    a ``Wire``: the builder's rows carry the whole job."""
    net = _networks()[9]  # CCC(4): block cells, distribution tracks
    lay = _build(net, 4)
    validate_layout(lay)
    check_topology(lay, net.edges)
    measure(lay)
    model_of(lay)
    performance(lay)
    layout_to_json(lay)
    assert lay._wires is None

    def no_wires(self):
        raise AssertionError("a Wire was built on the job path")

    monkeypatch.setattr(Wire, "__post_init__", no_wires)
    res = run_sweep_job(
        SweepJob(0, "hypercube:5", 4), LayoutCache(tmp_path), validate=True
    )
    assert res.source == "built"


# -- pin order ---------------------------------------------------------------
#
# Pins and distribution slots are handed out in (direction, other, token)
# order, ties broken by the string form of the link end's old
# ``(kind, index, end)`` token.  The hashes below are the layouts the
# Wire-building builder produced, before link ends became integer ids;
# both networks have ties between kinds with link indices >= 10.


def test_tie_key_sorts_as_token_string():
    kinds = {
        builder._COL: "col", builder._EXTRA: "extra",
        builder._ROW: "row", builder._STRIP: "strip",
    }
    ends = [(k, i, e) for k in kinds for i in range(1100) for e in (0, 1)]
    by_key = sorted(ends, key=lambda t: (t[0], str(t[1]), t[2]))
    by_token = sorted(ends, key=lambda t: str((kinds[t[0]], t[1], "uv"[t[2]])))
    assert by_key == by_token


def _ties_spec(layers: int) -> LayoutSpec:
    """Column and extra links tie on a plain node's right side, in a
    block's distribution slots and on its members' top pins; row and
    extra links tie on a top side.  Every kind has >= 10 links."""
    members = [f"b{m}" for m in range(4)]
    strips = [(members[k % 4], members[(k + 1 + k // 4) % 4]) for k in range(12)]
    cells = {
        (0, 0): NodeCell("p", 40), (0, 1): NodeCell("r", 40),
        (0, 3): NodeCell("q", 40), (2, 0): NodeCell("x", 40),
        (1, 0): BlockCell("B", members, strips, 24),
    }
    col = [LinkSpec((0, 0), (1, 0), "p", members[i % 4], i // 4) for i in range(12)]
    col += [LinkSpec((0, 0), (2, 0), "p", "x", i) for i in range(4)]
    col += [LinkSpec((1, 0), (2, 0), members[i], "x") for i in range(2)]
    extra = [LinkSpec((0, 3), (1, 0), "q", members[i]) for i in range(3)]
    extra += [LinkSpec((0, 3), (2, 0), "q", "x", i) for i in range(8)]
    row = [LinkSpec((0, 3), (0, 1), "q", "r", i) for i in range(12)]
    return LayoutSpec(
        rows=3, cols=4, cells=cells, row_links=row, col_links=col,
        extra_links=extra, layers=layers, name="ties",
    )


_PINNED_ORDER = {
    ("ties", 2): "85543da2fc1e0ba017f9ab9c764814ba118bc30caeaf299b338aee0aa7677810",
    ("ties", 3): "bac86d3fc15247c224094a2b13e6868ab6e688ffa60025e51cbeda3b667e9018",
    ("ties", 4): "93be22bd02a640c71420170933f9840021104425eebbeb2136d4ce572d9de4e7",
    ("ties", 8): "18f38d96606aa11247028efe1ad02e487f2eff94f9d69ef0950c9baaf19a73ad",
    ("enhanced", 2): "3a5ad61d327b6fe419ca3c40f898d47ce0bf72cb86644e1c14a800f9174288ee",
    ("enhanced", 3): "134d709b334a47ea503030ce14ea1ba9f6697d2074590f2415470a2aa7780605",
    ("enhanced", 4): "eef7d23e32e9797f2d5cc9dc20d818407773f54e8d465851224d54ff9e7d69ea",
    ("enhanced", 8): "abc4f1c6b1be3bc01d0471c554893dabab801859f2b83d205016a7f7020f5c67",
}


@pytest.mark.parametrize(
    "name,layers", sorted(_PINNED_ORDER), ids=lambda v: str(v)
)
def test_pin_order_is_pinned(name, layers):
    if name == "ties":
        lay = build_orthogonal_layout(_ties_spec(layers))
    else:
        lay = _build(EnhancedCube(6), layers)
    validate_layout(lay)
    digest = hashlib.sha256(layout_to_json(lay).encode()).hexdigest()
    assert digest == _PINNED_ORDER[(name, layers)]
