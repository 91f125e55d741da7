"""Layout serialization round-trips."""

import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import layout_ccc, layout_folded_hypercube, layout_kary
from repro.grid.geometry import Rect, Segment
from repro.grid.io import (
    FORMAT_VERSION,
    dump_layout,
    encode_label,
    layout_from_json,
    layout_to_json,
    load_layout,
)
from repro.grid.layout import GridLayout
from repro.grid.validate import validate_layout
from repro.grid.wire import Wire, WirePathError


def roundtrip(lay):
    return layout_from_json(layout_to_json(lay))


class TestRoundtrip:
    def test_kary_exact(self):
        lay = layout_kary(3, 2, layers=4)
        back = roundtrip(lay)
        assert back.summary() == lay.summary()
        assert back.edge_multiset() == lay.edge_multiset()
        validate_layout(back)

    def test_cluster_layout(self):
        lay = layout_ccc(3)
        back = roundtrip(lay)
        assert back.summary() == lay.summary()
        validate_layout(back)

    def test_extra_links(self):
        lay = layout_folded_hypercube(4, layers=4)
        back = roundtrip(lay)
        assert back.wire_lengths_by_edge() == lay.wire_lengths_by_edge()

    def test_tuple_labels_restored(self):
        lay = layout_kary(3, 2)
        back = roundtrip(lay)
        assert set(back.placements) == set(lay.placements)
        assert all(isinstance(v, tuple) for v in back.placements)

    def test_meta_preserved(self):
        lay = layout_kary(3, 2)
        back = roundtrip(lay)
        assert back.meta["row_tracks"] == lay.meta["row_tracks"]

    def test_file_io(self, tmp_path):
        lay = layout_kary(3, 2)
        path = tmp_path / "layout.json"
        dump_layout(lay, path)
        back = load_layout(path)
        assert back.summary() == lay.summary()

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            layout_from_json('{"format": 99}')

    def test_wrong_width_rows_rejected(self):
        """Rows of the wrong width are refused, never realigned."""
        import json

        from repro.core.threedee import layout_product_3d
        from repro.topology import Ring

        doc = json.loads(layout_to_json(layout_kary(3, 2)))
        for w in doc["wires"]:
            w["segments"] = [row[:4] for row in w["segments"]]
        # A count of four-value rows that five divides would reshape
        # into plausible five-value rows.
        while sum(len(w["segments"]) for w in doc["wires"]) % 5:
            next(w for w in doc["wires"] if len(w["segments"]) > 1)[
                "segments"
            ].pop()
        with pytest.raises(ValueError, match="five integers"):
            layout_from_json(json.dumps(doc))
        doc = json.loads(layout_to_json(layout_kary(3, 2)))
        doc["wires"][0]["segments"][0].append(1)
        with pytest.raises(ValueError):
            layout_from_json(json.dumps(doc))
        doc = json.loads(layout_to_json(
            layout_product_3d(Ring(4), Ring(4), Ring(3), layers=6)
        ))
        riser = next(w for w in doc["wires"] if "riser" in w)
        riser["riser"] = riser["riser"][:3]
        with pytest.raises(ValueError, match="riser"):
            layout_from_json(json.dumps(doc))

    def test_folded_layout_layers_roundtrip(self):
        from repro.core.folding import fold_layout
        from repro.core import layout_hypercube

        lay = fold_layout(layout_hypercube(6, layers=2), 4)
        back = roundtrip(lay)
        assert {p.layer for p in back.placements.values()} == {1, 3}
        validate_layout(back)


class TestZooRoundtrip:
    """Every zoo layout survives the JSON round-trip exactly."""

    def test_all_zoo_layouts(self):
        from repro.cli import _zoo_networks
        from repro.core import layout_network

        for net in _zoo_networks():
            lay = layout_network(net, layers=4)
            back = roundtrip(lay)
            assert back.summary() == lay.summary(), net.name
            assert back.edge_multiset() == lay.edge_multiset(), net.name
            assert (
                back.wire_lengths_by_edge() == lay.wire_lengths_by_edge()
            ), net.name

    def test_clone_layout_is_independent(self):
        from repro.grid.io import clone_layout
        from repro.grid.table import WireTable

        lay = layout_kary(3, 2, layers=4)
        twin = clone_layout(lay)
        assert twin.summary() == lay.summary()
        n = twin.wire_table().num_wires
        twin.splice(n - 1, n, WireTable.from_wires([], {}))
        assert len(twin.wires) == len(lay.wires) - 1


@pytest.fixture(scope="module")
def golden_cases():
    from test_golden import build_cases

    return build_cases()


class TestClone:
    """``clone_layout`` shares the wire table but never leaks an edit."""

    def test_clone_serializes_like_the_original(self, golden_cases):
        from repro.grid.io import clone_layout

        for name, lay in sorted(golden_cases.items()):
            twin = clone_layout(lay)
            assert layout_to_json(twin) == layout_to_json(lay), name
            assert twin.meta == lay.meta, name

    def test_edits_on_a_clone_leave_the_original_alone(self, golden_cases):
        from repro.grid.geometry import Rect, Segment
        from repro.grid.io import clone_layout
        from repro.grid.table import WireTable
        from repro.grid.wire import Wire

        for name, lay in sorted(golden_cases.items()):
            before = layout_to_json(lay)
            meta = repr(lay.meta)
            twin = clone_layout(lay)
            n = twin.wire_table().num_wires
            twin.splice(0, 1, WireTable.from_wires([], {}))
            first = twin.wires[0]
            twin.replace_wire(0, Wire(
                first.u, first.v, [Segment(-3, -3, -3, 5, 1)],
                edge_key=first.edge_key,
            ))
            twin.add_wire(Wire(
                first.u, first.v, [Segment(-5, 0, -5, 4, 1)],
                edge_key=first.edge_key,
            ))
            twin.place(("clone-only",), Rect(-20, -20, 2, 2))
            for value in twin.meta.values():
                if isinstance(value, list):
                    value.append("clone-only")
            twin.meta["clone-only"] = True
            assert twin.wire_table().num_wires == n
            assert layout_to_json(lay) == before, name
            assert repr(lay.meta) == meta, name
            assert ("clone-only",) not in lay.placements, name


def dict_document_json(layout) -> str:
    """The layout text as the dict/list document writer made it: one
    dict per wire and placement, one list per segment row, then
    ``json.dumps`` of the whole document.  ``layout_to_json`` must
    write exactly these bytes.  Label codes are memoized per call by
    type and value, so ``0`` and ``False`` keep their own codes; edge
    keys are encoded one by one, since equal tuples of other member
    types (``(0, 0)`` and ``(0, False)``) have other codes."""

    def memo(fn):
        codes = {}

        def code(x):
            typed = (type(x), x)
            if typed not in codes:
                codes[typed] = fn(x)
            return codes[typed]

        return code

    def edge_key(key):
        try:
            return encode_label(key)
        except TypeError:
            return {"r": repr(key)}

    label = memo(encode_label)

    def jsonable(value):
        try:
            json.dumps(value)
        except (TypeError, ValueError):
            return repr(value)
        return value

    table = layout.wire_table()
    seg_rows = table.segment_rows()
    starts = table.wire_seg_start.tolist()
    wires = []
    for wi, (u, v, key) in enumerate(
        zip(table.wire_u, table.wire_v, table.wire_edge_key)
    ):
        wire = {
            "u": label(u),
            "v": label(v),
            "edge_key": edge_key(key),
            "segments": seg_rows[starts[wi]:starts[wi + 1]],
        }
        if table.wire_is_riser[wi]:
            z = int(table.wire_zrun_start[wi])
            wire["riser"] = [
                int(table.zrun_x[z]), int(table.zrun_y[z]),
                int(table.zrun_lo[z]), int(table.zrun_hi[z]),
            ]
        wires.append(wire)
    return json.dumps({
        "format": FORMAT_VERSION,
        "layers": layout.layers,
        "meta": {str(k): jsonable(v) for k, v in layout.meta.items()},
        "placements": [
            {
                "node": label(p.node),
                "rect": [p.rect.x0, p.rect.y0, p.rect.w, p.rect.h],
                "layer": p.layer,
            }
            for p in layout.placements.values()
        ],
        "wires": wires,
    })


#: Labels whose JSON text needs escaping or a type tag.
_labels = st.recursive(
    st.integers(-10**12, 10**12)
    | st.text(max_size=6)
    | st.sampled_from(['"', "\\", "\u00e9t\u00e9", "\u7f51", "a\nb", "\U0001f600"]),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner)
    | st.tuples(inner, inner, inner),
    max_leaves=6,
)
#: Parallel-edge keys: label-like ones, and others the codec stores as
#: ``{"r": repr}``.
_edge_keys = (
    st.integers(0, 3) | _labels | st.none() | st.booleans()
    | st.floats(allow_nan=False) | st.frozensets(st.integers(0, 3))
)
_meta_values = (
    st.integers() | st.text(max_size=4) | st.none() | st.floats()
    | st.lists(st.integers(), max_size=3)
    | st.sets(st.integers(0, 5), max_size=3)
    | st.builds(Rect, st.integers(0, 5), st.integers(0, 5),
                st.integers(0, 5), st.integers(0, 5))
)


@st.composite
def _wire_paths(draw):
    """An axis-aligned path: alternating horizontal and vertical steps
    on random layers."""
    x, y = draw(st.integers(-20, 20)), draw(st.integers(-20, 20))
    segs = []
    for i in range(draw(st.integers(1, 4))):
        step = draw(st.integers(1, 6)) * draw(st.sampled_from((-1, 1)))
        nx, ny = (x + step, y) if i % 2 == 0 else (x, y + step)
        segs.append(Segment.make(x, y, nx, ny, draw(st.integers(1, 4))))
        x, y = nx, ny
    return segs


@st.composite
def _layouts(draw):
    nodes = draw(st.lists(_labels, max_size=5, unique=True))
    lay = GridLayout(
        layers=draw(st.integers(1, 8)),
        meta=draw(st.dictionaries(
            st.text(max_size=4) | st.integers(0, 9), _meta_values,
            max_size=3,
        )),
    )
    for i, node in enumerate(nodes):
        lay.place(node, Rect(10 * i, 0, 2, 2), draw(st.integers(1, 2)))
    for _ in range(draw(st.integers(0, 6)) if nodes else 0):
        u, v = draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))
        key = draw(_edge_keys)
        if draw(st.booleans()):
            lo = draw(st.integers(1, 4))
            wire = Wire.make_riser(u, v, 3, 4, lo, lo + draw(
                st.integers(1, 3)), edge_key=key)
        else:
            try:
                wire = Wire(u, v, draw(_wire_paths()), edge_key=key)
            except WirePathError:
                assume(False)
        lay.add_wire(wire)
    return lay


class TestTextWriter:
    """``layout_to_json`` writes the document writer's bytes exactly."""

    @pytest.mark.parametrize("layers", [2, 4, 8])
    def test_every_zoo_network(self, layers):
        from repro.cli import _zoo_networks
        from repro.core import layout_network

        for net in _zoo_networks():
            lay = layout_network(net, layers=layers)
            assert layout_to_json(lay) == dict_document_json(lay), net.name

    def test_every_golden_case(self, golden_cases):
        risers = 0
        for name, lay in sorted(golden_cases.items()):
            text = layout_to_json(lay)
            assert text == dict_document_json(lay), name
            assert layout_to_json(layout_from_json(text)) == text, name
            risers += int(lay.wire_table().wire_is_riser.sum())
        assert risers, "no golden case has a riser wire"

    def test_folded_stacked_and_two_sided(self):
        from repro.collinear.two_sided import two_sided_collinear_layout
        from repro.core import layout_hypercube
        from repro.core.folding import fold_layout
        from repro.core.threedee import layout_product_3d
        from repro.topology import CompleteGraph, Ring

        for lay in (
            fold_layout(layout_hypercube(5), 4),
            fold_layout(layout_kary(4, 2), 8),
            layout_product_3d(Ring(3), Ring(4), Ring(3), layers=6),
            two_sided_collinear_layout(CompleteGraph(7), layers=4),
        ):
            assert layout_to_json(lay) == dict_document_json(lay)

    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(_layouts())
    def test_hand_made_layouts(self, lay):
        text = layout_to_json(lay)
        assert text == dict_document_json(lay)
        assert layout_to_json(layout_from_json(text)) == text

    def test_equal_edge_keys_of_other_types_keep_their_text(self):
        lay = GridLayout(layers=2)
        lay.place(0, Rect(0, 0, 2, 2))
        lay.place(1, Rect(10, 0, 2, 2))
        for y, key in enumerate((0, False, 1, True, 1.0, None, "None",
                                 (0, 0), (0, False), ("a", 1.0))):
            lay.add_wire(Wire(0, 1, [Segment.make(1, y, 11, y, 1)],
                              edge_key=key))
        text = layout_to_json(lay)
        keys = [w["edge_key"] for w in json.loads(text)["wires"]]
        assert keys == [0, {"r": "False"}, 1, {"r": "True"},
                        {"r": "1.0"}, {"r": "None"}, "None",
                        {"t": [0, 0]}, {"r": "(0, False)"},
                        {"r": "('a', 1.0)"}]
        assert text == dict_document_json(lay)
        assert layout_to_json(layout_from_json(text)) == text

    def test_equal_edge_keys_of_one_type_keep_their_text(self):
        from decimal import Decimal

        lay = GridLayout(layers=2)
        lay.place(0, Rect(0, 0, 2, 2))
        lay.place(1, Rect(10, 0, 2, 2))
        for key in (0.0, -0.0, Decimal("1.0"), Decimal("1.00"), 7):
            lay.add_wire(Wire.make_riser(0, 1, 3, 4, 1, 2, edge_key=key))
        text = layout_to_json(lay)
        keys = [w["edge_key"] for w in json.loads(text)["wires"]]
        assert keys == [{"r": "0.0"}, {"r": "-0.0"},
                        {"r": "Decimal('1.0')"}, {"r": "Decimal('1.00')"}, 7]
        assert text == dict_document_json(lay)
        assert layout_to_json(layout_from_json(text)) == text

    def test_empty_layout(self):
        lay = GridLayout(layers=2, meta={"scheme": "none", 3: {1, 2}})
        assert layout_to_json(lay) == dict_document_json(lay)
        lay.place("a", Rect(0, 0, 2, 2))
        assert layout_to_json(lay) == dict_document_json(lay)

    @pytest.mark.parametrize("label", [True, None, 1.5, ("a", False)])
    def test_unsupported_label_raises(self, label):
        lay = GridLayout(layers=2)
        lay.place(label, Rect(0, 0, 2, 2))
        with pytest.raises(TypeError):
            layout_to_json(lay)

    def test_bool_label_after_an_equal_int_raises(self):
        lay = GridLayout(layers=2)
        lay.place(1, Rect(0, 0, 2, 2))
        lay.place(0, Rect(10, 0, 2, 2))
        lay.add_wire(Wire(1, 0, [Segment.make(1, 1, 11, 1, 1)]))
        lay.add_wire(Wire(True, 0, [Segment.make(1, 2, 11, 2, 1)]))
        with pytest.raises(TypeError):
            layout_to_json(lay)

    @pytest.mark.parametrize("first", ["placed", "wired"])
    def test_tuple_label_after_an_equal_one_keeps_its_own_text(self, first):
        """``(0, True)`` equals ``(0, 1)`` but is no label: it raises,
        whether ``(0, 1)`` came first as a placed node or as a wire's
        end."""
        lay = GridLayout(layers=2)
        lay.place((0, 1), Rect(0, 0, 2, 2))
        lay.place((1, 1), Rect(10, 0, 2, 2))
        if first == "wired":
            lay.add_wire(Wire((0, 1), (1, 1), [Segment.make(1, 1, 11, 1, 1)]))
        lay.add_wire(Wire((0, True), (1, 1), [Segment.make(1, 2, 11, 2, 1)]))
        with pytest.raises(TypeError):
            layout_to_json(lay)

    def test_tuple_labels_of_other_members(self):
        """Tuples of strs, of nested tuples and of mixed lengths keep
        the codec's text."""
        lay = GridLayout(layers=2)
        labels = [("a", 1), (("b", 2), 3), (4,), (5, 6, 7), (-8, 9)]
        for i, node in enumerate(labels):
            lay.place(node, Rect(10 * i, 0, 2, 2))
        for i, (u, v) in enumerate(zip(labels, labels[1:])):
            lay.add_wire(Wire(u, v, [Segment.make(1, i, 11, i, 1)],
                              edge_key=v))
        text = layout_to_json(lay)
        assert text == dict_document_json(lay)
        assert layout_to_json(layout_from_json(text)) == text


#: Ints on both sides of every digit-count boundary up to 10**12, a few
#: negatives, and some past 2**31.
_BOUNDARY_INTS = sorted(
    {10**k + d for k in range(1, 13) for d in (-1, 0)}
    | {0, -1, -10, -999, 2**31 - 1, 2**31, 2**31 + 1, 2**40,
       -(2**31) - 1, -(2**33)}
)


def _boundary_layout():
    """A layout whose placement rects, segment rows, risers, int and
    int-tuple labels and edge keys take every :data:`_BOUNDARY_INTS`
    value (layers only the positive ones)."""
    values = _BOUNDARY_INTS
    layers = [v for v in values if v > 0]
    lay = GridLayout(layers=2)
    for i, v in enumerate(values):
        layer = layers[i % len(layers)]
        lay.place(v, Rect(v, -v, abs(v), abs(v) + 1), layer)
        lay.place((v, -v), Rect(-v, v, i, abs(v)), layer)
    for i, (a, b) in enumerate(zip(values, values[1:])):
        lo, hi = layers[i % len(layers)], layers[(i + 1) % len(layers)]
        lay.add_wire(Wire(a, b, [
            Segment.make(a, b, b, b, lo), Segment.make(b, b, b, a, hi),
        ], edge_key=a))
        lay.add_wire(Wire.make_riser(
            (a, -a), (b, -b), a, b, min(lo, hi), max(lo, hi) + 1,
            edge_key=(b, a),
        ))
    return lay


class TestDigits:
    """The writer's ints straddle every digit-count boundary."""

    def test_boundary_layout(self):
        lay = _boundary_layout()
        text = layout_to_json(lay)
        assert text == dict_document_json(lay)
        assert layout_to_json(layout_from_json(text)) == text
        doc = json.loads(text)
        assert sorted(p["rect"][0] for p in doc["placements"]) == sorted(
            _BOUNDARY_INTS + [-v for v in _BOUNDARY_INTS]
        )

    def test_kernel_at_the_int64_limits(self):
        import numpy as np

        from repro.grid.io import _digits

        values = [v + d for v in _BOUNDARY_INTS + [10**18]
                  for d in (-1, 0, 1)]
        values += [-v for v in values] + [2**63 - 1, -(2**63), -(2**63) + 1]
        digits = _digits(np.array(values, dtype=np.int64))
        assert [bytes(row).lstrip(b"\0").decode() for row in digits] == [
            str(v) for v in values
        ]


class TestCli:
    def test_layout_command(self, tmp_path, capsys):
        from repro.cli import main

        svg = tmp_path / "out.svg"
        js = tmp_path / "out.json"
        rc = main([
            "layout", "kary:3,2", "-L", "4", "--validate",
            "--svg", str(svg), "--json", str(js),
        ])
        assert rc == 0
        assert svg.read_text().startswith("<svg")
        assert load_layout(js).summary()["nodes"] == 9
        out = capsys.readouterr().out
        assert "validation: OK" in out

    def test_figures_command(self, capsys):
        from repro.cli import main

        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "o" in out

    def test_predict_command(self, capsys):
        from repro.cli import main

        assert main(["predict", "ghc:4,2", "-L", "4"]) == 0
        assert "paper leading terms" in capsys.readouterr().out

    def test_unknown_family(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["layout", "moebius:4"])

    def test_parse_network(self):
        from repro.cli import parse_network

        net = parse_network("ghc:3,4")
        assert net.num_nodes == 12
        net = parse_network("star:4")
        assert net.num_nodes == 24

    def test_zoo_command(self, capsys):
        from repro.cli import main

        assert main(["zoo", "-L", "4"]) == 0
        out = capsys.readouterr().out
        assert "network zoo" in out and "CCC(4)" in out

    def test_simulate_command(self, capsys):
        from repro.cli import main

        rc = main([
            "simulate", "hypercube:4", "-L", "4",
            "--kernel", "transpose", "--mode", "cut_through",
            "--message-length", "2",
        ])
        assert rc == 0
        assert "makespan" in capsys.readouterr().out

    def test_simulate_unknown_kernel(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="kernel"):
            main(["simulate", "hypercube:3", "--kernel", "chaos"])

    def test_simulate_saturation_sweep(self, tmp_path, capsys):
        import json

        from repro.cli import main

        out_json = tmp_path / "sat.json"
        rc = main([
            "simulate", "hypercube:3", "--saturation", "0.05", "1.0",
            "--duration", "16", "--json", str(out_json),
        ])
        assert rc == 0
        assert "saturation sweep" in capsys.readouterr().out
        doc = json.loads(out_json.read_text())
        assert [r["rate"] for r in doc["rows"]] == [0.05, 1.0]
        assert "knee" in doc

    def test_simulate_trace_replay(self, tmp_path, capsys):
        from repro.cli import main
        from repro.routing import save_trace, uniform
        from repro.topology import Hypercube

        trace = tmp_path / "trace.jsonl"
        save_trace(trace, uniform(Hypercube(3), rate=0.3, duration=8, seed=1))
        rc = main([
            "simulate", "hypercube:3", "--trace-file", str(trace),
        ])
        assert rc == 0
        assert "makespan" in capsys.readouterr().out

    def test_cost_command(self, capsys):
        from repro.cli import main

        rc = main(["cost", "kary:3,2", "--layer-sweep", "2", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "chip cost" in out

    def test_fold_command(self, tmp_path, capsys):
        from repro.cli import main

        svg = tmp_path / "fold.svg"
        rc = main(["fold", "hypercube:4", "-L", "4", "--svg", str(svg)])
        assert rc == 0
        assert svg.read_text().startswith("<svg")
        assert "folded" in capsys.readouterr().out

    def test_stack_command(self, capsys):
        from repro.cli import main

        rc = main(["stack", "3", "-L", "6"])
        assert rc == 0
        assert "3-D stacked" in capsys.readouterr().out
