"""Layout serialization round-trips."""

import pytest

from repro.core import layout_ccc, layout_folded_hypercube, layout_kary
from repro.grid.io import (
    dump_layout,
    layout_from_json,
    layout_to_json,
    load_layout,
)
from repro.grid.validate import validate_layout


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


class TestClone:
    """``clone_layout`` shares the wire table but never leaks an edit."""

    @pytest.fixture(scope="class")
    def golden_cases(self):
        from test_golden import build_cases

        return build_cases()

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

    def test_clone_starts_without_a_dirty_tracker(self):
        from repro.grid.io import clone_layout

        lay = layout_kary(3, 2, layers=4)
        validate_layout(lay, incremental=True)
        assert lay._dirty is not None
        assert clone_layout(lay)._dirty is None


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
