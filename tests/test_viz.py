"""Rendering output sanity."""

import pytest

from repro.collinear.recursions import (
    complete_recursive,
    hypercube_recursive,
    kary_recursive,
)
from repro.core import layout_ccc, layout_kary
from repro.viz import ascii_collinear, ascii_grid_layout, svg_layout


class TestAsciiCollinear:
    def test_figure2_dimensions(self):
        art = ascii_collinear(kary_recursive(3, 2))
        lines = art.splitlines()
        # 8 track rows + node row + label row
        assert len(lines) == 10
        assert lines[-2].count("o") == 9

    def test_track_rows_contain_runs(self):
        art = ascii_collinear(complete_recursive(5), label_nodes=False)
        lines = art.splitlines()
        assert len(lines) == 5 * 5 // 4 + 1
        assert any("-" in ln for ln in lines)

    def test_figure4(self):
        art = ascii_collinear(hypercube_recursive(4))
        assert len(art.splitlines()) == 12  # 10 tracks + nodes + labels

    def test_labels_for_tuples(self):
        art = ascii_collinear(kary_recursive(3, 2))
        assert "00" in art and "22" in art


class TestAsciiGrid:
    def test_renders_nodes_and_wires(self):
        art = ascii_grid_layout(layout_kary(3, 2))
        assert "#" in art and ("-" in art or "|" in art)

    def test_too_wide_raises(self):
        lay = layout_kary(3, 2)
        with pytest.raises(ValueError, match="svg_layout"):
            ascii_grid_layout(lay, max_width=5)


class TestSvg:
    def test_well_formed(self):
        svg = svg_layout(layout_kary(3, 2))
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "<line" in svg and "<rect" in svg

    def test_layer_colors_distinct(self):
        svg = svg_layout(layout_kary(3, 2, layers=4))
        # Two horizontal groups (layers 1 and 3) must use two colors.
        assert "#d62728" in svg and "#ff7f0e" in svg

    def test_cluster_layout_renders(self):
        svg = svg_layout(layout_ccc(3))
        assert svg.count("<rect") >= 24  # every member node drawn

    def test_labels_escaped(self):
        from repro.grid.geometry import Rect
        from repro.grid.layout import GridLayout

        lay = GridLayout(layers=2)
        lay.place("<evil>", Rect(0, 0, 2, 2))
        svg = svg_layout(lay, node_labels=True)
        assert "&lt;evil&gt;" in svg

    def test_legend(self):
        svg = svg_layout(layout_kary(3, 2, layers=4), legend=True)
        assert "layer 1 (horizontal)" in svg
        assert "layer 4 (vertical)" in svg


class TestLayerStack:
    def test_panels_per_layer(self):
        from repro.viz import svg_layer_stack

        svg = svg_layer_stack(layout_kary(3, 2, layers=4))
        for layer in (1, 2, 3, 4):
            assert f"layer {layer}" in svg

    def test_folded_layout_panels(self):
        from repro.core import layout_hypercube
        from repro.core.folding import fold_layout
        from repro.viz import svg_layer_stack

        folded = fold_layout(layout_hypercube(6, layers=2), 4)
        svg = svg_layer_stack(folded)
        assert "layer 3" in svg
        assert svg.count("<rect") > 64  # nodes drawn in their panels

    def test_3d_deck_panels(self):
        from repro.core.threedee import layout_product_3d
        from repro.topology import Ring
        from repro.viz import svg_layer_stack

        lay = layout_product_3d(Ring(3), Ring(3), Ring(3), layers=6)
        svg = svg_layer_stack(lay)
        assert "layer 5" in svg


class TestZooRenderSmoke:
    """Every zoo network renders through both backends without error."""

    def test_ascii_and_svg_for_every_zoo_network(self):
        from repro.cli import _zoo_networks
        from repro.core import layout_network

        for net in _zoo_networks():
            lay = layout_network(net, layers=4)
            art = ascii_grid_layout(lay, max_width=4000)
            assert art.count("#") >= net.num_nodes, net.name
            svg = svg_layout(lay)
            assert svg.startswith("<svg") or "<svg" in svg, net.name
            assert svg.count("<rect") >= net.num_nodes, net.name

    def test_svg_layer_stack_for_multilayer_zoo(self):
        from repro.cli import _zoo_networks
        from repro.core import layout_network
        from repro.viz import svg_layer_stack

        for net in _zoo_networks()[:4]:
            lay = layout_network(net, layers=4)
            svg = svg_layer_stack(lay)
            assert "layer 1" in svg, net.name
