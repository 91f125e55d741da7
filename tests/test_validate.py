"""The legality validator must catch each rule violation."""

import pytest

from repro.grid.geometry import Rect, Segment
from repro.grid.layout import GridLayout
from repro.grid.validate import LayoutError, check_topology, validate_layout
from repro.grid.wire import Wire


def two_node_layout(layers=2):
    lay = GridLayout(layers=layers)
    lay.place("a", Rect(0, 10, 2, 2))
    lay.place("b", Rect(10, 10, 2, 2))
    return lay


def straight_wire(y=9, layer_h=1, layer_v=2, x1=1, x2=11):
    """a -> up -> across at y -> down -> b."""
    return Wire(
        "a",
        "b",
        [
            Segment.make(x1, 10, x1, y, layer_v),
            Segment.make(x1, y, x2, y, layer_h),
            Segment.make(x2, y, x2, 10, layer_v),
        ],
    )


class TestCleanLayouts:
    def test_minimal_passes(self):
        lay = two_node_layout()
        lay.add_wire(straight_wire())
        report = validate_layout(lay, check_parity=True)
        assert report["wires"] == 1
        assert report["segments"] == 3

    def test_crossing_wires_legal(self):
        # One horizontal on layer 1, one vertical on layer 2, crossing.
        lay = GridLayout(layers=2)
        lay.place("a", Rect(0, 4, 2, 2))
        lay.place("b", Rect(10, 4, 2, 2))
        lay.place("c", Rect(4, 0, 2, 2))
        lay.place("d", Rect(4, 10, 2, 2))
        lay.add_wire(Wire("a", "b", [Segment.make(2, 5, 10, 5, 1)]))
        lay.add_wire(Wire("c", "d", [Segment.make(5, 2, 5, 10, 2)]))
        validate_layout(lay, check_parity=True)

    def test_touching_same_layer_segments_legal(self):
        # Two collinear wires sharing only a grid point: a crossing, not
        # an overlap.
        lay = GridLayout(layers=2)
        lay.place("a", Rect(0, 2, 2, 2))
        lay.place("b", Rect(4, 2, 2, 2))
        lay.place("c", Rect(8, 2, 2, 2))
        lay.add_wire(Wire("a", "b", [Segment.make(2, 3, 4, 3, 1)]))
        lay.add_wire(Wire("b", "c", [Segment.make(6, 3, 8, 3, 1)]))
        validate_layout(lay)


class TestViolations:
    def test_layer_budget(self):
        lay = two_node_layout(layers=2)
        lay.add_wire(straight_wire(layer_h=3))
        with pytest.raises(LayoutError, match="budget"):
            validate_layout(lay)

    def test_parity(self):
        lay = two_node_layout(layers=4)
        lay.add_wire(straight_wire(layer_h=2, layer_v=1))
        with pytest.raises(LayoutError, match="parity"):
            validate_layout(lay, check_parity=True)
        validate_layout(lay)  # without parity it is still legal

    def test_overlap_same_layer(self):
        lay = two_node_layout()
        lay.add_wire(straight_wire(y=9))
        lay.add_wire(straight_wire(y=9, x1=0, x2=12))
        with pytest.raises(LayoutError, match="overlap"):
            validate_layout(lay)

    def test_overlap_different_layers_ok(self):
        lay = two_node_layout(layers=4)
        lay.add_wire(straight_wire(y=9, layer_h=1, layer_v=2, x1=1, x2=11))
        lay.add_wire(straight_wire(y=9, layer_h=3, layer_v=4, x1=0, x2=12))
        validate_layout(lay, check_parity=True)

    def test_knock_knee(self):
        # Two wires turning at (5, 5) with overlapping layer ranges.
        lay = GridLayout(layers=4)
        lay.place("a", Rect(0, 4, 1, 1))
        lay.place("b", Rect(4, 9, 1, 1))
        lay.place("c", Rect(9, 4, 1, 1))
        lay.place("d", Rect(4, 0, 1, 1))
        lay.add_wire(
            Wire(
                "a",
                "b",
                [Segment.make(1, 5, 5, 5, 1), Segment.make(5, 5, 5, 9, 2)],
            )
        )
        lay.add_wire(
            Wire(
                "c",
                "d",
                [Segment.make(9, 5, 5, 5, 1), Segment.make(5, 5, 5, 1, 2)],
            )
        )
        with pytest.raises(LayoutError, match="knock-knee"):
            validate_layout(lay, check_node_interference=False, check_pins=False)

    def test_stacked_vias_disjoint_layers_legal(self):
        # Same planar via point, disjoint layer ranges: legal in the
        # multilayer (3-D grid) model.
        lay = GridLayout(layers=4)
        lay.place("a", Rect(0, 4, 1, 1))
        lay.place("b", Rect(4, 9, 1, 1))
        lay.place("c", Rect(9, 4, 1, 1))
        lay.place("d", Rect(4, 0, 1, 1))
        lay.add_wire(
            Wire(
                "a",
                "b",
                [Segment.make(1, 5, 5, 5, 1), Segment.make(5, 5, 5, 9, 2)],
            )
        )
        lay.add_wire(
            Wire(
                "c",
                "d",
                [Segment.make(9, 5, 5, 5, 3), Segment.make(5, 5, 5, 1, 4)],
            )
        )
        validate_layout(lay, check_node_interference=False, check_pins=False)

    def test_overlapping_via_stacks_rejected(self):
        # Layer ranges {1,2} and {2,3} share layer 2 at the via point.
        lay = GridLayout(layers=4)
        lay.place("a", Rect(0, 4, 1, 1))
        lay.place("b", Rect(4, 9, 1, 1))
        lay.place("c", Rect(9, 4, 1, 1))
        lay.place("d", Rect(4, 0, 1, 1))
        lay.add_wire(
            Wire(
                "a",
                "b",
                [Segment.make(1, 5, 5, 5, 1), Segment.make(5, 5, 5, 9, 2)],
            )
        )
        lay.add_wire(
            Wire(
                "c",
                "d",
                [Segment.make(9, 5, 5, 5, 3), Segment.make(5, 5, 5, 1, 2)],
            )
        )
        with pytest.raises(LayoutError, match="via conflict|knock-knee"):
            validate_layout(lay, check_node_interference=False, check_pins=False)

    def test_wire_through_node_interior(self):
        lay = two_node_layout()
        lay.place("obstacle", Rect(4, 8, 3, 3))
        lay.add_wire(straight_wire(y=9))  # passes through (4..7, 9)
        with pytest.raises(LayoutError, match="interior"):
            validate_layout(lay, check_pins=False)

    def test_overlapping_nodes(self):
        lay = GridLayout(layers=2)
        lay.place("a", Rect(0, 0, 4, 4))
        lay.place("b", Rect(2, 2, 4, 4))
        with pytest.raises(LayoutError, match="squares overlap"):
            validate_layout(lay)

    def test_abutting_nodes_ok(self):
        lay = GridLayout(layers=2)
        lay.place("a", Rect(0, 0, 4, 4))
        lay.place("b", Rect(4, 0, 4, 4))
        validate_layout(lay)

    def test_pin_off_perimeter(self):
        lay = two_node_layout()
        # Wire floating in space, not touching node "a".
        lay.add_wire(
            Wire("a", "b", [Segment.make(5, 5, 11, 5, 1),
                            Segment.make(11, 5, 11, 10, 2)])
        )
        with pytest.raises(LayoutError, match="perimeter"):
            validate_layout(lay)

    def test_pin_conflict(self):
        lay = GridLayout(layers=2)
        lay.place("a", Rect(0, 4, 2, 2))
        lay.place("b", Rect(10, 4, 2, 2))
        lay.place("c", Rect(10, 0, 2, 2))
        lay.add_wire(Wire("a", "b", [Segment.make(2, 5, 10, 5, 1)]))
        lay.add_wire(
            Wire(
                "a",
                "c",
                [Segment.make(2, 5, 8, 5, 1), Segment.make(8, 5, 8, 2, 2),
                 Segment.make(8, 2, 10, 2, 1)],
            )
        )
        with pytest.raises(LayoutError, match="pin conflict|overlap"):
            validate_layout(lay)

    def test_unplaced_node(self):
        lay = GridLayout(layers=2)
        lay.place("a", Rect(0, 0, 2, 2))
        lay.add_wire(Wire("a", "ghost", [Segment.make(2, 1, 5, 1, 1)]))
        with pytest.raises(LayoutError, match="unplaced"):
            validate_layout(lay)

    def test_unmerged_collinear_segments(self):
        lay = two_node_layout()
        lay.add_wire(
            Wire(
                "a",
                "b",
                [
                    Segment.make(1, 10, 1, 9, 2),
                    Segment.make(1, 9, 5, 9, 1),
                    Segment.make(5, 9, 11, 9, 1),
                    Segment.make(11, 9, 11, 10, 2),
                ],
            )
        )
        with pytest.raises(LayoutError, match="merged"):
            validate_layout(lay)


class TestViaPiercing:
    def test_straight_wire_through_via_interior_rejected(self):
        lay = GridLayout(layers=4)
        lay.place("a", Rect(0, 4, 1, 1))
        lay.place("b", Rect(9, 4, 1, 1))
        lay.place("c", Rect(4, 0, 1, 1))
        lay.place("d", Rect(4, 9, 1, 1))
        # A: H on 1, via at (5,5), H on 3.
        lay.add_wire(
            Wire("a", "b", [Segment.make(1, 5, 5, 5, 1),
                            Segment.make(5, 5, 9, 5, 3)])
        )
        # B: vertical straight through (5,5) on layer 2 -- inside A's via.
        lay.add_wire(
            Wire("c", "d", [Segment.make(5, 1, 5, 9, 2)])
        )
        with pytest.raises(LayoutError, match="pierced"):
            validate_layout(lay, check_node_interference=False,
                            check_pins=False)

    def test_straight_wire_beside_via_ok(self):
        lay = GridLayout(layers=4)
        lay.place("a", Rect(0, 4, 1, 1))
        lay.place("b", Rect(9, 4, 1, 1))
        lay.place("c", Rect(6, 0, 1, 1))
        lay.place("d", Rect(6, 9, 1, 1))
        lay.add_wire(
            Wire("a", "b", [Segment.make(1, 5, 5, 5, 1),
                            Segment.make(5, 5, 9, 5, 3)])
        )
        lay.add_wire(Wire("c", "d", [Segment.make(7, 1, 7, 9, 2)]))
        validate_layout(lay, check_node_interference=False, check_pins=False)

    def test_segment_ending_at_via_point_is_crossing(self):
        # B's interior-layer segment *ends* exactly at the via's planar
        # point: endpoint sharing is a crossing, which stays legal.
        lay = GridLayout(layers=4)
        lay.place("a", Rect(0, 4, 1, 1))
        lay.place("b", Rect(9, 4, 1, 1))
        lay.place("c", Rect(4, 0, 1, 1))
        lay.place("d", Rect(0, 0, 1, 1))
        lay.add_wire(
            Wire("a", "b", [Segment.make(1, 5, 5, 5, 1),
                            Segment.make(5, 5, 9, 5, 3)])
        )
        # One straight vertical segment on layer 2 from c's square down
        # to exactly (5, 5): it touches the via point only at its end.
        lay.add_wire(Wire("c", "d", [Segment.make(5, 1, 5, 5, 2),
                                     Segment.make(5, 1, 1, 1, 1)]))
        validate_layout(lay, check_node_interference=False,
                        check_pins=False)


class TestTopologyCheck:
    def test_matches(self):
        lay = two_node_layout()
        lay.add_wire(straight_wire())
        check_topology(lay, [("a", "b")])
        check_topology(lay, [("b", "a")])  # orientation-free

    def test_missing_edge(self):
        lay = two_node_layout()
        lay.add_wire(straight_wire())
        with pytest.raises(LayoutError, match="differs"):
            check_topology(lay, [("a", "b"), ("a", "b")])

    def test_extra_edge(self):
        lay = two_node_layout()
        lay.add_wire(straight_wire())
        with pytest.raises(LayoutError, match="differs"):
            check_topology(lay, [])

    def test_same_endpoints_other_pairs(self):
        """The multiset is of pairs: the same endpoint counts paired
        differently is a mismatch."""
        lay = GridLayout(layers=2)
        for i, node in enumerate("abcd"):
            lay.place(node, Rect(10 * i, 10, 2, 2))
        lay.add_wire(Wire("a", "b", [Segment.make(2, 11, 10, 11, 1)]))
        lay.add_wire(Wire("c", "d", [Segment.make(22, 11, 30, 11, 1)]))
        check_topology(lay, [("d", "c"), ("b", "a")])
        with pytest.raises(LayoutError, match="differs"):
            check_topology(lay, [("a", "c"), ("b", "d")])
        with pytest.raises(LayoutError, match="differs"):
            check_topology(lay, [("a", "b"), ("c", "c")])

    def test_unplaced_expected_label(self):
        lay = two_node_layout()
        lay.add_wire(straight_wire())
        with pytest.raises(LayoutError, match="differs"):
            check_topology(lay, [("a", "z")])
