"""Pin allocation kernel: ordering, capacity, uniqueness."""

import numpy as np
import pytest

from repro.core.builder import allocate_pins

TOP, RIGHT = 0, 1


def _group(node: int, side: int) -> int:
    return node * 4 + side


class TestPinAllocator:
    def test_ordered_assignment(self):
        group = [_group(0, TOP)] * 2
        offsets = allocate_pins(group, ([1, 0], [5, 9]), nodes=["n"])
        # Sorted by key: (0, 9) before (1, 5).
        assert offsets.tolist() == [1, 0]

    def test_sides_independent(self):
        group = [_group(0, TOP), _group(0, RIGHT)]
        offsets = allocate_pins(group, ([0, 0],), nodes=["n"])
        assert offsets.tolist() == [0, 0]

    def test_capacity_enforced(self):
        group = [_group(0, TOP)] * 2
        want = r"node 'n' side top: 2 pins .* offers 1 \(raise node_side\)"
        with pytest.raises(ValueError, match=want):
            allocate_pins(group, ([0, 1],), capacity=[1, 1], nodes=["n"])

    def test_duplicate_token_rejected(self):
        # One link end asking twice: equal keys on one side.
        group = [_group(0, TOP)] * 2
        with pytest.raises(ValueError, match="duplicate"):
            allocate_pins(group, ([0, 0], [7, 7]), nodes=["n"])

    def test_arrivals_before_departures(self):
        """The ordering rule that makes touching intervals track-safe:
        all direction-0 (arriving) requests get smaller offsets than any
        direction-1 (departing) request."""
        direction = np.array([1, 0, 1, 0, 0])
        offsets = allocate_pins(
            [_group(0, TOP)] * 5, (direction, np.arange(5)), nodes=["n"]
        )
        assert offsets[direction == 0].max() < offsets[direction == 1].min()
