"""Pin allocator: uniqueness, ordering, capacity."""

import pytest

from repro.core.pins import PinAllocator


class TestPinAllocator:
    def test_ordered_assignment(self):
        alloc = PinAllocator()
        alloc.request("n", "top", (1, 5), "b")
        alloc.request("n", "top", (0, 9), "a")
        alloc.freeze()
        # Sorted by key: (0,9) before (1,5).
        assert alloc.offset("a") == 0
        assert alloc.offset("b") == 1

    def test_sides_independent(self):
        alloc = PinAllocator()
        alloc.request("n", "top", (0,), "t")
        alloc.request("n", "right", (0,), "r")
        alloc.freeze()
        assert alloc.offset("t") == 0
        assert alloc.offset("r") == 0

    def test_capacity_enforced(self):
        alloc = PinAllocator()
        alloc.set_capacity("n", "top", 1)
        alloc.request("n", "top", (0,), "a")
        alloc.request("n", "top", (1,), "b")
        with pytest.raises(ValueError, match="raise node_side"):
            alloc.freeze()

    def test_duplicate_token_rejected(self):
        alloc = PinAllocator()
        alloc.request("n", "top", (0,), "a")
        alloc.request("n", "top", (1,), "a")
        with pytest.raises(ValueError, match="duplicate"):
            alloc.freeze()

    def test_must_freeze_before_reading(self):
        alloc = PinAllocator()
        alloc.request("n", "top", (0,), "a")
        with pytest.raises(RuntimeError, match="freeze"):
            alloc.offset("a")

    def test_no_requests_after_freeze(self):
        alloc = PinAllocator()
        alloc.freeze()
        with pytest.raises(RuntimeError, match="frozen"):
            alloc.request("n", "top", (0,), "a")

    def test_arrivals_before_departures(self):
        """The ordering rule that makes touching intervals track-safe:
        all direction-0 (arriving) requests get smaller offsets than any
        direction-1 (departing) request."""
        alloc = PinAllocator()
        for i, d in enumerate([1, 0, 1, 0, 0]):
            alloc.request("n", "top", (d, i), f"w{i}")
        alloc.freeze()
        arriving = [alloc.offset(f"w{i}") for i, d in enumerate([1, 0, 1, 0, 0]) if d == 0]
        departing = [alloc.offset(f"w{i}") for i, d in enumerate([1, 0, 1, 0, 0]) if d == 1]
        assert max(arriving) < min(departing)
