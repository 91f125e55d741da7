"""Incremental revalidation: dirty-set bookkeeping and verdict parity.

The contract under test (see :mod:`repro.grid.dirty`): after a
successful validation, ``validate_layout(lay, incremental=True)``
re-checks only the wires and nodes intersecting the boxes dirtied by
``add_wire`` / ``replace_wire`` / ``place`` since then, and its
verdict equals a from-scratch validation's -- with full-sweep
fallbacks on first call and past the dirty threshold.
"""

import random

import numpy as np
import pytest

from repro.batch.spec import dispatch_scheme
from repro.check.generate import mutate_layout
from repro.grid.dirty import DirtyTracker
from repro.grid.geometry import Rect, Segment
from repro.grid.io import clone_layout
from repro.grid.layout import GridLayout
from repro.grid.table import WireTable
from repro.grid.validate import LayoutError, validate_layout
from repro.grid.wire import Wire
from repro.topology import Hypercube


def two_pair_layout():
    """Two disjoint horizontal wires on layer 1, four nodes."""
    lay = GridLayout(layers=2)
    lay.place("a", Rect(0, 8, 2, 2))
    lay.place("b", Rect(10, 8, 2, 2))
    lay.place("c", Rect(0, 0, 2, 2))
    lay.place("d", Rect(10, 0, 2, 2))
    lay.add_wire(Wire("a", "b", [Segment.make(2, 9, 10, 9, 1)]))
    lay.add_wire(Wire("c", "d", [Segment.make(2, 1, 10, 1, 1)]))
    return lay


def inc_validate(lay, **kw):
    return validate_layout(
        lay, incremental=True, check_pins=False,
        check_node_interference=True, **kw,
    )


#: Band-path tests run on tiny layouts where any edit exceeds the
#: default 25%-of-wires threshold; lifting it isolates the band path.
BANDS = {"incremental_threshold": 1.0}


class TestModes:
    def test_first_call_attaches_and_full_sweeps(self):
        lay = two_pair_layout()
        assert lay._dirty is None
        rep = inc_validate(lay)
        assert rep["incremental"] == {"mode": "full", "reason": "untracked"}
        assert isinstance(lay._dirty, DirtyTracker)

    def test_untouched_layout_is_clean(self):
        lay = two_pair_layout()
        inc_validate(lay)
        rep = inc_validate(lay)
        assert rep["incremental"]["mode"] == "clean"
        assert rep["checks"] == 0

    def test_edit_takes_band_path(self):
        lay = two_pair_layout()
        inc_validate(lay)
        lay.replace_wire(
            1, Wire("c", "d", [Segment.make(2, 1, 10, 1, 2)])
        )
        rep = inc_validate(lay, **BANDS)
        inc = rep["incremental"]
        assert inc["mode"] == "bands"
        assert inc["wires_checked"] >= 1
        # A successful band run clears the dirty set.
        rep2 = inc_validate(lay)
        assert rep2["incremental"]["mode"] == "clean"

    def test_small_edit_falls_back_past_threshold(self):
        # Two wires: any one dirty wire is 50% > the default 25%.
        lay = two_pair_layout()
        inc_validate(lay)
        lay.replace_wire(
            1, Wire("c", "d", [Segment.make(2, 1, 10, 1, 2)])
        )
        rep = inc_validate(lay)
        assert rep["incremental"]["mode"] == "full"
        assert rep["incremental"]["reason"] == "threshold"

    def test_full_validate_rearms_tracker(self):
        lay = two_pair_layout()
        inc_validate(lay)
        lay.replace_wire(
            1, Wire("c", "d", [Segment.make(2, 1, 10, 1, 2)])
        )
        # A plain full validation also resets the attached tracker...
        validate_layout(lay, check_pins=False)
        rep = inc_validate(lay)
        assert rep["incremental"]["mode"] == "clean"


class TestDirtyBookkeeping:
    def test_replace_introducing_conflict_is_caught(self):
        lay = two_pair_layout()
        inc_validate(lay)
        # Move wire c-d on top of wire a-b: overlap on (h, 1, y=9).
        lay.replace_wire(
            1, Wire("c", "d", [Segment.make(2, 9, 10, 9, 1)])
        )
        with pytest.raises(LayoutError, match="overlap"):
            inc_validate(lay, **BANDS)

    def test_add_wire_conflict_is_caught(self):
        lay = two_pair_layout()
        inc_validate(lay)
        lay.add_wire(Wire("a", "b", [Segment.make(2, 9, 10, 9, 1)]))
        with pytest.raises(LayoutError, match="overlap"):
            inc_validate(lay, **BANDS)

    def test_place_conflict_is_caught(self):
        lay = two_pair_layout()
        inc_validate(lay)
        # A node square whose interior the a-b wire crosses at y=9.
        lay.place("e", Rect(4, 8, 2, 2))
        with pytest.raises(LayoutError, match="interior"):
            inc_validate(lay, **BANDS)

    def test_moved_wire_keeps_its_new_box(self):
        """A one-for-one edit updates the edited wire's cached box, so a
        later edit near the wire's new position selects it."""
        lay = two_pair_layout()
        inc_validate(lay)
        lay.replace_wire(0, Wire("a", "b", [Segment.make(2, 5, 10, 5, 1)]))
        inc_validate(lay, **BANDS)
        lay.replace_wire(1, Wire("c", "d", [Segment.make(4, 5, 8, 5, 1)]))
        with pytest.raises(LayoutError, match="overlap"):
            inc_validate(lay, **BANDS)

    def test_placed_node_overlap_is_caught(self):
        """Band runs skip the node-overlap check only while no node has
        been placed since the last success."""
        lay = two_pair_layout()
        inc_validate(lay)
        lay.replace_wire(1, Wire("c", "d", [Segment.make(2, 1, 10, 1, 2)]))
        inc_validate(lay, **BANDS)
        lay.place("e", Rect(11, 0, 2, 2))  # overlaps d's square
        with pytest.raises(LayoutError, match="node squares overlap"):
            inc_validate(lay, **BANDS)

    def test_revert_after_failure_accepts(self):
        lay = two_pair_layout()
        inc_validate(lay)
        good = lay.wires[1]
        lay.replace_wire(
            1, Wire("c", "d", [Segment.make(2, 9, 10, 9, 1)])
        )
        with pytest.raises(LayoutError):
            inc_validate(lay, **BANDS)
        # Bands accumulate across failures: reverting the edit must be
        # enough for the next incremental call to accept again.
        lay.replace_wire(1, good)
        rep = inc_validate(lay, **BANDS)
        assert rep["incremental"]["mode"] == "bands"


class TestFallbacks:
    def test_threshold_fallback(self):
        lay = dispatch_scheme(Hypercube(3), layers=4, scheme="auto")
        inc_validate(lay)
        for i in range(len(lay.wires) // 2):
            w = lay.wires[i]
            if w.riser is not None:
                continue
            lay.replace_wire(
                i, Wire(w.u, w.v, list(w.segments), edge_key=w.edge_key)
            )
        rep = inc_validate(lay, incremental_threshold=0.1)
        inc = rep["incremental"]
        assert inc["mode"] == "full"
        assert inc["reason"] == "threshold"
        # ... and the fallback re-arms: next call is clean.
        assert inc_validate(lay)["incremental"]["mode"] == "clean"

    def test_max_bands_fallback(self):
        lay = two_pair_layout()
        inc_validate(lay)
        tracker = lay._dirty
        # Distinct synthetic bands past the cap (coalescing keeps them
        # all), plus threshold=1.0 so only MAX_BANDS can trigger.
        for k in range(tracker.MAX_BANDS + 1):
            tracker.bands.append((k, k, k, k, 1, 1))
        rep = inc_validate(lay, incremental_threshold=1.0)
        assert rep["incremental"]["mode"] == "full"
        assert rep["incremental"]["reason"] == "threshold"


class TestTrackerUnit:
    def test_select_wires_closed_intervals(self):
        t = DirtyTracker()
        t.full = False
        t.validated = True
        t.boxes = np.array([[0, 4, 0, 2, 1, 2], [0, 4, 5, 7, 1, 2]]).T
        # Touching at y=2 counts (closed intervals); layer 3 excludes,
        # and so does a disjoint x range.
        assert t.select_wires([(0, 9, 2, 4, 1, 1)]) == [0]
        assert t.select_wires([(4, 9, 2, 6, 1, 2)]) == [0, 1]
        assert t.select_wires([(0, 9, 2, 6, 3, 3)]) == []
        assert t.select_wires([(5, 9, 0, 9, 1, 2)]) == []

    def test_coalesced_bands_dedup_stable(self):
        t = DirtyTracker()
        t.bands = [(0, 1, 1, 1), (2, 3, 1, 1), (0, 1, 1, 1)]
        assert t.coalesced_bands() == [(0, 1, 1, 1), (2, 3, 1, 1)]

    def test_hooks_noop_while_full(self):
        t = DirtyTracker()
        t.on_splice(0, 0, WireTable.from_wires(
            [Wire("a", "b", [Segment.make(0, 0, 2, 0, 1)])], {}
        ))
        t.on_place(Rect(0, 0, 2, 2), 1)
        assert t.bands == []
        assert t.needs_full()


class TestAgreementFuzz:
    def test_mini_fuzz_matches_from_scratch(self):
        """~30 seeded edit rounds on a real scheme layout: incremental
        and from-scratch verdicts agree at every step."""
        base = dispatch_scheme(Hypercube(3), layers=4, scheme="auto")
        lay = clone_layout(base)
        inc_validate(lay)
        rng = random.Random(0xD187E)
        for round_no in range(30):
            applied = 0
            for _ in range(rng.randint(1, 3)):
                applied += mutate_layout(lay, rng)
            if not applied:
                continue
            try:
                inc_validate(lay)
                inc = (True, "")
            except LayoutError as exc:
                inc = (False, "")
            try:
                validate_layout(
                    clone_layout(lay), check_pins=False,
                    check_node_interference=True,
                )
                full = (True, "")
            except LayoutError:
                full = (False, "")
            assert inc == full, f"round {round_no}"
