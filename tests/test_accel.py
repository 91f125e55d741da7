"""The accel kernels against independent references.

Every kernel in :mod:`repro.accel` promises that routing a check
through it never changes an observable result.  This module holds each
kernel to a reference that shares none of its code:

* validator kernels against the scalar sweeps of
  :mod:`repro.grid.validate` -- exact kernels report clean on every
  legal layout, and no kernel ever reports clean where its scalar
  check rejects a corrupted one;
* ``cut_profile`` against a direct count of edges over every gap, and
  the cutwidth DP against a brute-force minimum of
  ``collinear_layout(...).num_tracks`` over every node order.

The matrix is the zoo at two layer budgets plus the counterexample
corpus, as in ``test_wiretable.py``.
"""

import itertools
import random
from pathlib import Path

import pytest

from repro import accel
from repro.batch.spec import dispatch_scheme
from repro.check.generate import mutate_layout
from repro.check.shrink import iter_corpus
from repro.cli import _zoo_networks
from repro.grid import validate as V
from repro.grid.io import clone_layout
from repro.grid.validate import (
    LayoutError,
    _validate_scalar_reference,
    validate_layout,
)

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


def _pin_rows(lay):
    rows = {label: i for i, label in enumerate(lay.placements)}
    u_rows = [rows[w.u] for w in lay.wires]
    v_rows = [rows[w.v] for w in lay.wires]
    return u_rows, v_rows


def _accepts(scalar_check, lay) -> bool:
    try:
        scalar_check(lay)
    except LayoutError:
        return False
    return True


def _kernel_verdicts(lay) -> dict:
    """Each validator kernel's clean verdict, keyed by the scalar sweep
    it stands in for."""
    table = lay.wire_table()
    return {
        V._layer_budget_scalar: accel.layer_budget_clean(table, lay.layers),
        V._parity_scalar: accel.parity_clean(table),
        V._self_consistency_scalar: accel.self_consistency_clean(table),
        V._edge_disjointness_scalar: accel.edge_sweep(table)[1],
        V._bend_exclusivity_scalar: accel.bend_clean(table),
        V._via_occupancy_scalar: accel.via_clean(table),
        V._node_overlap_scalar: accel.node_overlap_clean(table),
        V._node_seg_sweep_scalar: accel.node_sweep_clean(table),
        V._pins_scalar: accel.pins_clean(table, *_pin_rows(lay)),
    }


# ---------------------------------------------------------------------------
# Legal layouts


@pytest.mark.parametrize(
    "case_id,net,layers", _CASES, ids=[c[0] for c in _CASES]
)
def test_kernel_parity_legal(case_id, net, layers):
    """Kernels agree with their scalar references on legal layouts.

    Every scalar sweep accepts these layouts, so every exact kernel
    must report clean (``bend_clean`` and ``node_overlap_clean`` are
    conservative and may not), and ``edge_sweep`` counts every
    segment.
    """
    lay = _layout(case_id, net, layers)
    table = lay.wire_table()
    verdicts = _kernel_verdicts(lay)
    for scalar_check, clean in verdicts.items():
        assert clean == _accepts(scalar_check, lay) or scalar_check in (
            V._bend_exclusivity_scalar, V._node_overlap_scalar,
        ), scalar_check.__name__
    assert accel.edge_sweep(table)[0] == sum(
        len(w.segments) for w in lay.wires
    )


@pytest.mark.parametrize(
    "case_id,net,layers", _CASES, ids=[c[0] for c in _CASES]
)
def test_kernelized_validator_accepts_legal(case_id, net, layers):
    """The kernelized validator and the scalar battery both accept."""
    lay = _layout(case_id, net, layers)
    validate_layout(lay)
    _validate_scalar_reference(lay)


# ---------------------------------------------------------------------------
# Corrupted layouts


@pytest.mark.parametrize(
    "case_id,net,layers",
    [c for c in _CASES if c[0].startswith("zoo")][:12],
    ids=[c[0] for c in _CASES if c[0].startswith("zoo")][:12],
)
def test_corrupted_verdict_and_message_parity(case_id, net, layers):
    """Kernelized vs scalar: same verdict AND same message, always.

    Random corruption of zoo layouts -- no kernel may report clean
    where its scalar sweep rejects, so the kernel fast path never
    accepts a layout the scalar battery rejects, and on rejection the
    diagnosis re-runs the scalar sweep, so even the message text
    matches.
    """
    base = _layout(case_id, net, layers)
    rng = random.Random(hash(case_id) & 0xFFFF)
    for round_no in range(8):
        lay = clone_layout(base)
        applied = 0
        for _ in range(rng.randint(1, 3)):
            applied += mutate_layout(lay, rng)
        if not applied:
            continue
        for scalar_check, clean in _kernel_verdicts(lay).items():
            assert not clean or _accepts(scalar_check, lay), (
                f"round {round_no}: kernel clean but "
                f"{scalar_check.__name__} rejects"
            )
        try:
            validate_layout(lay, check_pins=False)
            fast = (True, "")
        except LayoutError as exc:
            fast = (False, str(exc))
        try:
            _validate_scalar_reference(lay, check_pins=False)
            ref = (True, "")
        except LayoutError as exc:
            ref = (False, str(exc))
        assert fast == ref, f"round {round_no}: {fast} != {ref}"


# ---------------------------------------------------------------------------
# Cutwidth kernels


class TestCutwidthParity:
    def test_dp_tables_match(self):
        """The DP's full-set value is the brute-force minimum track
        count over every node order (n <= 7)."""
        from repro.collinear import collinear_layout
        from repro.topology import (
            CompleteGraph,
            Hypercube,
            KAryNCube,
            Ring,
            StarGraph,
        )
        from repro.topology.base import build_network

        nets = [
            Ring(7), Hypercube(2), CompleteGraph(5), KAryNCube(3, 1),
            StarGraph(3),
            build_network([0, 1, 2], [(0, 1), (0, 1), (1, 2)], "multi"),
        ]
        for net in nets:
            n = net.num_nodes
            assert n <= 7
            dp, cut = accel.cutwidth_dp(net, n)
            brute = min(
                collinear_layout(net.nodes, net.edges, list(order)).num_tracks
                for order in itertools.permutations(net.nodes)
            )
            assert int(dp[(1 << n) - 1]) == brute, net.name
            assert int(cut[0]) == 0 and int(cut[(1 << n) - 1]) == 0

    def test_cut_profile_matches(self):
        """The kernel's widest cut equals a direct count over gaps."""
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 12)
            pairs = []
            for _ in range(rng.randint(0, 24)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a > b:
                    a, b = b, a
                pairs.append((a, b))
            widest = max(
                (sum(1 for a, b in pairs if a <= g < b) for g in range(n)),
                default=0,
            )
            assert accel.cut_profile(n, pairs) == widest

    def test_certificate_profile_equals_dp_value(self):
        from repro.collinear.cutwidth import (
            cutwidth_certificate,
            exact_cutwidth,
        )
        from repro.topology import Hypercube, KAryNCube

        for net in (Hypercube(3), KAryNCube(3, 2)):
            cw, order = cutwidth_certificate(net)
            assert cw == exact_cutwidth(net)
            assert sorted(map(repr, order)) == sorted(
                map(repr, net.nodes)
            )


def test_node_sweep_matches_brute_force():
    """``node_sweep_clean`` on random rows (node rects interior-disjoint
    per layer, as the kernel assumes) equals an all-pairs test: some
    segment meets the open interior of a positive-area rect on its
    layer."""
    import types

    import numpy as np

    def check(rects, segs):
        cols = lambda rows, k: np.asarray([r[k] for r in rows], np.int64)
        table = types.SimpleNamespace(
            num_segments=len(segs),
            node_layer=cols(rects, 0), node_x0=cols(rects, 1),
            node_y0=cols(rects, 2), node_x1=cols(rects, 3),
            node_y1=cols(rects, 4),
            seg_x1=cols(segs, 0), seg_y1=cols(segs, 1),
            seg_x2=cols(segs, 2), seg_y2=cols(segs, 3),
            seg_layer=cols(segs, 4),
        )
        crossed = any(
            l == sl and X0 < X1 and Y0 < Y1
            and sx1 < X1 and X0 < sx2 and sy1 < Y1 and Y0 < sy2
            for l, X0, Y0, X1, Y1 in rects
            for sx1, sy1, sx2, sy2, sl in segs
        )
        assert accel.node_sweep_clean(table) == (not crossed), (rects, segs)

    # A band nested in a taller one: a segment along the nested band's
    # top edge crosses nothing.
    check([(1, 20, 0, 22, 3), (1, 0, 1, 4, 2)], [(1, 2, 3, 2, 1)])
    rng = random.Random(7)
    for _ in range(4000):
        rects = []
        for _ in range(rng.randint(0, 12)):
            layer = rng.randint(1, 2)
            x0, y0 = rng.randint(-3, 6), rng.randint(-3, 6)
            w, h = rng.choice((0, 1, 2, 3)), rng.choice((0, 1, 2, 3))
            if rects and rng.random() < 0.5:  # share a band
                layer, _, y0, _, y1 = rects[rng.randrange(len(rects))]
                h = y1 - y0
            if all(
                not (l == layer and x0 < X1 and X0 < x0 + w
                     and y0 < Y1 and Y0 < y0 + h)
                for l, X0, Y0, X1, Y1 in rects
            ):
                rects.append((layer, x0, y0, x0 + w, y0 + h))
        segs = []
        for _ in range(rng.randint(0, 12)):
            a, b = sorted(rng.sample(range(-4, 10), 2))
            c, layer = rng.randint(-4, 10), rng.randint(1, 3)
            segs.append(
                (a, c, b, c, layer) if rng.random() < 0.5
                else (c, a, c, b, layer)
            )
        check(rects, segs)
