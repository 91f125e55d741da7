"""Exact cutwidth: certifying the paper's collinear layouts optimal."""

import pytest

from repro.collinear import (
    collinear_layout,
    complete_graph_tracks,
    hypercube_tracks,
    kary_tracks,
)
from repro.collinear.cutwidth import (
    DP_NODE_LIMIT,
    cutwidth_certificate,
    exact_cutwidth,
    optimal_order,
)
from repro.topology import (
    CompleteGraph,
    GeneralizedHypercube,
    Hypercube,
    KAryNCube,
    Ring,
)
from repro.topology.base import build_network


class TestExactCutwidth:
    def test_path(self):
        net = build_network(range(6), [(i, i + 1) for i in range(5)], "path")
        assert exact_cutwidth(net) == 1

    @pytest.mark.parametrize("k", [3, 5, 8])
    def test_ring_is_two(self, k):
        assert exact_cutwidth(Ring(k)) == 2

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_complete_graph_formula_is_optimal(self, n):
        """Figure 3's |N^2/4| is *strictly* optimal (ref. [30])."""
        assert exact_cutwidth(CompleteGraph(n)) == complete_graph_tracks(n)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_hypercube_formula_is_optimal(self, dim):
        """|2N/3| equals the true cutwidth: the Section 5.1 layout is
        exactly optimal among collinear layouts (Harper)."""
        assert exact_cutwidth(Hypercube(dim)) == hypercube_tracks(dim)

    @pytest.mark.parametrize("k,n", [(3, 1), (3, 2), (4, 2)])
    def test_kary_formula_is_optimal(self, k, n):
        assert exact_cutwidth(KAryNCube(k, n)) == kary_tracks(k, n)

    def test_ghc44_paper_recurrence_is_suboptimal(self):
        """Finding: the true cutwidth of GHC(4,4) is 18; the paper's
        recurrence gives 20, and our left-edge engine already achieves
        the optimum.  Consistent with the 1 + o(1) optimality claim."""
        from repro.collinear.formulas import mixed_radix_ghc_tracks
        from repro.collinear.recursions import ghc_construction_order

        net = GeneralizedHypercube((4, 4))
        opt = exact_cutwidth(net)
        assert opt == 18
        assert mixed_radix_ghc_tracks((4, 4)) == 20
        lay = collinear_layout(
            net.nodes, net.edges, ghc_construction_order((4, 4))
        )
        assert lay.num_tracks == opt

    def test_multigraph_edges_count(self):
        net = build_network([0, 1], [(0, 1), (0, 1), (0, 1)], "triple")
        assert exact_cutwidth(net) == 3

    def test_limit_guard(self):
        with pytest.raises(ValueError, match="limit"):
            exact_cutwidth(Hypercube(5), limit=20)

    def test_tiny(self):
        assert exact_cutwidth(build_network([0], [], "dot")) == 0


class TestCertificate:
    def test_dense_graph_certificate_matches_dp(self):
        """Regression: on K12 the certificate's profile recomputation
        (diff array + prefix sum) must reproduce the DP value exactly.
        The old per-edge gap walk is O(E * span) on dense graphs --
        and any profile bug shows up here as a value mismatch."""
        net = CompleteGraph(12)
        cw, order = cutwidth_certificate(net)
        assert cw == exact_cutwidth(net) == complete_graph_tracks(12)
        assert sorted(map(repr, order)) == sorted(map(repr, net.nodes))
        lay = collinear_layout(net.nodes, net.edges, order)
        assert lay.num_tracks == cw

    def test_certificate_on_multigraph(self):
        net = build_network([0, 1, 2], [(0, 1), (0, 1), (1, 2)], "multi")
        cw, order = cutwidth_certificate(net)
        assert cw == exact_cutwidth(net) == 2

    def test_certificate_empty(self):
        assert cutwidth_certificate(build_network([], [], "void")) == (0, [])


class TestNodeLimit:
    """All exact-DP entry points share one documented cap."""

    def test_default_limits_agree(self):
        import inspect

        from repro.collinear import cutwidth as mod

        for fn in (exact_cutwidth, optimal_order, cutwidth_certificate):
            sig = inspect.signature(fn)
            assert sig.parameters["limit"].default == mod.DP_NODE_LIMIT

    @pytest.mark.parametrize(
        "fn,name",
        [
            (exact_cutwidth, "exact_cutwidth"),
            (optimal_order, "optimal_order"),
            (cutwidth_certificate, "cutwidth_certificate"),
        ],
    )
    def test_over_limit_error_names_function_and_cap(self, fn, name):
        net = Hypercube(5)  # 32 nodes > any sane limit
        with pytest.raises(ValueError) as exc:
            fn(net, limit=DP_NODE_LIMIT)
        msg = str(exc.value)
        assert name in msg
        assert str(DP_NODE_LIMIT) in msg
        assert "32" in msg

    def test_at_limit_is_accepted(self):
        net = build_network(range(4), [(i, i + 1) for i in range(3)], "p4")
        assert exact_cutwidth(net, limit=4) == 1


class TestOptimalOrder:
    @pytest.mark.parametrize(
        "net",
        [Ring(6), Hypercube(3), CompleteGraph(6), KAryNCube(3, 2)],
        ids=lambda n: n.name,
    )
    def test_order_achieves_cutwidth(self, net):
        order = optimal_order(net)
        assert sorted(map(repr, order)) == sorted(map(repr, net.nodes))
        lay = collinear_layout(net.nodes, net.edges, order)
        assert lay.num_tracks == exact_cutwidth(net)

    def test_empty(self):
        assert optimal_order(build_network([], [], "void")) == []
