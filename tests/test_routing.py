"""Routing algorithms and traffic patterns."""

import random

import pytest

from repro.routing import (
    all_to_all,
    bit_complement,
    dimension_order_route,
    hot_spot,
    random_permutation,
    shortest_hop_routes,
    transpose,
)
from repro.routing.paths import layout_link_delays
from repro.routing.simulator import _bfs_router
from repro.core import layout_kary
from repro.topology import (
    Butterfly,
    CompleteGraph,
    CubeConnectedCycles,
    GeneralizedHypercube,
    Hypercube,
    KAryNCube,
    Mesh,
    Ring,
    ShuffleExchange,
    StarGraph,
    build_network,
)


def is_walk(network, path):
    adj = network.adjacency
    return all(b in adj[a] for a, b in zip(path, path[1:]))


class TestDimensionOrder:
    def test_hypercube_route_length(self):
        net = Hypercube(5)
        path = dimension_order_route(net, 0, 31)
        assert len(path) == 6
        assert is_walk(net, path)

    def test_hypercube_route_is_monotone(self):
        net = Hypercube(4)
        path = dimension_order_route(net, 3, 12)
        # Hamming distance decreases by one each hop.
        def hd(a, b):
            return bin(a ^ b).count("1")
        dists = [hd(v, 12) for v in path]
        assert dists == list(range(len(path) - 1, -1, -1))

    def test_trivial_route(self):
        net = Hypercube(3)
        assert dimension_order_route(net, 5, 5) == [5]

    def test_kary_takes_short_way_around(self):
        net = KAryNCube(5, 1)
        path = dimension_order_route(net, (0,), (4,))
        assert path == [(0,), (4,)]  # wraparound, one hop
        assert is_walk(net, path)

    def test_kary_mesh_no_wrap(self):
        net = KAryNCube(5, 1, wraparound=False)
        path = dimension_order_route(net, (0,), (4,))
        assert len(path) == 5

    def test_kary_2d(self):
        net = KAryNCube(4, 2)
        path = dimension_order_route(net, (0, 0), (2, 3))
        assert is_walk(net, path)
        assert path[-1] == (2, 3)
        assert len(path) == 1 + 2 + 1  # dim1: 2 hops, dim0: 1 hop (wrap)

    def test_ghc_one_hop_per_digit(self):
        net = GeneralizedHypercube((5, 5))
        path = dimension_order_route(net, (0, 0), (4, 2))
        assert len(path) == 3
        assert is_walk(net, path)

    def test_unsupported_network(self):
        with pytest.raises(TypeError, match="dimension-order"):
            dimension_order_route(Ring(5), 0, 2)

    def test_matches_bfs_distance_on_hypercube(self):
        net = Hypercube(4)
        for src, dst in [(0, 15), (3, 9), (7, 8)]:
            path = dimension_order_route(net, src, dst)
            assert len(path) - 1 == net.bfs_distances(src)[dst]


class TestRoutingTables:
    def test_shortest_hop_routes(self):
        net = Hypercube(3)
        table = shortest_hop_routes(net)
        for src in net.nodes:
            for dst in net.nodes:
                path = table.route(src, dst)
                assert path[0] == src and path[-1] == dst
                assert len(path) - 1 == bin(src ^ dst).count("1")
                assert is_walk(net, path) or src == dst

    def test_failed_links_rerouted(self):
        net = Hypercube(3)
        # Kill the direct edge 0-1; routes must go around (3 hops).
        table = shortest_hop_routes(net, failed_links={(0, 1)})
        route = table.route(0, 1)
        assert len(route) == 4
        assert (0, 1) not in set(zip(route, route[1:]))

    def test_failed_links_orientation_free(self):
        net = Hypercube(3)
        t1 = shortest_hop_routes(net, failed_links={(1, 0)})
        assert len(t1.route(0, 1)) == 4

    def test_disconnection_raises_keyerror(self):
        net = Ring(4)
        table = shortest_hop_routes(
            net, failed_links={(0, 1), (0, 3)}
        )
        with pytest.raises(KeyError):
            table.route(0, 2)

    def test_link_delays_cover_all_edges(self):
        net = KAryNCube(3, 2)
        lay = layout_kary(3, 2)
        delays = layout_link_delays(lay)
        for u, v in net.edges:
            assert (u, v) in delays and (v, u) in delays
            assert delays[(u, v)] >= 1


TABLE_ZOO = {
    "hypercube5": lambda: Hypercube(5),
    "kary4x3-torus": lambda: KAryNCube(4, 3),
    "mesh5x2": lambda: Mesh(5, 2),
    "ghc3x4": lambda: GeneralizedHypercube((3, 4)),
    "butterfly3": lambda: Butterfly(3),
    "ccc4": lambda: CubeConnectedCycles(4),
    "star4": lambda: StarGraph(4),
    "shuffle-exchange5": lambda: ShuffleExchange(5),
    "complete7": lambda: CompleteGraph(7),
    "ring9": lambda: Ring(9),
    # Parallel edges (0-1 three times, 2-3 twice) and two nodes of
    # degree 1: short and duplicate rows in the neighbour matrix.
    "multigraph8": lambda: build_network(range(8), [
        (0, 1), (1, 2), (2, 3), (3, 0), (1, 0), (0, 1), (3, 2),
        (3, 4), (4, 5), (5, 2), (5, 6), (7, 4),
    ], "multigraph8"),
}


def _failed(net, k=3):
    """A seeded sample of ``k`` links, each named in a random orientation."""
    rng = random.Random(net.num_nodes)
    return {
        (u, v) if rng.random() < 0.5 else (v, u)
        for u, v in rng.sample(net.edges, k)
    }


def _without_links(net, dead):
    """``net`` without every copy of each ``dead`` link: a failed link
    takes its parallel edges with it, as in ``shortest_hop_routes``."""
    gone = {frozenset(e) for e in dead}
    return net.without_edges([e for e in net.edges if frozenset(e) in gone])


class TestTableParity:
    """The array-BFS table against the oracle's dict BFS, pair by pair.

    Failed links are removed from the oracle's copy of the network, so
    both sides see the same graph; every pair must get the same route,
    or ``KeyError`` on both sides when the failures disconnect it.
    """

    @pytest.mark.parametrize("failed", [False, True],
                             ids=["intact", "failed-links"])
    @pytest.mark.parametrize("name", sorted(TABLE_ZOO))
    def test_routes_match_oracle(self, name, failed):
        net = TABLE_ZOO[name]()
        dead = _failed(net) if failed else None
        table = shortest_hop_routes(net, failed_links=dead)
        oracle = _bfs_router(_without_links(net, dead) if dead else net)
        unreachable = 0
        for src in net.nodes:
            for dst in net.nodes:
                try:
                    want = oracle(src, dst)
                except KeyError:
                    unreachable += 1
                    with pytest.raises(KeyError):
                        table.route(src, dst)
                    continue
                assert table.route(src, dst) == want, (src, dst)
        assert table.route(net.nodes[0], net.nodes[0]) == [net.nodes[0]]
        if not failed:
            assert unreachable == 0

    def test_disconnected_pairs_raise_on_both_sides(self):
        net = Ring(6)
        dead = {(0, 1), (3, 4)}
        table = shortest_hop_routes(net, failed_links=dead)
        oracle = _bfs_router(net.without_edges(dead))
        for src, dst in [(0, 2), (1, 5), (4, 3)]:
            with pytest.raises(KeyError):
                oracle(src, dst)
            with pytest.raises(KeyError):
                table.route(src, dst)
        assert table.route(1, 3) == oracle(1, 3) == [1, 2, 3]

    def test_unknown_node_raises_keyerror(self):
        table = shortest_hop_routes(Ring(4))
        with pytest.raises(KeyError):
            table.route(0, 99)
        with pytest.raises(KeyError):
            table.route(99, 0)

    def test_next_hop_array_shape(self):
        net = Hypercube(3)
        table = shortest_hop_routes(net)
        assert table.next_hop.shape == (8, 8)
        assert table.next_hop.dtype.name == "int32"
        assert table.nodes == net.nodes
        assert all(table.next_hop[i, i] == i for i in range(8))


class TestTraffic:
    def test_random_permutation_is_permutation(self):
        net = Hypercube(4)
        msgs = random_permutation(net, seed=5)
        srcs = [s for s, _ in msgs]
        dsts = [d for _, d in msgs]
        assert sorted(srcs) == sorted(net.nodes)
        assert sorted(dsts) == sorted(net.nodes)
        assert all(s != d for s, d in msgs)

    def test_random_permutation_seeded(self):
        net = Hypercube(4)
        assert random_permutation(net, seed=5) == random_permutation(net, seed=5)
        assert random_permutation(net, seed=5) != random_permutation(net, seed=6)

    def test_bit_complement_hypercube(self):
        msgs = bit_complement(Hypercube(4))
        assert ((0, 15)) in msgs and ((15, 0)) in msgs

    def test_bit_complement_generic(self):
        msgs = bit_complement(Ring(6))
        assert len(msgs) == 6

    def test_transpose_hypercube(self):
        msgs = transpose(Hypercube(4))
        assert all(s != d for s, d in msgs)
        # Transposing twice is the identity.
        pairs = set(msgs)
        assert all((d, s) in pairs for s, d in msgs)

    def test_transpose_tuple_networks(self):
        msgs = transpose(KAryNCube(4, 2))
        assert all(s != d for s, d in msgs)

    def test_all_to_all_count(self):
        net = CompleteGraph(5)
        assert len(all_to_all(net)) == 20

    def test_hot_spot(self):
        net = Hypercube(3)
        msgs = hot_spot(net, spot=0)
        assert len(msgs) == 7
        assert all(d == 0 for _, d in msgs)

    def test_hot_spot_fraction(self):
        net = Hypercube(4)
        msgs = hot_spot(net, fraction=0.5, seed=1)
        assert len(msgs) == 7  # int(15 * 0.5)

    def test_rate_injection_volume(self):
        from repro.routing import rate_injection

        net = Hypercube(4)
        msgs = rate_injection(net, rate=0.1, duration=100, seed=3)
        # Expected ~ 16 nodes * 100 cycles * 0.1 = 160 messages.
        assert 100 < len(msgs) < 240
        assert all(s != d for s, d, _ in msgs)
        assert all(0 <= t < 100 for _, _, t in msgs)

    def test_rate_injection_seeded(self):
        from repro.routing import rate_injection

        net = Hypercube(3)
        a = rate_injection(net, rate=0.2, duration=20, seed=1)
        assert a == rate_injection(net, rate=0.2, duration=20, seed=1)

    def test_rate_injection_guards(self):
        from repro.routing import rate_injection

        with pytest.raises(ValueError):
            rate_injection(Hypercube(3), rate=0.0, duration=10)

    def test_timed_messages_in_simulator(self):
        from repro.routing import simulate

        net = Ring(8)
        # Second message starts late enough to miss the contention.
        res_t = simulate(net, [(0, 1), (0, 1, 100)])
        assert res_t.makespan == 102
        res_0 = simulate(net, [(0, 1), (0, 1)])
        assert res_0.makespan == 4

    def test_latency_excludes_queue_time_before_start(self):
        from repro.routing import simulate

        net = Ring(8)
        res = simulate(net, [(0, 1, 50)])
        assert res.max_latency == 2  # measured from its start cycle
