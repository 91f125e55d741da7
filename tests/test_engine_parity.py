"""Byte-identical parity: the batched engine vs the per-packet oracle.

`simulate_fast` is only allowed to be fast -- every observable field of
`SimulationResult` must match `simulate` exactly: makespan, the full
latency histogram (hence avg/max/percentiles), per-link load and busy
time (hence `link_utilization` dict contents and the busiest-link
tie-break), and `queue_depth_hist`.  The matrix covers the network zoo
under L=2/L=4 layout-derived delays x every workload kind x 5 seeds.
"""

import pytest

from repro import obs
from repro.batch.spec import dispatch_scheme
from repro.core import layout_hypercube, layout_network
from repro.routing import (
    WORKLOAD_KINDS,
    dimension_order_route,
    layout_link_delays,
    make_workload,
    saturation_sweep,
    shortest_hop_routes,
    simulate,
    simulate_fast,
    uniform,
)
from repro.topology import CubeConnectedCycles, Hypercube, Mesh, Ring, StarGraph

ZOO = {
    "hypercube4": Hypercube(4),
    "ring12": Ring(12),
    "ccc3": CubeConnectedCycles(3),
    "star4": StarGraph(4),
    "mesh4x4": Mesh(4, 2),
}


def _delays(name, L):
    """Layout-derived per-link delays for a zoo member at L layers."""
    net = ZOO[name]
    if isinstance(net, Hypercube):
        lay = layout_hypercube(net.n, layers=L, node_side="min")
    else:
        lay = dispatch_scheme(net, layers=L, scheme="generic")
    return layout_link_delays(lay)


@pytest.fixture(scope="module")
def delay_cache():
    cache = {}

    def get(name, L):
        key = (name, L)
        if key not in cache:
            cache[key] = _delays(name, L)
        return cache[key]

    return get


def _workload(kind, net, seed):
    if kind == "trace":
        base = uniform(net, rate=0.3, duration=8, seed=seed)
        return make_workload(kind, net, trace=base)
    try:
        return make_workload(kind, net, seed=seed, rate=0.25, duration=10)
    except ValueError as exc:
        if "undefined" in str(exc):
            pytest.skip(f"{kind} undefined for {net.name}")
        raise


def _assert_field_parity(oracle, fast):
    assert fast == oracle
    # The dataclass eq above already covers everything; spell out the
    # fields the issue names so a future field addition that breaks
    # eq-coverage fails loudly here too.
    assert fast.makespan == oracle.makespan
    assert fast.avg_latency == oracle.avg_latency
    assert fast.max_latency == oracle.max_latency
    assert fast.latency_hist == oracle.latency_hist
    assert fast.max_link_load == oracle.max_link_load
    assert fast.link_utilization == oracle.link_utilization
    # ...including dict insertion order, which carries the oracle's
    # first-acquisition sequence (the busiest-link tie-break).
    assert list(fast.link_utilization) == list(oracle.link_utilization)
    assert fast.queue_depth_hist == oracle.queue_depth_hist
    assert fast.busiest_link == oracle.busiest_link
    assert fast.as_dict() == oracle.as_dict()


class TestZooParity:
    @pytest.mark.parametrize("name", sorted(ZOO))
    @pytest.mark.parametrize("L", [2, 4])
    @pytest.mark.parametrize("kind", WORKLOAD_KINDS)
    def test_zoo_workloads_match(self, name, L, kind, delay_cache):
        net = ZOO[name]
        link_delay = delay_cache(name, L)
        for seed in range(5):
            msgs = _workload(kind, net, seed)
            oracle = simulate(net, msgs, link_delay=link_delay)
            fast = simulate_fast(net, msgs, link_delay=link_delay)
            _assert_field_parity(oracle, fast)


@pytest.mark.parametrize("seed", [3, 5])
def test_hypercube3_uniform_on_its_layout(seed):
    """The default traffic run of ``repro simulate`` and of a
    ``TrafficSpec``: uniform load on the 3-cube's L=2 layout, with the
    layout's own link delays."""
    net = Hypercube(3)
    lay = layout_network(net, layers=2)
    msgs = make_workload("uniform", net, seed=seed, rate=0.4, duration=12)
    oracle = simulate(net, msgs, layout=lay)
    _assert_field_parity(oracle, simulate_fast(net, msgs, layout=lay))
    assert oracle.messages > 0


# ``simulate_fast``'s event count (message and wake entries it dequeued)
# over every workload kind and seeds 0-4, per zoo network and L.  No
# result field carries it, so a duplicate wake -- harmless to every
# output -- shows only here.
EVENT_PINS = {
    ("ccc3", 2): 6669, ("ccc3", 4): 6628,
    ("hypercube4", 2): 3398, ("hypercube4", 4): 3408,
    ("mesh4x4", 2): 3995, ("mesh4x4", 4): 3995,
    ("ring12", 2): 3089, ("ring12", 4): 3082,
    ("star4", 2): 6177, ("star4", 4): 6142,
}


@pytest.mark.parametrize("name,L", sorted(EVENT_PINS))
def test_event_counts_are_pinned(name, L, delay_cache):
    net = ZOO[name]
    link_delay = delay_cache(name, L)
    obs.reset()
    obs.enable()
    try:
        for kind in WORKLOAD_KINDS:
            for seed in range(5):
                if kind == "trace":
                    base = uniform(net, rate=0.3, duration=8, seed=seed)
                    msgs = make_workload(kind, net, trace=base)
                else:
                    try:
                        msgs = make_workload(
                            kind, net, seed=seed, rate=0.25, duration=10
                        )
                    except ValueError:
                        continue  # kind undefined for this network
                simulate_fast(net, msgs, link_delay=link_delay)
        events = obs.registry().snapshot()["counters"]["simulator.events"]
    finally:
        obs.disable()
        obs.reset()
    assert events == EVENT_PINS[name, L]


class TestModesAndRouters:
    @pytest.mark.parametrize("mode,length", [
        ("store_forward", 1), ("store_forward", 6),
        ("cut_through", 1), ("cut_through", 6),
    ])
    def test_modes_and_lengths(self, mode, length, delay_cache):
        net = ZOO["hypercube4"]
        route = lambda s, d: dimension_order_route(net, s, d)  # noqa: E731
        link_delay = delay_cache("hypercube4", 4)
        for seed in range(5):
            msgs = _workload("uniform", net, seed)
            oracle = simulate(
                net, msgs, link_delay=link_delay, router=route,
                mode=mode, message_length=length,
            )
            fast = simulate_fast(
                net, msgs, link_delay=link_delay, router=route,
                mode=mode, message_length=length,
            )
            _assert_field_parity(oracle, fast)

    @pytest.mark.parametrize("mode,length", [
        ("store_forward", 1), ("cut_through", 6),
    ])
    @pytest.mark.parametrize("table", ["failed-links"])
    def test_table_routers(self, table, mode, length, delay_cache):
        # A RoutingTable router other than the default BFS: the engine
        # walks its next-hop array, the oracle calls its route().
        net = ZOO["hypercube4"]
        router = shortest_hop_routes(
            net, failed_links={(0, 1), (6, 4), (15, 11)}
        )
        link_delay = delay_cache("hypercube4", 4)
        for seed in range(5):
            msgs = _workload("uniform", net, seed)
            oracle = simulate(
                net, msgs, link_delay=link_delay, router=router,
                mode=mode, message_length=length,
            )
            fast = simulate_fast(
                net, msgs, link_delay=link_delay, router=router,
                mode=mode, message_length=length,
            )
            _assert_field_parity(oracle, fast)

    def test_saturated_contention(self):
        # Everything funnels through one node: deep queues, the herd
        # regime where the engine's waiter heaps must still replay the
        # oracle's FIFO-by-index arbitration exactly.
        net = Ring(8)
        msgs = [(0, 4)] * 20 + [(1, 5)] * 10 + [(0, 4, 3)] * 5
        oracle = simulate(net, msgs, message_length=3)
        _assert_field_parity(
            oracle, simulate_fast(net, msgs, message_length=3)
        )

    def test_timed_and_degenerate_messages(self):
        net = Ring(6)
        msgs = [(2, 2), (0, 3, 7), (1, 1, 4), (5, 2)]
        for mode, length in [("store_forward", 1), ("cut_through", 4)]:
            kwargs = dict(mode=mode, message_length=length)
            oracle = simulate(net, msgs, **kwargs)
            _assert_field_parity(oracle, simulate_fast(net, msgs, **kwargs))

    def test_empty_run(self):
        oracle = simulate(Ring(4), [])
        _assert_field_parity(oracle, simulate_fast(Ring(4), []))


class TestSaturation:
    """Uniform traffic at rate 1.0 with 16-flit messages: the regime of
    the ``traffic-sat`` benchmark, with deep queues on most links."""

    @pytest.mark.parametrize("mode", ["store_forward", "cut_through"])
    @pytest.mark.parametrize("n", [6, 7])
    def test_saturated_hypercube_matches(self, n, mode):
        net = Hypercube(n)
        link_delay = layout_link_delays(
            layout_hypercube(n, layers=4, node_side="min")
        )
        for seed in range(5):
            msgs = uniform(net, rate=1.0, duration=16, seed=seed)
            kwargs = dict(link_delay=link_delay, mode=mode, message_length=16)
            oracle = simulate(net, msgs, **kwargs)
            fast = simulate_fast(net, msgs, **kwargs)
            assert fast == oracle
            assert list(fast.link_utilization) == list(oracle.link_utilization)


def test_saturation_sweep_builds_one_table():
    net = Hypercube(5)
    rates = [0.1, 0.5, 1.0]
    obs.reset()
    obs.enable()
    try:
        rows = saturation_sweep(
            net, rates=rates, duration=8, seed=3, message_length=4
        )
        tables = obs.find_spans("routing.table")
    finally:
        obs.disable()
        obs.reset()
    assert len(tables) == 1
    for rate, row in zip(rates, rows):
        msgs = make_workload("uniform", net, seed=3, rate=rate, duration=8)
        res = simulate_fast(net, msgs, message_length=4)
        assert row["rate"] == rate
        assert row["messages"] == len(msgs)
        assert (row["avg_latency"], row["p50"], row["p99"]) == (
            res.avg_latency, res.latency_p50, res.latency_p99
        )
        assert (row["max_latency"], row["makespan"]) == (
            res.max_latency, res.makespan
        )
        assert row["max_utilization"] == res.max_utilization


# With zero advance delays the oracle's order of first link use is not
# promised (see the engine docstring); these pin the engine's own order,
# busiest link and queue depths for two such runs.
ZERO_DELAY_PINS = {
    ("store_forward", 1): ((1, 0), [
        (0, 1), (1, 0), (2, 0), (3, 1), (4, 0), (5, 4), (6, 4), (7, 5),
        (0, 2), (0, 4), (4, 6), (4, 5), (1, 5), (2, 6), (3, 2), (5, 1),
        (6, 2), (1, 3), (6, 7), (7, 3), (3, 7), (5, 7), (2, 3),
    ], {}),
    ("cut_through", 4): ((1, 0), [
        (0, 1), (1, 0), (2, 0), (3, 1), (4, 0), (5, 4), (6, 4), (7, 5),
        (0, 2), (0, 4), (4, 6), (4, 5), (1, 5), (2, 6), (3, 2), (5, 1),
        (6, 2), (1, 3), (6, 7), (7, 3), (3, 7), (2, 3), (5, 7),
    ], {1: 22, 2: 19, 3: 10, 4: 2}),
}


@pytest.mark.parametrize("mode,length", sorted(ZERO_DELAY_PINS))
def test_zero_delay_order_is_pinned(mode, length):
    net = Hypercube(3)
    msgs = uniform(net, rate=1.0, duration=6, seed=2)
    kwargs = dict(
        default_delay=0, router_overhead=0, mode=mode, message_length=length
    )
    fast = simulate_fast(net, msgs, **kwargs)
    busiest, order, depths = ZERO_DELAY_PINS[mode, length]
    assert fast.busiest_link == busiest
    assert list(fast.link_utilization) == order
    assert fast.queue_depth_hist == depths
    # Latencies and per-link totals still match the oracle.
    oracle = simulate(net, msgs, **kwargs)
    assert fast.latency_hist == oracle.latency_hist
    assert fast.makespan == oracle.makespan
    assert fast.link_utilization == oracle.link_utilization


class TestErrorParity:
    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            simulate_fast(Ring(4), [(0, 1)], mode="teleport")

    def test_bad_length(self):
        with pytest.raises(ValueError, match="message_length"):
            simulate_fast(Ring(4), [(0, 1)], message_length=0)

    def test_runaway_guard(self):
        net = Ring(5)
        msgs = make_workload("adversarial", net, seed=1)
        with pytest.raises(RuntimeError, match="max_cycles"):
            simulate_fast(net, msgs, max_cycles=2)
