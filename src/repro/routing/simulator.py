"""Cycle-driven store-and-forward network simulator.

Each link (directed edge) carries one message at a time and takes an
integer delay per traversal -- by default the layout-derived wire delay
of :func:`repro.routing.paths.layout_link_delays`, which is how the
paper's geometry becomes performance.  Simulation setup precomputes
every link delay in one vectorized pass over the layout's
:class:`~repro.grid.table.WireTable`, so even a large layout's delay
map costs one array ceil, not a walk of its wire objects.  Messages
follow precomputed
routes; contended links serve waiters in deterministic FIFO order, so
simulations are exactly reproducible.

This per-packet loop is the **oracle**: the batched engine in
:mod:`repro.routing.engine` reproduces its results field-for-field and
is differential-tested against it (``tests/test_engine_parity.py``,
the ``traffic`` fuzz stage).  Link delays, per-hop costs and result
finalization are shared by both drivers so they cannot drift.  Routes
are not: with ``router=None`` the oracle routes with its own dict BFS
over node labels, while the engine walks the integer next-hop array of
:func:`repro.routing.paths.shortest_hop_routes`, so the parity checks
also cross-check two independent route computations.

Latency summaries flow through a :class:`repro.obs.metrics.Histogram`
(``LATENCY_BOUNDS`` power-of-two edges): ``avg_latency`` is the
histogram mean and the percentile fields interpolate its buckets, so
``repro watch``, run reports, and the Prometheus exporter all agree
with the numbers the engines print.

The results quantify the introduction's claim chain: shorter wires
(multilayer layout) -> smaller link delays -> lower message latency and
makespan for the same traffic.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro import obs
from repro.grid.layout import GridLayout
from repro.obs.metrics import Histogram
from repro.routing.paths import RoutingTable, layout_link_delays
from repro.topology.base import Network

__all__ = ["SimulationResult", "simulate", "LATENCY_BOUNDS"]

Node = Hashable
Message = tuple[Node, Node]

#: Bucket edges for the shared latency histogram: powers of two up to
#: 2^20 cycles, wide enough that paper-scale simulations never spill
#: into the overflow bucket (which would coarsen percentiles).
LATENCY_BOUNDS = tuple(2 ** k for k in range(21))


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """Outcome of one traffic run.

    ``link_utilization`` maps each used directed link to the fraction
    of the makespan it was busy; ``queue_depth_hist`` counts, for every
    wait event (a message finding its next link busy), how many
    messages were then queued on that link -- ``{depth: events}``.
    ``latency_hist`` is the :meth:`repro.obs.metrics.Histogram.as_dict`
    snapshot of per-message latencies; ``avg_latency`` is its mean and
    the ``latency_p*`` properties interpolate its buckets, so every
    reporting surface (CLI tables, run reports, Prometheus) quotes the
    same distribution.  All of it is also published to the
    :mod:`repro.obs` metrics registry when observability is enabled.
    """

    makespan: int
    avg_latency: float
    max_latency: int
    messages: int
    max_link_load: int
    busiest_link: tuple[Node, Node] | None
    link_utilization: dict[tuple[Node, Node], float] = field(
        default_factory=dict
    )
    queue_depth_hist: dict[int, int] = field(default_factory=dict)
    latency_hist: dict = field(default_factory=dict)

    @property
    def max_utilization(self) -> float:
        return max(self.link_utilization.values(), default=0.0)

    @property
    def avg_utilization(self) -> float:
        u = self.link_utilization
        return sum(u.values()) / len(u) if u else 0.0

    def latency_percentile(self, q: float) -> float:
        """Bucket-interpolated latency quantile (``0 < q <= 1``)."""
        if not self.latency_hist:
            return 0.0
        return Histogram.from_dict(self.latency_hist).percentile(q)

    @property
    def latency_p50(self) -> float:
        return self.latency_percentile(0.50)

    @property
    def latency_p90(self) -> float:
        return self.latency_percentile(0.90)

    @property
    def latency_p99(self) -> float:
        return self.latency_percentile(0.99)

    def as_dict(self) -> dict:
        return {
            "makespan": self.makespan,
            "avg_latency": self.avg_latency,
            "max_latency": self.max_latency,
            "latency_p50": self.latency_p50,
            "latency_p90": self.latency_p90,
            "latency_p99": self.latency_p99,
            "messages": self.messages,
            "max_link_load": self.max_link_load,
            "busiest_link": self.busiest_link,
            "max_utilization": self.max_utilization,
            "avg_utilization": self.avg_utilization,
            "queue_depth_hist": dict(self.queue_depth_hist),
        }


@dataclass(slots=True)
class _Msg:
    idx: int
    route: list
    hop: int = 0
    start: int = 0
    done: int | None = None
    waiting_on: tuple | None = None


# ---------------------------------------------------------------------------
# Setup and finalization shared with repro.routing.engine.  Both drivers
# must resolve delays, hop costs and results through these helpers --
# parity is tested field-for-field, and a second copy of any of this
# logic is where drift would start.  Routing is the deliberate
# exception: _bfs_router and _build_routes serve the oracle only.


def _resolve_link_delay(
    layout: GridLayout | None,
    link_delay: dict[tuple[Node, Node], int] | None,
) -> dict[tuple[Node, Node], int]:
    if link_delay is not None:
        return link_delay
    if layout is not None:
        return layout_link_delays(layout)
    return {}


def _bfs_router(network: Network) -> Callable[[Node, Node], list]:
    """The oracle's shortest-hop router: a FIFO BFS per destination over
    node labels, kept apart from :class:`RoutingTable` on purpose."""
    parent: dict[Node, dict[Node, Node]] = {}
    for dst in network.nodes:
        nxt: dict[Node, Node] = {}
        seen = {dst}
        queue = deque([dst])
        while queue:
            u = queue.popleft()
            for w in network.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    nxt[w] = u  # first hop from w toward dst
                    queue.append(w)
        parent[dst] = nxt

    def route(src: Node, dst: Node) -> list[Node]:
        if src == dst:
            return [src]
        par = parent[dst]
        path = [src]
        cur = src
        while cur != dst:
            cur = par[cur]
            path.append(cur)
        return path

    return route


def _build_routes(
    network: Network,
    messages: list[Message],
    router: RoutingTable | Callable[[Node, Node], list] | None,
) -> tuple[list[list], list[int]]:
    """Resolve every message to ``(routes, start_cycles)``.

    Messages are ``(src, dst)`` pairs injected at cycle 0, or timed
    ``(src, dst, start_cycle)`` triples.
    """
    if router is None:
        get_route = _bfs_router(network)
    elif isinstance(router, RoutingTable):
        get_route = router.route
    else:
        get_route = router
    routes: list[list] = []
    starts: list[int] = []
    # Memoize per (src, dst): high-load workloads repeat pairs heavily
    # and routers are deterministic functions of the endpoints.  Routes
    # are shared read-only downstream, so aliasing is safe.
    memo: dict[tuple[Node, Node], list] = {}
    for msg in messages:
        if len(msg) == 3:
            src, dst, start = msg  # timed injection
        else:
            src, dst = msg
            start = 0
        key = (src, dst)
        r = memo.get(key)
        if r is None:
            memo[key] = r = get_route(src, dst)
        routes.append(r)
        starts.append(start)
    for r in routes:
        if len(r) < 1:
            raise ValueError("empty route")
    return routes, starts


def _hop_costs(
    link_delay: dict[tuple[Node, Node], int],
    default_delay: int,
    router_overhead: int,
    mode: str,
    message_length: int,
) -> Callable[[Node, Node], tuple[int, int]]:
    """Validate mode/length; return ``(u, v) -> (advance, busy)``."""
    if mode not in ("store_forward", "cut_through"):
        raise ValueError(f"unknown mode {mode!r}")
    if message_length < 1:
        raise ValueError("message_length >= 1")

    def delay_of(u: Node, v: Node) -> tuple[int, int]:
        """(header advance delay, link busy time) for one hop."""
        wire = link_delay.get((u, v), default_delay)
        if mode == "store_forward":
            d = wire * message_length + router_overhead
            return d, d
        # cut-through: header takes wire+router; the link streams the
        # body for message_length cycles.
        return wire + router_overhead, max(wire + router_overhead,
                                           message_length)

    return delay_of


def _finalize_result(
    *,
    makespan: int,
    lat_hist: Histogram,
    n_messages: int,
    link_load: dict[tuple[Node, Node], int],
    link_busy_time: dict[tuple[Node, Node], int],
    depth_hist: dict[int, int],
    events: int,
) -> SimulationResult:
    """Fold raw per-run tallies into a :class:`SimulationResult`.

    ``link_load`` must be insertion-ordered by first acquisition: the
    busiest-link tie-break is "first link to reach the max load", which
    the oracle gets for free from dict insertion order and the engine
    reproduces with explicit first-use sequencing.
    """
    busiest = max(link_load, key=link_load.__getitem__) if link_load else None
    # Busy fractions clip at 1.0: the last transit may overrun the
    # makespan (its message already arrived; the tail streams on).
    link_utilization = {
        link: min(1.0, busy / makespan) if makespan else 0.0
        for link, busy in link_busy_time.items()
    }
    if obs.enabled():
        obs.count("simulator.runs")
        obs.count("simulator.events", events)
        obs.count("simulator.messages", n_messages)
        obs.count("simulator.hops", sum(link_load.values()))
        reg = obs.registry()
        reg.histogram(
            "simulator.link_utilization", (0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
        ).observe_many(link_utilization.values())
        reg.histogram("simulator.queue_depth").observe_many(
            depth
            for depth, times in depth_hist.items()
            for _ in range(times)
        )
        reg.histogram("simulator.latency", LATENCY_BOUNDS).merge_dict(
            lat_hist.as_dict()
        )
    return SimulationResult(
        makespan=makespan,
        avg_latency=lat_hist.mean,
        max_latency=int(lat_hist.max) if lat_hist.count else 0,
        messages=n_messages,
        max_link_load=link_load.get(busiest, 0) if busiest else 0,
        busiest_link=busiest,
        link_utilization=link_utilization,
        queue_depth_hist=depth_hist,
        latency_hist=lat_hist.as_dict(),
    )


def simulate(
    network: Network,
    messages: list[Message],
    *,
    layout: GridLayout | None = None,
    router: RoutingTable | Callable[[Node, Node], list] | None = None,
    link_delay: dict[tuple[Node, Node], int] | None = None,
    default_delay: int = 1,
    router_overhead: int = 1,
    mode: str = "store_forward",
    message_length: int = 1,
    max_cycles: int = 10_000_000,
) -> SimulationResult:
    """Run ``messages`` through the network.

    Parameters
    ----------
    layout:
        If given (and ``link_delay`` is not), link delays come from the
        routed wire lengths; otherwise every link costs
        ``default_delay``.
    router:
        A :class:`RoutingTable`, a callable ``(src, dst) -> route``, or
        ``None`` for shortest-hop BFS routes.
    router_overhead:
        Extra cycles per hop (switch traversal).
    mode:
        ``"store_forward"`` -- a link holds the whole message for its
        full transit (busy = wire delay x message length);
        ``"cut_through"`` -- the header pipelines ahead while the body
        streams (per-hop header latency = wire delay + router; link
        busy only for the serialization time, and the tail lands
        ``message_length - 1`` cycles after the header).  The classic
        latency models: SF ~ hops * L * d;  CT ~ hops * d + L.
    message_length:
        Message size in flits (serialization units).

    Messages are ``(src, dst)`` pairs injected at cycle 0, or timed
    ``(src, dst, start_cycle)`` triples -- the form rate sweeps use to
    draw latency-vs-load curves.
    """
    link_delay = _resolve_link_delay(layout, link_delay)
    routes, starts = _build_routes(network, messages, router)
    msgs = [
        _Msg(idx=i, route=route, start=start)
        for i, (route, start) in enumerate(zip(routes, starts))
    ]
    delay_of = _hop_costs(
        link_delay, default_delay, router_overhead, mode, message_length
    )

    # Event queue: (time, msg_idx) = message ready to take its next hop.
    # Links are busy until a recorded time; FIFO waiters by (arrival,
    # message index) via re-push with the link's free time.
    events: list[tuple[int, int]] = [(m.start, m.idx) for m in msgs]
    heapq.heapify(events)
    link_free: dict[tuple[Node, Node], int] = {}
    link_load: dict[tuple[Node, Node], int] = {}
    link_busy_time: dict[tuple[Node, Node], int] = {}
    waiters: dict[tuple[Node, Node], int] = {}
    depth_hist: dict[int, int] = {}
    finished = 0
    makespan = 0
    lat_hist = Histogram(LATENCY_BOUNDS)

    with obs.span(
        "simulate", messages=len(msgs), mode=mode,
        message_length=message_length,
    ) as sp:
        guard = 0
        while events:
            guard += 1
            if guard > max_cycles:
                raise RuntimeError("simulation exceeded max_cycles")
            t, idx = heapq.heappop(events)
            m = msgs[idx]
            if m.hop >= len(m.route) - 1:
                if m.done is None:
                    # Cut-through: the tail arrives message_length - 1
                    # cycles after the header (body streaming).
                    tail = message_length - 1 if mode == "cut_through" else 0
                    if len(m.route) == 1:
                        tail = 0
                    m.done = t + tail
                    finished += 1
                    makespan = max(makespan, m.done)
                    lat_hist.observe(m.done - m.start)
                continue
            u, v = m.route[m.hop], m.route[m.hop + 1]
            link = (u, v)
            free_at = link_free.get(link, 0)
            if t < free_at:
                if m.waiting_on != link:
                    m.waiting_on = link
                    depth = waiters.get(link, 0) + 1
                    waiters[link] = depth
                    depth_hist[depth] = depth_hist.get(depth, 0) + 1
                heapq.heappush(events, (free_at, idx))
                continue
            if m.waiting_on is not None:
                waiters[m.waiting_on] -= 1
                m.waiting_on = None
            d, busy = delay_of(u, v)
            link_free[link] = t + busy
            link_busy_time[link] = link_busy_time.get(link, 0) + busy
            link_load[link] = link_load.get(link, 0) + 1
            m.hop += 1
            heapq.heappush(events, (t + d, idx))
        sp.add("events", guard)

    if finished != len(msgs):
        raise RuntimeError("simulation ended with unfinished messages")
    return _finalize_result(
        makespan=makespan,
        lat_hist=lat_hist,
        n_messages=len(msgs),
        link_load=link_load,
        link_busy_time=link_busy_time,
        depth_hist=depth_hist,
        events=guard,
    )
