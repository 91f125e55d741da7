"""Routing algorithms over the paper's networks and layouts.

Dimension-order (e-cube) routing is the standard deadlock-free router
for the digit networks the paper lays out: correct one digit at a time,
most significant first.  For arbitrary networks (or to exploit the
layout), :func:`shortest_hop_routes` and :func:`min_wire_routes` build
routing tables by BFS / Dijkstra.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Hashable

from repro.grid.layout import GridLayout
from repro.topology.base import Network
from repro.topology.ghc import GeneralizedHypercube
from repro.topology.hypercube import Hypercube
from repro.topology.kary import KAryNCube

__all__ = [
    "dimension_order_route",
    "shortest_hop_routes",
    "min_wire_routes",
    "layout_link_delays",
    "RoutingTable",
]

Node = Hashable


def dimension_order_route(network: Network, src: Node, dst: Node) -> list[Node]:
    """The e-cube route from ``src`` to ``dst``: fix digits from most
    significant down, moving monotonically within each dimension.

    Supports :class:`Hypercube`, :class:`KAryNCube` (torus: shortest
    way around each ring) and :class:`GeneralizedHypercube` (one hop
    per differing digit).  Returns the node sequence, inclusive.
    """
    if isinstance(network, Hypercube):
        path = [src]
        cur = src
        for bit in reversed(range(network.n)):
            if (cur ^ dst) >> bit & 1:
                cur ^= 1 << bit
                path.append(cur)
        return path
    if isinstance(network, GeneralizedHypercube):
        path = [src]
        cur = list(src)
        for i in range(network.n):
            if cur[i] != dst[i]:
                cur[i] = dst[i]
                path.append(tuple(cur))
        return path
    if isinstance(network, KAryNCube):
        k = network.k
        path = [src]
        cur = list(src)
        for i in range(network.n):
            a, b = cur[i], dst[i]
            if a == b:
                continue
            fwd = (b - a) % k
            back = (a - b) % k
            if network.wraparound and k > 2:
                step = 1 if fwd <= back else -1
            else:
                step = 1 if b > a else -1
            while cur[i] != b:
                cur[i] = (cur[i] + step) % k if network.wraparound else cur[i] + step
                path.append(tuple(cur))
        return path
    raise TypeError(
        f"dimension-order routing is undefined for {type(network).__name__}; "
        "use shortest_hop_routes"
    )


@dataclass(slots=True)
class RoutingTable:
    """All-pairs routes, stored as parent maps per destination."""

    network: Network
    parent: dict[Node, dict[Node, Node]] = field(default_factory=dict)

    def route(self, src: Node, dst: Node) -> list[Node]:
        """The stored route src -> dst (node sequence, inclusive)."""
        if src == dst:
            return [src]
        par = self.parent[dst]
        path = [src]
        cur = src
        while cur != dst:
            cur = par[cur]
            path.append(cur)
        return path


def shortest_hop_routes(
    network: Network,
    *,
    failed_links: set[tuple[Node, Node]] | None = None,
) -> RoutingTable:
    """BFS routing table: minimum hop count to every destination.

    ``failed_links`` removes edges (either orientation) before routing
    -- the fault-tolerance scenario networks like the folded hypercube
    (ref. [1]) exist for.  Unreachable pairs simply have no route; the
    table's ``route`` raises ``KeyError`` for them.
    """
    dead: set[frozenset] = set()
    if failed_links:
        dead = {frozenset(e) for e in failed_links}

    table = RoutingTable(network)
    for dst in network.nodes:
        nxt: dict[Node, Node] = {}
        dist = {dst: 0}
        queue = deque([dst])
        while queue:
            u = queue.popleft()
            for w in network.adjacency[u]:
                if dead and frozenset((u, w)) in dead:
                    continue
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt[w] = u  # first hop from w toward dst
                    queue.append(w)
        table.parent[dst] = nxt
    return table


def layout_link_delays(
    layout: GridLayout, *, alpha: float = 1.0, base: float = 1.0
) -> dict[tuple[Node, Node], int]:
    """Per-link integer delays derived from routed wire lengths.

    delay = ceil(base + alpha * length); parallel wires keep the
    fastest.  Keys are ordered pairs in both directions.  The per-wire
    delays come from the layout's :class:`~repro.grid.table.WireTable`
    in one vectorized pass, so a simulator run's setup precomputes all
    link delays without walking any per-wire segment objects.
    """
    out: dict[tuple[Node, Node], int] = {}
    table = layout.wire_table()
    delays = table.link_delay_values(alpha=alpha, base=base)
    for u, v, d in zip(table.wire_u, table.wire_v, delays):
        for key in ((u, v), (v, u)):
            if key not in out or d < out[key]:
                out[key] = d
    return out


def min_wire_routes(network: Network, layout: GridLayout) -> RoutingTable:
    """Dijkstra routing table under layout wire-length link weights."""
    delays = layout_link_delays(layout)
    table = RoutingTable(network)
    for dst in network.nodes:
        nxt: dict[Node, Node] = {}
        dist: dict[Node, float] = {dst: 0.0}
        heap = [(0.0, 0, dst)]
        tie = 0
        while heap:
            d, _, u = heapq.heappop(heap)
            if d > dist.get(u, float("inf")):
                continue
            for w in network.adjacency[u]:
                nd = d + delays[(w, u)]
                if nd < dist.get(w, float("inf")):
                    dist[w] = nd
                    nxt[w] = u
                    tie += 1
                    heapq.heappush(heap, (nd, tie, w))
        table.parent[dst] = nxt
    return table
