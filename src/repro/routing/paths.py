"""Routing algorithms over the paper's networks and layouts.

Dimension-order (e-cube) routing is the standard deadlock-free router
for the digit networks the paper lays out: correct one digit at a time,
most significant first.  For arbitrary networks,
:func:`shortest_hop_routes` builds routing tables by BFS.

A :class:`RoutingTable` lives on integer node ids 0..N-1: an N x N
next-hop array, built for every destination at once by a
level-synchronous BFS over a CSR adjacency.  It is what
:func:`repro.routing.simulate_fast` walks to route its messages.  The
per-packet oracle does not share it: :mod:`repro.routing.simulator`
keeps its own dict BFS, so the parity checks compare two independent
route computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro import obs
from repro.grid.layout import GridLayout
from repro.topology.base import Network
from repro.topology.ghc import GeneralizedHypercube
from repro.topology.hypercube import Hypercube
from repro.topology.kary import KAryNCube

__all__ = [
    "dimension_order_route",
    "shortest_hop_routes",
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
    """All-pairs routes as a next-hop array over node ids.

    Node ``i`` is ``nodes[i]``.  ``next_hop[d, u]`` is the id of the
    first hop from ``u`` toward destination ``d``: ``d`` itself when
    ``u == d``, ``-1`` when ``d`` is unreachable from ``u``.  The
    engine walks this array for all messages at once; :meth:`route`
    walks one row for one pair.
    """

    nodes: list[Node]
    next_hop: np.ndarray
    index: dict[Node, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.index = {v: i for i, v in enumerate(self.nodes)}

    def route(self, src: Node, dst: Node) -> list[Node]:
        """The stored route src -> dst (node sequence, inclusive).

        Raises ``KeyError`` for an unknown node or an unreachable pair.
        """
        if src == dst:
            return [src]
        d = self.index[dst]
        cur = self.index[src]
        row = self.next_hop[d]
        nodes = self.nodes
        path = [src]
        while cur != d:
            cur = int(row[cur])
            if cur < 0:
                raise KeyError((src, dst))
            path.append(nodes[cur])
        return path


def _neighbour_matrix(
    network: Network, dead: set[frozenset] | None = None
) -> np.ndarray:
    """The network's neighbours as an ``(n, width)`` matrix of node
    ids, each row in :attr:`Network.adjacency` order without the
    ``dead`` links, padded with the sentinel ``n``."""
    indptr, indices = _adjacency_csr(network, dead)
    n = network.num_nodes
    deg = np.diff(indptr)
    width = max(int(deg.max(initial=0)), 1)
    rows = np.repeat(np.arange(n), deg)
    nbr = np.full((n, width), n, np.int32)
    nbr[rows, np.arange(indices.size) - indptr[rows]] = indices
    return nbr


def _adjacency_csr(
    network: Network, dead: set[frozenset] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of the network's adjacency over node ids,
    in :attr:`Network.adjacency` order, without the ``dead`` links."""
    adj = network.adjacency
    index = network.index
    indptr = [0]
    indices: list[int] = []
    for u in network.nodes:
        for w in adj[u]:
            if dead and frozenset((u, w)) in dead:
                continue
            indices.append(index[w])
        indptr.append(len(indices))
    return np.array(indptr, np.int64), np.array(indices, np.int64)


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

    One level-synchronous BFS runs for every destination at once.  Each
    level expands its frontier in (destination, queue rank, adjacency
    position) order and keeps the first candidate per (destination,
    node), which is exactly the parent a FIFO queue BFS from that
    destination would pick.
    """
    with obs.span("routing.table", nodes=network.num_nodes):
        nodes = list(network.nodes)
        n = len(nodes)
        dead = {frozenset(e) for e in failed_links} if failed_links else None
        nbr = _neighbour_matrix(network, dead)
        width = nbr.shape[1]
        # Next hops live in an n x (n + 1) array: column n is the
        # sentinel the neighbour matrix pads with, set to read visited.
        # Keys and candidate ranks stay below n * m * width.
        m = n + 1
        dtype = np.int32 if n * m * width < 2**31 else np.int64
        nh = np.full((n, m), -1, dtype)
        ids = np.arange(n, dtype=dtype)
        nh[ids, ids] = ids
        nh[:, n] = n
        nh = nh.reshape(-1)
        # The frontier holds one entry per (destination, node) pair,
        # ordered by (destination, queue rank); ``f_base`` is
        # destination * m, the row offset of its next-hop entries.
        f_node = ids
        f_base = ids * m
        # first[key]: the lowest candidate rank of ``key`` in its level.
        # Every key a level touches gets its next hop in that level, so
        # it never comes back and the entry needs no reset.
        first = np.full(n * m, np.iinfo(dtype).max, dtype)
        while f_node.size:
            # Candidates: every neighbour of every frontier entry, in
            # (frontier, adjacency position) order, as one 2-D gather.
            key = (nbr[f_node] + f_base[:, None]).reshape(-1)
            fresh = np.flatnonzero(nh[key] < 0)
            key = key[fresh]
            # Keep the first candidate per (destination, node) key.
            order = np.arange(key.size, dtype=dtype)
            np.minimum.at(first, key, order)
            keep = first[key] == order
            key = key[keep]
            nh[key] = f_node[fresh[keep] // width]
            f_node = key % m
            f_base = key - f_node
        next_hop = nh.reshape(n, m)[:, :n].astype(np.int32)
        return RoutingTable(nodes, next_hop)


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
