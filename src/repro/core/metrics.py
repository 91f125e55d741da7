"""Measured layout metrics, including routing-path wire length.

Claim (4) of the paper's introduction concerns "the maximum total
length of wires along the routing path between any source-destination
pair": pick, for every node pair, the route minimizing total wire
length (over the layout's routed edges), and take the worst pair --
i.e. the weighted diameter of the network under wire-length edge
weights.  :func:`measure` computes it exactly via Dijkstra for small
networks and samples sources for large ones.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Hashable

from repro import obs
from repro.grid.layout import GridLayout
from repro.topology.base import Network

__all__ = [
    "LayoutMetrics",
    "measure",
    "wire_length_weights",
    "wire_distances",
    "weighted_diameter",
]


@dataclass(frozen=True, slots=True)
class LayoutMetrics:
    """A complete metrics snapshot for one layout."""

    name: str
    num_nodes: int
    layers: int
    width: int
    height: int
    area: int
    volume: int
    max_wire: int
    total_wire: int
    path_wire: int | None = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "N": self.num_nodes,
            "L": self.layers,
            "width": self.width,
            "height": self.height,
            "area": self.area,
            "volume": self.volume,
            "max_wire": self.max_wire,
            "total_wire": self.total_wire,
            "path_wire": self.path_wire,
        }


def wire_length_weights(
    layout: GridLayout, weight: Callable[[int], float] | None = None
) -> dict[Hashable, list[tuple[Hashable, float]]]:
    """Adjacency with per-wire weights, from the routed layout.

    A wire weighs ``weight(length)`` (its routed length by default);
    parallel wires keep the lightest weight per node pair.
    """
    adj: dict[Hashable, dict[Hashable, float]] = {}
    table = layout.wire_table()
    for u, v, wlen in zip(table.wire_u, table.wire_v, table.wire_lengths()):
        w = wlen if weight is None else weight(wlen)
        for a, b in ((u, v), (v, u)):
            best = adj.setdefault(a, {})
            if b not in best or w < best[b]:
                best[b] = w
    return {u: list(nbrs.items()) for u, nbrs in adj.items()}


def wire_distances(adj: dict, source: Hashable) -> dict[Hashable, float]:
    """Dijkstra over ``adj``: the distance from ``source`` to every node
    it reaches, in discovery order (``source`` first, at 0)."""
    dist = {source: 0}
    heap = [(0, 0, source)]
    tie = 0
    inf = float("inf")
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, inf):
                dist[v] = nd
                tie += 1
                heapq.heappush(heap, (nd, tie, v))
    return dist


def weighted_diameter(
    layout: GridLayout, *, max_sources: int | None = None
) -> int:
    """Max over source nodes of the farthest wire-length distance.

    With ``max_sources`` set, sources are subsampled deterministically
    (every ceil(N/max_sources)-th node), giving a lower bound that is
    exact for vertex-transitive networks (every family in the paper).
    """
    with obs.span("weighted_diameter") as sp:
        adj = wire_length_weights(layout)
        nodes = list(layout.placements)
        if max_sources is not None and len(nodes) > max_sources:
            step = -(-len(nodes) // max_sources)
            nodes = nodes[::step]
        best = 0
        for s in nodes:
            best = max(best, max(wire_distances(adj, s).values()))
        sp.add("sources", len(nodes))
    obs.count("measure.dijkstra_sources", len(nodes))
    return best


def measure(
    layout: GridLayout,
    network: Network | None = None,
    *,
    path_wire: bool = False,
    max_sources: int | None = 64,
) -> LayoutMetrics:
    """Collect measured metrics for ``layout``.

    ``path_wire=True`` additionally computes the weighted diameter
    (claim (4)); ``network`` is accepted for signature symmetry with
    prediction calls and future routing models but the weights come
    from the layout itself.
    """
    with obs.span(
        "measure",
        name=str(layout.meta.get("name", "layout")),
        path_wire=path_wire,
    ):
        bb = layout.bounding_box()
        pw = None
        if path_wire:
            pw = weighted_diameter(layout, max_sources=max_sources)
        max_wire = layout.max_wire_length()
        total_wire = layout.total_wire_length()
    obs.count("measure.layouts_measured")
    return LayoutMetrics(
        name=str(layout.meta.get("name", "layout")),
        num_nodes=len(layout.placements),
        layers=layout.layers,
        width=bb.w,
        height=bb.h,
        area=bb.w * bb.h,
        volume=layout.layers * bb.w * bb.h,
        max_wire=max_wire,
        total_wire=total_wire,
        path_wire=pw,
    )
