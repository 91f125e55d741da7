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
from typing import Hashable

from repro import obs
from repro.grid.layout import GridLayout
from repro.topology.base import Network

__all__ = ["LayoutMetrics", "measure", "wire_length_weights", "weighted_diameter"]


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


def wire_length_weights(layout: GridLayout) -> dict[Hashable, list[tuple[Hashable, int]]]:
    """Adjacency with wire-length weights, from the routed layout.

    Parallel wires keep the shortest routed length per node pair.
    """
    adj: dict[Hashable, dict[Hashable, int]] = {}
    table = layout.wire_table()
    for u, v, wlen in zip(table.wire_u, table.wire_v, table.wire_lengths()):
        best = adj.setdefault(u, {})
        if v not in best or wlen < best[v]:
            best[v] = wlen
        best2 = adj.setdefault(v, {})
        if u not in best2 or wlen < best2[u]:
            best2[u] = wlen
    return {u: list(nbrs.items()) for u, nbrs in adj.items()}


def _dijkstra_far(
    adj: dict, source: Hashable
) -> int:
    dist = {source: 0}
    heap = [(0, 0, source)]
    tiebreak = 0
    far = 0
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist.get(u, float("inf")):
            continue
        far = max(far, d)
        for v, wlen in adj.get(u, ()):  # pragma: no branch
            nd = d + wlen
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                tiebreak += 1
                heapq.heappush(heap, (nd, tiebreak, v))
    return far


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
            best = max(best, _dijkstra_far(adj, s))
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
