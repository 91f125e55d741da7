"""Two-sided collinear layouts: tracks above *and* below the node row.

The paper's collinear layouts (Figures 2-4) put every track above the
node line.  The classical two-sided variant splits the tracks between
an upper and a lower channel.  Total height is unchanged (the tracks
still all exist), but the channel *depth* halves: no track sits more
than ~T/2 lines from the node row, so the vertical runs of the wires
shrink -- measured, ~15% off the max wire and ~25% off the total wire
length for K_9 and the 5-cube.  The paper does not use it (its 2-D
scheme keeps the bottom side free for the strips of cluster blocks),
so this lives here as an ablation/extension; the emitted
:class:`~repro.grid.layout.GridLayout` passes the full validator.

Track assignment: pack once with left-edge (optimal, T = max cut), then
send even-numbered tracks up and odd-numbered tracks down.  Within each
side the relative track order is preserved, so in-track interval
disjointness carries over, and pin ordering per side follows the same
arrivals-before-departures rule as the orthogonal builder.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.collinear.engine import collinear_layout
from repro.core.multilayer import LayerGroups
from repro.grid.geometry import Rect
from repro.grid.layout import GridLayout, Placement
from repro.grid.table import WireTable
from repro.topology.base import Network, Node

__all__ = ["two_sided_collinear_layout"]


def two_sided_collinear_layout(
    network: Network,
    *,
    layers: int = 2,
    order: Sequence[Node] | None = None,
    node_side: int | None = None,
) -> GridLayout:
    """Collinear layout with upper/lower channels (see module doc)."""
    seq = list(order) if order is not None else list(network.nodes)
    lay = collinear_layout(network.nodes, network.edges, seq)
    side = node_side if node_side is not None else max(network.max_degree, 1)

    # Split tracks by parity; renumber within each side.
    upper: dict[int, int] = {}
    lower: dict[int, int] = {}
    for t in range(lay.num_tracks):
        if t % 2 == 0:
            upper[t] = len(upper)
        else:
            lower[t] = len(lower)
    g_up = LayerGroups(max(len(upper), 1), layers)
    g_dn = LayerGroups(max(len(lower), 1), layers)
    up_extent = g_up.physical_extent() if upper else 0
    dn_extent = g_dn.physical_extent() if lower else 0

    node_y = up_extent  # node row sits below the upper channel
    pos = {v: i for i, v in enumerate(seq)}
    placements = {
        v: Placement(v, Rect(pos[v] * side, node_y, side, side)) for v in seq
    }

    # Pin allocation per node per side, honoring arrival/departure order.
    pins: dict[tuple[Node, str], dict[int, int]] = {}

    # Phase 1: collect requests per (node, side).
    requests: dict[tuple[Node, str], list[tuple[tuple, int]]] = {}
    edge_side: dict[int, str] = {}
    for e, (u, v) in enumerate(lay.edges):
        t = lay.tracks[e]
        side_name = "top" if t in upper else "bottom"
        edge_side[e] = side_name
        lo, hi = lay.interval(e)
        for node, mine, other in ((u, pos[u], pos[v]), (v, pos[v], pos[u])):
            direction = 0 if other < mine else 1
            requests.setdefault((node, side_name), []).append(
                ((direction, other, e), e)
            )
    for key, reqs in requests.items():
        reqs.sort(key=lambda r: r[0])
        table = pins.setdefault(key, {})
        if len(reqs) > side:
            raise ValueError(
                f"node {key[0]!r} needs {len(reqs)} {key[1]} pins but the "
                f"square offers {side}; raise node_side"
            )
        for off, (_, e) in enumerate(reqs):
            table[e] = off

    # Phase 2: route, three oriented rows per edge (u pin, track, v pin).
    paths = []
    for e, (u, v) in enumerate(lay.edges):
        t = lay.tracks[e]
        side_name = edge_side[e]
        if side_name == "top":
            slot = g_up.slot(upper[t])
            y_t = slot.offset
            y_pin = node_y
        else:
            slot = g_dn.slot(lower[t])
            y_t = node_y + side + 1 + slot.offset
            y_pin = node_y + side
        xu = pos[u] * side + pins[(u, side_name)][e]
        xv = pos[v] * side + pins[(v, side_name)][e]
        paths += [
            (xu, y_pin, xu, y_t, slot.v_layer),
            (xu, y_t, xv, y_t, slot.h_layer),
            (xv, y_t, xv, y_pin, slot.v_layer),
        ]
    m = len(lay.edges)
    table = WireTable.from_paths(
        paths, range(0, 3 * m + 1, 3), [u for u, _ in lay.edges],
        [v for _, v in lay.edges], range(m), placements,
    )
    return GridLayout(
        layers, placements, table,
        meta={
            "scheme": "two-sided-collinear",
            "name": f"two-sided collinear {network.name} L={layers}",
            "tracks": lay.num_tracks,
            "upper_tracks": len(upper),
            "lower_tracks": len(lower),
            "upper_extent": up_extent,
            "lower_extent": dn_extent,
            "node_side": side,
        },
    )
