"""Multilayer 3-D grid layouts: deck stacking with riser wires.

Section 2.2 defines the multilayer *3-D* grid model (nodes embedded in
``L_A`` active layers) and Section 2.3 notes the recursive grid scheme
may arrange blocks "as a 3-D grid for the 3-D layout model".  The paper
defers concrete 3-D layouts to future work; this module provides the
natural construction for product networks, staying strictly inside the
paper's model:

For ``G = (A x B) x C``:

1. each node ``z`` of C becomes a *deck*: a 2-D orthogonal layout of
   the ``A x B`` slice, placed on its own band of ``L' = 2
   floor(L/(2 |C|))`` wiring layers with its nodes on the band's first
   layer (so ``L_A = |C|`` active layers);
2. every C-edge ``(z1, z2)`` becomes, per planar position, a **riser**:
   a pure z-direction wire at a reserved pin point of the two aligned
   nodes.  Riser pin abscissae are assigned by a greedy edge coloring
   of C, so that the two endpoints of each riser agree on the pin
   offset while incident C-edges at one node get distinct pins.

Legality is structural: decks are planar-identical, so the set of free
(unused) pin offsets is identical on every deck; risers use only free
offsets, hence no vertical deck wiring shares their abscissae, and no
horizontal deck wiring runs along the node-row top edge where risers
puncture the stack.  Every layout is checked by the standard validator.

The payoff measured by the E8 bench: against the 2-D layout of the same
product network, the 3-D layout trades a taller stack for a much
smaller footprint -- the "volume and wire length" economics that
motivate the multilayer 3-D model.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.schemes import layout_grid
from repro.grid.layout import GridLayout, Placement
from repro.grid.table import WireTable
from repro.topology.base import Network, build_network
from repro.topology.product import ProductNetwork

__all__ = ["layout_product_3d", "greedy_edge_coloring"]


def greedy_edge_coloring(network: Network) -> dict[tuple, int]:
    """Color edges so incident edges differ; returns edge -> color.

    Greedy over canonical edge order: at most 2*maxdeg - 1 colors
    (typically maxdeg or maxdeg+1 on the small factor graphs used as
    stacking dimensions).
    """
    colors: dict[tuple, int] = {}
    incident: dict[Hashable, set[int]] = {v: set() for v in network.nodes}
    for u, v in network.edges:
        used = incident[u] | incident[v]
        c = 0
        while c in used:
            c += 1
        colors[(u, v)] = c
        incident[u].add(c)
        incident[v].add(c)
    return colors


def layout_product_3d(
    a: Network,
    b: Network,
    c: Network,
    *,
    layers: int,
    node_side: int | None = None,
) -> GridLayout:
    """Lay out ``(A x B) x C`` in the multilayer 3-D grid model.

    ``layers`` must provide at least two wiring layers per deck
    (``layers >= 2 |C|``).  Node squares default to the full product
    network's maximum degree, which also guarantees enough free pin
    offsets for the risers.
    """
    net = ProductNetwork(ProductNetwork(a, b), c)
    decks = list(c.nodes)
    D = len(decks)
    l_per = 2 * (layers // (2 * D))
    if l_per < 2:
        raise ValueError(
            f"need at least {2 * D} layers for {D} decks (got {layers})"
        )
    side = node_side if node_side is not None else max(net.max_degree, 1)

    ab = ProductNetwork(a, b)
    a_index = a.index
    b_index = b.index

    def position(node) -> tuple[int, int]:
        (x, y), _z = node
        return (b_index[y], a_index[x])

    placements: dict = {}
    decks_rows = []
    free_offsets: dict[tuple, list[int]] | None = None
    geometry: dict[tuple, tuple[int, int]] = {}  # (x,y) -> (pin_x0, top_y)

    for d, z in enumerate(decks):
        deck_nodes = [((x, y), z) for (x, y) in ab.nodes]
        deck_edges = [(((ux, uy), z), ((vx, vy), z))
                      for ((ux, uy), (vx, vy)) in ab.edges]
        deck_net = build_network(deck_nodes, deck_edges, f"deck {z}")
        lay = layout_grid(
            deck_net, position, layers=l_per, node_side=side,
            name=f"deck {z}",
        )
        base = d * l_per
        # Merge placements and rows, shifting layers into the deck band.
        for node, p in lay.placements.items():
            placements[node] = Placement(node, p.rect, layer=base + 1)
        decks_rows.append(lay.wire_table())
        # Free top-pin offsets are deck-invariant; compute once.
        if free_offsets is None:
            free_offsets = _free_top_offsets(lay, side)
            for node, p in lay.placements.items():
                (xy, _z) = node
                geometry[xy] = (p.rect.x0, p.rect.y0)

    assert free_offsets is not None
    deck_index = {z: d for d, z in enumerate(decks)}
    colors = _riser_colors(c, deck_index)
    max_color = max(colors.values(), default=-1)
    for xy, free in free_offsets.items():
        if max_color + 1 > len(free):
            raise ValueError(
                f"node {xy!r} lacks {max_color + 1} free top pins for "
                f"risers (has {len(free)}); raise node_side"
            )

    ends = []
    risers = []
    for (z1, z2) in c.edges:
        color = colors[(z1, z2)]
        d1, d2 = sorted((deck_index[z1], deck_index[z2]))
        z_lo = d1 * l_per + 1
        z_hi = d2 * l_per + 1
        for xy in geometry:
            x0, top_y = geometry[xy]
            px = x0 + free_offsets[xy][color]
            risers.append((len(risers), px, top_y, z_lo, z_hi))
            ends.append(((xy, z1), (xy, z2)))
    riser_rows = WireTable.from_rows(
        [], [], [], [], [], [], [0] * (len(risers) + 1),
        [u for u, _ in ends], [v for _, v in ends], [0] * len(risers), {},
        risers=risers,
    )
    table = WireTable.stack(
        decks_rows + [riser_rows], [d * l_per for d in range(D)] + [0],
        placements,
    )
    return GridLayout(
        layers, placements, table,
        meta={
            "scheme": "multilayer-3d-grid",
            "name": f"({ab.name}) x ({c.name}) 3-D L={layers}",
            "decks": D,
            "layers_per_deck": l_per,
            "active_layers": [d * l_per + 1 for d in range(D)],
            "network": net.name,
            "num_nodes": net.num_nodes,
            "node_side": side,
        },
    )


def _riser_colors(c: Network, deck_index: dict) -> dict[tuple, int]:
    """Assign each C-edge a riser pin color.

    Two risers at one planar position conflict when their deck-index
    intervals share *any* stack level -- including a single endpoint
    deck, where both wires would claim the same pin point.  That makes
    the conflict graph an interval graph over closed deck intervals, so
    left-edge coloring (on doubled coordinates, which turns touching
    into overlap) is optimal.
    """
    from repro.grid.tracks import Interval, pack_intervals

    edges = list(c.edges)
    intervals = []
    for (z1, z2) in edges:
        d1, d2 = sorted((deck_index[z1], deck_index[z2]))
        intervals.append(Interval(2 * d1, 2 * d2 + 1))
    assignment, _count = pack_intervals(intervals)
    return {edges[i]: assignment[i] for i in range(len(edges))}


def _free_top_offsets(lay: GridLayout, side: int) -> dict[tuple, list[int]]:
    """Per planar node key: top-edge pin offsets unused by deck wiring."""
    used: dict[tuple, set[int]] = {}
    rects = {}
    for node, p in lay.placements.items():
        (xy, _z) = node
        rects[xy] = p.rect
        used.setdefault(xy, set())
    # Endpoint order of single-segment wires is normalization-dependent,
    # so attribute each endpoint to whichever of the wire's nodes it
    # touches.
    table = lay.wire_table()
    sx, sy, ex, ey = (a.tolist() for a in table.wire_endpoints())
    for u, v, *pins in zip(table.wire_u, table.wire_v, sx, sy, ex, ey):
        for px, py in (pins[:2], pins[2:]):
            for (xy, _z) in (u, v):
                r = rects[xy]
                if py == r.y0 and r.x0 <= px <= r.x1:
                    used[xy].add(px - r.x0)
    return {
        xy: sorted(set(range(side)) - offsets)
        for xy, offsets in used.items()
    }
