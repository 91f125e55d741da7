"""Per-family layout constructors.

Each function builds the :class:`~repro.core.spec.LayoutSpec` the paper
prescribes for a network family and runs the orthogonal multilayer
builder.  The common machinery is :func:`layout_grid` (place every node
at a grid position, classify each edge as row/column/extra) and
:func:`layout_cluster_network` (quotient + blocks: the PN-cluster
route of Sections 3.2, 4.2, 4.3 and 5.2).

Each public ``layout_<family>`` builds its network from the family's
parameters and lays out that instance; :func:`layout_network` lays out
the instance it is given, so a layout job builds its network once.

All functions accept:

* ``layers`` -- the multilayer budget L (L = 2 is the Thompson model);
* ``node_side`` -- node square side, default the network's maximum
  degree (the Thompson convention); the scalability experiments sweep
  it upward.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Hashable, Sequence

import numpy as np

from repro.collinear.orders import folded_linear_order
from repro.core.builder import build_orthogonal_layout, group_rank
from repro.core.spec import (
    COL, EXTRA, ROW, BlockCell, LayoutSpec, LinkColumns, NodeCell,
)
from repro.grid.layout import GridLayout
from repro.topology.base import Network, Node
from repro.topology.butterfly import Butterfly
from repro.topology.cayley import CayleyGraph, StarConnectedCycles
from repro.topology.ccc import CubeConnectedCycles, ReducedHypercube
from repro.topology.clustered import KAryNCubeCluster
from repro.topology.complete import CompleteGraph
from repro.topology.ghc import GeneralizedHypercube
from repro.topology.hypercube import EnhancedCube, FoldedHypercube, Hypercube
from repro.topology.isn import IndirectSwapNetwork
from repro.topology.kary import KAryNCube
from repro.topology.partition import Partition, quotient
from repro.topology.product import ProductNetwork
from repro.topology.shuffle import DeBruijn, ShuffleExchange
from repro.topology.swap import HSN
from repro.topology.wrapped_butterfly import WrappedButterfly

__all__ = [
    "layout_grid",
    "layout_network",
    "layout_collinear_network",
    "layout_kary",
    "layout_hypercube",
    "layout_ghc",
    "layout_complete",
    "layout_product",
    "layout_folded_hypercube",
    "layout_enhanced_cube",
    "layout_cluster_network",
    "layout_butterfly",
    "layout_wrapped_butterfly",
    "layout_generic_grid",
    "layout_scc",
    "layout_isn",
    "layout_ccc",
    "layout_reduced_hypercube",
    "layout_hsn",
    "layout_kary_cluster",
    "layout_cayley",
]


# ---------------------------------------------------------------------------
# Generic machinery


def layout_grid(
    network: Network,
    position: Callable[[Node], tuple[int, int]],
    *,
    layers: int = 2,
    node_side: int | str | None = None,
    name: str | None = None,
) -> GridLayout:
    """Lay out ``network`` with each node at ``position(node)``.

    Edges within one grid row become row links, edges within one column
    become column links, and anything else becomes an extra link with
    dedicated tracks (Section 5.3's treatment of diameter links).

    ``node_side`` may be an int, ``None`` (the Thompson convention:
    side = max degree) or ``"min"`` (the smallest square whose sides
    can host this layout's pin demands -- the regime where the paper's
    wiring-dominated asymptotics show earliest).
    """
    nodes = network.nodes
    pos = [position(v) for v in nodes]
    _check_distinct(nodes, pos, "nodes")
    home = np.array(pos, dtype=np.int64).reshape(-1, 2)
    u, v = _edge_ids(network)
    links = _link_columns(nodes, u, v, home)
    if node_side == "min":
        side = max(1, _min_pin_side(links, len(nodes)))
    elif node_side is None:
        side = _max_degree(u, v, len(nodes))
    else:
        side = node_side
    cells = {p: NodeCell(n, side) for n, p in zip(nodes, pos)}
    return _build(
        network, cells, home, links, layers, name or network.name, side,
        extra_link_count=int((links.kind == EXTRA).sum()),
    )


def _build(network, cells, home, links, layers, name, side, **meta):
    """Build the spec of ``cells`` and ``links`` (``home``: each node's
    cell) and record the network in the layout's meta."""
    spec = LayoutSpec(
        rows=int(home[:, 0].max()) + 1, cols=int(home[:, 1].max()) + 1,
        cells=cells, layers=layers, name=name, links=links,
    )
    layout = build_orthogonal_layout(spec)
    layout.meta.update(
        network=network.name, num_nodes=network.num_nodes, node_side=side,
        **meta,
    )
    return layout


def _edge_ids(network: Network) -> tuple[np.ndarray, np.ndarray]:
    """The edges' end node ids (positions in ``network.nodes``)."""
    ids = np.fromiter(
        map(network.index.__getitem__, chain.from_iterable(network.edges)),
        dtype=np.int64, count=2 * network.num_edges,
    ).reshape(-1, 2)
    return ids[:, 0], ids[:, 1]


def _link_columns(nodes, u, v, home) -> LinkColumns:
    """Classify and key the links ``u[i] -- v[i]`` between node ids
    whose cells are ``home[id]``: same cell row makes a row link, same
    cell column a column link, anything else an extra link.  A link's
    edge key counts the earlier links with the same ``(u, v)``."""
    (ur, uc), (vr, vc) = home[u].T, home[v].T
    kind = np.where(ur == vr, ROW, np.where(uc == vc, COL, EXTRA))
    pair = u * len(nodes) + v
    edge_key = group_rank(pair, np.argsort(pair, kind="stable"))
    return LinkColumns(nodes, kind, ur, uc, vr, vc, u, v, edge_key)


def _check_distinct(labels: list, cells: list, what: str) -> None:
    """Raise if two of ``labels`` share a cell of ``cells``."""
    if len(set(cells)) < len(cells):
        taken: dict[tuple[int, int], Hashable] = {}
        for label, p in zip(labels, cells):
            if p in taken:
                raise ValueError(f"{what} {taken[p]!r} and {label!r} share cell {p}")
            taken[p] = label


def _max_degree(u: np.ndarray, v: np.ndarray, n: int) -> int:
    """The Thompson node side: the maximum degree, at least 1."""
    return max(int(np.bincount(np.concatenate((u, v)), minlength=n).max(initial=0)), 1)


def _min_pin_side(links: LinkColumns, n: int) -> int:
    """Largest per-node, per-side pin demand of ``links``.

    Top pins serve row wires and extra-link stubs; right pins serve
    column wires and extra-link entries.  (Plain-node grids only --
    cluster layouts size members by total degree.)
    """
    row, col = links.kind == ROW, links.kind == COL
    u, v = links.u_node, links.v_node
    top = np.bincount(u[~col], minlength=n) + np.bincount(v[row], minlength=n)
    right = np.bincount(u[col], minlength=n) + np.bincount(v[~row], minlength=n)
    return int(max(top.max(initial=0), right.max(initial=0)))


def layout_collinear_network(
    network: Network,
    *,
    layers: int = 2,
    order: Sequence[Node] | None = None,
    node_side: int | None = None,
    name: str | None = None,
) -> GridLayout:
    """A collinear layout (all nodes in one row) under L layers.

    With L = 2 this realizes the paper's collinear constructions
    geometrically (Figures 2-4); with larger L it is the *multilayer
    collinear* baseline of Section 2.2, whose area shrinks by at most
    L/2 (only the channel height divides by the number of groups).
    """
    seq = list(order) if order is not None else list(network.nodes)
    if sorted(map(repr, seq)) != sorted(map(repr, network.nodes)):
        raise ValueError("order must be a permutation of the network's nodes")
    index = {v: j for j, v in enumerate(seq)}
    return layout_grid(
        network,
        lambda v: (0, index[v]),
        layers=layers,
        node_side=node_side,
        name=name or f"collinear {network.name}",
    )


def _digit_value(digits: Sequence[int], radices: Sequence[int]) -> int:
    val = 0
    for d, r in zip(digits, radices):
        val = val * r + d
    return val


def _folded_digit_rank(radices: Sequence[int]) -> Callable[[Sequence[int]], int]:
    """Rank of a digit tuple under per-digit boustrophedon order.

    Used by the ``folded=True`` variants: Section 3.1 folds each row and
    column so wrap links become short, cutting the maximum wire length
    to O(N/(L k^2)) without changing any track count.
    """
    ranks = [
        {d: i for i, d in enumerate(folded_linear_order(r))} for r in radices
    ]

    def rank(digits: Sequence[int]) -> int:
        val = 0
        for d, r, rk in zip(digits, radices, ranks):
            val = val * r + rk[d]
        return val

    return rank


# ---------------------------------------------------------------------------
# Product-family layouts (Sections 3.1, 4.1, 5.1)


def layout_kary(
    k: int,
    n: int,
    *,
    layers: int = 2,
    node_side: int | None = None,
    folded: bool = False,
    wraparound: bool = True,
) -> GridLayout:
    """Section 3.1: the k-ary n-cube.  Rows take the high ``ceil(n/2)``
    digits, columns the low ``floor(n/2)`` digits, so each row is a
    k-ary floor(n/2)-cube and each column a k-ary ceil(n/2)-cube."""
    return _kary_grid(
        KAryNCube(k, n, wraparound=wraparound),
        layers=layers, node_side=node_side, folded=folded,
    )


def _kary_grid(
    net: KAryNCube, *, layers: int, node_side, folded: bool = False
) -> GridLayout:
    k, n = net.k, net.n
    hi = (n + 1) // 2  # number of high digits (row coordinate)
    hi_radices = [k] * hi
    lo_radices = [k] * (n - hi)
    if folded:
        hi_rank = _folded_digit_rank(hi_radices)
        lo_rank = _folded_digit_rank(lo_radices)
    else:
        hi_rank = lambda ds: _digit_value(ds, hi_radices)  # noqa: E731
        lo_rank = lambda ds: _digit_value(ds, lo_radices)  # noqa: E731

    def position(v: tuple[int, ...]) -> tuple[int, int]:
        return (hi_rank(v[:hi]), lo_rank(v[hi:]) if n > hi else 0)

    return layout_grid(
        net, position, layers=layers, node_side=node_side,
        name=f"{net.name} L={layers}" + (" folded" if folded else ""),
    )


def layout_hypercube(
    n: int, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """Section 5.1: rows take the high ``ceil(n/2)`` bits (binary
    order), columns the low bits; each row/column is laid out by the
    binary-order collinear layout with floor(2 sqrt(N)/3)-ish tracks."""
    return _cube_grid(Hypercube(n), layers=layers, node_side=node_side)


def _cube_grid(net: Network, *, layers: int, node_side) -> GridLayout:
    """The n-cube grid of ``net`` (an n-cube, possibly with extra
    links): rows take the high bits of a node, columns the low
    ``n // 2`` bits."""
    lo_bits = net.n // 2

    def position(v: int) -> tuple[int, int]:
        return (v >> lo_bits, v & ((1 << lo_bits) - 1))

    return layout_grid(
        net, position, layers=layers, node_side=node_side,
        name=f"{net.name} L={layers}",
    )


def layout_ghc(
    radices: Sequence[int],
    *,
    layers: int = 2,
    node_side: int | None = None,
    split: int | None = None,
) -> GridLayout:
    """Section 4.1: the generalized hypercube.  ``split`` = m gives the
    rows the high ``n - m`` digits and the columns the low ``m`` digits
    (default: m = floor(n/2))."""
    return _ghc_grid(
        GeneralizedHypercube(radices),
        layers=layers, node_side=node_side, split=split,
    )


def _ghc_grid(
    net: GeneralizedHypercube, *, layers: int, node_side,
    split: int | None = None,
) -> GridLayout:
    n = len(net.radices)
    m = split if split is not None else n // 2
    if not (0 <= m <= n):
        raise ValueError("split out of range")
    hi_radices = net.radices[: n - m]
    lo_radices = net.radices[n - m :]

    def position(v: tuple[int, ...]) -> tuple[int, int]:
        return (
            _digit_value(v[: n - m], hi_radices),
            _digit_value(v[n - m :], lo_radices) if m else 0,
        )

    return layout_grid(
        net, position, layers=layers, node_side=node_side,
        name=f"{net.name} L={layers}",
    )


def layout_complete(
    n: int, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """The strictly optimal collinear K_N layout (Figure 3), multilayered."""
    return layout_collinear_network(
        CompleteGraph(n), layers=layers, node_side=node_side
    )


def layout_product(
    a: Network,
    b: Network,
    *,
    layers: int = 2,
    node_side: int | None = None,
) -> GridLayout:
    """Section 3.2: lay out ``A x B`` from the factors' collinear
    layouts -- A along rows, B along columns."""
    return _product_grid(
        ProductNetwork(a, b), layers=layers, node_side=node_side
    )


def _product_grid(
    net: ProductNetwork, *, layers: int, node_side
) -> GridLayout:
    a_index = net.a.index
    b_index = net.b.index

    def position(v: tuple) -> tuple[int, int]:
        x, y = v
        return (b_index[y], a_index[x])

    return layout_grid(
        net, position, layers=layers, node_side=node_side,
        name=f"{net.name} L={layers}",
    )


# ---------------------------------------------------------------------------
# Hypercube variants with extra links (Section 5.3)


def layout_folded_hypercube(
    n: int, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """Section 5.3: hypercube layout plus N/2 diameter links, each on a
    dedicated extra horizontal + vertical track."""
    return _cube_grid(FoldedHypercube(n), layers=layers, node_side=node_side)


def layout_enhanced_cube(
    n: int, *, layers: int = 2, node_side: int | None = None, seed: int = 2000
) -> GridLayout:
    """Section 5.3: hypercube plus N random extra links."""
    return _cube_grid(
        EnhancedCube(n, seed=seed), layers=layers, node_side=node_side
    )


# ---------------------------------------------------------------------------
# PN-cluster layouts (Sections 3.2, 4.2, 4.3, 5.2)


def layout_cluster_network(
    network: Network,
    partition: Partition,
    cluster_position: Callable[[Hashable], tuple[int, int]],
    *,
    layers: int = 2,
    node_side: int | None = None,
    member_order: Callable[[Hashable, list[Node]], list[Node]] | None = None,
    name: str | None = None,
) -> GridLayout:
    """The recursive grid layout scheme, one level deep (Section 2.3).

    The quotient multigraph of ``partition`` is laid out orthogonally
    with each supernode expanded into a strip block; inter-cluster links
    attach to the member nodes the topology dictates.
    """
    nodes = network.nodes
    u, v = _edge_ids(network)
    side = node_side if node_side is not None else _max_degree(u, v, len(nodes))
    q = quotient(network, partition)
    pos = {c: cluster_position(c) for c in q.clusters}
    _check_distinct(list(pos), list(pos.values()), "clusters")

    cells = {}
    home = np.zeros((len(nodes), 2), dtype=np.int64)
    for c in q.clusters:
        members = q.members[c]
        ordered = (
            member_order(c, members) if member_order is not None else sorted(
                members, key=network.index.__getitem__
            )
        )
        cells[pos[c]] = BlockCell(
            label=c,
            nodes=ordered,
            edges=q.intra_edges[c],
            node_side=side,
        )
        home[[network.index[m] for m in members]] = pos[c]

    inter = (home[u] != home[v]).any(axis=1)
    links = _link_columns(nodes, u[inter], v[inter], home)
    return _build(
        network, cells, home, links, layers,
        name or f"clustered {network.name}", side, clusters=len(q.clusters),
    )


def _bit_split_position(bits: int) -> Callable[[int], tuple[int, int]]:
    lo = bits // 2

    def position(w: int) -> tuple[int, int]:
        return (w >> lo, w & ((1 << lo) - 1))

    return position


def layout_butterfly(
    m: int, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """Section 4.2: the butterfly as a (radix-2) GHC cluster -- quotient
    hypercube with 4 parallel links per pair, row-pair blocks."""
    return _row_pair_clusters(
        Butterfly(m), layers=layers, node_side=node_side
    )


def _row_pair_clusters(net: Network, *, layers: int, node_side) -> GridLayout:
    """The row-pair GHC-cluster layout of a butterfly-like ``net`` on
    ``m`` levels: quotient hypercube on ``m - 1`` bits."""
    return layout_cluster_network(
        net,
        net.row_pair_partition(),
        _bit_split_position(net.m - 1),
        layers=layers,
        node_side=node_side,
        # Strip order: level-major, so straight edges are short and the
        # strip cutwidth stays O(1).
        member_order=lambda c, ms: sorted(ms),
        name=f"{net.name} L={layers}",
    )


def layout_wrapped_butterfly(
    m: int, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """The wrapped butterfly, via the same row-pair GHC-cluster route
    as Section 4.2's plain butterfly (quotient hypercube, multiplicity
    4)."""
    return _row_pair_clusters(
        WrappedButterfly(m), layers=layers, node_side=node_side
    )


def layout_isn(
    m: int, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """Section 4.3: the indirect swap network; same structure as the
    butterfly with quotient multiplicity 2 instead of 4."""
    return _row_pair_clusters(
        IndirectSwapNetwork(m), layers=layers, node_side=node_side
    )


def layout_ccc(
    n: int, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """Section 5.2: CCC as a hypercube cluster; cycle-order strips."""
    return _cube_clusters(
        CubeConnectedCycles(n), layers=layers, node_side=node_side
    )


def _cube_clusters(net: Network, *, layers: int, node_side) -> GridLayout:
    """The n-cube cluster layout of ``net`` (a CCC or a reduced
    hypercube): one strip per cube node, members in position order."""
    return layout_cluster_network(
        net,
        net.cluster_partition(),
        _bit_split_position(net.n),
        layers=layers,
        node_side=node_side,
        member_order=lambda w, ms: sorted(ms, key=lambda v: v[1]),
        name=f"{net.name} L={layers}",
    )


def layout_reduced_hypercube(
    n: int, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """Section 5.2: reduced hypercube; binary-order strips."""
    return _cube_clusters(
        ReducedHypercube(n), layers=layers, node_side=node_side
    )


def layout_hsn(
    nucleus: Network,
    levels: int,
    *,
    layers: int = 2,
    node_side: int | None = None,
) -> GridLayout:
    """Section 4.3: HSN/HHN -- quotient is the (l-1)-dimensional radix-r
    GHC over the cluster addresses."""
    return _hsn_clusters(
        HSN(nucleus, levels), layers=layers, node_side=node_side
    )


def _hsn_clusters(net: HSN, *, layers: int, node_side) -> GridLayout:
    part = net.cluster_partition()
    r = net.r
    digits = net.levels - 1
    hi = digits - digits // 2
    hi_radices = [r] * hi
    lo_radices = [r] * (digits - hi)

    def position(c: tuple[int, ...]) -> tuple[int, int]:
        return (
            _digit_value(c[:hi], hi_radices),
            _digit_value(c[hi:], lo_radices) if digits > hi else 0,
        )

    return layout_cluster_network(
        net,
        part,
        position,
        layers=layers,
        node_side=node_side,
        member_order=lambda c, ms: sorted(ms, key=lambda v: v[0]),
        name=f"{net.name} L={layers}",
    )


def layout_kary_cluster(
    k: int,
    n: int,
    c: int,
    *,
    cluster: str = "hypercube",
    layers: int = 2,
    node_side: int | None = None,
) -> GridLayout:
    """Section 3.2: k-ary n-cube cluster-c."""
    return _kary_clusters(
        KAryNCubeCluster(k, n, c, cluster=cluster),
        layers=layers, node_side=node_side,
    )


def _kary_clusters(
    net: KAryNCubeCluster, *, layers: int, node_side
) -> GridLayout:
    part = net.cluster_partition()
    k, n = net.k, net.n
    hi = (n + 1) // 2
    hi_radices = [k] * hi
    lo_radices = [k] * (n - hi)

    def position(q: tuple[int, ...]) -> tuple[int, int]:
        return (
            _digit_value(q[:hi], hi_radices),
            _digit_value(q[hi:], lo_radices) if n > hi else 0,
        )

    return layout_cluster_network(
        net,
        part,
        position,
        layers=layers,
        node_side=node_side,
        member_order=lambda q, ms: sorted(ms, key=lambda v: v[1]),
        name=f"{net.name} L={layers}",
    )


def layout_generic_grid(
    network: Network,
    *,
    layers: int = 2,
    node_side: int | None = None,
    aspect: float = 1.0,
    optimize: bool = False,
    seed: int = 2000,
) -> GridLayout:
    """A 2-D layout for *any* network: nodes in a near-square grid,
    every non-row/column edge on dedicated tracks.

    This generalizes the Section 5.3 extra-link treatment into a
    universal fallback (each awkward edge costs one horizontal and one
    vertical track, split across the layer groups).  Area is
    O((sqrt(N) s + E/L)^2) -- far from optimal for structured networks,
    but it gives the "similar strategies apply" families of Section 4.3
    a legal, validated 2-D multilayer layout to compare against the
    specialized schemes.

    ``optimize=True`` runs the swap-based placement search of
    :mod:`repro.core.placement` instead of index order, typically
    cutting 20-40% of the area on unstructured graphs.
    """
    import math

    n = network.num_nodes
    if optimize:
        from repro.core.placement import optimize_placement

        pos_map = optimize_placement(network, aspect=aspect, seed=seed)

        def position(v: Node) -> tuple[int, int]:
            return pos_map[v]

    else:
        cols = max(1, round(math.sqrt(n * aspect)))
        index = network.index

        def position(v: Node) -> tuple[int, int]:
            i = index[v]
            return (i // cols, i % cols)

    return layout_grid(
        network, position, layers=layers, node_side=node_side,
        name=f"generic-grid {network.name} L={layers}"
        + (" optimized" if optimize else ""),
    )


def layout_scc(
    n: int, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """Star-connected cycles (Section 4.3's closing remark, ref. [15]).

    Clusters = all cycles sharing a last symbol; only the generator
    that swaps the last position crosses symbol classes, so the
    quotient is K_n with multiplicity (n-2)! -- the same structure as
    the star graph's own last-symbol decomposition -- laid out
    collinearly like the other Cayley families.
    """
    return _scc_clusters(
        StarConnectedCycles(n), layers=layers, node_side=node_side
    )


def _scc_clusters(
    net: StarConnectedCycles, *, layers: int, node_side
) -> GridLayout:
    part = Partition(
        {v: v[0][-1] for v in net.nodes}, name="scc-last-symbol"
    )
    return layout_cluster_network(
        net,
        part,
        lambda c: (0, c),
        layers=layers,
        node_side=node_side,
        name=f"{net.name} L={layers}",
    )


def layout_cayley(
    net: CayleyGraph, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """Section 4.3's closing remark: star/pancake/bubble-sort/
    transposition graphs as complete-graph clusters (last-symbol
    decomposition; quotient K_n with uniform multiplicity)."""
    part = net.last_symbol_partition()
    return layout_cluster_network(
        net,
        part,
        lambda c: (0, c),
        layers=layers,
        node_side=node_side,
        name=f"{net.name} L={layers}",
    )


# ---------------------------------------------------------------------------
# Dispatch


def layout_network(
    network: Network, *, layers: int = 2, node_side: int | None = None
) -> GridLayout:
    """One-call layout for any supported network instance: the paper's
    scheme for its family (the ``"auto"`` scheme of
    :func:`repro.batch.spec.dispatch_scheme`), applied to ``network``
    itself.

    Shuffle-exchange and de Bruijn networks, which the paper lays out
    by no family construction, take the optimized generic grid; rings,
    complete graphs and graphs of no known family take a collinear
    layout.
    """
    if isinstance(network, (ShuffleExchange, DeBruijn)):
        return layout_generic_grid(
            network, layers=layers, node_side=node_side, optimize=True
        )
    for family, body in _FAMILY_LAYOUTS:
        if isinstance(network, family):
            return body(network, layers=layers, node_side=node_side)
    return layout_collinear_network(
        network, layers=layers, node_side=node_side
    )


#: Each family's layout body, called with the caller's instance.
_FAMILY_LAYOUTS = (
    ((Hypercube, FoldedHypercube, EnhancedCube), _cube_grid),
    (KAryNCubeCluster, _kary_clusters),
    (KAryNCube, _kary_grid),
    (GeneralizedHypercube, _ghc_grid),
    ((Butterfly, WrappedButterfly, IndirectSwapNetwork), _row_pair_clusters),
    (StarConnectedCycles, _scc_clusters),
    ((CubeConnectedCycles, ReducedHypercube), _cube_clusters),
    (HSN, _hsn_clusters),
    (CayleyGraph, layout_cayley),
    (ProductNetwork, _product_grid),
)
