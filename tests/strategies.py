"""Shared hypothesis strategies and corruption helpers for the suite.

Consolidates the generators that used to live, duplicated, inside
``test_properties_builder``, ``test_properties_extended`` and
``test_validator_mutation``.  Random *network* generation and layout
*corruption* delegate to :mod:`repro.check.generate`, so the property
suite and the ``python -m repro fuzz`` driver draw from the same
distributions -- a counterexample found by either is replayable in the
other.

Strategies
----------
random_networks     connected graphs (spanning tree + density draw)
grid_specs          random R x C node grids with row/col/extra links
block_specs         1 x C block rows with random clusters and links
foldable_specs      uniform-pitch 2-layer specs foldable into 4/8
traffic_networks    networks for the workload zoo (incl. hypercubes)
workload_cases      (network, kind, seed, rate, duration) zoo draws

Helpers
-------
mutate              one seeded geometric mutation of a GridLayout
clone_layout        independent copy sharing the immutable wire table
verdicts_agree      (fast_ok, oracle_ok) verdict pair for a layout
"""

import random

from hypothesis import strategies as st

from repro.check.generate import mutate_layout, random_connected_network
from repro.core.spec import BlockCell, LayoutSpec, LinkSpec, NodeCell
from repro.grid.io import clone_layout
from repro.grid.layout import GridLayout
from repro.grid.oracle import OracleViolation, oracle_validate
from repro.grid.validate import LayoutError, validate_layout
from repro.routing.traffic import WORKLOAD_KINDS
from repro.topology import Hypercube

__all__ = [
    "random_networks",
    "grid_specs",
    "block_specs",
    "foldable_specs",
    "traffic_networks",
    "workload_cases",
    "mutate",
    "clone_layout",
    "verdicts_agree",
]

# Layout corruption is the fuzzer's harness, re-exported under the
# test suite's historical name.
mutate = mutate_layout


@st.composite
def random_networks(draw, min_nodes=2, max_nodes=12):
    """Connected simple graphs from the fuzzer's distribution."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    return random_connected_network(
        rng, min_nodes=min_nodes, max_nodes=max_nodes
    )


@st.composite
def traffic_networks(draw, min_nodes=2, max_nodes=14):
    """Networks the workload zoo runs on: random connected graphs from
    the fuzzer's distribution, mixed with small hypercubes (the only
    family where the address-arithmetic kernels -- transpose,
    bit-reversal on addresses -- take their specialized form).
    """
    if draw(st.booleans()):
        return Hypercube(draw(st.integers(2, 4)))
    rng = random.Random(draw(st.integers(0, 10_000)))
    return random_connected_network(
        rng, min_nodes=min_nodes, max_nodes=max_nodes
    )


@st.composite
def workload_cases(draw, kinds=None):
    """(network, kind, seed, rate, duration) draws over the zoo.

    ``transpose`` is pinned to hypercubes (it is undefined on the
    integer-labeled random graphs); ``trace`` is excluded by default
    because it replays rather than generates.
    """
    pool = list(kinds) if kinds else [k for k in WORKLOAD_KINDS if k != "trace"]
    kind = draw(st.sampled_from(pool))
    if kind == "transpose":
        net = Hypercube(draw(st.integers(2, 4)))
    else:
        net = draw(traffic_networks())
    seed = draw(st.integers(0, 2**16))
    rate = draw(st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]))
    duration = draw(st.integers(1, 24))
    return net, kind, seed, rate, duration


@st.composite
def grid_specs(draw):
    """Random R x C node grids with row/column/extra links."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    layers = draw(st.sampled_from([2, 3, 4, 5, 8]))
    side = draw(st.integers(4, 8))
    cells = {
        (i, j): NodeCell((i, j), side) for i in range(rows) for j in range(cols)
    }
    n_links = draw(st.integers(0, 12))
    row_links, col_links, extra_links = [], [], []
    keys: dict[tuple, int] = {}
    demand: dict[tuple, int] = {}
    for _ in range(n_links):
        i1 = draw(st.integers(0, rows - 1))
        j1 = draw(st.integers(0, cols - 1))
        i2 = draw(st.integers(0, rows - 1))
        j2 = draw(st.integers(0, cols - 1))
        if (i1, j1) == (i2, j2):
            continue
        # Respect pin capacity: at most `side` wires per node side.
        if demand.get((i1, j1), 0) >= side or demand.get((i2, j2), 0) >= side:
            continue
        demand[(i1, j1)] = demand.get((i1, j1), 0) + 1
        demand[(i2, j2)] = demand.get((i2, j2), 0) + 1
        key = ((i1, j1), (i2, j2))
        ek = keys.get(key, 0)
        keys[key] = ek + 1
        link = LinkSpec((i1, j1), (i2, j2), (i1, j1), (i2, j2), edge_key=ek)
        if i1 == i2:
            row_links.append(link)
        elif j1 == j2:
            col_links.append(link)
        else:
            extra_links.append(link)
    return LayoutSpec(
        rows=rows,
        cols=cols,
        cells=cells,
        row_links=row_links,
        col_links=col_links,
        extra_links=extra_links,
        layers=layers,
        name="random",
    )


@st.composite
def block_specs(draw):
    """1 x C rows of blocks with random small clusters and links."""
    cols = draw(st.integers(2, 4))
    layers = draw(st.sampled_from([2, 4, 6]))
    side = 6
    cells = {}
    members: dict[int, list] = {}
    for j in range(cols):
        m = draw(st.integers(1, 4))
        nodes = [f"b{j}m{i}" for i in range(m)]
        members[j] = nodes
        edges = [
            (nodes[i], nodes[i + 1])
            for i in range(m - 1)
            if draw(st.booleans())
        ]
        cells[(0, j)] = BlockCell(j, nodes, edges, node_side=side)
    links = []
    keys: dict[tuple, int] = {}
    for _ in range(draw(st.integers(0, 6))):
        j1 = draw(st.integers(0, cols - 1))
        j2 = draw(st.integers(0, cols - 1))
        if j1 == j2:
            continue
        u = draw(st.sampled_from(members[j1]))
        v = draw(st.sampled_from(members[j2]))
        key = (j1, j2, u, v)
        ek = keys.get(key, 0)
        keys[key] = ek + 1
        links.append(LinkSpec((0, j1), (0, j2), u, v, edge_key=ek))
    return LayoutSpec(
        rows=1, cols=cols, cells=cells, row_links=links, layers=layers,
        name="random-blocks",
    )


@st.composite
def foldable_specs(draw):
    """Uniform-pitch specs whose column count divides by 2 and 4."""
    rows = draw(st.integers(1, 3))
    cols = draw(st.sampled_from([4, 8]))
    side = draw(st.integers(4, 6))
    cells = {
        (i, j): NodeCell((i, j), side)
        for i in range(rows)
        for j in range(cols)
    }
    row_links, col_links = [], []
    keys = {}
    demand = {}
    for _ in range(draw(st.integers(0, 10))):
        i1 = draw(st.integers(0, rows - 1))
        j1 = draw(st.integers(0, cols - 1))
        i2 = draw(st.integers(0, rows - 1))
        j2 = draw(st.integers(0, cols - 1))
        if (i1, j1) == (i2, j2) or (i1 != i2 and j1 != j2):
            continue
        if demand.get((i1, j1), 0) >= side or demand.get((i2, j2), 0) >= side:
            continue
        demand[(i1, j1)] = demand.get((i1, j1), 0) + 1
        demand[(i2, j2)] = demand.get((i2, j2), 0) + 1
        key = ((i1, j1), (i2, j2))
        ek = keys.get(key, 0)
        keys[key] = ek + 1
        link = LinkSpec((i1, j1), (i2, j2), (i1, j1), (i2, j2), edge_key=ek)
        (row_links if i1 == i2 else col_links).append(link)
    return LayoutSpec(
        rows=rows, cols=cols, cells=cells,
        row_links=row_links, col_links=col_links,
        layers=2, name="foldable",
    )


def verdicts_agree(lay: GridLayout) -> tuple[bool, bool]:
    """(fast_ok, oracle_ok) verdict pair -- agreement is the property."""
    try:
        validate_layout(lay, check_pins=False, check_node_interference=True)
        fast_ok = True
    except LayoutError:
        fast_ok = False
    try:
        oracle_validate(lay)
        oracle_ok = True
    except OracleViolation:
        oracle_ok = False
    return fast_ok, oracle_ok
