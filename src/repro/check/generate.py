"""Seeded random-network generation for the differential fuzzer.

Three generator distributions, all driven by a single integer seed so
every case is replayable from its id alone:

* **random** -- connected simple graphs with bounded size and degree
  (spanning tree + density-controlled extra edges);
* **zoo** -- random members of the paper's network families with
  randomized parameters (radix, dimension, seed), small enough that the
  brute-force oracles stay fast;
* **mutant** -- seeded structural mutations (drop/add edge, drop node)
  of a zoo or random base network, exercising the generic fallback
  schemes on graphs that *almost* have family structure.

The module also hosts the **layout corruption** harness: seeded
geometric mutations of a routed :class:`~repro.grid.layout.GridLayout`
(shift a segment, change its layer, stretch a span).  The differential
driver feeds corrupted clones to both the fast validator and the
brute-force oracle and requires identical verdicts -- the invariant
that catches soundness holes in either checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.grid.io import _decode_label, _encode_label
from repro.grid.layout import GridLayout
from repro.grid.table import WireTable
from repro.grid.wire import WirePathError
from repro.topology import (
    HSN,
    Butterfly,
    CompleteGraph,
    CubeConnectedCycles,
    DeBruijn,
    EnhancedCube,
    FoldedHypercube,
    GeneralizedHypercube,
    Hypercube,
    IndirectSwapNetwork,
    KAryNCube,
    Mesh,
    ReducedHypercube,
    Ring,
    ShuffleExchange,
    StarConnectedCycles,
    StarGraph,
    WrappedButterfly,
)
from repro.topology.base import Network, build_network

__all__ = [
    "CheckCase",
    "random_connected_network",
    "random_zoo_network",
    "mutate_network",
    "case_id",
    "generate_case",
    "generate_cases",
    "mutate_layout",
    "network_to_doc",
    "network_from_doc",
]

KINDS = ("random", "zoo", "mutant")


@dataclass(frozen=True)
class CheckCase:
    """One fuzz case: a network plus the layer budgets to try.

    ``case_id`` encodes the run seed and case index, so any failure
    can be replayed with ``generate_cases(seed)`` alone; ``seed`` is
    the per-case derived seed that drives every stochastic stage
    (orders, layout mutations) deterministically.
    """

    case_id: str
    seed: int
    kind: str
    network: Network
    layers: tuple[int, ...] = (2, 4)

    def describe(self) -> str:
        n = self.network
        return (
            f"{self.case_id} [{self.kind}] {n.name}: "
            f"N={n.num_nodes} E={n.num_edges}"
        )


# ---------------------------------------------------------------------------
# Random connected graphs


def random_connected_network(
    rng: random.Random,
    *,
    min_nodes: int = 2,
    max_nodes: int = 12,
    max_degree: int | None = None,
) -> Network:
    """A connected simple graph: random spanning tree + extra edges.

    ``max_degree`` caps every node's degree (``None`` = no cap beyond
    what the density draw produces); edge density is drawn uniformly,
    so the distribution covers trees through near-cliques.
    """
    n = rng.randint(min_nodes, max_nodes)
    nodes = list(range(n))
    deg = [0] * n
    edge_set: set[tuple[int, int]] = set()

    def can_add(i: int, j: int) -> bool:
        if max_degree is not None and (
            deg[i] >= max_degree or deg[j] >= max_degree
        ):
            return False
        return (i, j) not in edge_set

    for j in range(1, n):
        i = rng.randrange(j)
        edge_set.add((i, j))
        deg[i] += 1
        deg[j] += 1
    density = rng.uniform(0.0, 0.8)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density and can_add(i, j):
                edge_set.add((i, j))
                deg[i] += 1
                deg[j] += 1
    return build_network(nodes, sorted(edge_set), f"rand{n}")


# ---------------------------------------------------------------------------
# Randomized zoo members

# Parameter draws keep instances small enough that the brute-force
# oracle, the exact-cutwidth DP (on the <= 12-node ones) and the
# quadratic validator sweeps all stay in the low milliseconds.
_ZOO_BUILDERS = (
    lambda rng: Ring(rng.randint(3, 12)),
    lambda rng: Mesh(rng.randint(2, 4), rng.randint(1, 2)),
    lambda rng: KAryNCube(rng.randint(2, 4), rng.randint(1, 3)),
    lambda rng: Hypercube(rng.randint(2, 5)),
    lambda rng: FoldedHypercube(rng.randint(3, 4)),
    lambda rng: EnhancedCube(rng.randint(3, 4), seed=rng.randint(0, 9999)),
    lambda rng: CompleteGraph(rng.randint(3, 8)),
    lambda rng: GeneralizedHypercube(
        tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 2)))
    ),
    lambda rng: Butterfly(rng.randint(2, 3)),
    lambda rng: WrappedButterfly(3),
    lambda rng: IndirectSwapNetwork(rng.randint(2, 3)),
    lambda rng: CubeConnectedCycles(3),
    lambda rng: ReducedHypercube(4),
    lambda rng: HSN(CompleteGraph(rng.randint(3, 4)), 2),
    lambda rng: StarGraph(rng.randint(3, 4)),
    lambda rng: StarConnectedCycles(4),
    lambda rng: ShuffleExchange(rng.randint(3, 4)),
    lambda rng: DeBruijn(rng.randint(3, 4)),
)


def random_zoo_network(rng: random.Random) -> Network:
    """A random family instance with randomized parameters."""
    return rng.choice(_ZOO_BUILDERS)(rng)


# ---------------------------------------------------------------------------
# Structural mutants


def mutate_network(
    net: Network, rng: random.Random, *, keep_connected: bool = True
) -> Network:
    """One random structural mutation of ``net``.

    Ops: drop an edge, add a missing edge, drop a node (with its
    edges).  Mutations that would disconnect the graph are retried;
    if nothing applies after a bounded number of draws the network is
    returned unchanged (the caller's case is then a plain replica).
    """
    for _ in range(16):
        op = rng.choice(("drop-edge", "add-edge", "drop-node"))
        if op == "drop-edge" and net.num_edges > 1:
            e = net.edges[rng.randrange(net.num_edges)]
            cand = net.without_edges([e], name=f"{net.name}-e")
        elif op == "add-edge":
            have = set(net.edge_multiset())
            u = net.nodes[rng.randrange(net.num_nodes)]
            v = net.nodes[rng.randrange(net.num_nodes)]
            if u == v:
                continue
            from repro.topology.base import _norm

            if _norm(u, v) in have:
                continue
            cand = build_network(
                list(net.nodes), list(net.edges) + [(u, v)], f"{net.name}+e"
            )
        elif op == "drop-node" and net.num_nodes > 2:
            v = net.nodes[rng.randrange(net.num_nodes)]
            keep = [u for u in net.nodes if u != v]
            cand = net.induced_subgraph(keep, name=f"{net.name}-v")
        else:
            continue
        if not keep_connected or cand.is_connected():
            return cand
    return build_network(list(net.nodes), list(net.edges), net.name)


# ---------------------------------------------------------------------------
# Case stream


def case_id(seed: int, index: int) -> str:
    """The replayable id of case ``index`` of the ``seed`` stream."""
    return f"seed{seed}/case{index}"


def generate_case(
    seed: int,
    index: int,
    *,
    layers: tuple[int, ...] = (2, 4),
    max_nodes: int = 12,
    kinds: tuple[str, ...] = KINDS,
) -> CheckCase:
    """Case ``index`` of the ``seed`` stream, cycling the generator
    kinds; it depends only on ``(seed, index)``."""
    case_seed = (seed * 1_000_003 + index) & 0x7FFFFFFF
    rng = random.Random(case_seed)
    kind = kinds[index % len(kinds)]
    if kind == "random":
        net = random_connected_network(rng, max_nodes=max_nodes)
    elif kind == "zoo":
        net = random_zoo_network(rng)
    elif kind == "mutant":
        base = (
            random_zoo_network(rng)
            if rng.random() < 0.5
            else random_connected_network(rng, max_nodes=max_nodes)
        )
        net = mutate_network(base, rng)
        for _ in range(rng.randint(0, 2)):
            net = mutate_network(net, rng)
    else:
        raise ValueError(f"unknown case kind {kind!r}")
    return CheckCase(
        case_id=case_id(seed, index),
        seed=case_seed,
        kind=kind,
        network=net,
        layers=layers,
    )


def generate_cases(
    seed: int,
    budget: int,
    *,
    layers: tuple[int, ...] = (2, 4),
    max_nodes: int = 12,
    kinds: tuple[str, ...] = KINDS,
) -> Iterator[CheckCase]:
    """Yield ``budget`` replayable cases: :func:`generate_case` for
    indices ``0 .. budget-1``.

    The stream is stable under budget changes, so ``--budget 500``
    extends (not reshuffles) what ``--budget 200`` covered.
    """
    for i in range(budget):
        yield generate_case(
            seed, i, layers=layers, max_nodes=max_nodes, kinds=kinds
        )


# ---------------------------------------------------------------------------
# Layout corruption (for the validator-agreement invariant)


def mutate_layout(lay: GridLayout, rng: random.Random) -> bool:
    """Apply one random geometric mutation in place.

    Returns ``False`` when the drawn mutation broke path connectivity
    and was discarded (the layout is then unchanged).  Any *applied*
    mutation may be harmless or illegal -- deciding which is the
    validators' job, and both must agree.  The edit is a row edit: one
    segment row of one wire changes, and the wire's rows go back
    through ``GridLayout.splice``.
    """
    table = lay.wire_table()
    if not table.num_wires:
        return False
    wi = rng.randrange(table.num_wires)
    if table.wire_is_riser[wi]:
        return False
    rows = table.wire_segment_rows(wi)
    si = rng.randrange(len(rows))
    x1, y1, x2, y2, layer = rows[si]
    kind = rng.choice(("layer", "shift", "stretch"))
    if kind == "layer":
        layer = rng.randint(1, lay.layers)
    elif kind == "shift":
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        x1, y1, x2, y2 = x1 + dx, y1 + dy, x2 + dx, y2 + dy
    elif y1 == y2:  # stretch one endpoint along the segment axis
        x2 += rng.choice((-1, 1))
    else:
        y2 += rng.choice((-1, 1))
    if (x1, y1) > (x2, y2):
        x1, y1, x2, y2 = x2, y2, x1, y1
    rows[si] = [x1, y1, x2, y2, layer]
    try:
        edited = WireTable.from_rows(
            *zip(*rows), None, [0, len(rows)], [table.wire_u[wi]],
            [table.wire_v[wi]], [table.wire_edge_key[wi]], {},
        )
    except (WirePathError, ValueError):
        return False  # mutation produced a non-path; skip
    lay.splice(wi, wi + 1, edited)
    return True


# ---------------------------------------------------------------------------
# Network (de)serialization for the counterexample corpus


def network_to_doc(net: Network) -> dict:
    """A JSON-able document capturing the graph exactly."""
    return {
        "name": net.name,
        "nodes": [_encode_label(v) for v in net.nodes],
        "edges": [
            [_encode_label(u), _encode_label(v)] for u, v in net.edges
        ],
    }


def network_from_doc(doc: dict) -> Network:
    """Rebuild a network serialized by :func:`network_to_doc`."""
    nodes = [_decode_label(v) for v in doc["nodes"]]
    edges = [
        (_decode_label(u), _decode_label(v)) for u, v in doc["edges"]
    ]
    return build_network(nodes, edges, doc.get("name", "corpus"))
