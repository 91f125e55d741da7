"""Traffic patterns for network simulation.

The classic kernels used to evaluate interconnection networks: each
function returns a list of (source, destination) messages -- or timed
(source, destination, start_cycle) triples -- over the network's
nodes.  Randomized patterns are seeded for reproducibility.

The **workload zoo** behind :func:`make_workload` is what the engine
parity suite, the ``traffic`` fuzz stage, and the saturation sweeps
consume: a registry of named generators (:data:`WORKLOAD_KINDS`) that
are pure functions of ``(network, seed, parameters)``, so every
stream is deterministic per seed.

Trace replay closes the loop: :func:`save_trace`/:func:`load_trace`
serialize any message stream as JSONL, and ``make_workload("trace",
net, trace=...)`` re-validates and replays it, so measured traffic
from one run (or an external trace) can drive another.
"""

from __future__ import annotations

import json
import random
from typing import Hashable, Iterable

from repro.topology.base import Network
from repro.topology.hypercube import Hypercube

__all__ = [
    "random_permutation",
    "bit_complement",
    "transpose",
    "bit_reversal",
    "all_to_all",
    "hot_spot",
    "rate_injection",
    "uniform",
    "hotspot_traffic",
    "bursty",
    "adversarial_permutation",
    "trace_replay",
    "save_trace",
    "load_trace",
    "make_workload",
    "WORKLOAD_KINDS",
]

Node = Hashable
Message = tuple[Node, Node]


def random_permutation(network: Network, *, seed: int = 2000) -> list[Message]:
    """Every node sends to a distinct random node (a permutation)."""
    rng = random.Random(seed)
    nodes = list(network.nodes)
    targets = nodes[:]
    while True:
        rng.shuffle(targets)
        if all(s != t for s, t in zip(nodes, targets)):
            break
    return list(zip(nodes, targets))


def bit_complement(network: Network) -> list[Message]:
    """Hypercube-style worst case: node -> bitwise complement.

    For non-integer node labels, pairs node i with node N-1-i in
    canonical order (the same adversarial "maximum distance" spirit).
    """
    nodes = list(network.nodes)
    if isinstance(network, Hypercube):
        mask = (1 << network.n) - 1
        return [(u, u ^ mask) for u in nodes]
    n = len(nodes)
    return [(nodes[i], nodes[n - 1 - i]) for i in range(n) if i != n - 1 - i]


def transpose(network: Network) -> list[Message]:
    """Digit/bit transpose: swap the two halves of the address."""
    nodes = list(network.nodes)
    out: list[Message] = []
    if isinstance(network, Hypercube):
        n = network.n
        half = n // 2
        lo_mask = (1 << half) - 1
        for u in nodes:
            v = ((u & lo_mask) << (n - half)) | (u >> half)
            if u != v:
                out.append((u, v))
        return out
    for u in nodes:
        if isinstance(u, tuple):
            half = len(u) // 2
            v = u[half:] + u[:half]
            if v != u and v in network.index:
                out.append((u, v))
    if not out:
        raise ValueError(f"transpose undefined for {network.name}")
    return out


def all_to_all(network: Network) -> list[Message]:
    """Every ordered pair once (use on small networks)."""
    nodes = list(network.nodes)
    return [(u, v) for u in nodes for v in nodes if u != v]


def rate_injection(
    network: Network,
    *,
    rate: float,
    duration: int,
    seed: int = 2000,
) -> list[tuple[Node, Node, int]]:
    """Timed uniform-random traffic: each node injects a message to a
    uniformly random other node with probability ``rate`` per cycle,
    for ``duration`` cycles.  Returns (src, dst, start) triples for the
    simulator's load sweeps.
    """
    if not (0.0 < rate <= 1.0):
        raise ValueError("0 < rate <= 1")
    rng = random.Random(seed)
    nodes = list(network.nodes)
    out: list[tuple[Node, Node, int]] = []
    for t in range(duration):
        for u in nodes:
            if rng.random() < rate:
                v = rng.choice(nodes)
                while v == u:
                    v = rng.choice(nodes)
                out.append((u, v, t))
    return out


def hot_spot(
    network: Network, *, spot: Node | None = None, fraction: float = 1.0,
    seed: int = 2000,
) -> list[Message]:
    """A fraction of nodes all send to one hot node."""
    rng = random.Random(seed)
    nodes = list(network.nodes)
    target = spot if spot is not None else nodes[0]
    senders = [v for v in nodes if v != target]
    if fraction < 1.0:
        count = max(1, int(len(senders) * fraction))
        senders = rng.sample(senders, count)
    return [(s, target) for s in senders]


# ---------------------------------------------------------------------------
# Workload zoo


def uniform(
    network: Network, *, rate: float, duration: int, seed: int = 0,
) -> list[tuple[Node, Node, int]]:
    """Timed uniform-random traffic (the zoo name for rate injection)."""
    return rate_injection(network, rate=rate, duration=duration, seed=seed)


def hotspot_traffic(
    network: Network,
    *,
    rate: float,
    duration: int,
    seed: int = 0,
    hot_fraction: float = 0.5,
    spot: Node | None = None,
) -> list[tuple[Node, Node, int]]:
    """Timed traffic with a hot destination.

    Each cycle each node injects with probability ``rate``; the
    destination is the hot ``spot`` (default: the first node) with
    probability ``hot_fraction``, else uniform random -- the classic
    pattern whose saturation collapses far below uniform's knee.
    """
    if not (0.0 < rate <= 1.0):
        raise ValueError("0 < rate <= 1")
    if not (0.0 <= hot_fraction <= 1.0):
        raise ValueError("0 <= hot_fraction <= 1")
    rng = random.Random(seed)
    nodes = list(network.nodes)
    target = spot if spot is not None else nodes[0]
    if target not in network.index:
        raise ValueError(f"hot spot {target!r} is not a node")
    out: list[tuple[Node, Node, int]] = []
    for t in range(duration):
        for u in nodes:
            if rng.random() >= rate:
                continue
            if u != target and rng.random() < hot_fraction:
                v = target
            else:
                v = rng.choice(nodes)
                while v == u:
                    v = rng.choice(nodes)
            out.append((u, v, t))
    return out


def bursty(
    network: Network,
    *,
    rate: float,
    duration: int,
    seed: int = 0,
    p_on: float = 0.2,
    p_off: float = 0.3,
) -> list[tuple[Node, Node, int]]:
    """ON/OFF (bursty) traffic: a two-state Markov source per node.

    Each node flips OFF->ON with probability ``p_on`` and ON->OFF with
    ``p_off`` per cycle (geometric burst/idle lengths averaging
    ``1/p_off`` and ``1/p_on``); while ON it injects to a uniform
    random destination with probability ``rate``.  Long-run offered
    load is ``rate * p_on / (p_on + p_off)`` per node-cycle -- same
    average as a thinner uniform stream, but clustered, which is what
    stresses queue depth.
    """
    if not (0.0 < rate <= 1.0):
        raise ValueError("0 < rate <= 1")
    if not (0.0 < p_on <= 1.0 and 0.0 < p_off <= 1.0):
        raise ValueError("0 < p_on, p_off <= 1")
    rng = random.Random(seed)
    nodes = list(network.nodes)
    on = [False] * len(nodes)
    out: list[tuple[Node, Node, int]] = []
    for t in range(duration):
        for i, u in enumerate(nodes):
            if on[i]:
                if rng.random() < p_off:
                    on[i] = False
            elif rng.random() < p_on:
                on[i] = True
            if on[i] and rng.random() < rate:
                v = rng.choice(nodes)
                while v == u:
                    v = rng.choice(nodes)
                out.append((u, v, t))
    return out


def bit_reversal(network: Network) -> list[Message]:
    """Bit-reversal permutation (FFT/transpose-style worst case).

    On a :class:`Hypercube`, node addresses reverse their ``n`` bits.
    On any other network, canonical node *positions* reverse their
    bits within ``ceil(log2 N)`` digits; reversed positions landing at
    or beyond ``N`` are dropped (standard practice on non-power-of-two
    node counts), so the kernel is defined for every network.
    """
    nodes = list(network.nodes)
    n_nodes = len(nodes)
    if n_nodes < 2:
        return []
    if isinstance(network, Hypercube):
        bits = network.n
        rev = lambda u: int(format(u, f"0{bits}b")[::-1], 2)  # noqa: E731
        return [(u, rev(u)) for u in nodes if u != rev(u)]
    bits = max(1, (n_nodes - 1).bit_length())
    out: list[Message] = []
    for i, u in enumerate(nodes):
        j = int(format(i, f"0{bits}b")[::-1], 2)
        if j < n_nodes and j != i:
            out.append((u, nodes[j]))
    return out


def adversarial_permutation(
    network: Network, *, seed: int = 0,
) -> list[Message]:
    """A seeded max-distance permutation: every node sends far away.

    Greedy matching in seeded random node order: each source takes the
    hop-farthest still-unused destination (smallest canonical index on
    ties).  A source forced onto itself swaps destinations with an
    earlier pair, so on a connected network the result is always a
    derangement -- worst-case path lengths with none of the free
    self-sends.  Deterministic per seed; quadratic in N (all-sources
    BFS), so meant for evaluation-sized networks.
    """
    nodes = list(network.nodes)
    if len(nodes) < 2:
        return []
    index = network.index
    rng = random.Random(seed)
    order = nodes[:]
    rng.shuffle(order)
    taken: dict[Node, Node] = {}  # src -> dst, insertion in match order
    used: set[Node] = set()
    for src in order:
        dist = network.bfs_distances(src)
        best = None
        for v in nodes:
            if v in used:
                continue
            key = (-dist.get(v, 0), index[v])
            if best is None or key < best[0]:
                best = (key, v)
        dst = best[1]
        if dst == src:
            # Forced self-send: swap with an earlier pair (one always
            # exists on a connected network once N >= 2, because a
            # source only gets stuck on itself after every other
            # destination is taken).
            other = next((s for s in taken if taken[s] != src), None)
            if other is None:
                used.add(src)
                taken[src] = src
                continue
            taken[src] = taken[other]
            taken[other] = src
            used.add(src)
        else:
            taken[src] = dst
            used.add(dst)
    return [(u, taken[u]) for u in nodes]


def trace_replay(
    network: Network, *, trace: Iterable,
) -> list[tuple[Node, Node, int]]:
    """Validate and replay a recorded message stream on ``network``.

    ``trace`` rows are ``(src, dst)`` or ``(src, dst, start)``; every
    endpoint must be a node of ``network`` and starts must be
    non-negative ints.  Returns normalized timed triples in trace
    order (pairs get start 0), so a stream captured on one layout
    drives an identical simulation on another.
    """
    index = network.index
    out: list[tuple[Node, Node, int]] = []
    for row in trace:
        if len(row) == 3:
            src, dst, start = row
        else:
            src, dst = row
            start = 0
        if src not in index or dst not in index:
            raise ValueError(f"trace endpoint off-network: {(src, dst)!r}")
        if not isinstance(start, int) or start < 0:
            raise ValueError(f"bad trace start cycle: {start!r}")
        out.append((src, dst, start))
    return out


def _freeze_node(v):
    """JSON round-trip: lists (serialized tuples) back to tuples."""
    if isinstance(v, list):
        return tuple(_freeze_node(x) for x in v)
    return v


def save_trace(path, msgs: Iterable) -> int:
    """Write a message stream as JSONL rows ``[src, dst, start]``.

    Returns the number of rows written.  Pairs are stored with start
    0, so a saved trace always round-trips through timed replay.
    """
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for row in msgs:
            if len(row) == 3:
                src, dst, start = row
            else:
                src, dst = row
                start = 0
            fh.write(json.dumps([src, dst, start]) + "\n")
            n += 1
    return n


def load_trace(path) -> list[tuple[Node, Node, int]]:
    """Read a :func:`save_trace` JSONL file back into timed triples.

    Tuple node labels (serialized as JSON arrays) are restored to
    tuples, so traces of tuple-labeled networks replay unchanged.
    """
    out: list[tuple[Node, Node, int]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            src, dst, start = json.loads(line)
            out.append((_freeze_node(src), _freeze_node(dst), int(start)))
    return out


#: The zoo: every named workload :func:`make_workload` can generate.
WORKLOAD_KINDS = (
    "uniform",
    "hotspot",
    "transpose",
    "bit-reversal",
    "bursty",
    "adversarial",
    "trace",
)


def make_workload(
    kind: str,
    network: Network,
    *,
    seed: int = 0,
    rate: float = 0.1,
    duration: int = 64,
    **params,
) -> list:
    """Generate one of the :data:`WORKLOAD_KINDS` streams.

    A single entry point with uniform seeding, used by the CLI, the
    saturation sweeps, the parity suite, and the ``traffic`` fuzz
    stage.  ``rate``/``duration`` drive the timed kinds (``uniform``,
    ``hotspot``, ``bursty``) and are ignored by the permutation kinds;
    extra ``params`` pass through to the generator (``hot_fraction``,
    ``spot``, ``p_on``, ``p_off``, ``trace``).  ``transpose`` raises
    :class:`ValueError` on networks where it is undefined, exactly as
    the bare kernel does.
    """
    if kind == "uniform":
        return uniform(network, rate=rate, duration=duration, seed=seed)
    if kind == "hotspot":
        return hotspot_traffic(
            network, rate=rate, duration=duration, seed=seed, **params
        )
    if kind == "transpose":
        return transpose(network)
    if kind == "bit-reversal":
        return bit_reversal(network)
    if kind == "bursty":
        return bursty(
            network, rate=rate, duration=duration, seed=seed, **params
        )
    if kind == "adversarial":
        return adversarial_permutation(network, seed=seed)
    if kind == "trace":
        trace = params.get("trace")
        if trace is None:
            raise ValueError("trace workload needs trace=... rows")
        return trace_replay(network, trace=trace)
    raise ValueError(
        f"unknown workload {kind!r}; known: {', '.join(WORKLOAD_KINDS)}"
    )

