"""Exact minimum cutwidth: the true optimum for collinear layouts.

A collinear layout under a node order needs exactly max-cut(order)
tracks (left-edge optimality), so the *minimum over orders* -- the
graph's cutwidth -- is the best any collinear layout can do.  This
module computes it exactly by dynamic programming over vertex subsets:

    dp[S] = min over v in S of max(dp[S - v], cut(S))

where ``cut(S)`` counts edges between S and its complement.  O(2^n n)
time with bitmask adjacency; practical to ~20 nodes, which covers the
instances needed to certify the paper's orders:

* the ring's 2 tracks and K_N's |N^2/4| are exactly optimal;
* binary order achieves the hypercube's true cutwidth (|2N/3|,
  Harper); the 3-ary 2-cube's 8 tracks are exactly optimal;
* the left-edge GHC(4,4) layout (18 tracks, beating the paper's
  recurrence value of 20) is certified optimal too.

The DP kernels themselves -- a popcount-layer gather over numpy
arrays -- live in :mod:`repro.accel` (``cutwidth_dp`` /
``cut_profile``); this module keeps the public API, the node-limit
policy and the backtracking.
"""

from __future__ import annotations

from repro import accel as _accel
from repro import obs
from repro.topology.base import Network

__all__ = [
    "DP_NODE_LIMIT",
    "exact_cutwidth",
    "optimal_order",
    "cutwidth_certificate",
]

#: Largest node count any exact-cutwidth entry point accepts by
#: default.  The DP holds 2^n states (plus an equally sized cut table
#: and carry rows), so 20 nodes ~ 1M states is where both memory and
#: time stop being interactive.  All of :func:`exact_cutwidth`,
#: :func:`optimal_order` and :func:`cutwidth_certificate` share this
#: cap -- they run the same DP, so there is no reason for their limits
#: to differ.
DP_NODE_LIMIT = 20


def _check_limit(fn_name: str, n: int, limit: int) -> None:
    if n > limit:
        raise ValueError(
            f"{fn_name}: {n} nodes exceed the exact-DP node limit "
            f"({limit}); the DP holds 2^n states"
        )


def _cutwidth_dp(network: Network, n: int):
    """The full ``(dp, cut)`` ndarrays over all 2^n vertex subsets,
    indexed by subset bitmask."""
    return _accel.cutwidth_dp(network, n)


def exact_cutwidth(network: Network, *, limit: int = DP_NODE_LIMIT) -> int:
    """The graph's exact cutwidth (minimum collinear track count).

    Raises ``ValueError`` beyond ``limit`` nodes (default
    :data:`DP_NODE_LIMIT`; the DP holds 2^n entries).  Parallel edges
    each count toward the cut.
    """
    n = network.num_nodes
    _check_limit("exact_cutwidth", n, limit)
    if n <= 1:
        return 0
    size = 1 << n
    with obs.span("exact_cutwidth", n=n, states=size):
        dp, _ = _cutwidth_dp(network, n)
    obs.count("cutwidth.dp_runs")
    obs.count("cutwidth.dp_states", size)
    return int(dp[size - 1])


def cutwidth_certificate(
    network: Network, *, limit: int = DP_NODE_LIMIT
) -> tuple[int, list]:
    """``(cutwidth, order)`` with the order achieving the cutwidth.

    One DP run instead of the two that separate
    :func:`exact_cutwidth` + :func:`optimal_order` calls would cost --
    the differential fuzzer certifies every small network this way, so
    the saving is on its hot path.
    """
    n = network.num_nodes
    _check_limit("cutwidth_certificate", n, limit)
    order = optimal_order(network, limit=limit)
    if not order:
        return 0, order
    # The order's max cut IS the cutwidth (backtracking preserves the
    # dp optimum); recompute it directly instead of re-running the DP.
    # Each edge contributes +1 to every gap it spans: the
    # ``cut_profile`` kernel accumulates a difference array and
    # prefix-sums it, O(E + n) instead of the O(E * span) of walking
    # every gap per edge.
    pos = {v: p for p, v in enumerate(order)}
    pairs = []
    for u, v in network.edges:
        pu, pv = pos[u], pos[v]
        if pu > pv:
            pu, pv = pv, pu
        pairs.append((pu, pv))
    best = _accel.cut_profile(len(order), pairs)
    return int(best), order


def optimal_order(network: Network, *, limit: int = DP_NODE_LIMIT) -> list:
    """An order achieving the exact cutwidth, by DP backtracking."""
    n = network.num_nodes
    _check_limit("optimal_order", n, limit)
    if n == 0:
        return []
    nodes = list(network.nodes)
    size = 1 << n
    with obs.span("optimal_order", n=n, states=size):
        dp, cut = _cutwidth_dp(network, n)
    obs.count("cutwidth.dp_runs")
    obs.count("cutwidth.dp_states", size)

    # Backtrack: peel off a final vertex that realizes dp[S].
    order_rev: list[int] = []
    s = size - 1
    while s:
        t = s
        while t:
            b = t & -t
            t -= b
            if max(dp[s - b], cut[s]) == dp[s]:
                order_rev.append(b.bit_length() - 1)
                s -= b
                break
        else:  # pragma: no cover - dp invariant guarantees a choice
            raise AssertionError("dp backtrack failed")
    return [nodes[i] for i in reversed(order_rev)]
