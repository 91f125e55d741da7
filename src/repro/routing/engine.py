"""Batched event engine: the fast path for traffic simulation.

:func:`simulate_fast` reproduces :func:`repro.routing.simulator.simulate`
field-for-field -- same ``SimulationResult``, same deterministic
lowest-index-wins link arbitration, same queue-depth accounting, same
busiest-link tie-break -- while replacing the oracle's per-packet heap
with a calendar queue of time buckets and per-link waiter heaps.

Why it is fast
--------------
The oracle parks every waiter back on the global event heap at the
link's free time, so releasing a link with ``Q`` waiters re-pops all
``Q`` of them, every cycle, until the queue drains: ``O(Q^2)`` heap
traffic per queue, which is exactly the regime (saturation) where the
paper's latency claims live.  The engine keeps one min-heap of waiting
message indices per link and wakes each link **once** per release, so
total event work is linear in delivered hops.  Each bucket's movers are
handled in place, one pass in ascending message index.  All state lives
in plain python lists: the arbitration loop is scalar element access,
where list indexing beats ndarray item access several-fold, and an
int64 batch path over large buckets measured slower end to end at
saturation than this scalar loop.  The three hot paths (uncontended
acquire, busy-link join, wake) push onto the calendar inline; only the
rare contended arbitration is a helper call.  Each message walks a
cursor into one flat array of hop link ids.  Links are recorded in a
list at their first acquisition, which happens in the oracle's dict
insertion order, so the result dicts need no sort.

Set-up runs on integer node ids.  Each call builds its own
:class:`~repro.routing.paths.RoutingTable` (span ``routing.table``),
then walks its next-hop array for every message at once into per-hop
link ids (span ``simulate.routes``); only the links actually used are
turned back into label pairs, for delays and the result dicts.

Parity caveat: when a hop's advance delay is 0 (``router_overhead=0``
with zero-delay wires) a message hops several times inside one cycle
and the oracle interleaves those sub-steps by message index, which the
batch model replays in hop-waves instead.  Latencies and per-link
totals still agree, but the busiest-link tie-break and the queue-depth
tally may not (``test_zero_delay_order_is_pinned`` pins the engine's
own answer); every delay model in this repo (and
``router_overhead >= 1``) keeps advances positive, where parity is
exact.
"""

from __future__ import annotations

import heapq
from typing import Callable, Hashable

import numpy as np

from repro import obs
from repro.grid.layout import GridLayout
from repro.obs.metrics import Histogram
from repro.routing.paths import RoutingTable, shortest_hop_routes
from repro.routing.simulator import (
    LATENCY_BOUNDS,
    SimulationResult,
    _finalize_result,
    _hop_costs,
    _resolve_link_delay,
)
from repro.topology.base import Network

__all__ = [
    "simulate_fast",
    "saturation_sweep",
    "knee_point",
]

Node = Hashable
Message = tuple[Node, Node]


def simulate_fast(
    network: Network,
    messages: list[Message],
    *,
    layout: GridLayout | None = None,
    router: RoutingTable | Callable[[Node, Node], list] | None = None,
    link_delay: dict[tuple[Node, Node], int] | None = None,
    default_delay: int = 1,
    router_overhead: int = 1,
    mode: str = "store_forward",
    message_length: int = 1,
    max_cycles: int = 10_000_000,
) -> SimulationResult:
    """Drop-in fast replacement for :func:`repro.routing.simulator.simulate`.

    Same signature and semantics (see there for the parameter story).
    Results match the oracle field-for-field; the parity suite and the
    ``traffic`` fuzz stage enforce it.
    """
    link_delay = _resolve_link_delay(layout, link_delay)
    delay_of = _hop_costs(
        link_delay, default_delay, router_overhead, mode, message_length
    )
    if router is None:
        router = shortest_hop_routes(network)
    with obs.span("simulate.routes", messages=len(messages)):
        starts, flat, offsets, link_pairs = _message_routes(
            network, messages, router
        )
        n_msgs = len(starts)
        n_links = len(link_pairs)
        d_of = [0] * n_links
        busy_of = [0] * n_links
        for li, pair in enumerate(link_pairs):
            d, b = delay_of(*pair)
            # Plain python ints: the arbitration loop does arithmetic on
            # these per hop, and WireTable delays may arrive as np.int64.
            d_of[li] = int(d)
            busy_of[li] = int(b)
    tail = message_length - 1 if mode == "cut_through" else 0

    # Message i's next hop is flat[pos[i]]; it has arrived once pos[i]
    # reaches end[i].  A link's busy time is its load times busy_of, and
    # its queue length is len(queues[li]).
    pos = offsets[:-1]
    end = offsets[1:]
    free = [0] * n_links
    load = [0] * n_links
    wake_sched = [-1] * n_links
    queues: list[list[int]] = [[] for _ in range(n_links)]
    # Links in order of first acquisition: the oracle's dict order.
    first_use: list[int] = []

    depth_hist: dict[int, int] = {}
    lat_hist = Histogram(LATENCY_BOUNDS)
    lats: list[int] = []
    makespan = 0
    active = n_msgs
    events = 0

    # Calendar queue: message and wake events live in per-time buckets,
    # and ``times`` is a heap of the times that have a bucket.  A time
    # is pushed when its first bucket opens, so each appears once.
    msg_at: dict[int, list[int]] = {}
    wake_at: dict[int, list[int]] = {}
    for i, s in enumerate(starts):
        s = int(s)
        bucket = msg_at.get(s)
        if bucket is None:
            msg_at[s] = [i]
        else:
            bucket.append(i)
    times = list(msg_at)
    heapq.heapify(times)
    heappop = heapq.heappop
    heappush = heapq.heappush

    def resolve(li, i, t_now):
        """Arbitrate link ``li`` at ``t_now`` between its waiters and
        mover ``i`` (``-1`` for none).

        Matches the oracle exactly: while the link is free, the lowest
        index among (queued waiters, mover) wins; a mover left over
        joins the waiter heap, recording the queue depth it found (its
        own slot included).  The link has waiters, so it was acquired
        before and none of these wins is a first use.
        """
        q = queues[li]
        f = free[li]
        b = busy_of[li]
        nt = t_now + d_of[li]
        while f <= t_now and (q or i >= 0):
            if q and (i < 0 or q[0] < i):
                w = heappop(q)
            else:
                w, i = i, -1
            f = t_now + b
            load[li] += 1
            pos[w] += 1
            bucket = msg_at.get(nt)
            if bucket is None:
                msg_at[nt] = [w]
                if nt not in wake_at:
                    heappush(times, nt)
            else:
                bucket.append(w)
        free[li] = f
        if i >= 0:
            heappush(q, i)
            depth = len(q)
            depth_hist[depth] = depth_hist.get(depth, 0) + 1
        if q and wake_sched[li] != f:
            wake_sched[li] = f
            bucket = wake_at.get(f)
            if bucket is None:
                wake_at[f] = [li]
                if f not in msg_at:
                    heappush(times, f)
            else:
                bucket.append(li)

    # The three hot paths below (uncontended acquire, busy-link join,
    # wake) push onto the calendar inline.  A wake is always scheduled
    # after the current time, so a stale ``wake_sched`` entry never
    # equals a new wake time and needs no reset.
    with obs.span(
        "simulate.engine", messages=n_msgs, mode=mode,
        message_length=message_length,
    ) as sp:
        while active and times:
            t_now = heappop(times)
            movers = msg_at.pop(t_now, None)
            wakes = wake_at.pop(t_now, None)
            events += (len(movers) if movers else 0) + (
                len(wakes) if wakes else 0
            )
            if events > max_cycles:
                raise RuntimeError("simulation exceeded max_cycles")
            if movers:
                # One pass in ascending message index, each mover handled
                # in place: the first mover a link sees in this bucket is
                # the lowest index, and later ones find it busy and queue,
                # which is the oracle's grouped arbitration.  First uses
                # therefore happen in winner-index order, the order in
                # which the oracle inserts into its link dicts.
                movers.sort()
                for i in movers:
                    p = pos[i]
                    if p == end[i]:
                        done = t_now + tail if p != offsets[i] else t_now
                        if done > makespan:
                            makespan = done
                        lats.append(done - starts[i])
                        active -= 1
                        continue
                    li = flat[p]
                    f = free[li]
                    if f > t_now:
                        # Busy link: join the waiter heap, record the
                        # depth found (own slot included), exactly once.
                        q = queues[li]
                        heappush(q, i)
                        depth = len(q)
                        depth_hist[depth] = depth_hist.get(depth, 0) + 1
                        if wake_sched[li] != f:
                            wake_sched[li] = f
                            bucket = wake_at.get(f)
                            if bucket is None:
                                wake_at[f] = [li]
                                if f not in msg_at:
                                    heappush(times, f)
                            else:
                                bucket.append(li)
                    elif not queues[li]:
                        # Free link, no waiters: uncontended acquire.
                        free[li] = t_now + busy_of[li]
                        n = load[li]
                        if not n:
                            first_use.append(li)
                        load[li] = n + 1
                        pos[i] = p + 1
                        nt = t_now + d_of[li]
                        bucket = msg_at.get(nt)
                        if bucket is None:
                            msg_at[nt] = [i]
                            if nt not in wake_at:
                                heappush(times, nt)
                        else:
                            bucket.append(i)
                    else:
                        resolve(li, i, t_now)
            if wakes:
                # A pending wake whose link is still free at t_now was
                # not serviced by this bucket's movers: its queue is
                # intact, and the head waiter wins unconditionally.  A
                # link already re-acquired this bucket (free > t_now) had
                # its queue arbitrated by resolve(), which scheduled the
                # next wake.
                for li in wakes:
                    if free[li] > t_now:
                        continue
                    q = queues[li]
                    b = busy_of[li]
                    if not q or not b:
                        # Zero busy time drains several waiters per
                        # cycle; keep that rarity in the general path.
                        resolve(li, -1, t_now)
                        continue
                    w = heappop(q)
                    free[li] = f = t_now + b
                    load[li] += 1
                    pos[w] += 1
                    nt = t_now + d_of[li]
                    bucket = msg_at.get(nt)
                    if bucket is None:
                        msg_at[nt] = [w]
                        if nt not in wake_at:
                            heappush(times, nt)
                    else:
                        bucket.append(w)
                    if q:
                        wake_sched[li] = f
                        bucket = wake_at.get(f)
                        if bucket is None:
                            wake_at[f] = [li]
                            if f not in msg_at:
                                heappush(times, f)
                        else:
                            bucket.append(li)
        sp.add("events", events)

    if active:
        raise RuntimeError("simulation ended with unfinished messages")

    # Latency observations are order-insensitive (count/sum/min/max and
    # bucket tallies all commute, and integer sums are exact in float64
    # far below 2**53), so one bulk pass lands byte-identical to the
    # oracle's per-arrival observations.
    lat_hist.observe_many(lats)

    link_load: dict[tuple, int] = {}
    link_busy_time: dict[tuple, int] = {}
    for li in first_use:
        pair = link_pairs[li]
        link_load[pair] = load[li]
        link_busy_time[pair] = load[li] * busy_of[li]
    return _finalize_result(
        makespan=int(makespan),
        lat_hist=lat_hist,
        n_messages=n_msgs,
        link_load=link_load,
        link_busy_time=link_busy_time,
        depth_hist=depth_hist,
        events=events,
    )


def _message_routes(
    network: Network,
    messages: list[Message],
    router: RoutingTable | Callable[[Node, Node], list],
) -> tuple[list[int], list[int], list[int], list[tuple]]:
    """Resolve messages to ``(starts, flat, offsets, link_pairs)``.

    Message ``i``'s hops are the link ids ``flat[offsets[i]:offsets[i +
    1]]``; link ``li`` is the directed label pair ``link_pairs[li]``.
    Routes are computed on integer node ids: a :class:`RoutingTable` is
    walked for all messages at once, a callable router is asked once
    per distinct (src, dst) pair.  Link ids number the distinct
    ``u * N + v`` hop keys in ascending order; the result ordering
    (busiest-link tie-break) follows the first-acquisition sequence
    tracked during the run, not these ids.
    """
    srcs = [m[0] for m in messages]
    dsts = [m[1] for m in messages]
    starts = [m[2] if len(m) == 3 else 0 for m in messages]
    if isinstance(router, RoutingTable):
        nodes = router.nodes
        keys, nhops = _walk_table(router, srcs, dsts)
    else:
        nodes = network.nodes
        keys, nhops = _walk_callable(router, network.index, srcs, dsts)
    n = len(nodes)
    offsets = np.zeros(len(srcs) + 1, np.int64)
    np.cumsum(nhops, out=offsets[1:])
    used, flat = np.unique(keys, return_inverse=True)
    link_pairs = [(nodes[k // n], nodes[k % n]) for k in used.tolist()]
    return starts, flat.tolist(), offsets.tolist(), link_pairs


def _walk_table(table, srcs, dsts):
    """Per-hop ``u * N + v`` keys (message-major) and hop counts, by
    walking the next-hop array for every message at once."""
    n = len(table.nodes)
    index = table.index
    cur = np.fromiter(map(index.__getitem__, srcs), np.int64, len(srcs))
    dst = np.fromiter(map(index.__getitem__, dsts), np.int64, len(dsts))
    nh = table.next_hop.reshape(-1)
    nhops = np.zeros(len(srcs), np.int64)
    # Step k moves every message still en route by one hop; its keys
    # land at offsets[msg] + k once the hop counts are known.
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    live = np.flatnonzero(cur != dst)
    cur = cur[live]
    dst = dst[live]
    while live.size:
        nxt = nh[dst * n + cur]
        if (nxt < 0).any():
            i = int(live[np.flatnonzero(nxt < 0)[0]])
            raise KeyError((srcs[i], dsts[i]))
        steps.append((live, cur * n + nxt))
        more = nxt != dst
        nhops[live[~more]] = len(steps)
        live, cur, dst = live[more], nxt[more], dst[more]
    keys = np.empty(int(nhops.sum()), np.int64)
    base = np.cumsum(nhops) - nhops
    for k, (ids, step_keys) in enumerate(steps):
        keys[base[ids] + k] = step_keys
    return keys, nhops


def _walk_callable(router, index, srcs, dsts):
    """Per-hop keys and hop counts from a callable router, asked once
    per distinct (src, dst) pair."""
    n = len(index)
    memo: dict[tuple, list[int]] = {}
    keys: list[int] = []
    nhops: list[int] = []
    for pair in zip(srcs, dsts):
        hop_keys = memo.get(pair)
        if hop_keys is None:
            route = router(*pair)
            if len(route) < 1:
                raise ValueError("empty route")
            ids = [index[v] for v in route]
            memo[pair] = hop_keys = [
                u * n + v for u, v in zip(ids, ids[1:])
            ]
        keys.extend(hop_keys)
        nhops.append(len(hop_keys))
    return np.array(keys, np.int64), np.array(nhops, np.int64)


# ---------------------------------------------------------------------------
# Saturation sweeps


def saturation_sweep(
    network: Network,
    *,
    rates: list[float],
    duration: int,
    workload: str = "uniform",
    seed: int = 0,
    layout: GridLayout | None = None,
    router=None,
    link_delay=None,
    default_delay: int = 1,
    router_overhead: int = 1,
    mode: str = "store_forward",
    message_length: int = 1,
    workload_params: dict | None = None,
) -> list[dict]:
    """Offered-load vs latency curve: one simulation per rate.

    Returns one JSON-ready row per rate, sorted ascending:
    ``{"rate", "offered", "messages", "avg_latency", "p50", "p99",
    "max_latency", "makespan", "max_utilization"}`` where ``offered``
    is the measured injection rate (messages per node-cycle).  Feed the
    rows to :func:`knee_point` to locate the saturation knee.  Every
    run goes through :func:`simulate_fast`; without a ``router`` the
    shortest-hop table is built once for the whole sweep.
    """
    from repro.routing.traffic import make_workload

    if router is None:
        router = shortest_hop_routes(network)
    rows = []
    n_nodes = network.num_nodes
    for rate in sorted(rates):
        msgs = make_workload(
            workload, network, seed=seed, rate=rate, duration=duration,
            **(workload_params or {}),
        )
        res = simulate_fast(
            network, msgs, layout=layout, router=router,
            link_delay=link_delay, default_delay=default_delay,
            router_overhead=router_overhead, mode=mode,
            message_length=message_length,
        )
        rows.append({
            "rate": rate,
            "offered": (
                len(msgs) / (n_nodes * duration) if duration else 0.0
            ),
            "messages": len(msgs),
            "avg_latency": res.avg_latency,
            "p50": res.latency_p50,
            "p99": res.latency_p99,
            "max_latency": res.max_latency,
            "makespan": res.makespan,
            "max_utilization": res.max_utilization,
        })
    return rows


def knee_point(rows: list[dict], *, factor: float = 2.0) -> float | None:
    """The saturation knee of a :func:`saturation_sweep` curve.

    The knee is the first injection rate whose average latency exceeds
    ``factor`` times the zero-load latency (the curve's first rate with
    delivered traffic).  Returns that row's ``rate``, or ``None`` when
    the curve never knees in the measured range -- both outcomes are
    meaningful bench results.

    A degenerate curve -- empty, or with fewer than two rates that
    delivered any traffic -- has no interval to compare against the
    zero-load baseline, so it cleanly returns ``None`` instead of
    manufacturing a knee from a single point (a one-element
    ``--saturation`` list is the common way to get here).
    """
    delivered = [
        row
        for row in rows
        if row.get("messages") and row.get("avg_latency", 0) > 0
    ]
    if len(delivered) < 2:
        return None
    base = delivered[0]["avg_latency"]
    for row in delivered:
        if row["avg_latency"] > factor * base:
            return row["rate"]
    return None
