"""Left-edge track packing and cut-width computation.

Every collinear layout in the paper is, combinatorially, an assignment
of edge intervals to *tracks* such that intervals sharing a track do not
properly overlap (they may touch at a shared endpoint, because distinct
wires attach to distinct pins of a node and therefore never actually
collide at the node position -- see Section 2.1 / Figure 2).

With that sharing rule, the minimum number of tracks equals the maximum
number of intervals *properly containing* some point (the max cut of the
linear arrangement), and the classical left-edge algorithm achieves it.
This module provides both, so the layouts can be constructed and the
paper's closed-form track counts verified against an optimality
certificate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as _np

__all__ = ["Interval", "left_edge", "pack_intervals", "max_overlap", "cuts"]


@dataclass(frozen=True, slots=True)
class Interval:
    """A horizontal extent ``[lo, hi]`` owned by ``tag`` (an edge)."""

    lo: int
    hi: int
    tag: Hashable = None

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError(f"empty interval: {self}")


def left_edge(channel, lo, hi, channels: int) -> tuple[list[int], list[int]]:
    """Left-edge pack the intervals ``[lo[i], hi[i]]`` of every channel.

    ``channel``, ``lo`` and ``hi`` are int columns, one entry per
    interval, with channels numbered ``0 .. channels - 1``.  Each
    channel is packed on its own: its intervals are taken in
    ``(lo, hi, index)`` order, and each goes on the lowest-numbered
    track free at its ``lo``.  Two intervals share a track iff their
    interiors are disjoint (touching endpoints allowed).

    Returns ``(track per interval, tracks per channel)``; each
    channel's count equals its max proper overlap, so the packing is
    optimal.
    """
    channel, lo, hi = (_np.asarray(a, dtype=_np.int64) for a in (channel, lo, hi))
    order = _np.lexsort((hi, lo, channel)).tolist()
    chans, los, his = channel.tolist(), lo.tolist(), hi.tolist()
    track = [0] * len(order)
    totals = [0] * channels
    current = -1
    # Min-heap of (right_end, track) for busy tracks; a free-track pool.
    busy: list[tuple[int, int]] = []
    free: list[int] = []
    next_track = 0
    for idx in order:
        c = chans[idx]
        if c != current:
            if current >= 0:
                totals[current] = next_track
            current, busy, free, next_track = c, [], [], 0
        left = los[idx]
        while busy and busy[0][0] <= left:
            heapq.heappush(free, heapq.heappop(busy)[1])
        if free:
            t = heapq.heappop(free)
        else:
            t = next_track
            next_track += 1
        track[idx] = t
        heapq.heappush(busy, (his[idx], t))
    if current >= 0:
        totals[current] = next_track
    return track, totals


def pack_intervals(intervals: Sequence[Interval]) -> tuple[dict[int, int], int]:
    """Assign each interval to a track via the left-edge algorithm.

    Returns ``(assignment, num_tracks)`` where ``assignment`` maps the
    *index* of each interval (position in the input sequence) to a track
    in ``0 .. num_tracks - 1``.  Two intervals may share a track iff
    their interiors are disjoint (touching endpoints allowed).

    The assignment is optimal: ``num_tracks == max_overlap(intervals)``.
    Endpoints may be any mutually comparable values; they are ranked
    and packed by :func:`left_edge` as one channel.
    """
    ends = sorted({e for iv in intervals for e in (iv.lo, iv.hi)})
    rank = {e: r for r, e in enumerate(ends)}
    track, totals = left_edge(
        [0] * len(intervals),
        [rank[iv.lo] for iv in intervals],
        [rank[iv.hi] for iv in intervals],
        1,
    )
    return dict(enumerate(track)), totals[0]


def max_overlap(intervals: Iterable[Interval]) -> int:
    """Maximum number of intervals properly overlapping at a point.

    This is the max cut of the arrangement and a lower bound on (hence,
    by left-edge, equal to) the number of tracks needed.
    """
    events: list[tuple[int, int]] = []
    for iv in intervals:
        events.append((iv.lo, 1))
        events.append((iv.hi, -1))
    # Process all closings at a coordinate before openings: touching
    # intervals do not overlap.
    events.sort(key=lambda e: (e[0], e[1]))
    depth = best = 0
    for _, delta in events:
        depth += delta
        best = max(best, depth)
    return best


def cuts(intervals: Iterable[Interval], positions: Iterable[int]) -> list[int]:
    """Edge-cut profile: for each ``p`` count intervals with
    ``lo <= p < hi`` (edges crossing the gap between ``p`` and
    ``p + 1``).  Matches the cut-width bookkeeping used in tests."""
    ivs = list(intervals)
    out = []
    for p in positions:
        out.append(sum(1 for iv in ivs if iv.lo <= p < iv.hi))
    return out


def verify_packing(
    intervals: Sequence[Interval], assignment: dict[int, int]
) -> bool:
    """Check that no two intervals on one track properly overlap."""
    by_track: dict[int, list[Interval]] = {}
    for idx, track in assignment.items():
        by_track.setdefault(track, []).append(intervals[idx])
    for ivs in by_track.values():
        ivs.sort(key=lambda iv: iv.lo)
        for a, b in zip(ivs, ivs[1:]):
            if b.lo < a.hi:
                return False
    return True
