"""Wires: routed nets of the multilayer grid model.

A :class:`Wire` realizes one network edge as a connected rectilinear
path.  Consecutive segments must share a planar endpoint; where they
additionally differ in layer, the shared point is a *via* (an
inter-layer connector, Section 2.1 of the paper).  Where two
consecutive segments share layer and change direction, the shared point
is a *bend*; the Thompson model forbids two distinct wires from bending
at the same grid point (a knock-knee), which the validator checks.

Path connectivity is validated at construction by a tuple-level walk
(:func:`walk_path`); the full :class:`Point` vertex list is a *lazy*
derived property, materialized only when something actually asks for
``path_points``/``vias``/``bends`` -- at build time it used to be the
single largest avoidable allocation (it duplicates every segment
endpoint per wire), and the hot consumers now read the flat
:class:`~repro.grid.table.WireTable` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Sequence

from repro.grid.geometry import Point, Segment

__all__ = ["Wire", "WirePathError", "sorted_pair", "walk_path"]


class WirePathError(ValueError):
    """Raised when a wire's segments do not form a connected path."""


@dataclass(slots=True)
class Wire:
    """A routed connection between two network nodes.

    Parameters
    ----------
    u, v:
        The network nodes this wire connects (``u`` is the end the
        path's first segment starts at).
    segments:
        The rectilinear path, ordered from the ``u``-side pin to the
        ``v``-side pin.  Validated on construction.
    edge_key:
        Optional discriminator for parallel edges (multigraphs such as
        the butterfly quotient of Section 4.2 need it).
    riser:
        A pure z-direction wire (multilayer *3-D* grid model): the
        tuple ``(x, y, z_lo, z_hi)`` of a vertical run connecting nodes
        on two active layers at one planar point.  Mutually exclusive
        with ``segments``; build with :meth:`Wire.make_riser`.
    """

    u: Hashable
    v: Hashable
    segments: list[Segment]
    edge_key: int = 0
    riser: tuple[int, int, int, int] | None = None
    _pts: list[Point] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._pts = None
        if self.riser is not None:
            if self.segments:
                raise WirePathError(
                    f"wire {self.u}-{self.v}: riser wires carry no "
                    "planar segments"
                )
            x, y, zlo, zhi = self.riser
            if not (1 <= zlo < zhi):
                raise WirePathError(
                    f"wire {self.u}-{self.v}: bad riser layers {zlo}..{zhi}"
                )
            return
        if not self.segments:
            raise WirePathError(f"wire {self.u}-{self.v} has no segments")
        # Validate connectivity without materializing the vertex list.
        for _ in walk_path(self.segments, self.u, self.v):
            pass

    @property
    def _points(self) -> list[Point]:
        """The vertex list, traced lazily and cached."""
        pts = self._pts
        if pts is None:
            if self.riser is not None:
                x, y, zlo, zhi = self.riser
                pts = [Point(x, y, zlo), Point(x, y, zhi)]
            else:
                pts = _trace_path(self.segments, self.u, self.v)
            self._pts = pts
        return pts

    @staticmethod
    def make_riser(
        u: Hashable, v: Hashable, x: int, y: int, z_lo: int, z_hi: int,
        edge_key: int = 0,
    ) -> "Wire":
        """An inter-active-layer connection at planar point (x, y)."""
        return Wire(u, v, [], edge_key=edge_key, riser=(x, y, z_lo, z_hi))

    def path_points(self) -> list[Point]:
        """The wire's vertices in path order (u pin, bends, v pin)."""
        return list(self._points)

    @property
    def start(self) -> Point:
        """The pin point on the ``u`` side."""
        return self._points[0]

    @property
    def end(self) -> Point:
        """The pin point on the ``v`` side."""
        return self._points[-1]

    @property
    def length(self) -> int:
        """Total wire length in grid units (planar runs plus z-runs)."""
        if self.riser is not None:
            return self.riser[3] - self.riser[2]
        return sum(s.length for s in self.segments)

    def vias(self) -> list[tuple[int, int]]:
        """Planar positions where the wire changes layer."""
        if self.riser is not None:
            return [(self.riser[0], self.riser[1])]
        out: list[tuple[int, int]] = []
        for i in range(len(self.segments) - 1):
            s1, s2 = self.segments[i], self.segments[i + 1]
            if s1.layer != s2.layer:
                out.append(self._points[i + 1].planar())
        return out

    def bends(self) -> list[tuple[int, int]]:
        """Planar positions of interior vertices (direction or layer
        changes).  Used for knock-knee checking: no grid point may be a
        bend/via of two distinct wires."""
        return [p.planar() for p in self._points[1:-1]]

    def z_occupancy(self) -> list[tuple[tuple[int, int], int, int]]:
        """(planar point, z_lo, z_hi) for every z-run of the wire."""
        if self.riser is not None:
            x, y, zlo, zhi = self.riser
            return [((x, y), zlo, zhi)]
        out = []
        for i in range(len(self.segments) - 1):
            s1, s2 = self.segments[i], self.segments[i + 1]
            if s1.layer != s2.layer:
                lo = min(s1.layer, s2.layer)
                hi = max(s1.layer, s2.layer)
                out.append((self._points[i + 1].planar(), lo, hi))
        return out

    def layers_used(self) -> set[int]:
        if self.riser is not None:
            return set(range(self.riser[2], self.riser[3] + 1))
        return {s.layer for s in self.segments}

    def key(self) -> tuple[Hashable, Hashable, int]:
        """Canonical (sorted-endpoint) identity of the routed edge."""
        return (*sorted_pair(self.u, self.v), self.edge_key)


def _sort_key(node: Hashable) -> tuple:
    """Total order over heterogeneous node labels."""
    return (str(type(node)), repr(node))


def sorted_pair(u: Hashable, v: Hashable) -> tuple[Hashable, Hashable]:
    """``(u, v)`` with the endpoints in the canonical label order."""
    if _sort_key(v) < _sort_key(u):
        return v, u
    return u, v


def walk_path(
    segments: Sequence[Segment], u: Hashable, v: Hashable
) -> Iterator[tuple[tuple[int, int], tuple[int, int]]]:
    """Walk the path, yielding each segment's oriented planar endpoints.

    Yields one ``(start, end)`` pair of ``(x, y)`` tuples per segment,
    oriented along the path from the ``u`` pin; the junction between
    consecutive segments is segment ``i``'s ``end`` == segment
    ``i + 1``'s ``start``.  Raises :class:`WirePathError` on a
    disconnect -- this is the construction-time validity check, shared
    with the :class:`~repro.grid.table.WireTable` builder so the two
    can never disagree about orientation.
    """
    segs = segments
    first = segs[0]
    a = (first.x1, first.y1)
    b = (first.x2, first.y2)
    if len(segs) == 1:
        yield (a, b)
        return

    shared = _shared_planar(first, segs[1])
    if shared is None:
        raise WirePathError(
            f"wire {u}-{v}: segments 0 and 1 do not touch "
            f"({first} vs {segs[1]})"
        )
    # Start from whichever endpoint of the first segment is NOT shared.
    cur = shared
    yield ((b, a) if a == shared else (a, b))
    for i in range(1, len(segs)):
        seg = segs[i]
        e1 = (seg.x1, seg.y1)
        e2 = (seg.x2, seg.y2)
        if e1 == cur:
            nxt = e2
        elif e2 == cur:
            nxt = e1
        else:
            raise WirePathError(
                f"wire {u}-{v}: segment {i} does not continue the path "
                f"at {cur}: {seg}"
            )
        yield (cur, nxt)
        cur = nxt


def _trace_path(
    segments: Sequence[Segment], u: Hashable, v: Hashable
) -> list[Point]:
    """Orient each segment along the path and return the vertex list.

    Segments are stored normalized (endpoint-sorted); the path may
    traverse any of them in reverse.  The first segment's free endpoint
    is the ``u`` pin.  Each vertex is anchored on the layer of the
    segment *arriving* at it (so vias are explicit in the vertex list).
    """
    points: list[Point] = []
    for seg, (start, end) in zip(segments, walk_path(segments, u, v)):
        if not points:
            points.append(Point(start[0], start[1], seg.layer))
        points.append(Point(end[0], end[1], seg.layer))
    return points


def _shared_planar(a: Segment, b: Segment) -> tuple[int, int] | None:
    a_ends = {(a.x1, a.y1), (a.x2, a.y2)}
    b_ends = {(b.x1, b.y1), (b.x2, b.y2)}
    common = a_ends & b_ends
    if not common:
        return None
    if len(common) == 2:
        # Two segments sharing both endpoints: degenerate U-turn.
        raise WirePathError(f"segments share both endpoints: {a} / {b}")
    return next(iter(common))
