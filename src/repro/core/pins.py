"""Pin allocation on node squares.

A degree-``d`` Thompson node is a ``d x d`` square, so each side offers
``d`` grid lines for pins (offsets ``0 .. d-1`` from the side's origin;
the far corner line is excluded so squares that abut never share a pin
point).  Distinct wires incident to one node always get distinct pins,
which is what lets touching intervals share a track: at a shared node
the wire arriving from the left/top exits on a smaller pin coordinate
than the wire departing right/down.

:class:`PinAllocator` enforces both properties: uniqueness, and
*ordered* allocation (callers register all requests for a node side
with a sort key, then freeze; pins are handed out in key order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Hashable

__all__ = ["PinAllocator"]

Node = Hashable
Side = str  # "top" | "right" | "bottom" | "left"


@dataclass(slots=True)
class PinAllocator:
    """Collects pin requests, then assigns ordered offsets per side.

    A request names the node side, a sort key, and a *token*
    identifying the requesting wire end -- the orthogonal builder uses
    integer link-end ids.  A wire end asks for one pin, so a token is
    unique across the allocator.
    """

    capacity: dict[tuple[Node, Side], int] = field(default_factory=dict)
    _groups: dict[tuple[Node, Side], list[tuple]] = field(default_factory=dict)
    _assigned: dict[Hashable, int] | None = None

    def set_capacity(self, node: Node, side: Side, pins: int) -> None:
        self.capacity[(node, side)] = pins

    def request(
        self, node: Node, side: Side, sort_key, token: Hashable
    ) -> None:
        if self._assigned is not None:
            raise RuntimeError("allocator already frozen")
        self._groups.setdefault((node, side), []).append((sort_key, token))

    def freeze(self) -> None:
        """Assign offsets: per (node, side), requests sorted by key get
        offsets 0, 1, 2, ...  Raises if capacity is exceeded."""
        assigned: dict[Hashable, int] = {}
        for (node, side), reqs in self._groups.items():
            cap = self.capacity.get((node, side))
            if cap is not None and len(reqs) > cap:
                raise ValueError(
                    f"node {node!r} side {side}: {len(reqs)} pins requested "
                    f"but the square only offers {cap} (raise node_side)"
                )
            reqs.sort(key=itemgetter(0))
            for off, (_, token) in enumerate(reqs):
                if token in assigned:
                    raise ValueError(f"duplicate pin token {token!r}")
                assigned[token] = off
        self._assigned = assigned

    def offset(self, token: Hashable) -> int:
        if self._assigned is None:
            raise RuntimeError("freeze() the allocator before reading pins")
        return self._assigned[token]
