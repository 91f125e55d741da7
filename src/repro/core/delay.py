"""Wire-delay performance model.

The paper's introduction argues multilayer layouts buy "considerably
lower cost and/or higher performance": shorter maximum wires allow a
faster clock, and shorter source-destination wire totals cut message
latency.  This module turns the layout geometry into those performance
figures with a standard, deliberately simple delay model:

* **repeatered (linear) wires**: delay = ``alpha * length`` -- the
  regime of long on-chip wires with optimal repeater insertion;
* **unbuffered (RC) wires**: delay = ``beta * length^2`` -- worst-case
  distributed RC; quadratic, so halving the longest wire quarters its
  delay.

Derived figures:

* ``clock_period`` -- router latency plus the delay of the longest
  wire (synchronous operation is limited by the slowest link);
* ``message_latency`` -- cut-through/wormhole-style: per-hop router
  delay plus the wire delays along a minimum-wire-delay route;
* ``worst_case_latency`` -- the maximum message latency over
  source-destination pairs (sampled sources for large networks).

All quantities are in arbitrary units (alpha = 1 grid-unit delay);
benches report *ratios* across L, which is what the paper's claims
(3)-(4) speak to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.metrics import wire_distances, wire_length_weights
from repro.grid.layout import GridLayout

__all__ = ["DelayModel", "PerformanceReport", "performance"]


@dataclass(frozen=True, slots=True)
class DelayModel:
    """Technology parameters for the delay computation."""

    alpha: float = 1.0     # repeatered wire delay per grid unit
    beta: float = 0.0      # unbuffered RC factor (per unit^2)
    router_delay: float = 20.0  # fixed per-hop switch latency
    node_delay: float = 10.0    # compute/injection overhead per message

    def wire_delay(self, length: int) -> float:
        return self.alpha * length + self.beta * length * length


@dataclass(frozen=True, slots=True)
class PerformanceReport:
    """Performance snapshot of one layout under a delay model."""

    name: str
    layers: int
    clock_period: float
    max_wire_delay: float
    worst_latency: float
    avg_latency: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "L": self.layers,
            "clock_period": self.clock_period,
            "max_wire_delay": self.max_wire_delay,
            "worst_latency": self.worst_latency,
            "avg_latency": self.avg_latency,
        }


def performance(
    layout: GridLayout,
    model: DelayModel | None = None,
    *,
    max_sources: int = 32,
) -> PerformanceReport:
    """Compute the performance report for a routed layout.

    ``max_sources`` bounds the latency sweep (deterministic stride
    subsampling; exact when the network has that few nodes).
    """
    model = model or DelayModel()
    max_wire_delay = max(
        map(model.wire_delay, layout.wire_table().wire_lengths()),
        default=0.0,
    )
    clock = model.router_delay + max_wire_delay

    adj = wire_length_weights(
        layout, lambda length: model.wire_delay(length) + model.router_delay
    )
    nodes = list(layout.placements)
    if len(nodes) > max_sources:
        step = -(-len(nodes) // max_sources)
        sources = nodes[::step]
    else:
        sources = nodes
    worst = 0.0
    total = 0.0
    count = 0
    for s in sources:
        dist = wire_distances(adj, s)
        for v, d in dist.items():
            if v == s:
                continue
            worst = max(worst, d)
            total += d
            count += 1
    avg = total / count if count else 0.0
    return PerformanceReport(
        name=str(layout.meta.get("name", "layout")),
        layers=layout.layers,
        clock_period=clock,
        max_wire_delay=max_wire_delay,
        worst_latency=worst + model.node_delay,
        avg_latency=avg + model.node_delay,
    )
