"""Routing and message-level network simulation.

The paper's layouts exist to serve parallel-processing interconnects:
their cost (area/volume) and performance (wire length -> link delay)
are the decision criteria of its introduction.  This package closes
the loop from layout geometry to network performance:

* :mod:`repro.routing.paths` -- routing algorithms: dimension-order
  (e-cube) routing for the digit networks (hypercubes, k-ary n-cubes,
  generalized hypercubes), plus generic shortest-hop and minimum-wire
  routing over any routed layout;
* :mod:`repro.routing.traffic` -- the seeded workload zoo (uniform,
  hotspot, transpose, bit-reversal, bursty ON/OFF, adversarial
  permutation, trace replay) behind one :func:`make_workload` entry
  point;
* :mod:`repro.routing.simulator` -- the cycle-driven, store-and-forward
  per-packet simulator with per-link delays taken from the layout's
  routed wire lengths, reporting makespan, latency and congestion --
  the *oracle* the fast engine is differential-tested against;
* :mod:`repro.routing.engine` -- the batched/vectorized event engine
  (:func:`simulate_fast`), field-for-field identical to the oracle and
  an order of magnitude faster at saturation, plus saturation sweeps
  and knee detection.
"""

from repro.routing.collective import (
    binomial_broadcast,
    recursive_doubling_allgather,
    schedule_rounds,
)
from repro.routing.paths import (
    RoutingTable,
    dimension_order_route,
    layout_link_delays,
    shortest_hop_routes,
)
from repro.routing.engine import (
    knee_point,
    saturation_sweep,
    simulate_fast,
)
from repro.routing.simulator import SimulationResult, simulate
from repro.routing.traffic import (
    WORKLOAD_KINDS,
    adversarial_permutation,
    all_to_all,
    bit_complement,
    bit_reversal,
    bursty,
    hot_spot,
    hotspot_traffic,
    load_trace,
    make_workload,
    random_permutation,
    rate_injection,
    save_trace,
    trace_replay,
    transpose,
    uniform,
)

__all__ = [
    "dimension_order_route",
    "shortest_hop_routes",
    "layout_link_delays",
    "RoutingTable",
    "simulate",
    "simulate_fast",
    "saturation_sweep",
    "knee_point",
    "SimulationResult",
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
    "binomial_broadcast",
    "recursive_doubling_allgather",
    "schedule_rounds",
]
