"""Write ``perf/expected.json``, the answers the benchmark checks against.

Run from the root of a checkout, at the commit whose outputs are taken as
correct::

    python3 perf/pin.py

For every (network, L) some workload uses, it pins the ``measure()``
dict and the SHA-256 of ``layout_to_json`` of the layout the sweep path
builds (``dispatch_scheme`` with scheme ``auto``, validated).  For
``traffic-sat`` it pins the summary of the seed-0 traffic run; other
seeds are checked for full delivery and identical repeats instead.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads as w
    from repro.batch.spec import dispatch_scheme, parse_network
    from repro.core.metrics import measure
    from repro.core.schemes import layout_network
    from repro.grid.io import layout_to_json
    from repro.grid.validate import validate_layout
    from repro.routing import make_workload, simulate_fast

    layouts = {}
    for net_spec, L in w.all_keys():
        lay = dispatch_scheme(parse_network(net_spec), layers=L)
        validate_layout(lay)
        layouts[w.key_name(net_spec, L)] = {
            "metrics": measure(lay).as_dict(),
            "layout_sha256": hashlib.sha256(
                layout_to_json(lay).encode()
            ).hexdigest(),
        }
    net_spec, L = w.TRAFFIC_KEY
    net = parse_network(net_spec)
    lay = layout_network(net, layers=L)
    msgs = make_workload("uniform", net, rate=w.TRAFFIC_RATE,
                         duration=w.TRAFFIC_DURATION, seed=0)
    res = simulate_fast(net, msgs, layout=lay,
                        message_length=w.TRAFFIC_MESSAGE_LENGTH)
    doc = {"layouts": layouts,
           "traffic": {"0": w.sim_summary(res, len(msgs))}}
    path = HERE / "expected.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(layouts)} layouts and a traffic run to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
