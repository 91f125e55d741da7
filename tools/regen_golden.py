#!/usr/bin/env python
"""Regenerate tests/golden_metrics.json.

Run after an *intentional* change to layout geometry:

    python tools/regen_golden.py

The golden file pins the exact measured metrics of one representative
layout per family.  Every entry is deterministic, so any diff flags a
behavioral change in the engine -- the regression net for refactors.
"""

import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.collinear.two_sided import two_sided_collinear_layout  # noqa: E402
from repro.core import measure  # noqa: E402
from repro.core.folding import fold_layout  # noqa: E402
from repro.core.threedee import layout_product_3d  # noqa: E402
from repro.grid.io import layout_to_json  # noqa: E402
from repro.core.schemes import (  # noqa: E402
    layout_butterfly,
    layout_cayley,
    layout_ccc,
    layout_collinear_network,
    layout_complete,
    layout_enhanced_cube,
    layout_folded_hypercube,
    layout_ghc,
    layout_hsn,
    layout_hypercube,
    layout_isn,
    layout_kary,
    layout_kary_cluster,
    layout_reduced_hypercube,
    layout_scc,
    layout_wrapped_butterfly,
)
from repro.topology import (  # noqa: E402
    CompleteGraph,
    Hypercube,
    Ring,
    StarGraph,
)

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden_metrics.json"


def build_cases():
    return {
        "kary(4,2)_L2": layout_kary(4, 2),
        "kary(3,3)_L4": layout_kary(3, 3, layers=4),
        "kary(8,2)_L2_folded_order": layout_kary(8, 2, folded=True),
        "hypercube(6)_L2": layout_hypercube(6),
        "hypercube(6)_L8": layout_hypercube(6, layers=8),
        "hypercube(8)_L2_min": layout_hypercube(8, node_side="min"),
        "ghc(4,4)_L2": layout_ghc((4, 4)),
        "ghc(3,4)_L3": layout_ghc((3, 4), layers=3),
        "complete(9)_L2": layout_complete(9),
        "collinear_ring(8)_L4": layout_collinear_network(Ring(8), layers=4),
        "butterfly(3)_L2": layout_butterfly(3),
        "wrapped_butterfly(3)_L2": layout_wrapped_butterfly(3),
        "isn(3)_L2": layout_isn(3),
        "ccc(4)_L2": layout_ccc(4),
        "reduced_hypercube(4)_L4": layout_reduced_hypercube(4, layers=4),
        "hsn(K4,2)_L2": layout_hsn(CompleteGraph(4), 2),
        "kary_cluster(3,2,4)_L2": layout_kary_cluster(3, 2, 4),
        "star(4)_L2": layout_cayley(StarGraph(4)),
        "scc(4)_L2": layout_scc(4),
        "folded_hypercube(5)_L4": layout_folded_hypercube(5, layers=4),
        "enhanced_cube(4)_L2": layout_enhanced_cube(4),
        "fold(hypercube(6))_L8": fold_layout(layout_hypercube(6, layers=2), 8),
        "stack(4,4,4)_L8": layout_product_3d(
            Ring(4), Ring(4), Ring(4), layers=8
        ),
        "fold(hypercube(6))_L4": fold_layout(layout_hypercube(6), 4),
        "stack(4,4,3)_L6": layout_product_3d(
            Ring(4), Ring(4), Ring(3), layers=6
        ),
        "two_sided(hypercube(5))_L2": two_sided_collinear_layout(
            Hypercube(5), layers=2
        ),
        "two_sided(complete(9))_L4": two_sided_collinear_layout(
            CompleteGraph(9), layers=4
        ),
    }


def layout_sha256(layout) -> str:
    """Digest of the layout's JSON: pins every coordinate, pin and
    track choice, not just the summary metrics."""
    return hashlib.sha256(layout_to_json(layout).encode()).hexdigest()


def main() -> None:
    golden = {}
    for name, lay in sorted(build_cases().items()):
        m = measure(lay)
        golden[name] = {
            "area": m.area,
            "width": m.width,
            "height": m.height,
            "volume": m.volume,
            "max_wire": m.max_wire,
            "total_wire": m.total_wire,
            "wires": len(lay.wires),
            "vias": lay.via_count(),
            "layout_sha256": layout_sha256(lay),
        }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} entries to {GOLDEN}")


if __name__ == "__main__":
    main()
