"""Golden-metrics regression: every family's layout is pinned exactly.

The engine is deterministic, so any diff in these numbers means the
geometry changed.  Each entry also pins ``layout_sha256``, the digest
of the layout's JSON, so a change that keeps every metric but moves a
pin or a track is caught too.  After an intentional change, regenerate with

    python tools/regen_golden.py

and review the diff like any other code change.
"""

import json
import pathlib

import pytest

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden_metrics.json"


def _regen():
    import sys

    tools = pathlib.Path(__file__).resolve().parent.parent / "tools"
    sys.path.insert(0, str(tools))
    try:
        import regen_golden

        return regen_golden
    finally:
        sys.path.remove(str(tools))


def build_cases():
    return _regen().build_cases()


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), "run tools/regen_golden.py first"
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def cases():
    return build_cases()


def test_no_missing_or_extra_cases(golden, cases):
    assert set(golden) == set(cases)


def test_all_metrics_match(golden, cases):
    from repro.core import measure

    mismatches = []
    for name, lay in sorted(cases.items()):
        m = measure(lay)
        got = {
            "area": m.area,
            "width": m.width,
            "height": m.height,
            "volume": m.volume,
            "max_wire": m.max_wire,
            "total_wire": m.total_wire,
            "wires": len(lay.wires),
            "vias": lay.via_count(),
        }
        want = {k: v for k, v in golden[name].items() if k != "layout_sha256"}
        if got != want:
            mismatches.append((name, golden[name], got))
    assert not mismatches, (
        "layout geometry changed; if intentional, regenerate the golden "
        f"file. First mismatches: {mismatches[:3]}"
    )


def test_layout_bytes_match(golden, cases):
    digest = _regen().layout_sha256
    mismatches = [
        name for name, lay in sorted(cases.items())
        if digest(lay) != golden[name]["layout_sha256"]
    ]
    assert not mismatches, f"layout JSON changed for {mismatches}"
