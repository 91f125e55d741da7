"""Tests for the benchmark itself.

Run from the root of a checkout with ``python -m pytest perf -q`` (about
three minutes: every workload runs once at smoke scale, untraced and
traced).  Checks that each run reports exactly the metrics
``BENCHMARK.json`` names, with their units and no failures; that a wrong
pin is counted as a failure; that the benchmark refuses to run without
the program's sources; and that ``compare.py`` gives the right verdicts.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(out: Path, *args: str) -> tuple[dict, dict]:
    """Run one workload; returns (last stdout line, run document)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1",
         "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    (doc_path,) = [p for p in out.glob("*.json")
                   if not p.name.endswith(".chrome.json")]
    return result, json.loads(doc_path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    result, doc = run_bench(tmp_path, "--workload", workload,
                            "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert doc["fail_ratio"] == 0
    want = BENCH["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert {k: m["unit"] for k, m in got.items()} == {
        m["name"]: m["unit"] for m in want
    }
    if trace:
        assert (tmp_path / f"{workload}-s0.chrome.json").is_file()
    else:
        assert all(m["value"] > 0 for m in got.values())


def test_corrupted_pin_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads

    pins = workloads.Pins(HERE / "expected.json")
    pins.layouts["hypercube:9@L4"]["metrics"]["area"] += 1
    env = workloads.Env(root=ROOT, tmp=tmp_path, seed=0, pins=pins)
    p = workloads.batch_cold(env, 1, traced=False)
    assert 0 < p.failed < p.attempted
    assert all("hypercube:9@L4" in e for e in p.errors)


def test_times_are_scaled_by_the_gauge(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    ref = run.REF_MS
    # Set-ups of 0.3 s at reference speed, 0.1 s and 0.4 s on a host at
    # half speed: 0.3, 0.05 and 0.2 reference seconds.
    p = workloads.Pass(setup_s=[(0.3, ref), (0.1, 2 * ref), (0.4, 2 * ref)])
    # Two ops of kind "a" of 100 ms: one while the gauge read twice the
    # reference time (a host at half speed), one at reference speed; and
    # one op of kind "b" of 400 ms at reference speed.
    p.ok("a", 0.1, 2 * ref)
    p.ok("a", 0.1, ref)
    p.ok("b", 0.4, ref)
    p.rounds.append((3, 0.6, 0.6 / (0.1 / (2 * ref) + 0.5 / ref)))
    p.ref_ms = [2 * ref, ref]
    m = run.e2e_metrics(p)
    assert m["setup_s"] == (pytest.approx(0.2), "s")
    # Kind medians 75 and 400 ms; their geometric mean.
    assert m["op_ms.kind_p50"] == (pytest.approx(math.sqrt(75 * 400)),
                                   "ref-ms")
    # 50, 100 and 400 ms: the 90th percentile lies 0.8 of the way from
    # 100 to 400.
    assert m["op_ms.p90"] == (pytest.approx(340.0), "ref-ms")
    assert m["ops_per_s"] == (pytest.approx(3 / 0.55), "1/ref-s")
    wall = run.wall_figures(p)
    assert wall["wall.setup_s"] == (pytest.approx(0.3), "s")
    assert wall["wall.op_ms.kind_p50"] == (pytest.approx(200.0), "ms")
    assert wall["wall.ops_per_s"] == (pytest.approx(5.0), "1/s")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "batch-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def verdict(new, base=BASE, better="lower", bound=0.10) -> str:
    return compare.verdict(
        dict(enumerate(base)), dict(enumerate(new)), better, bound
    )["verdict"]


def test_compare_verdicts():
    assert verdict(BASE) == "unchanged"
    assert verdict([v * 0.8 for v in BASE]) == "improved"
    assert verdict([v * 1.2 for v in BASE]) == "regressed"
    assert verdict([v * 1.05 for v in BASE]) == "unchanged"
    # Higher is better for throughput.
    assert verdict([v * 1.2 for v in BASE], better="higher") == "improved"
    assert verdict([v * 0.8 for v in BASE], better="higher") == "regressed"
    # Eight pair wins out of ten are not enough to claim a gain.
    mixed = [v * 0.8 for v in BASE[:8]] + [v * 1.01 for v in BASE[8:]]
    assert verdict(mixed) == "unchanged"
    # A base spread wider than the bound cannot vouch for no regression,
    # unless every new run beats every base run.
    wide = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert verdict(wide, base=wide) == "unresolved"
    assert verdict([v / 3 for v in wide], base=wide) == "improved"
    # Per-layer metrics have no bound: only a clear change gets a verdict.
    assert verdict(BASE[::-1], bound=None) == "-"
    assert verdict([v * 1.2 for v in BASE], bound=None) == "worse"
    assert verdict([v * 0.8 for v in BASE], bound=None) == "improved"


def run_docs(scale=1.0, failed=(0,) * len(BASE)) -> list[dict]:
    """Synthetic run documents of one workload, one per seed."""
    return [
        {
            "schema": compare.SCHEMA, "workload": "batch-cold", "seed": seed,
            "failed": failed[seed], "fail_ratio": failed[seed] / 100,
            "metrics": {
                "op_ms.kind_p50": {"value": v * scale, "unit": "ref-ms"},
            },
        }
        for seed, v in enumerate(BASE)
    ]


def test_compare_counts_failures():
    def verdicts(new):
        return {m: r["verdict"]
                for _, m, r in compare.compare(run_docs(), new, BENCH)}

    assert verdicts(run_docs(0.8)) == {
        "op_ms.kind_p50": "improved", "fail_ratio": "unchanged",
    }
    # Faster, but two runs failed operations: those pairs are no wins,
    # and the rise in failures is a regression.
    assert verdicts(run_docs(0.8, failed=(1, 1) + (0,) * 8)) == {
        "op_ms.kind_p50": "unchanged", "fail_ratio": "regressed",
    }


def test_compare_exit_status(tmp_path):
    for side, scale in (("a", 1.0), ("b", 1.0), ("c", 1.3)):
        d = tmp_path / side
        d.mkdir()
        for doc in run_docs(scale):
            (d / f"batch-cold-s{doc['seed']}.json").write_text(json.dumps(doc))

    def run(a, b):
        return subprocess.run(
            [sys.executable, str(HERE / "compare.py"), str(tmp_path / a),
             "--", str(tmp_path / b)],
            capture_output=True, text=True, timeout=60,
        )

    same = run("a", "b")
    assert same.returncode == 0 and "unchanged" in same.stdout
    worse = run("a", "c")
    assert worse.returncode == 1 and "regressed" in worse.stdout
