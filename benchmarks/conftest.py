"""Benchmark harness plumbing.

Each bench regenerates one paper artifact (table/figure/closed form)
and reports paper-vs-measured rows.  Reports go to three places:

* printed (visible with ``pytest -s``);
* appended to ``benchmarks/results/<bench>.txt`` so EXPERIMENTS.md can
  quote them verbatim;
* accumulated into ``benchmarks/results/<bench>.json`` -- the same
  tables as structured data -- and aggregated at session end into
  ``BENCH_summary.json`` at the repo root, the machine-diffable perf
  trajectory across PRs (environment stamp + per-bench wall times).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time

import pytest

from repro import __version__
from repro.bench.harness import format_table, json_cell
from repro.bench.trajectory import git_stamp

RESULTS = pathlib.Path(__file__).resolve().parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SUMMARY_SCHEMA = "repro.bench-summary/v1"

# module name -> {"bench", "tables", "tests"}; filled as benches run,
# flushed to JSON at session end.
_SESSION: dict[str, dict] = {}

# Modules whose .txt report has been truncated this session: each
# module restarts its own report on first write, but other modules'
# reports (from earlier partial runs) are left alone.
_TXT_RESET: set[str] = set()


def _module_record(module: str) -> dict:
    rec = _SESSION.get(module)
    if rec is None:
        rec = _SESSION[module] = {"bench": module, "tables": [], "tests": []}
    return rec


def _environment() -> dict:
    return {
        "repro_version": __version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


@pytest.fixture
def report(request):
    """report(title, headers, rows): print + persist a comparison table."""
    RESULTS.mkdir(exist_ok=True)
    module = request.node.module.__name__
    out_file = RESULTS / f"{module}.txt"
    if module not in _TXT_RESET:
        _TXT_RESET.add(module)
        out_file.unlink(missing_ok=True)
    rec = _module_record(module)

    def _report(title: str, headers, rows) -> None:
        text = f"\n== {title} ==\n{format_table(headers, rows)}\n"
        print(text)
        with out_file.open("a") as fh:
            fh.write(text)
        rec["tables"].append(
            {
                "test": request.node.name,
                "title": title,
                "headers": [str(h) for h in headers],
                "rows": [[json_cell(c) for c in row] for row in rows],
            }
        )

    return _report


@pytest.fixture(autouse=True)
def _bench_timer(request):
    """Record every bench test's wall time into the session summary."""
    rec = _module_record(request.node.module.__name__)
    t0 = time.perf_counter()
    yield
    rec["tests"].append(
        {
            "test": request.node.name,
            "seconds": round(time.perf_counter() - t0, 4),
        }
    )


def _flush_json_results(stamp: dict | None) -> None:
    if not _SESSION:
        return
    env = _environment()
    RESULTS.mkdir(exist_ok=True)
    for module in sorted(_SESSION):
        rec = _SESSION[module]
        out = {
            "schema": "repro.bench-result/v1",
            "environment": env,
            **rec,
        }
        path = RESULTS / f"{module}.json"
        with path.open("w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")

    # The summary merges EVERY per-bench result on disk, not just this
    # session's: a partial run (``pytest benchmarks/bench_kary.py``)
    # used to overwrite BENCH_summary.json with a one-bench document,
    # making it look like every other bench had vanished.  Results from
    # earlier sessions keep their own (older) environment stamp in the
    # per-bench file; the merge flags them as stale below.
    benches = []
    stale = []
    for path in sorted(RESULTS.glob("*.json")):
        try:
            with path.open() as fh:
                rec = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if rec.get("schema") != "repro.bench-result/v1":
            continue
        module = rec.get("bench", path.stem)
        tests = rec.get("tests", [])
        timestamp = rec.get("environment", {}).get("timestamp")
        if module not in _SESSION:
            stale.append((module, timestamp))
        benches.append(
            {
                "bench": module,
                "tests": len(tests),
                "tables": len(rec.get("tables", [])),
                "seconds": round(
                    sum(t.get("seconds", 0.0) for t in tests), 4
                ),
                "titles": [t["title"] for t in rec.get("tables", [])],
                "results_file": str(path.relative_to(REPO_ROOT)),
                "timestamp": timestamp,
            }
        )
    benches.sort(key=lambda b: b["bench"])
    if stale:
        names = ", ".join(
            f"{m} (from {ts or 'unknown time'})" for m, ts in stale
        )
        print(
            f"\n[bench] BENCH_summary.json merges {len(stale)} stale "
            f"result(s) not re-run this session: {names}"
        )
    summary = {
        "schema": SUMMARY_SCHEMA,
        "environment": env,
        "total_seconds": round(sum(b["seconds"] for b in benches), 4),
        "benches": benches,
    }
    with (REPO_ROOT / "BENCH_summary.json").open("w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _append_trajectory(summary, stamp)


def _append_trajectory(summary: dict, stamp: dict | None) -> None:
    """Append this session to the perf-regression trajectory.

    Partial runs (``pytest benchmarks/bench_kary.py``) would register
    as "every other bench vanished" in a diff, so only sessions that
    ran the performance gates contribute a record.  The record holds
    the benches this session ran, not the stale ones the summary
    merges, so it is ``partial`` unless the session ran every module;
    it carries ``stamp``, the tree as it was before the session
    rewrote its tracked results.  ``stamp`` is None -- no record --
    under ``REPRO_NO_TRAJECTORY=1`` (CI's throwaway runs set it).
    """
    from repro.bench.trajectory import (
        GATE_BENCHES,
        append_record,
        trajectory_record,
    )

    if stamp is None or any(name not in _SESSION for name in GATE_BENCHES):
        return

    ran = [b for b in summary["benches"] if b["bench"] in _SESSION]
    record = trajectory_record(
        {
            **summary,
            "total_seconds": round(sum(b["seconds"] for b in ran), 4),
            "benches": ran,
        },
        dict(_SESSION),
        stamp=stamp,
        repo_root=REPO_ROOT,
    )
    append_record(REPO_ROOT / "benchmarks" / "trajectory.jsonl", record)


@pytest.fixture(scope="session", autouse=True)
def _fresh_results():
    """Stamp the tree before any bench runs; flush JSON results at
    session end.

    Individual modules truncate their own .txt report on first write
    (see the ``report`` fixture); results of benches *not* run this
    session stay on disk and are merged -- marked stale -- into the
    summary, so partial runs never masquerade as full ones.  The
    :func:`~repro.bench.trajectory.git_stamp` is taken first, so the
    tracked results the session rewrites do not make a clean checkout
    read as dirty.
    """
    stamp = (
        None if os.environ.get("REPRO_NO_TRAJECTORY")
        else git_stamp(REPO_ROOT)
    )
    yield
    _flush_json_results(stamp)
