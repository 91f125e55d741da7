"""The bench suite's perf trajectory and regression diff.

``benchmarks/results/*.json`` and ``BENCH_summary.json`` are single
snapshots; this module gives them a time axis and a gate:

* :func:`trajectory_record` distills one bench session (the summary
  document plus the per-bench records) into a compact record -- git
  SHA with a dirty flag and diff digest, timestamp, per-bench and
  per-test wall seconds, and the performance-gate ratios parsed out
  of the speedup/reduction columns of ``bench_performance`` (the E7
  kernel gates, ``timed_median`` medians) and ``bench_traffic`` (the
  E9 engine/traffic gates).  A session that ran fewer than all the
  ``benchmarks/bench_*.py`` modules is marked ``partial`` and lists
  the ``missing`` ones;
* :func:`append_record` appends it to ``benchmarks/trajectory.jsonl``,
  one JSON object per line, so the repo accumulates a perf history a
  PR reviewer can plot or ``jq`` through;
* :func:`bench_diff` compares two runs -- any mix of trajectory
  JSONL, ``BENCH_summary.json``, per-bench result JSON, or run-report
  documents -- and reports per-table deltas, flagging slowdowns past
  a threshold.  ``python -m repro bench-diff OLD NEW`` wraps it and
  exits nonzero on regression, which is how CI turns "this PR made
  the benches slower" into a red check instead of an anecdote.

Timings are wall-clock and machine-dependent: the default threshold
(15%) is deliberately wider than run-to-run noise on one machine, and
``bench_diff`` compares only benches present on both sides (new or
removed benches are reported, never gated on).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import time

__all__ = [
    "TRAJECTORY_SCHEMA",
    "append_record",
    "bench_diff",
    "bench_modules",
    "format_diff_rows",
    "gate_ratios",
    "git_sha",
    "git_stamp",
    "load_timings",
    "trajectory_record",
]

TRAJECTORY_SCHEMA = "repro.bench-trajectory/v1"
DEFAULT_THRESHOLD = 0.15

#: Bench modules whose speedup/ratio columns are treated as gates.
GATE_BENCHES = ("bench_performance", "bench_traffic")


def _git(args: list[str], repo_root) -> bytes | None:
    """Stdout of one git command, or None outside a usable checkout."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=repo_root or os.getcwd(),
            capture_output=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def git_sha(repo_root=None) -> str | None:
    """The current commit SHA, or None outside a usable git checkout."""
    out = _git(["rev-parse", "HEAD"], repo_root)
    sha = out.decode().strip() if out else ""
    return sha or None


def git_stamp(repo_root=None) -> dict:
    """Name the tree a bench session measured.

    ``{"git_sha", "dirty"}``, plus ``diff_sha256`` -- the digest of
    ``git diff HEAD`` -- when tracked files differ from ``HEAD``.
    Outside a git checkout: ``{"git_sha": None, "dirty": False}``.
    """
    sha = git_sha(repo_root)
    if sha is None:
        return {"git_sha": None, "dirty": False}
    diff = _git(["diff", "HEAD", "--binary", "--no-ext-diff"], repo_root)
    if not diff:
        return {"git_sha": sha, "dirty": False}
    return {
        "git_sha": sha,
        "dirty": True,
        "diff_sha256": hashlib.sha256(diff).hexdigest(),
    }


def bench_modules(repo_root=None) -> list[str]:
    """The bench modules of the checkout at ``repo_root`` (default: the
    working directory): the stems of ``benchmarks/bench_*.py``."""
    root = pathlib.Path(repo_root or os.getcwd())
    return sorted(p.stem for p in (root / "benchmarks").glob("bench_*.py"))


def _parse_ratio(cell) -> float | None:
    """``"9.1x"`` / ``"2.0"`` -> 9.1 / 2.0; None when not a ratio."""
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        return float(cell)
    if not isinstance(cell, str):
        return None
    text = cell.strip().rstrip("xX")
    try:
        return float(text.replace(",", ""))
    except ValueError:
        return None


def gate_ratios(perf_record: dict) -> dict[str, float]:
    """Extract the gate ratios from a gate bench's result record.

    Scans every table for ``speedup``/``reduction``-style columns and
    keeps the best (last-row) ratio, keyed by the table's ``E7x``
    prefix when it has one, else by the table title.  Tolerant by
    design: a renamed column yields a smaller dict, never a crash.
    """
    gates: dict[str, float] = {}
    for table in perf_record.get("tables", []):
        headers = [str(h).lower() for h in table.get("headers", [])]
        cols = [
            i for i, h in enumerate(headers)
            if "speedup" in h or "reduction" in h or h == "ratio"
        ]
        if not cols:
            continue
        title = str(table.get("title", ""))
        key = title.split(":", 1)[0].strip() or title
        best = None
        for row in table.get("rows", []):
            for i in cols:
                if i < len(row):
                    r = _parse_ratio(row[i])
                    if r is not None and r != 1.0:
                        best = r
        if best is not None:
            gates[key] = best
    return gates


def trajectory_record(
    summary: dict,
    per_bench: dict[str, dict] | None = None,
    *,
    sha: str | None = None,
    stamp: dict | None = None,
    repo_root=None,
) -> dict:
    """Distill one bench session into a trajectory record.

    ``summary`` is a ``BENCH_summary.json`` document; ``per_bench``
    optionally maps bench module name to its ``bench-result`` record
    (used for per-test seconds and, for the :data:`GATE_BENCHES`, the
    gate ratios).  The record is stamped with ``stamp``, a
    :func:`git_stamp` taken earlier (before the session rewrote its
    tracked results), else with :func:`git_stamp` of ``repo_root``
    (default: the working directory), unless ``sha`` names the
    measured commit outright, which stamps it clean.  It is
    ``partial`` when its benches leave out some of that checkout's
    :func:`bench_modules`, which it then lists, sorted, as ``missing``;
    a record for an explicit ``sha`` inspects no checkout unless
    ``repo_root`` is given too.
    """
    benches = {
        b["bench"]: b.get("seconds", 0.0)
        for b in summary.get("benches", [])
    }
    tests: dict[str, float] = {}
    gates: dict[str, float] = {}
    for name, rec in (per_bench or {}).items():
        for t in rec.get("tests", []):
            tests[f"{name}::{t['test']}"] = t.get("seconds", 0.0)
        if name in GATE_BENCHES:
            gates.update(gate_ratios(rec))
    if stamp is None:
        stamp = (
            git_stamp(repo_root) if sha is None
            else {"git_sha": sha, "dirty": False}
        )
    modules = (
        bench_modules(repo_root) if sha is None or repo_root is not None
        else []
    )
    missing = sorted(set(modules) - set(benches))
    return {
        "schema": TRAJECTORY_SCHEMA,
        **stamp,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": summary.get("environment", {}),
        "total_seconds": summary.get("total_seconds"),
        "benches": benches,
        "tests": tests,
        "gates": gates,
        "partial": bool(missing),
        **({"missing": missing} if missing else {}),
    }


def append_record(path, record: dict) -> None:
    """Append one record to the trajectory JSONL at ``path``."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True))
        fh.write("\n")


def load_records(path) -> list[dict]:
    """Every record in a trajectory JSONL, oldest first."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _label(path, rec: dict) -> str:
    """``<file>@<sha12>``, with ``+dirty`` for an uncommitted tree and
    ``+partial`` for a session that left bench modules out."""
    sha = (rec.get("git_sha") or "unknown")[:12]
    dirty = "+dirty" if rec.get("dirty") else ""
    partial = "+partial" if rec.get("partial") else ""
    return f"{path.name}@{sha}{dirty}{partial}"


def load_timings(path) -> tuple[str, dict[str, float], dict[str, float]]:
    """Normalize any bench document into ``(label, timings, gates)``.

    Accepts a trajectory JSONL (uses the newest record), a
    ``BENCH_summary.json``, a single per-bench ``bench-result`` JSON,
    or an already-loaded trajectory record written as plain JSON.
    ``timings`` maps a table/bench name to wall seconds.
    """
    path = pathlib.Path(path)
    if path.suffix == ".jsonl":
        records = load_records(path)
        if not records:
            raise ValueError(f"{path}: empty trajectory file")
        rec = records[-1]
        return _label(path, rec), dict(rec.get("benches", {})), dict(
            rec.get("gates", {})
        )
    with path.open() as fh:
        doc = json.load(fh)
    schema = doc.get("schema", "")
    if schema == TRAJECTORY_SCHEMA:
        return (
            _label(path, doc),
            dict(doc.get("benches", {})),
            dict(doc.get("gates", {})),
        )
    if schema == "repro.bench-summary/v1" or "benches" in doc:
        timings = {
            b["bench"]: b.get("seconds", 0.0)
            for b in doc.get("benches", [])
        }
        return path.name, timings, {}
    if schema == "repro.bench-result/v1" or "tests" in doc:
        name = doc.get("bench", path.stem)
        timings = {
            f"{name}::{t['test']}": t.get("seconds", 0.0)
            for t in doc.get("tests", [])
        }
        gates = gate_ratios(doc) if name in GATE_BENCHES else {}
        return path.name, timings, gates
    raise ValueError(
        f"{path}: unrecognized bench document (schema={schema!r})"
    )


def bench_diff(
    old_path,
    new_path,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """Compare two bench documents; flag slowdowns past ``threshold``.

    Returns ``{"rows", "regressions", "gate_regressions", "only_old",
    "only_new", "old_label", "new_label"}`` where each row is
    ``[name, old_s, new_s, delta_fraction, verdict]`` sorted worst
    first.  A *regression* is a shared bench whose new time exceeds
    the old by more than ``threshold`` (fractional), or a gate ratio
    that fell below ``1 - threshold`` of its old value.
    """
    old_label, old_t, old_g = load_timings(old_path)
    new_label, new_t, new_g = load_timings(new_path)
    rows = []
    regressions = []
    for name in sorted(set(old_t) & set(new_t)):
        o, n = old_t[name], new_t[name]
        delta = (n - o) / o if o else 0.0
        if delta > threshold:
            verdict = "REGRESSION"
            regressions.append(name)
        elif delta < -threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        rows.append([name, o, n, delta, verdict])
    rows.sort(key=lambda r: -r[3])
    gate_regressions = []
    gate_rows = []
    for name in sorted(set(old_g) & set(new_g)):
        o, n = old_g[name], new_g[name]
        drop = (o - n) / o if o else 0.0
        if drop > threshold:
            verdict = "REGRESSION"
            gate_regressions.append(name)
        else:
            verdict = "ok" if n <= o else "improved"
        gate_rows.append([name, o, n, -drop, verdict])
    return {
        "old_label": old_label,
        "new_label": new_label,
        "threshold": threshold,
        "rows": rows,
        "gate_rows": gate_rows,
        "regressions": regressions,
        "gate_regressions": gate_regressions,
        "only_old": sorted(set(old_t) - set(new_t)),
        "only_new": sorted(set(new_t) - set(old_t)),
    }


def format_diff_rows(rows: list) -> list[list]:
    """Render diff rows for :func:`repro.bench.harness.print_table`."""
    out = []
    for name, o, n, delta, verdict in rows:
        out.append([
            name,
            f"{o:.4f}",
            f"{n:.4f}",
            f"{delta * 100:+.1f}%",
            verdict,
        ])
    return out
