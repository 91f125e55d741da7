"""Trace exporters: Chrome trace-event JSON and structured JSONL.

Two machine-readable views of one observed run, both fed from the
in-process span collector and metrics registry:

* :func:`chrome_trace` / :func:`write_chrome_trace` -- the Chrome
  trace-event format (the ``{"traceEvents": [...]}`` JSON object
  understood by ``ui.perfetto.dev`` and ``about:tracing``).  Every
  span becomes a complete event (``ph: "X"``) with microsecond
  timestamps normalized to the earliest span; spans re-rooted from
  sweep/fuzz workers (attrs carry ``worker_id``) get their own
  process row, so a 4-worker sweep renders as four parallel tracks
  under the parent's.  Counters and histogram summaries become
  counter tracks (``ph: "C"``).

* :func:`jsonl_events` / :func:`write_jsonl` -- a line-delimited
  event log (one JSON object per line: spans flattened with
  ``depth``/``pid``, then metric samples) built for ``grep``/``jq``
  pipelines rather than a viewer.

* :func:`prometheus_text` / :func:`write_prometheus` -- the metrics
  registry in Prometheus text exposition format (counters as
  ``<name>_total``, histograms with *cumulative* ``_bucket{le=...}``
  series plus ``_sum``/``_count``).  Unlike the other exporters this
  one is refreshed **live**: the sweep watchdog rewrites the file
  (atomically, so scrapers never see a torn body) on every poll when
  ``--metrics-out`` is given.

The trace exporters are pure functions of the collected data -- they
never toggle collection -- and are wired into every CLI subcommand via
``--trace-out`` / ``--events-out`` and into
:class:`repro.batch.runner.SweepRunner`.
"""

from __future__ import annotations

import json
import os
import re

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "JSONL_SCHEMA",
    "chrome_trace",
    "jsonl_events",
    "prometheus_text",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]

CHROME_TRACE_SCHEMA = "repro.chrome-trace/v1"
JSONL_SCHEMA = "repro.events-jsonl/v1"

MAIN_PID = 0


def _forest_t0(roots) -> float:
    """Earliest span start in the forest (the trace's time origin)."""
    t0 = None
    stack = list(roots)
    while stack:
        rec = stack.pop()
        if rec.start and (t0 is None or rec.start < t0):
            t0 = rec.start
        stack.extend(rec.children)
    return t0 or 0.0


def _span_pid(rec, inherited: int) -> int:
    wid = rec.attrs.get("worker_id")
    if isinstance(wid, int):
        return wid + 1
    return inherited


def _args(rec) -> dict:
    out = {str(k): v for k, v in rec.attrs.items()}
    for k, v in rec.counts.items():
        out[f"count.{k}"] = v
    return out


def chrome_trace(
    roots: list | None = None, snapshot: dict | None = None
) -> dict:
    """Render the span forest + metrics as a Chrome trace document.

    ``roots`` defaults to the live collector's forest and ``snapshot``
    to the live registry's.  Timestamps (``ts``) are microseconds from
    the earliest span start; worker subtrees (spans whose attrs carry
    an integer ``worker_id``) are lifted onto their own process row
    ``pid = worker_id + 1``, with ``pid = 0`` the orchestrating
    process.  Returns the JSON-ready document.
    """
    if roots is None:
        roots = _trace.trace_roots()
    if snapshot is None:
        snapshot = _metrics.registry().snapshot()
    t0 = _forest_t0(roots)
    events: list[dict] = []
    pids: dict[int, str] = {}
    t_end = 0.0

    def visit(rec, pid: int, tid: int) -> None:
        nonlocal t_end
        pid = _span_pid(rec, pid)
        pids.setdefault(
            pid,
            "main" if pid == MAIN_PID else f"worker {pid - 1}",
        )
        ts = (rec.start - t0) * 1e6 if rec.start else 0.0
        dur = rec.duration * 1e6
        t_end = max(t_end, ts + dur)
        events.append({
            "name": rec.name,
            "cat": "span",
            "ph": "X",
            "ts": round(ts, 3),
            "dur": round(dur, 3),
            "pid": pid,
            "tid": tid,
            "args": _args(rec),
        })
        for c in rec.children:
            visit(c, pid, tid)

    for i, rec in enumerate(roots):
        # Each root gets its own thread row so concurrent roots
        # (threads, re-rooted workers) never stack on one track.
        visit(rec, MAIN_PID, i)

    for pid, label in sorted(pids.items()):
        events.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": label},
        })
    ts_metrics = round(t_end, 3)
    for name, value in sorted(snapshot.get("counters", {}).items()):
        events.append({
            "name": name,
            "cat": "counter",
            "ph": "C",
            "ts": ts_metrics,
            "pid": MAIN_PID,
            "tid": 0,
            "args": {"value": value},
        })
    for name, h in sorted(snapshot.get("histograms", {}).items()):
        events.append({
            "name": name,
            "cat": "histogram",
            "ph": "C",
            "ts": ts_metrics,
            "pid": MAIN_PID,
            "tid": 0,
            "args": {
                "count": h.get("count", 0),
                "mean": h.get("mean", 0.0),
                "p50": h.get("p50", 0.0),
                "p90": h.get("p90", 0.0),
                "p99": h.get("p99", 0.0),
            },
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": CHROME_TRACE_SCHEMA},
    }


def write_chrome_trace(
    path, roots: list | None = None, snapshot: dict | None = None
) -> dict:
    """Write :func:`chrome_trace` JSON to ``path``; returns the doc."""
    doc = chrome_trace(roots, snapshot)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return doc


def validate_chrome_trace(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a loadable trace.

    Checks the envelope and, for every event, the fields Perfetto's
    importer requires: a ``ph`` phase, numeric ``ts`` (plus ``dur``
    for complete events), and integer ``pid``/``tid``.
    """
    problems: list[str] = []
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        raise ValueError("trace missing 'traceEvents' list")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        if ev.get("ph") not in ("X", "M", "C", "B", "E", "i"):
            problems.append(f"{where}: bad ph {ev.get('ph')!r}")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: missing integer {key}")
        if ev.get("ph") != "M":
            if not isinstance(ev.get("ts"), (int, float)):
                problems.append(f"{where}: missing numeric ts")
        if ev.get("ph") == "X":
            if not isinstance(ev.get("dur"), (int, float)):
                problems.append(f"{where}: complete event missing dur")
    if problems:
        raise ValueError("invalid chrome trace: " + "; ".join(problems))


def jsonl_events(
    roots: list | None = None, snapshot: dict | None = None
) -> list[dict]:
    """Flatten the trace + metrics into a list of JSONL-ready events.

    Span events carry ``type/name/ts_us/dur_us/pid/depth/attrs/counts``
    in depth-first order; metric events follow (``counter``, ``gauge``,
    ``histogram`` with percentile summaries).  The first line is a
    header event stamping the schema.
    """
    if roots is None:
        roots = _trace.trace_roots()
    if snapshot is None:
        snapshot = _metrics.registry().snapshot()
    t0 = _forest_t0(roots)
    out: list[dict] = [{"type": "header", "schema": JSONL_SCHEMA}]

    def visit(rec, pid: int, depth: int) -> None:
        pid = _span_pid(rec, pid)
        out.append({
            "type": "span",
            "name": rec.name,
            "ts_us": round((rec.start - t0) * 1e6, 3) if rec.start else 0.0,
            "dur_us": round(rec.duration * 1e6, 3),
            "pid": pid,
            "depth": depth,
            "attrs": {str(k): v for k, v in rec.attrs.items()},
            "counts": dict(rec.counts),
        })
        for c in rec.children:
            visit(c, pid, depth + 1)

    for rec in roots:
        visit(rec, MAIN_PID, 0)
    for name, value in sorted(snapshot.get("counters", {}).items()):
        out.append({"type": "counter", "name": name, "value": value})
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        out.append({"type": "gauge", "name": name, "value": value})
    for name, h in sorted(snapshot.get("histograms", {}).items()):
        out.append({"type": "histogram", "name": name, **h})
    return out


def write_jsonl(
    path, roots: list | None = None, snapshot: dict | None = None
) -> list[dict]:
    """Write :func:`jsonl_events` to ``path``, one object per line."""
    events = jsonl_events(roots, snapshot)
    with open(path, "w") as fh:
        for ev in events:
            fh.write(json.dumps(ev, sort_keys=True))
            fh.write("\n")
    return events


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str) -> str:
    """A legal Prometheus metric name: prefix + sanitized name."""
    out = _PROM_BAD.sub("_", prefix + name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_num(value) -> str:
    """Render a sample value; integers stay integral."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(
    snapshot: dict | None = None, *, prefix: str = "repro_"
) -> str:
    """Render a metrics snapshot in Prometheus text exposition format.

    Counters become ``<prefix><name>_total``; gauges keep their name;
    histograms emit the conventional trio -- *cumulative*
    ``_bucket{le="..."}`` series ending in ``le="+Inf"``, ``_sum``,
    and ``_count``.  Dots and other illegal characters in registry
    names are mapped to underscores (``cache.hits`` ->
    ``repro_cache_hits_total``).

    Histogram buckets carrying an exemplar (a trace id recorded by
    ``Histogram.observe(..., exemplar=...)``) render it OpenMetrics
    style as a ``# {trace_id="..."} <value>`` suffix on the bucket
    line, so a spike in a latency bucket links straight to a trace.
    Snapshots without exemplars render byte-identically to before.
    """
    if snapshot is None:
        snapshot = _metrics.registry().snapshot()
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_num(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_num(value)}")
    for name, h in sorted(snapshot.get("histograms", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} histogram")
        bounds, counts, overflow = _metrics._parse_buckets(
            h.get("buckets", {})
        )
        exemplars = h.get("exemplars") or {}

        def bucket_line(label: str, cum: int, key: str) -> str:
            line = f'{metric}_bucket{{le="{label}"}} {cum}'
            ex = exemplars.get(key)
            if ex and ex.get("trace_id"):
                line += (
                    f' # {{trace_id="{ex["trace_id"]}"}}'
                    f' {_prom_num(float(ex.get("value", 0.0)))}'
                )
            return line

        cum = 0
        for edge, n in zip(bounds, counts):
            cum += n
            lines.append(bucket_line(_prom_num(edge), cum, f"le_{edge}"))
        cum += overflow
        lines.append(bucket_line("+Inf", cum, "overflow"))
        lines.append(f"{metric}_sum {_prom_num(h.get('sum', 0))}")
        lines.append(f"{metric}_count {h.get('count', 0)}")
    return "\n".join(lines) + "\n"


def write_prometheus(
    path, snapshot: dict | None = None, *, prefix: str = "repro_"
) -> str:
    """Atomically write :func:`prometheus_text` to ``path``.

    Temp-file + rename because this file is rewritten mid-run by the
    sweep watchdog while scrapers read it; returns the text.
    """
    text = prometheus_text(snapshot, prefix=prefix)
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return text
