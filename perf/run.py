"""End-to-end benchmark of the layout system, with per-layer attribution.

Run from the root of a checkout::

    python3 perf/run.py                                  # all four workloads
    python3 perf/run.py --workload batch-cold --seed 3 --seconds 10
    python3 perf/run.py --workload serve-warm --trace    # per-layer table

Each workload is measured for ``--seconds`` with tracing off, and every
output is checked against the pins in ``perf/expected.json``.  With
``--trace`` (or ``--trace 1``) the run measures the workload again with
tracing on, replays its keys through every layer, and reports per-layer
metrics instead of end-to-end ones.  Every run writes one JSON document
(and, traced, one Chrome trace) to ``--out``, ``.perf_out/`` by default.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark reads and writes only inside the checkout: scratch space is
``.perf_tmp/``, removed at exit.  It refuses to run (exit 2) without the
program's sources under ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from gauge import REF_MS, pin_to_one_cpu
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SECONDS = 25.0
#: The traced pass runs for this share of ``--seconds``: it is there for
#: the trace and the overhead figure, not for steady numbers.
TRACED_SHARE = 1 / 3
#: v2: times scaled by the gauge, the wall figures apart.
SCHEMA = "perf.run/v2"


def _percentiles(p, scaled: bool = True) -> tuple[float, float]:
    """The ops' latencies in ms, scaled to a host of reference speed
    unless ``scaled`` is false: the geometric mean over operation kinds of
    each kind's median, and the 90th percentile of all ops.

    A median taken over all ops falls on whichever kind sits at the middle
    of the mix, and jumps between neighbouring kinds from run to run; the
    per-kind medians are steady, and every kind counts in their mean."""
    by_kind: dict = {}
    for kind, s, r in p.ops:
        by_kind.setdefault(kind, []).append(
            s * 1e3 * (REF_MS / r if scaled else 1.0))
    kind_p50 = statistics.geometric_mean(
        percentile(v, 0.5) for v in by_kind.values())
    return kind_p50, percentile(
        [x for v in by_kind.values() for x in v], 0.9)


def _rate(p, scaled: bool = True) -> float:
    n = sum(n for n, _, _ in p.rounds)
    return n / sum(s * (REF_MS / r if scaled else 1.0)
                   for _, s, r in p.rounds)


def _setup(p, scaled: bool = True) -> float:
    return statistics.median(s * (REF_MS / r if scaled else 1.0)
                             for s, r in p.setup_s)


def e2e_metrics(p) -> dict:
    """The end-to-end metrics every workload reports.  An "op" is the
    workload's unit of work: a sweep job, a CLI process, a request, a
    traffic run.  Every time is scaled to a host on which the reference
    loop takes ``REF_MS``, each op and set-up by the gauge read around
    it."""
    if not p.ops:
        raise RuntimeError(f"no operation succeeded: {p.errors[:3]}")
    p50, p90 = _percentiles(p)
    return {
        "setup_s": (_setup(p), "s"),
        "op_ms.kind_p50": (p50, "ref-ms"),
        "op_ms.p90": (p90, "ref-ms"),
        "ops_per_s": (_rate(p), "1/ref-s"),
    }


def wall_figures(p) -> dict:
    """The end-to-end figures as the wall clock read them, unscaled, and
    the gauge's median: for reading, not for comparing runs."""
    p50, p90 = _percentiles(p, scaled=False)
    return {
        "wall.setup_s": (_setup(p, scaled=False), "s"),
        "wall.op_ms.kind_p50": (p50, "ms"),
        "wall.op_ms.p90": (p90, "ms"),
        "wall.ops_per_s": (_rate(p, scaled=False), "1/s"),
        "gauge.ref_ms": (statistics.median(p.ref_ms), "ms"),
    }


def kind_table(p) -> dict:
    """Per operation kind: sample count and median in ms, unscaled and
    scaled."""
    kinds: dict = {}
    for kind, s, r in p.ops:
        kinds.setdefault(kind, []).append((s * 1e3, s * 1e3 * REF_MS / r))
    return {
        k: {"n": len(v), "p50_ms": percentile([w for w, _ in v], 0.5),
            "p50_ref_ms": percentile([x for _, x in v], 0.5)}
        for k, v in sorted(kinds.items())
    }


def per_layer_metrics(name, env, base, seconds, out_dir) -> tuple:
    """Untraced replay, then traced pass + replay; returns (per-layer
    metrics, path-only figures, per-key call times, the traced Pass)."""
    import layers
    import workloads
    from repro import obs

    keys = workloads.WORKLOAD_KEYS[name]
    keys_ms, sizes = layers.replay(env, keys, base,
                                   jobs=name == "batch-cold")
    layer = layers.call_metrics(keys_ms, sizes)
    obs.reset()
    obs.enable()
    try:
        traced = workloads.WORKLOADS[name](env, seconds * TRACED_SHARE,
                                           traced=True)
        before = len(obs.trace_roots())
        n_before = traced.attempted
        layers.replay(env, keys, traced)
        layer.update(layers.phase_metrics(
            obs.trace_roots()[before:], traced.attempted - n_before
        ))
        obs.write_chrome_trace(
            out_dir / f"{name}-s{env.seed}.chrome.json", obs.trace_roots()
        )
    finally:
        obs.disable()
        obs.reset()
    layer.update(layers.import_times(env))
    layer["obs.trace_overhead"] = (
        _percentiles(traced)[0] / _percentiles(base)[0] - 1
        if traced.ops else 0.0
    )
    counts = traced.counts
    layer["batch.cache_writes"] = counts.get("cache_writes", 0)
    for c in ("hits", "built", "coalesced"):
        layer[f"serve.{c}"] = counts.get(c, 0)
    layer["routing.messages"] = counts.get("messages", 0)
    units = dict(layers.PER_LAYER)
    metrics = {k: (layer[k], units[k]) for k, _ in layers.PER_LAYER}

    path = {}
    smp = traced.samples
    if name == "batch-cold":
        # Untraced against untraced, timed side by side: the replayed
        # calls of each key's sweep job against a whole job of that key.
        # Every key runs equally often, so the median over keys is the
        # counterpart of the job p50.
        calls = [layers.job_layers_ms(c) for c in keys_ms.values()]
        jobs = [c[layers.JOB] for c in keys_ms.values()]
        overhead = [j - c for j, c in zip(jobs, calls)]
        layers_p50 = statistics.median(calls)
        job_p50 = statistics.median(jobs)
        path["batch.job_layers_p50_ms"] = (layers_p50, "ms")
        path["batch.job_p50_ms"] = (job_p50, "ms")
        path["batch.attribution"] = (layers_p50 / job_p50, "ratio")
        path["batch.runner_overhead_ms"] = (statistics.fmean(overhead), "ms")
    if "server_ms" in smp:
        path["serve.server_ms.p50"] = (percentile(smp["server_ms"], .5), "ms")
        path["serve.http_overhead_ms.p50"] = (
            percentile(smp["http_overhead_ms"], .5), "ms"
        )
    if "keys" in counts:
        path["serve.builds_per_key"] = (
            counts.get("built", 0) / counts["keys"], "ratio"
        )
    if "simulate_ms" in smp:
        path["routing.workload_ms"] = (statistics.fmean(smp["workload_ms"]),
                                       "ms")
        path["routing.simulate_ms"] = (statistics.fmean(smp["simulate_ms"]),
                                       "ms")
        path["routing.msgs_per_s"] = (
            counts["messages_simulated"] / (sum(smp["simulate_ms"]) / 1e3),
            "1/s",
        )
    return metrics, path, keys_ms, traced


def run_workload(name, env, seconds, trace, out_dir) -> dict:
    import workloads

    base = workloads.WORKLOADS[name](env, seconds, traced=False)
    doc = {
        "schema": SCHEMA,
        "workload": name,
        "seed": env.seed,
        "seconds": seconds,
        "trace": trace,
        "time_unix": time.time(),
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "pinned_to": sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
        },
        "samples": len(base.ops),
        "kinds": kind_table(base),
        "setup_samples_s": base.setup_s,
    }
    passes = [base]
    if trace:
        metrics, path, keys_ms, traced = per_layer_metrics(
            name, env, base, seconds, out_dir
        )
        passes.append(traced)
        doc["path"] = _plain(path)
        doc["keys_ms"] = keys_ms
    else:
        metrics = e2e_metrics(base)
        doc["wall"] = _plain(wall_figures(base))
    doc["metrics"] = _plain(metrics)
    doc["attempted"] = sum(p.attempted for p in passes)
    doc["failed"] = sum(p.failed for p in passes)
    doc["fail_ratio"] = doc["failed"] / max(doc["attempted"], 1)
    doc["errors"] = [e for p in passes for e in p.errors][:20]
    suffix = "-trace" if trace else ""
    with open(out_dir / f"{name}-s{env.seed}{suffix}.json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def _plain(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def print_doc(doc: dict) -> None:
    mode = "traced" if doc["trace"] else "untraced"
    print(
        f"== {doc['workload']}  seed {doc['seed']}  {doc['seconds']:g} s  "
        f"{mode}  {doc['samples']} ops  failed "
        f"{doc['failed']}/{doc['attempted']} "
        f"(fail_ratio {doc['fail_ratio']:.4g}) =="
    )
    rows = [*doc["metrics"].items(), *doc.get("wall", {}).items(),
            *doc.get("path", {}).items()]
    for name, m in rows:
        print(f"  {name:34s} {m['value']:>14.6g}  {m['unit']}")
    for kind, k in doc["kinds"].items():
        print(f"  kind {kind:29s} {k['p50_ref_ms']:>14.6g}  ref-ms p50 "
              f"({k['p50_ms']:.6g} ms, n={k['n']})")
    for err in doc["errors"][:5]:
        print(f"  ! {err}")


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no program sources at {SRC / 'repro'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perf: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=list(workloads.WORKLOADS),
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="measured time per pass")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="report per-layer instead of end-to-end metrics")
    ap.add_argument("--out", type=Path, default=ROOT / ".perf_out",
                    help="directory for the run documents and traces")
    args = ap.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)

    # A shell that starts the benchmark in the background leaves SIGINT
    # ignored, and children inherit that: the servers would then ignore the
    # interrupt that stops them.  SIGTERM unwinds through the same finally
    # blocks, so no server outlives the run.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _terminate)
    pin_to_one_cpu()
    args.out.mkdir(parents=True, exist_ok=True)
    tmp_root = ROOT / ".perf_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    env = workloads.Env(root=ROOT, tmp=tmp, seed=args.seed,
                        pins=workloads.Pins(HERE / "expected.json"))
    docs = []
    try:
        for name in names:
            doc = run_workload(name, env, args.seconds, args.trace, args.out)
            print_doc(doc)
            docs.append(doc)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    prefix = len(docs) > 1
    result = {
        "correct": all(d["failed"] == 0 for d in docs),
        "attempted": sum(d["attempted"] for d in docs),
        "failed": sum(d["failed"] for d in docs),
        "metrics": {
            (f"{d['workload']}/{k}" if prefix else k): v
            for d in docs
            for k, v in d["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
