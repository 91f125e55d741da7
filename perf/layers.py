"""Per-layer attribution for the traced run.

The benchmark measures each layer from outside the program: it replays a
workload's (network, L) keys through the public function of every layer,
each call timed by the benchmark and wrapped in a benchmark-owned
``obs.span("perf.<layer>.<call>")``.  The replay runs twice.  With
tracing off it gives each call's time per replayed key, comparable with
the untraced end-to-end times.  With tracing on, the spans the program
records (builder phases, validator checks) nest inside the benchmark's,
and the builder phases are reported as self time.  Import cost comes from
``python -X importtime``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from contextlib import contextmanager

from repro import obs
from repro.batch.cache import LayoutCache
from repro.batch.runner import run_sweep_job
from repro.batch.spec import SweepJob, dispatch_scheme, parse_network
from repro.core.metrics import measure
from repro.grid.io import layout_to_json
from repro.grid.validate import check_topology, validate_layout
from repro.routing import layout_link_delays
from repro.serve.protocol import json_body

from workloads import Env, Pass, key_name, run_python

#: Replay at least this long, and at least one round of the key set.
REPLAY_SECONDS = 5.0
IMPORT_SAMPLES = 3

#: Layer calls the replay times, in call order.
CALLS = (
    "topology.parse", "batch.key", "core.build", "grid.table",
    "grid.validate", "grid.check_topology", "core.measure",
    "grid.serialize", "batch.cache_put", "batch.cache_get",
    "serve.layout_decode", "serve.encode", "routing.delays",
)
#: The layout builder's phase spans, reported as self time.
BUILD_PHASES = (
    "prepare_blocks", "request_pins", "pack_channels", "compute_geometry",
    "place_nodes", "route_row_links", "route_col_links",
    "route_extra_links", "route_strips",
)
#: The calls a sweep job makes (``run_sweep_job``), whose sum is
#: compared with whole jobs run beside them (``JOB``).
JOB_CALLS = (
    "topology.parse", "batch.key", "core.build", "grid.table",
    "grid.validate", "core.measure", "grid.serialize", "batch.cache_put",
)

JOB = "batch.job"

#: The per-layer metrics every traced run reports, with their units.
PER_LAYER = (
    [(f"{c}_ms", "ms") for c in CALLS[:3]]
    + [(f"core.build.{ph}_ms", "ms") for ph in BUILD_PHASES]
    + [(f"{c}_ms", "ms") for c in CALLS[3:]]
    + [
        ("grid.layout_bytes", "bytes"), ("grid.wires", "count"),
        ("batch.cache_writes", "count"), ("serve.hits", "count"),
        ("serve.built", "count"), ("serve.coalesced", "count"),
        ("routing.messages", "count"), ("obs.trace_overhead", "ratio"),
        ("import.total_s", "s"), ("import.numpy_s", "s"),
        ("import.repro_self_s", "s"),
    ]
)


def _replay_key(cache: LayoutCache, env: Env, net_spec: str, L: int,
                times: dict, sizes: dict) -> str | None:
    @contextmanager
    def span(call):
        t0 = time.perf_counter()
        with obs.span(f"perf.{call}"):
            yield
        times[call] += (time.perf_counter() - t0) * 1e3

    with obs.span("perf.key", key=key_name(net_spec, L)):
        with span("topology.parse"):
            net = parse_network(net_spec)
        with span("batch.key"):
            key, key_doc = cache.key_for(net, scheme="auto", layers=L)
        with span("core.build"):
            lay = dispatch_scheme(net, layers=L, scheme="auto")
        with span("grid.table"):
            lay.wire_table()
        with span("grid.validate"):
            validate_layout(lay)
        with span("grid.check_topology"):
            check_topology(lay, net.edges)
        with span("core.measure"):
            metrics = measure(lay).as_dict()
        with span("grid.serialize"):
            text = layout_to_json(lay)
        with span("batch.cache_put"):
            cache.put(key, key_doc, text, metrics)
        with span("batch.cache_get"):
            entry = cache.get(key, key_doc)
        with span("serve.layout_decode"):
            doc = json.loads(entry.layout_json)
        with span("serve.encode"):
            json_body({"metrics": entry.metrics, "layout": doc})
        with span("routing.delays"):
            layout_link_delays(lay)
    sizes[key_name(net_spec, L)] = (len(text), len(lay.wires))
    return env.pins.check_metrics(net_spec, L, metrics) or (
        env.pins.check_layout(net_spec, L, text)
    )


def _replay_job(env: Env, net_spec: str, L: int, times: dict) -> str | None:
    """One whole sweep job into a fresh cache, as batch-cold runs it."""
    cache_dir = env.scratch("job-")
    try:
        t0 = time.perf_counter()
        res = run_sweep_job(SweepJob(0, net_spec, L), LayoutCache(cache_dir),
                            validate=True)
        times[JOB] = times.get(JOB, 0.0) + (time.perf_counter() - t0) * 1e3
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return env.pins.check_metrics(net_spec, L, res.metrics)


def replay(env: Env, keys, p: Pass, jobs: bool = False) -> tuple[dict, dict]:
    """Replay ``keys`` through every layer, whole rounds for at least
    ``REPLAY_SECONDS``; with ``jobs``, each key's calls are followed by a
    whole sweep job of that key, so the two are timed under the same host
    load.

    Returns, for each key, the mean milliseconds each call (and ``JOB``)
    took and the ``(bytes, wires)`` of its layout.  With tracing on, the
    replay's spans stay in the live collector.
    """
    cache = LayoutCache(env.scratch("replay-"))
    sums = {key_name(*k): dict.fromkeys(CALLS, 0.0) for k in keys}
    sizes: dict = {}
    rounds = 0
    t_end = time.perf_counter() + REPLAY_SECONDS
    while not rounds or time.perf_counter() < t_end:
        for net_spec, L in keys:
            times = sums[key_name(net_spec, L)]
            err = _replay_key(cache, env, net_spec, L, times, sizes)
            if jobs and not err:
                err = _replay_job(env, net_spec, L, times)
            if err:
                p.fail(f"replay {err}")
            else:
                p.attempted += 1
        rounds += 1
    keys_ms = {
        key: {c: ms / rounds for c, ms in calls.items()}
        for key, calls in sums.items()
    }
    return keys_ms, sizes


def call_metrics(keys_ms: dict, sizes: dict) -> dict:
    """Each call's time, and the layout's size, averaged over the keys."""
    out = {
        f"{c}_ms": statistics.fmean(k[c] for k in keys_ms.values())
        for c in CALLS
    }
    out["grid.layout_bytes"] = statistics.fmean(b for b, _ in sizes.values())
    out["grid.wires"] = statistics.fmean(w for _, w in sizes.values())
    return out


def phase_metrics(roots, n_keys: int) -> dict:
    """Builder-phase self time per replayed key, from traced replay
    spans (``roots``) covering ``n_keys`` key replays."""
    phases = dict.fromkeys(BUILD_PHASES, 0.0)
    for root in roots:
        for rec in root.walk():
            if rec.name in phases:
                phases[rec.name] += rec.self_time() * 1e3
    return {f"core.build.{ph}_ms": ms / n_keys for ph, ms in phases.items()}


def import_times(env: Env) -> dict:
    """Median ``python -X importtime -c "import repro.cli"`` breakdown."""
    rows = []
    for _ in range(IMPORT_SAMPLES):
        proc = run_python(env, ["-X", "importtime", "-c", "import repro.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr[-2000:]}")
        total = numpy = repro_self = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, cumulative_us, name = line[len("import time:"):].split("|")
            if not self_us.strip().isdigit():
                continue  # the header line
            name = name.strip()
            total += int(self_us)
            if name == "numpy":
                numpy = int(cumulative_us)
            if name == "repro" or name.startswith("repro."):
                repro_self += int(self_us)
        rows.append((total, numpy, repro_self))
    med = [statistics.median(col) / 1e6 for col in zip(*rows)]
    return {
        "import.total_s": med[0],
        "import.numpy_s": med[1],
        "import.repro_self_s": med[2],
    }


def job_layers_ms(calls: dict) -> float:
    """Milliseconds of the calls a sweep job makes, from one key's
    ``keys_ms`` entry."""
    return sum(calls[c] for c in JOB_CALLS)

