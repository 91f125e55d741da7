"""The parallel sweep engine: expand, fan out, merge deterministically.

:class:`SweepRunner` executes a :class:`~repro.batch.spec.SweepSpec`:

* every job is **pure** (network spec + scheme + layers -> layout +
  metrics), so jobs run in any order on any worker and the merged
  result -- jobs reassembled in spec order, with deterministic fields
  only -- is byte-for-byte independent of the worker count;
* every job is backed by the content-addressed
  :class:`~repro.batch.cache.LayoutCache` (when a cache directory is
  given): a hit skips build, validation *and* measurement, returning
  the stored metrics;
* with ``workers > 1`` each round-robin job slice runs in its own
  ``multiprocessing.Process`` (``fork`` start method where the
  platform offers it -- workers then inherit the warm interpreter;
  ``spawn`` elsewhere).  Workers hand results back through atomically
  written ``result-<wid>.json`` files in the run directory rather
  than a pool future, so one worker dying (OOM kill, SIGKILL) costs
  only its own slice: the parent still merges every surviving
  worker's rows and records the loss in ``worker_health``.  Workers
  run with observability on and the parent folds their full metric
  snapshots into its own :mod:`repro.obs` registry *and* re-roots
  their span forests under per-worker ``sweep.worker`` spans, so
  ``--report``, ``--trace``, and the ``--trace-out`` exporters see
  everything that happened in children;
* runs are observable **while they happen**: each worker keeps a
  ``heartbeat-<wid>.json`` fresh (jobs done, current job, RSS) on a
  jobs-or-seconds cadence, a :class:`repro.obs.live.Watchdog` thread
  in the parent classifies workers ``ok`` / ``stalled`` / ``dead``
  (verdicts land in :attr:`SweepResult.worker_health` and the
  structured log), and ``python -m repro watch RUNDIR`` renders the
  whole picture.  Give :class:`SweepRunner` a ``run_dir`` to keep
  those artifacts (plus a ``log.jsonl`` and the run manifest); without
  one, parallel runs use a throwaway directory.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro import obs
from repro.batch.cache import CacheStats, LayoutCache
from repro.batch.spec import SweepJob, SweepSpec, dispatch_scheme
from repro.core.metrics import measure
from repro.grid.io import layout_to_json
from repro.grid.validate import validate_layout
from repro.obs import context as ocontext
from repro.obs import live
from repro.obs import logging as olog

__all__ = [
    "JobResult",
    "SweepResult",
    "SweepRunner",
    "reroot_worker_spans",
    "run_sweep_job",
]

FAULT_ENV = "REPRO_SWEEP_FAULT"


@dataclass
class JobResult:
    """One job's outcome.

    ``row()`` is the deterministic projection (identical across worker
    counts and cache states); ``elapsed_s`` and ``source`` are
    run-dependent diagnostics.
    """

    job_id: str
    network: str
    scheme: str
    layers: int
    num_nodes: int
    num_edges: int
    metrics: dict
    source: str  # "built" | "cache"
    elapsed_s: float

    def row(self) -> dict:
        return {
            "job_id": self.job_id,
            "network": self.network,
            "scheme": self.scheme,
            "layers": self.layers,
            "N": self.num_nodes,
            "E": self.num_edges,
            "metrics": dict(self.metrics),
        }

    def as_dict(self) -> dict:
        return {
            **self.row(),
            "source": self.source,
            "elapsed_s": self.elapsed_s,
        }


@dataclass
class SweepResult:
    """A merged sweep outcome, job results in spec order."""

    spec: SweepSpec
    results: list[JobResult] = field(default_factory=list)
    workers: int = 1
    cache_stats: CacheStats = field(default_factory=CacheStats)
    elapsed_s: float = 0.0
    worker_health: dict[int, dict] = field(default_factory=dict)
    run_dir: str | None = None

    @property
    def jobs(self) -> int:
        return len(self.results)

    def lost_workers(self) -> list[int]:
        """Worker ids whose verdict ended ``dead`` or ``failed``."""
        return sorted(
            w
            for w, rec in self.worker_health.items()
            if rec.get("verdict") in ("dead", "failed")
        )

    def rows(self) -> list[dict]:
        """The deterministic merged output."""
        return [r.row() for r in self.results]

    def as_dict(self) -> dict:
        return {
            "schema": "repro.sweep-result/v1",
            "spec": self.spec.to_dict(),
            "workers": self.workers,
            "jobs": self.jobs,
            "cache": self.cache_stats.as_dict(),
            "elapsed_s": self.elapsed_s,
            "worker_health": {
                str(w): dict(rec)
                for w, rec in sorted(self.worker_health.items())
            },
            "run_dir": self.run_dir,
            "results": [r.as_dict() for r in self.results],
        }


def run_sweep_job(
    job: SweepJob,
    cache: LayoutCache | None = None,
    *,
    validate: bool = True,
) -> JobResult:
    """Execute one job: cache lookup, else build + validate + measure.

    Cached runs go through :meth:`LayoutCache.get_or_build`, so two
    threads racing the same cold key on one cache handle pay exactly
    one build (``source`` comes back ``"coalesced"`` for the waiter);
    the serve-side coalescer and the sweep workers share this path.
    """
    t0 = time.perf_counter()
    net = job.build_network()

    def build() -> tuple:
        # When a trace context is active -- a serve request shipped
        # into a pool worker, or a sweep run stamped its own -- the
        # job span carries the trace id and a request-style id, so a
        # built row links straight to its trace document.
        attrs: dict = {"job": job.job_id}
        ctx = ocontext.current_context()
        if ctx is not None:
            attrs["trace_id"] = ctx.trace_id
            attrs["request_id"] = (
                f"j{job.index:05d}-{ctx.trace_id[:8]}"
            )
        with obs.span("sweep.job", **attrs):
            layout = dispatch_scheme(
                net, layers=job.layers, scheme=job.scheme
            )
            if validate:
                validate_layout(layout)
            metrics = measure(layout).as_dict()
        obs.count("sweep.jobs_built")
        return layout, metrics

    if cache is not None:
        key, key_text = cache.key_for(
            net, scheme=job.scheme, layers=job.layers,
        )
        entry, source = cache.get_or_build(
            key, key_text, lambda: _serialized(build())
        )
        metrics = entry.metrics
    else:
        _, metrics = build()
        source = "built"
    return JobResult(
        job_id=job.job_id,
        network=job.network,
        scheme=job.scheme,
        layers=job.layers,
        num_nodes=net.num_nodes,
        num_edges=net.num_edges,
        metrics=metrics,
        source=source,
        elapsed_s=time.perf_counter() - t0,
    )


def _serialized(built: tuple) -> tuple:
    """``(layout, metrics) -> (layout_json, metrics)`` for the cache."""
    layout, metrics = built
    return layout_to_json(layout), metrics


def _maybe_fault(worker_id: int, jobs_done: int) -> None:
    """Honor ``REPRO_SWEEP_FAULT="<wid>:stop|kill"`` (tests/CI only).

    After worker ``wid`` finishes its first job -- so its heartbeat
    already carries real progress -- the worker SIGSTOPs or SIGKILLs
    *itself*, exercising the watchdog's stalled/dead paths against a
    real process without the test having to win a race against the
    scheduler.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec or jobs_done != 1:
        return
    try:
        wid_s, action = spec.split(":", 1)
        wid = int(wid_s)
    except ValueError:
        return
    if wid != worker_id:
        return
    import signal

    if action == "stop":
        os.kill(os.getpid(), signal.SIGSTOP)
    elif action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def _worker_main(payload: dict) -> None:
    """Per-slice process entry: run jobs, beat, write ``result-<wid>``.

    Everything the parent needs to merge deterministically goes into
    one atomically written JSON file: job rows keyed by spec index,
    the cache tally, the worker's full metrics snapshot (counters
    *and* histograms; the parent folds it via
    :meth:`MetricsRegistry.merge`), the serialized span forest the
    parent re-roots under a per-worker span, and the first job
    exception (if any) as a string.  A job failure still produces the
    file -- partial results beat none -- and the parent re-raises.

    The fixed work before the first job (log sink, cache handle,
    registry reset, trace adoption, heartbeat writer) is one
    ``sweep.worker.setup`` span.
    """
    setup_start = time.perf_counter()
    wid = payload["worker_id"]
    olog.fork_child(wid)
    if not olog.configured() and payload.get("log_path"):
        # spawn start method: module state did not survive, rebuild
        # the sink from the payload.
        olog.configure(
            payload["log_path"],
            run_id=payload.get("run_id"),
            worker_id=wid,
        )
    run_dir = payload["run_dir"]
    jobs = payload["jobs"]
    cache = (
        LayoutCache(payload["cache_dir"], readonly=payload["readonly"])
        if payload["cache_dir"] is not None
        else None
    )
    if payload["observe"]:
        # A fresh registry per worker: fork inherits the parent's
        # counts and spans, which must not be double-reported.
        obs.reset()
        obs.enable()
    trace_doc = payload.get("trace")
    if trace_doc:
        # Adopt the run's trace context (each worker got its own
        # span id), so sweep.job spans in children carry the same
        # trace id as the parent's.
        ocontext.set_context(ocontext.TraceContext.from_dict(trace_doc))
    hb = live.HeartbeatWriter(
        run_dir,
        wid,
        jobs_total=len(jobs),
        interval_s=payload["heartbeat_s"],
    )
    hb.beat(force=True)
    hb.start_pulse()
    # The setup resets the span collector, so its span is recorded
    # once the collector is fresh instead of opened around it.
    obs.attach(obs.SpanRecord(
        "sweep.worker.setup", {}, start=setup_start,
        duration=time.perf_counter() - setup_start,
    ))
    olog.info("sweep.worker_start", worker_id=wid, jobs=len(jobs))
    results: list[dict] = []
    error = None
    for job in jobs:
        hb.current_job = job.job_id
        hb.beat(force=True)
        try:
            res = run_sweep_job(job, cache, validate=payload["validate"])
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            error = f"{type(exc).__name__}: {exc}"
            olog.error(
                "sweep.worker_error",
                worker_id=wid,
                job=job.job_id,
                error=error,
            )
            break
        results.append({"index": job.index, **res.as_dict()})
        hb.job_tick(
            cache=cache.stats.as_dict() if cache is not None else {},
        )
        _maybe_fault(wid, hb.jobs_done)
    snapshot = obs.registry().snapshot() if payload["observe"] else {}
    spans = (
        [r.as_dict() for r in obs.trace_roots()]
        if payload["observe"]
        else []
    )
    doc = {
        "worker_id": wid,
        "results": results,
        "cache_stats": cache.stats.as_dict() if cache is not None else {},
        "snapshot": snapshot,
        "spans": spans,
        "error": error,
    }
    live.write_json_atomic(
        os.path.join(run_dir, f"result-{wid}.json"), doc
    )
    hb.finish("failed" if error else "done")
    olog.info(
        "sweep.worker_done",
        worker_id=wid,
        jobs_done=len(results),
        error=error,
    )


def reroot_worker_spans(
    worker_id: int, span_docs: list, name: str = "sweep.worker", **attrs
) -> None:
    """Attach a worker's serialized span forest to the live trace.

    The forest is rebuilt and wrapped in one ``name`` span (sweep and
    fuzz workers use ``sweep.worker``, the daemon's pool
    ``pool.worker``) whose attrs carry ``worker_id`` (the exporters
    key process rows off it) plus anything the caller adds; timing is
    derived from the children (monotonic clocks are shared across
    ``fork``, so child timestamps line up with the parent's spans).
    It lands under the innermost open span.  No-op when tracing is
    disabled or the worker produced no spans.
    """
    if not span_docs or not obs.enabled():
        return
    children = [obs.SpanRecord.from_dict(d) for d in span_docs]
    start = min((c.start for c in children if c.start), default=0.0)
    end = max((c.end() for c in children), default=start)
    wrapper = obs.SpanRecord(
        name=name,
        attrs={"worker_id": worker_id, **attrs},
        start=start,
        duration=max(0.0, end - start),
        children=children,
    )
    obs.attach(wrapper)


class SweepRunner:
    """Executes sweep specs with worker fan-out and a shared cache."""

    def __init__(
        self,
        *,
        cache_dir: str | os.PathLike | None = None,
        cache_readonly: bool = False,
        workers: int = 1,
        validate: bool = True,
        trace_out: str | os.PathLike | None = None,
        events_out: str | os.PathLike | None = None,
        run_dir: str | os.PathLike | None = None,
        metrics_out: str | os.PathLike | None = None,
        stall_after_s: float = live.DEFAULT_STALL_AFTER_S,
        heartbeat_s: float = live.DEFAULT_HEARTBEAT_S,
        watch_interval_s: float | None = None,
    ):
        self.cache_dir = cache_dir
        self.cache_readonly = cache_readonly
        self.workers = max(1, int(workers))
        self.validate = validate
        self.trace_out = trace_out
        self.events_out = events_out
        self.run_dir = run_dir
        self.metrics_out = metrics_out
        self.stall_after_s = stall_after_s
        self.heartbeat_s = heartbeat_s
        self.watch_interval_s = watch_interval_s

    def run(self, spec: SweepSpec) -> SweepResult:
        jobs = spec.expand()
        # An export request implies observation: turn collection on
        # for the run (and back off, if we enabled it) so the written
        # trace is never empty by accident.
        exporting = self.trace_out or self.events_out or self.metrics_out
        enabled_here = bool(exporting) and not obs.enabled()
        if enabled_here:
            obs.enable()
        run_dir = (
            None if self.run_dir is None else os.fspath(self.run_dir)
        )
        log_here = False
        tmp_dir = None
        if run_dir is not None:
            os.makedirs(run_dir, exist_ok=True)
            if not olog.configured():
                # A kept run directory always gets a log to tail.
                olog.configure(os.path.join(run_dir, live.LOG_NAME))
                log_here = True
        t0 = time.perf_counter()
        # Every run executes under a trace context: inherited when a
        # caller (e.g. a serve worker) already carries one, otherwise
        # a fresh root, so sweep.job spans are id-stitched the same
        # way serve requests are.
        run_ctx = ocontext.current_context() or ocontext.new_context()
        try:
            with ocontext.use_context(run_ctx), obs.span(
                "sweep.run", spec=spec.name, jobs=len(jobs),
                workers=self.workers, trace_id=run_ctx.trace_id,
            ):
                olog.info(
                    "sweep.start",
                    spec=spec.name,
                    jobs=len(jobs),
                    workers=self.workers,
                    trace=run_ctx.trace_id,
                )
                if self.workers == 1 or len(jobs) <= 1:
                    result = self._run_serial(spec, jobs, run_dir)
                else:
                    work_dir = run_dir
                    if work_dir is None:
                        # Workers hand results back through files, so
                        # a directory is needed even when the caller
                        # keeps nothing.
                        tmp_dir = tempfile.mkdtemp(prefix="repro-sweep-")
                        work_dir = tmp_dir
                    result = self._run_parallel(spec, jobs, work_dir)
            result.elapsed_s = time.perf_counter() - t0
            result.run_dir = run_dir
            obs.count("sweep.runs")
            obs.count("sweep.jobs", len(jobs))
            olog.info(
                "sweep.done",
                spec=spec.name,
                jobs=result.jobs,
                elapsed_s=round(result.elapsed_s, 4),
                cache=result.cache_stats.as_dict(),
                lost_workers=result.lost_workers(),
            )
            if run_dir is not None:
                live.update_run_manifest(
                    run_dir,
                    state="done",
                    jobs_done=result.jobs,
                    elapsed_s=round(result.elapsed_s, 4),
                )
            if self.trace_out:
                from repro.obs.export import write_chrome_trace

                write_chrome_trace(self.trace_out)
            if self.events_out:
                from repro.obs.export import write_jsonl

                write_jsonl(self.events_out)
            if self.metrics_out:
                from repro.obs.export import write_prometheus

                write_prometheus(self.metrics_out)
        finally:
            if enabled_here:
                obs.disable()
            if log_here:
                olog.close()
            if tmp_dir is not None:
                shutil.rmtree(tmp_dir, ignore_errors=True)
        return result

    def _open_cache(self) -> LayoutCache | None:
        if self.cache_dir is None:
            return None
        return LayoutCache(self.cache_dir, readonly=self.cache_readonly)

    def _run_serial(
        self, spec: SweepSpec, jobs: list[SweepJob], run_dir: str | None
    ) -> SweepResult:
        cache = self._open_cache()
        hb = None
        if run_dir is not None:
            live.write_run_manifest(
                run_dir,
                kind="sweep",
                spec=spec.name,
                jobs_total=len(jobs),
                workers=1,
            )
            hb = live.HeartbeatWriter(
                run_dir, 0,
                jobs_total=len(jobs),
                interval_s=self.heartbeat_s,
            )
            hb.beat(force=True)
            hb.start_pulse()
        results = []
        try:
            for job in jobs:
                if hb is not None:
                    hb.current_job = job.job_id
                    hb.beat(force=True)
                results.append(
                    run_sweep_job(job, cache, validate=self.validate)
                )
                if hb is not None:
                    hb.job_tick(
                        cache=(
                            cache.stats.as_dict()
                            if cache is not None
                            else {}
                        ),
                    )
        finally:
            if hb is not None:
                hb.finish("done" if len(results) == len(jobs) else "failed")
        out = SweepResult(spec=spec, results=results, workers=1)
        if cache is not None:
            out.cache_stats.merge(cache.stats)
        return out

    def _on_watch_tick(self, health: dict[int, dict]) -> None:
        """Watchdog callback: refresh live gauges + Prometheus file.

        Gauges, not counters: the merged registry of a parallel run
        must still equal a serial run's counters exactly (that
        determinism is pinned by tests), and gauges are the natural
        shape for last-value-wins liveness anyway.
        """
        if not obs.enabled():
            return
        done = sum(
            rec["jobs_done"]
            for rec in health.values()
            if isinstance(rec.get("jobs_done"), int)
        )
        verdicts = [rec.get("verdict") for rec in health.values()]
        obs.gauge("sweep.live.jobs_done", done)
        obs.gauge(
            "sweep.live.workers_ok",
            sum(1 for v in verdicts if v in ("ok", "done")),
        )
        obs.gauge(
            "sweep.live.workers_stalled",
            sum(1 for v in verdicts if v == "stalled"),
        )
        obs.gauge(
            "sweep.live.workers_dead",
            sum(1 for v in verdicts if v in ("dead", "failed")),
        )
        if self.metrics_out:
            from repro.obs.export import write_prometheus

            try:
                write_prometheus(self.metrics_out)
            except OSError:
                pass

    def _run_parallel(
        self, spec: SweepSpec, jobs: list[SweepJob], run_dir: str
    ) -> SweepResult:
        # Round-robin slices: contiguous runs of one family often share
        # cost structure, so interleaving balances the workers.
        slices = [
            s
            for s in (jobs[w::self.workers] for w in range(self.workers))
            if s
        ]
        live.write_run_manifest(
            run_dir,
            kind="sweep",
            spec=spec.name,
            jobs_total=len(jobs),
            workers=len(slices),
        )
        observe = obs.enabled()
        run_ctx = ocontext.current_context()
        log_path = None
        cfg_run_id = olog.run_id()
        if olog.configured():
            from repro.obs.logging import _config as _log_cfg

            log_path = _log_cfg.path if _log_cfg is not None else None
        ctx = _mp_context()
        procs = []
        for wid, s in enumerate(slices):
            payload = {
                "worker_id": wid,
                "jobs": s,
                "run_dir": run_dir,
                "cache_dir": (
                    None
                    if self.cache_dir is None
                    else os.fspath(self.cache_dir)
                ),
                "readonly": self.cache_readonly,
                "validate": self.validate,
                "observe": observe,
                "heartbeat_s": self.heartbeat_s,
                "log_path": log_path,
                "run_id": cfg_run_id,
                "trace": (
                    run_ctx.child().as_dict()
                    if run_ctx is not None
                    else None
                ),
            }
            p = ctx.Process(
                target=_worker_main,
                args=(payload,),
                name=f"repro-sweep-{wid}",
            )
            p.start()
            olog.info(
                "sweep.worker_spawn",
                worker_id=wid,
                worker_pid=p.pid,
                jobs=len(s),
            )
            procs.append(p)
        watchdog = live.Watchdog(
            run_dir,
            stall_after_s=self.stall_after_s,
            interval_s=self.watch_interval_s,
            on_tick=self._on_watch_tick,
        ).start()
        for p in procs:
            # A stalled (SIGSTOPped) worker blocks here while the
            # watchdog keeps flagging it; a killed one returns with
            # its exitcode and is settled below.
            p.join()
        # Joined (reaped) children now fail the pid probe, so the
        # final poll turns any silently-vanished worker into "dead".
        health = watchdog.stop()
        out = SweepResult(spec=spec, workers=self.workers)
        merged: dict[int, JobResult] = {}
        errors: list[tuple[int, str]] = []
        for wid, p in enumerate(procs):
            rec = health.get(wid) or {
                "worker_id": wid,
                "verdict": "dead",
                "state": None,
                "age_s": None,
                "pid": p.pid,
                "jobs_done": None,
                "jobs_total": len(slices[wid]),
                "rss_bytes": None,
                "current_job": None,
                "stalls": 0,
                "ever_stalled": False,
            }
            rec["exitcode"] = p.exitcode
            doc = _read_worker_result(run_dir, wid)
            if doc is None:
                # No result file: the worker died before handing
                # anything back.  Its jobs are simply absent from the
                # merge; everything else stays intact.
                rec["verdict"] = "dead"
                out.worker_health[wid] = rec
                olog.error(
                    "sweep.worker_lost",
                    worker_id=wid,
                    worker_pid=p.pid,
                    exitcode=p.exitcode,
                    jobs_lost=len(slices[wid]),
                )
                continue
            if doc.get("error"):
                errors.append((wid, doc["error"]))
            indices = []
            for jdoc in doc.get("results", []):
                jdoc = dict(jdoc)
                index = jdoc.pop("index")
                indices.append(index)
                merged[index] = JobResult(
                    job_id=jdoc["job_id"],
                    network=jdoc["network"],
                    scheme=jdoc["scheme"],
                    layers=jdoc["layers"],
                    num_nodes=jdoc["N"],
                    num_edges=jdoc["E"],
                    metrics=jdoc["metrics"],
                    source=jdoc["source"],
                    elapsed_s=jdoc["elapsed_s"],
                )
            out.cache_stats.merge(doc.get("cache_stats", {}))
            if doc.get("snapshot") and obs.enabled():
                obs.registry().merge(doc["snapshot"])
            reroot_worker_spans(
                wid, doc.get("spans", []),
                jobs=len(indices),
                indices=",".join(str(i) for i in sorted(indices)),
            )
            out.worker_health[wid] = rec
        out.results = [merged[i] for i in sorted(merged)]
        if errors:
            wid, err = errors[0]
            raise RuntimeError(f"sweep worker {wid} failed: {err}")
        return out


def _read_worker_result(run_dir: str, wid: int) -> dict | None:
    try:
        with open(os.path.join(run_dir, f"result-{wid}.json")) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")
