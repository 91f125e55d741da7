"""The parallel sweep engine, and the worker fan-out it shares with
the differential fuzzer.

:class:`SweepRunner` executes a :class:`~repro.batch.spec.SweepSpec`.
Every job is **pure** (network spec + scheme + layers -> layout +
metrics), so the merged result -- jobs in spec order, deterministic
fields only -- is byte-for-byte independent of the worker count, and
every job is backed by the content-addressed
:class:`~repro.batch.cache.LayoutCache` (a hit skips build, validation
*and* measurement).

:func:`fan_out` runs a :class:`FanOutTask` over items (sweep jobs, or
fuzz case indices for :func:`repro.check.run_fuzz`): in this process
for one worker, else one round-robin slice per
``multiprocessing.Process`` (``fork`` where the platform offers it).
Workers hand results back through atomically written
``result-<wid>.json`` files rather than a pool future, so a worker
dying (OOM kill, SIGKILL) costs only its own slice.  The parent folds
the workers' metric snapshots into its :mod:`repro.obs` registry and
re-roots their span forests under per-worker ``sweep.worker`` spans,
so ``--report``, ``--trace`` and the exporters see everything children
did.  Each worker keeps a ``heartbeat-<wid>.json`` fresh, a
:class:`repro.obs.live.Watchdog` in the parent classifies workers
``ok`` / ``stalled`` / ``dead``, and ``python -m repro watch RUNDIR``
renders it live; :func:`run_directory` keeps a run directory's log and
manifest.  Without one, parallel runs use a throwaway directory.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
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
    "FanOut",
    "FanOutTask",
    "JobResult",
    "SweepResult",
    "SweepRunner",
    "fan_out",
    "reroot_worker_spans",
    "run_directory",
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

    @classmethod
    def from_dict(cls, doc: dict) -> "JobResult":
        """The inverse of :meth:`as_dict`."""
        return cls(
            job_id=doc["job_id"],
            network=doc["network"],
            scheme=doc["scheme"],
            layers=doc["layers"],
            num_nodes=doc["N"],
            num_edges=doc["E"],
            metrics=doc["metrics"],
            source=doc["source"],
            elapsed_s=doc["elapsed_s"],
        )


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
    """Execute one job: a cache hit, else build + validate + measure.

    With a cache the job is ``get``, and on a miss a build whose layout
    is serialized and ``put`` under the same key; ``source`` says which
    (``"cache"`` or ``"built"``).  Sweep, fuzz and pool workers, the
    daemon, ``repro zoo`` and ``repro stats`` all run layout jobs
    through here.
    """
    t0 = time.perf_counter()
    net = job.build_network()
    source = "built"
    if cache is None:
        _, metrics = _build(job, net, validate)
    else:
        key, key_text = cache.key_for(
            net, scheme=job.scheme, layers=job.layers,
        )
        entry = cache.get(key, key_text)
        if entry is not None:
            metrics, source = entry.metrics, "cache"
        else:
            olog.info("cache.build", key=key[:16])
            with obs.span("cache.build", key=key[:16]):
                layout, metrics = _build(job, net, validate)
                layout_json = layout_to_json(layout)
            cache.put(key, key_text, layout_json, metrics)
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


def _build(job: SweepJob, net, validate: bool) -> tuple:
    """``(layout, metrics)`` for ``job`` under one ``sweep.job`` span.

    When a trace context is active -- a serve request shipped into a
    pool worker, or a sweep run stamped its own -- the span carries the
    trace id and a request-style id, so a built row links straight to
    its trace document.
    """
    attrs: dict = {"job": job.job_id}
    ctx = ocontext.current_context()
    if ctx is not None:
        attrs["trace_id"] = ctx.trace_id
        attrs["request_id"] = f"j{job.index:05d}-{ctx.trace_id[:8]}"
    with obs.span("sweep.job", **attrs):
        layout = dispatch_scheme(net, layers=job.layers, scheme=job.scheme)
        if validate:
            validate_layout(layout)
        metrics = measure(layout).as_dict()
    obs.count("sweep.jobs_built")
    return layout, metrics


def _maybe_fault(worker_id: int, jobs_done: int) -> None:
    """Honor ``REPRO_SWEEP_FAULT="<wid>:stop|kill"`` (tests/CI only).

    After child worker ``wid`` of any fan-out (sweep or fuzz) finishes
    its first item -- so its heartbeat already carries real progress --
    the worker SIGSTOPs or SIGKILLs *itself*, exercising the watchdog's
    stalled/dead paths against a real process without the test having
    to win a race against the scheduler.
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


# ---------------------------------------------------------------------------
# The worker fan-out, shared by sweeps and fuzz runs


class FanOutTask:
    """What :func:`fan_out` runs.  A task crosses the process boundary,
    so it holds plain settings; :meth:`open` builds per-process state
    (a cache handle) in the process that runs the items."""

    def open(self, parallel: bool) -> None:
        pass

    def label(self, item) -> str:  # the heartbeat's current job
        return str(item)

    def run(self, item) -> dict:  # one item -> its JSON-able row
        raise NotImplementedError

    def extras(self) -> dict:  # per-worker state beside the rows
        return {}

    def stop(self, row: dict) -> bool:  # stop this worker after ``row``?
        return False


@dataclass
class FanOut:
    """Rows by item position (ascending), each reporting worker's
    extras, the final health record per child worker, and the item
    count of each worker that handed nothing back."""

    rows: dict = field(default_factory=dict)
    extras: list = field(default_factory=list)
    health: dict = field(default_factory=dict)
    lost: dict = field(default_factory=dict)


def _job_loop(task: FanOutTask, items: list, hb, *, child: bool = False):
    """The one per-worker loop over ``(position, item)`` pairs: name
    each item on the heartbeat, run it, tick, and (in a child worker)
    honour :data:`FAULT_ENV`.  Returns ``(rows, exc)``, ``exc`` being
    the exception that stopped the loop, if any."""
    rows: dict[int, dict] = {}
    for index, item in items:
        if hb is not None:
            hb.current_job = task.label(item)
            hb.beat(force=True)
        try:
            rows[index] = row = task.run(item)
        except Exception as exc:  # noqa: BLE001 - reported by the caller
            return rows, exc
        if hb is not None:
            hb.job_tick(**task.extras())
        if child:
            _maybe_fault(hb.worker_id, hb.jobs_done)
        if task.stop(row):
            break
    return rows, None


def _fan_out_child(payload: dict) -> None:
    """Child worker: run one slice, then write ``result-<wid>.json``
    atomically -- rows by position, the task's extras, the metrics
    snapshot and span forest, and the first error (partial results beat
    none; the parent re-raises).  The fixed work before the first item
    is one ``sweep.worker.setup`` span."""
    setup_start = time.perf_counter()
    wid, task, items = payload["worker_id"], payload["task"], payload["items"]
    run_dir, observe = payload["run_dir"], payload["observe"]
    olog.fork_child(wid)
    if not olog.configured() and payload["log_path"]:
        # spawn start method: rebuild the sink from the payload.
        olog.configure(
            payload["log_path"], run_id=payload["run_id"], worker_id=wid,
        )
    task.open(parallel=True)
    if observe:
        # A fresh registry: fork inherits the parent's counts and spans.
        obs.reset()
        obs.enable()
    if payload["trace"]:
        # Adopt the run's trace context, so child spans share its id.
        ocontext.set_context(ocontext.TraceContext.from_dict(payload["trace"]))
    hb = live.HeartbeatWriter(
        run_dir, wid, jobs_total=len(items), interval_s=payload["heartbeat_s"],
    ).start_pulse()
    # The setup resets the span collector, so its span is attached
    # afterwards rather than opened around it.
    obs.attach(obs.SpanRecord(
        "sweep.worker.setup", {}, start=setup_start,
        duration=time.perf_counter() - setup_start,
    ))
    olog.info("sweep.worker_start", worker_id=wid, jobs=len(items))
    rows, exc = _job_loop(task, items, hb, child=True)
    error = None if exc is None else f"{type(exc).__name__}: {exc}"
    if error:
        olog.error(
            "sweep.worker_error", worker_id=wid, job=hb.current_job,
            error=error,
        )
    live.write_json_atomic(os.path.join(run_dir, f"result-{wid}.json"), {
        "rows": list(rows.items()),
        "extras": task.extras(),
        "snapshot": obs.registry().snapshot() if observe else {},
        "spans": [r.as_dict() for r in obs.trace_roots()] if observe else [],
        "error": error,
    })
    hb.finish("failed" if error else "done")
    olog.info(
        "sweep.worker_done", worker_id=wid, jobs_done=len(rows), error=error,
    )


def fan_out(
    task: FanOutTask,
    items,
    *,
    workers: int = 1,
    run_dir: str | None = None,
    heartbeat_s: float = live.DEFAULT_HEARTBEAT_S,
    stall_after_s: float = live.DEFAULT_STALL_AFTER_S,
    watch_interval_s: float | None = None,
    on_tick=None,
) -> FanOut:
    """Run ``task`` over ``items`` on ``workers`` processes and merge.

    One worker (or one item) runs in this process, with a heartbeat
    when ``run_dir`` is given; an item's exception propagates as
    raised.  Otherwise worker ``w`` gets ``items[w::workers]``
    (neighbouring items often cost alike), a watchdog polls the
    heartbeats (``on_tick`` sees every poll), and the parent merges the
    result files in worker order, raising the first worker error.  A
    worker that hands nothing back is ``dead`` and listed in
    :attr:`FanOut.lost`; everyone else's rows still merge.
    """
    items = list(enumerate(items))
    if workers <= 1 or len(items) <= 1:
        task.open(parallel=False)
        hb = None
        if run_dir is not None:
            hb = live.HeartbeatWriter(
                run_dir, 0, jobs_total=len(items), interval_s=heartbeat_s,
            ).start_pulse()
        rows, exc = _job_loop(task, items, hb)
        if hb is not None:
            hb.finish("failed" if exc else "done")
        if exc is not None:
            raise exc
        return FanOut(rows, [task.extras()])
    slices = [s for s in (items[w::workers] for w in range(workers)) if s]
    tmp_dir = None
    if run_dir is None:
        # Results come back through files, so a directory is needed
        # even when the caller keeps nothing.
        run_dir = tmp_dir = tempfile.mkdtemp(prefix="repro-sweep-")
    from repro.obs.logging import _config as log_cfg

    run_ctx = ocontext.current_context()
    base = {
        "task": task, "run_dir": run_dir, "observe": obs.enabled(),
        "heartbeat_s": heartbeat_s, "run_id": olog.run_id(),
        "log_path": log_cfg.path if log_cfg is not None else None,
    }
    out, errors, procs = FanOut(), [], []
    try:
        for wid, s in enumerate(slices):
            trace = run_ctx and run_ctx.child().as_dict()
            p = _mp_context().Process(
                target=_fan_out_child, name=f"repro-sweep-{wid}",
                args=({**base, "worker_id": wid, "items": s, "trace": trace},),
            )
            p.start()
            olog.info(
                "sweep.worker_spawn", worker_id=wid, worker_pid=p.pid,
                jobs=len(s),
            )
            procs.append(p)
        watchdog = live.Watchdog(
            run_dir, stall_after_s=stall_after_s,
            interval_s=watch_interval_s, on_tick=on_tick,
        ).start()
        for p in procs:
            # A stalled (SIGSTOPped) worker blocks here while the
            # watchdog keeps flagging it; a killed one returns.
            p.join()
        # Reaped children fail the pid probe, so the final poll turns
        # any silently vanished worker into "dead".
        health = watchdog.stop()
        for wid, (p, s) in enumerate(zip(procs, slices)):
            rec = out.health[wid] = health.get(wid) or {
                "worker_id": wid,
                "verdict": "dead",
                "state": None,
                "age_s": None,
                "pid": p.pid,
                "jobs_done": None,
                "jobs_total": len(s),
                "rss_bytes": None,
                "current_job": None,
                "stalls": 0,
                "ever_stalled": False,
            }
            rec["exitcode"] = p.exitcode
            try:
                with open(os.path.join(run_dir, f"result-{wid}.json")) as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError):
                # The worker died before handing anything back: its
                # items are absent from the merge, nothing else is.
                rec["verdict"] = "dead"
                out.lost[wid] = len(s)
                olog.error(
                    "sweep.worker_lost", worker_id=wid, worker_pid=p.pid,
                    exitcode=p.exitcode, jobs_lost=len(s),
                )
                continue
            if doc["error"]:
                errors.append((wid, doc["error"]))
            out.rows.update(doc["rows"])
            out.extras.append(doc["extras"])
            if doc["snapshot"] and obs.enabled():
                obs.registry().merge(doc["snapshot"])
            reroot_worker_spans(
                wid, doc["spans"], jobs=len(doc["rows"]),
                indices=",".join(str(i) for i, _ in doc["rows"]),
            )
    finally:
        if tmp_dir is not None:
            shutil.rmtree(tmp_dir, ignore_errors=True)
    if errors:
        raise RuntimeError("sweep worker %d failed: %s" % errors[0])
    out.rows = dict(sorted(out.rows.items()))
    return out


def _mp_context():
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


@contextmanager
def run_directory(run_dir: str | None, **manifest):
    """A run directory from creation to ``state: done``: makes it,
    gives it a ``log.jsonl`` sink unless a log is configured, writes the
    run manifest, and yields a dict whose totals the manifest takes on
    when the run completes.  Only yields the dict without a directory."""
    totals: dict = {}
    if run_dir is None:
        yield totals
        return
    os.makedirs(run_dir, exist_ok=True)
    log_here = not olog.configured()
    if log_here:
        olog.configure(os.path.join(run_dir, live.LOG_NAME))
    live.write_run_manifest(run_dir, **manifest)
    try:
        yield totals
        live.update_run_manifest(run_dir, state="done", **totals)
    finally:
        if log_here:
            olog.close()


class _SweepJobs(FanOutTask):
    """Sweep jobs through :func:`run_sweep_job`, one cache per process."""

    def __init__(self, cache_dir, validate: bool):
        self.cache_dir, self.validate, self.cache = cache_dir, validate, None

    def open(self, parallel: bool) -> None:
        if self.cache_dir is not None:
            self.cache = LayoutCache(self.cache_dir)

    def label(self, job: SweepJob) -> str:
        return job.job_id

    def run(self, job: SweepJob) -> dict:
        return run_sweep_job(job, self.cache, validate=self.validate).as_dict()

    def extras(self) -> dict:
        cache = self.cache
        return {"cache": {} if cache is None else cache.stats.as_dict()}


class SweepRunner:
    """Executes sweep specs with worker fan-out and a shared cache."""

    def __init__(
        self,
        *,
        cache_dir: str | os.PathLike | None = None,
        workers: int = 1,
        validate: bool = True,
        run_dir: str | os.PathLike | None = None,
        metrics_out: str | os.PathLike | None = None,
        stall_after_s: float = live.DEFAULT_STALL_AFTER_S,
        heartbeat_s: float = live.DEFAULT_HEARTBEAT_S,
        watch_interval_s: float | None = None,
    ):
        self.cache_dir = cache_dir
        self.workers = max(1, int(workers))
        self.validate = validate
        self.run_dir = run_dir
        self.metrics_out = metrics_out
        self.stall_after_s = stall_after_s
        self.heartbeat_s = heartbeat_s
        self.watch_interval_s = watch_interval_s

    def run(self, spec: SweepSpec) -> SweepResult:
        jobs = spec.expand()
        # A metrics file implies observation: turn collection on for
        # the run (and back off, if we enabled it) so the written
        # exposition is never empty by accident.
        enabled_here = bool(self.metrics_out) and not obs.enabled()
        if enabled_here:
            obs.enable()
        run_dir = None if self.run_dir is None else os.fspath(self.run_dir)
        workers = 1 if len(jobs) <= 1 else self.workers
        t0 = time.perf_counter()
        # Every run executes under a trace context: inherited when a
        # caller (e.g. a serve worker) already carries one, otherwise
        # a fresh root, so sweep.job spans are id-stitched the same
        # way serve requests are.
        run_ctx = ocontext.current_context() or ocontext.new_context()
        try:
            with run_directory(
                run_dir, kind="sweep", spec=spec.name,
                jobs_total=len(jobs), workers=min(workers, len(jobs)) or 1,
            ) as totals:
                with ocontext.use_context(run_ctx), obs.span(
                    "sweep.run", spec=spec.name, jobs=len(jobs),
                    workers=self.workers, trace_id=run_ctx.trace_id,
                ):
                    olog.info(
                        "sweep.start", spec=spec.name, jobs=len(jobs),
                        workers=self.workers, trace=run_ctx.trace_id,
                    )
                    fan = fan_out(
                        _SweepJobs(
                            None if self.cache_dir is None
                            else os.fspath(self.cache_dir),
                            self.validate,
                        ),
                        jobs, workers=workers, run_dir=run_dir,
                        heartbeat_s=self.heartbeat_s,
                        stall_after_s=self.stall_after_s,
                        watch_interval_s=self.watch_interval_s,
                        on_tick=self._on_watch_tick,
                    )
                result = SweepResult(
                    spec=spec,
                    results=[
                        JobResult.from_dict(r) for r in fan.rows.values()
                    ],
                    workers=workers,
                    elapsed_s=time.perf_counter() - t0,
                    worker_health=fan.health,
                    run_dir=run_dir,
                )
                for extras in fan.extras:
                    result.cache_stats.merge(extras["cache"])
                obs.count("sweep.runs")
                obs.count("sweep.jobs", len(jobs))
                totals.update(
                    jobs_done=result.jobs,
                    elapsed_s=round(result.elapsed_s, 4),
                )
                olog.info(
                    "sweep.done", spec=spec.name, jobs=result.jobs,
                    elapsed_s=totals["elapsed_s"],
                    cache=result.cache_stats.as_dict(),
                    lost_workers=result.lost_workers(),
                )
                if self.metrics_out:
                    from repro.obs.export import write_prometheus

                    write_prometheus(self.metrics_out)
        finally:
            if enabled_here:
                obs.disable()
        return result

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
