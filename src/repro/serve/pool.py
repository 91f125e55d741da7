"""The daemon's layout builds, run on a stdlib process pool.

A sweep must survive losing one of its slices, so it keeps its own
fan-out (:mod:`repro.batch.runner`); the server's requests are
independent, so its builds run on one ``ProcessPoolExecutor``.  Each
build is one :func:`~repro.batch.runner.run_sweep_job` call, as in a
sweep worker, with a per-process cache handle and a heartbeat in the
server's run directory (when one is kept).

:meth:`WorkerPool.start` forks every worker before the daemon starts
any other thread, and does not wait for them.  A dead worker breaks
the executor: every build queued or running on it fails at once with
:class:`WorkerLost` (the server answers 503), and a new executor
started with ``spawn`` takes over -- a fork from the now
multi-threaded daemon can deadlock the child.  A build submitted
after an idle worker's death runs on the replacement.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from multiprocessing import util as mp_util
from multiprocessing.connection import wait

from repro import obs
from repro.batch.cache import LayoutCache
from repro.batch.runner import _mp_context, run_sweep_job
from repro.batch.spec import SweepJob
from repro.obs import context as ocontext
from repro.obs import live
from repro.obs import logging as olog

__all__ = ["POOL_DELAY_ENV", "WorkerLost", "WorkerPool"]

#: Test/CI hook: seconds every pool worker sleeps before a build, to
#: hold a cold key in flight; never set in production.
POOL_DELAY_ENV = "REPRO_POOL_DELAY_S"


class WorkerLost(RuntimeError):
    """A worker process died while this build was queued or running."""


#: This worker process's state, set by :func:`_init_worker`.
_worker: dict = {}


def _init_worker(cfg: dict) -> None:
    """Executor initializer; a worker's id is its pid."""
    wid = os.getpid()
    olog.fork_child(wid)
    if not olog.configured() and cfg["log_path"]:
        # spawn start method: module state did not survive the fork.
        olog.configure(cfg["log_path"], run_id=cfg["run_id"], worker_id=wid)
    hb = None
    if cfg["run_dir"]:
        hb = live.HeartbeatWriter(cfg["run_dir"], wid)
        hb.beat(force=True)
        hb.start_pulse()
    cache_dir = cfg["cache_dir"]
    _worker.update(
        wid=wid, hb=hb, validate=cfg["validate"],
        cache=None if cache_dir is None else LayoutCache(cache_dir),
        delay_s=float(os.environ.get(POOL_DELAY_ENV) or 0.0),
    )
    # Runs as the worker exits when the executor shuts down.
    mp_util.Finalize(None, _worker_done, exitpriority=0)
    olog.info("serve.worker_start", worker_id=wid)


def _worker_done() -> None:
    if _worker["hb"] is not None:
        _worker["hb"].finish("done")
    olog.info("serve.worker_done", worker_id=_worker["wid"])


def _build(network: str, scheme: str, layers: int, trace) -> dict:
    """One build in a worker, as :meth:`WorkerPool.submit` returns it."""
    wid, cache, hb = _worker["wid"], _worker["cache"], _worker["hb"]
    job = SweepJob(index=0, network=network, layers=layers, scheme=scheme)
    if hb is not None:
        hb.current_job = job.job_id
        hb.beat(force=True)
    if _worker["delay_s"] > 0:
        time.sleep(_worker["delay_s"])
    # Log lines carry the request's trace id; a sampled request gets
    # this job's span forest, which the server reroots under its root
    # span.  Unsampled jobs collect nothing.
    ctx = ocontext.TraceContext.from_dict(trace) if trace else None
    sampled = ctx is not None and ctx.sampled
    obs.enable() if sampled else obs.disable()
    obs.reset_trace()
    try:
        with ocontext.use_context(ctx):
            res = run_sweep_job(job, cache, validate=_worker["validate"])
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - to parent
        olog.error("serve.worker_error", worker_id=wid, job=job.job_id,
                   error=str(exc))
        # A plain error: a SystemExit must not end the daemon's loop.
        raise RuntimeError(f"{type(exc).__name__}: {exc}") from None
    spans = [r.as_dict() for r in obs.trace_roots()] if sampled else None
    if hb is not None:
        hb.job_tick(cache=cache.stats.as_dict() if cache is not None else {})
    return {"result": res.as_dict(), "worker": wid, "spans": spans}


class WorkerPool:
    """Long-lived layout-building processes behind an asyncio facade."""

    def __init__(self, workers: int = 1, *, cache_dir=None, validate=True,
                 run_dir=None):
        self.workers = max(1, int(workers))
        self._cfg = {
            "cache_dir": cache_dir and os.fspath(cache_dir),
            "run_dir": run_dir and os.fspath(run_dir), "validate": validate,
        }
        self._executor: ProcessPoolExecutor | None = None
        self._in_flight = 0

    def start(self) -> "WorkerPool":
        self._executor = self._new_executor(_mp_context())
        return self

    def _new_executor(self, ctx) -> ProcessPoolExecutor:
        cfg = {**self._cfg, "run_id": olog.run_id(),
               "log_path": getattr(olog._config, "path", None)}
        executor = ProcessPoolExecutor(self.workers, ctx, _init_worker, (cfg,))
        # Under fork the first submit forks every worker; under spawn
        # each submit starts one while none is idle.
        for _ in range(self.workers):
            executor.submit(os.getpid)
        olog.info("serve.pool_start", workers=self.workers,
                  start_method=ctx.get_start_method())
        return executor

    def _replace(self, lost: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Swap ``lost``, an executor short of a worker, for a
        spawn-started one unless that is done; return the current one."""
        if self._executor is lost:
            olog.warning("serve.worker_lost", workers=self.workers)
            lost.shutdown(wait=False)
            spawn = multiprocessing.get_context("spawn")
            self._executor = self._new_executor(spawn)
            # Spawning starts the resource tracker, a child that would
            # outlive us: stop it at exit, after semaphores (priority 0).
            mp_util.Finalize(None, resource_tracker._resource_tracker._stop,
                             exitpriority=-1)
        return self._executor

    async def submit(self, network: str, scheme: str, layers: int, *,
                     trace: dict | None = None) -> dict:
        """Run one build: ``{"result", "worker", "spans"}`` (spans when
        ``trace`` is sampled), or :class:`WorkerLost` if a worker dies."""
        if self._executor is None:
            raise RuntimeError("WorkerPool is not running")
        executor = self._executor
        if self.alive() < self.workers:  # a worker died while idle
            executor = self._replace(executor)
        self._in_flight += 1
        try:
            return await asyncio.wrap_future(
                executor.submit(_build, network, scheme, layers, trace)
            )
        except BrokenProcessPool:
            self._replace(executor)
            raise WorkerLost("a pool worker died during the build") from None
        finally:
            self._in_flight -= 1

    def alive(self) -> int:
        # A broken executor keeps its dead processes, a shut-down one
        # has None.
        procs = getattr(self._executor, "_processes", None) or {}
        return sum(1 for p in list(procs.values()) if p.is_alive())

    def snapshot(self) -> dict:
        return {"workers": self.workers, "alive": self.alive(),
                "pending": self._in_flight}

    def close(self, timeout: float = 5.0) -> None:
        """Drain: let running builds finish, terminate past ``timeout``."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        procs = list((executor._processes or {}).values())
        # Queued builds are cancelled, running ones finish; the
        # executor's own thread reaps the workers.
        executor.shutdown(wait=False, cancel_futures=True)
        deadline = time.monotonic() + timeout
        for p in procs:
            if not wait([p.sentinel], max(0.0, deadline - time.monotonic())):
                p.terminate()
