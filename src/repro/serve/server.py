"""The layout daemon: asyncio HTTP/JSON server over the sweep engine.

``python -m repro serve`` binds this server.  A request names a
``(network, scheme, layers)`` tuple -- the same coordinates a sweep
job has -- and the answer is that job's metrics (optionally the
layout itself).  Three layers between socket and build keep the
daemon well-behaved under load:

1. **Admission** -- an optional global in-flight cap answers 503
   immediately past saturation, and per-client token buckets (keyed
   by the ``X-Repro-Client`` header) answer 429 with ``Retry-After``
   when a client outruns its quota.  A sweep request costs one token
   per expanded job.
2. **Coalescing** -- concurrent requests for the same cold key share
   one build: the first starts an ``asyncio.Task``, followers await a
   ``shield`` of it and report ``source: "coalesced"``.  Duplicate
   work is impossible by construction *within* the daemon, and the
   thread-level single-flight in
   :meth:`~repro.batch.cache.LayoutCache.get_or_build` covers racing
   builders elsewhere on the machine.
3. **The pool** -- cache misses run on long-lived worker processes
   (:class:`~repro.serve.pool.WorkerPool`); the event loop never
   blocks on a build.  Warm keys are answered straight from the
   content-addressed cache without touching the pool.

Every request lands in :mod:`repro.obs`: ``serve.*`` counters, a
``serve.request_ms`` histogram, and the standard Prometheus
exposition at ``GET /metrics`` -- so the load generator's client-side
percentiles can be cross-checked against the server's own.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from dataclasses import dataclass

from repro import obs
from repro.batch.cache import LayoutCache
from repro.batch.spec import SCHEMES, SweepSpec, parse_network
from repro.obs import context as ocontext
from repro.obs import live
from repro.obs import logging as olog
from repro.obs import slo as oslo
from repro.obs.export import chrome_trace, write_prometheus
from repro.obs.trace import SpanRecord
from repro.serve.pool import WorkerPool
from repro.serve.protocol import (
    SERVE_SCHEMA,
    TRACE_HEADER,
    ChunkedJsonWriter,
    HttpError,
    HttpRequest,
    read_request,
    send_json,
)
from repro.serve.quotas import AdmissionGate, QuotaManager

__all__ = ["ServeConfig", "LayoutServer", "run_server"]

#: Latency buckets tuned for layout service times (sub-ms cache hits
#: through multi-second giant builds), in milliseconds.
LATENCY_BOUNDS_MS = (
    0.5, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
)

MAX_LAYERS = 64
MAX_SWEEP_JOBS = 4096


@dataclass
class ServeConfig:
    """Everything ``repro serve`` forwards from its CLI flags."""

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 1
    cache_dir: str | None = None
    validate: bool = True
    quota_rate: float = 0.0
    quota_burst: float = 20.0
    max_inflight: int = 0
    request_timeout_s: float = 120.0
    run_dir: str | None = None
    ready_file: str | None = None
    #: Head-sampling rate for requests arriving without an
    #: ``x-repro-trace`` header (inbound headers carry their own
    #: decision).  1.0 = trace everything.
    trace_sample: float = 1.0
    #: Latency objective: ``slo_target`` of requests must finish
    #: within ``slo_latency_ms`` and without a 5xx.
    slo_latency_ms: float = 250.0
    slo_target: float = 0.99
    #: Ring-buffer capacity of the ``/debug/requests`` request log.
    debug_requests: int = 256
    #: Watchdog poll cadence when ``run_dir`` is set (None = derive
    #: from the stall threshold, as sweeps do).
    watch_interval_s: float | None = None


class LayoutServer:
    """One bound server; ``start`` then ``serve_forever`` or ``aclose``."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.pool: WorkerPool | None = None
        self.cache = (
            LayoutCache(config.cache_dir)
            if config.cache_dir is not None
            else None
        )
        self.quotas = QuotaManager(
            rate=config.quota_rate, burst=config.quota_burst
        )
        self.gate = AdmissionGate(config.max_inflight)
        self.slo = oslo.SLOConfig(
            latency_ms=config.slo_latency_ms, target=config.slo_target
        )
        self.requests = ocontext.RequestLog(
            capacity=config.debug_requests
        )
        self._req_seq = 0
        self._flights: dict[tuple, asyncio.Task] = {}
        self._server: asyncio.AbstractServer | None = None
        self._watchdog: live.Watchdog | None = None
        self._obs_here = False
        self.started_unix = 0.0

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "LayoutServer":
        cfg = self.config
        if not obs.enabled():
            obs.enable()
            self._obs_here = True
        if cfg.run_dir is not None:
            os.makedirs(cfg.run_dir, exist_ok=True)
            if not olog.configured():
                olog.configure(os.path.join(cfg.run_dir, live.LOG_NAME))
            live.write_run_manifest(
                cfg.run_dir,
                kind="serve",
                workers=cfg.workers,
                cache_dir=cfg.cache_dir,
            )
        loop = asyncio.get_running_loop()
        self.pool = WorkerPool(
            cfg.workers,
            cache_dir=cfg.cache_dir,
            validate=cfg.validate,
            run_dir=cfg.run_dir,
        ).start(loop)
        if cfg.run_dir is not None:
            # The same live loop a sweep run gets: classify pool
            # worker heartbeats and rewrite <run_dir>/metrics.prom
            # (with the SLO gauges) so `repro watch RUNDIR` works
            # against the live daemon.
            self._on_watch_tick({})
            self._watchdog = live.Watchdog(
                cfg.run_dir,
                interval_s=cfg.watch_interval_s,
                on_tick=self._on_watch_tick,
            ).start()
        self._server = await asyncio.start_server(
            self._handle_connection, cfg.host, cfg.port
        )
        self.started_unix = time.time()
        olog.info(
            "serve.start",
            host=cfg.host,
            port=self.port,
            workers=cfg.workers,
            cache_dir=cfg.cache_dir,
            quota_rate=cfg.quota_rate,
            max_inflight=cfg.max_inflight,
        )
        if cfg.ready_file:
            live.write_json_atomic(
                cfg.ready_file,
                {
                    "schema": SERVE_SCHEMA,
                    "host": cfg.host,
                    "port": self.port,
                    "pid": os.getpid(),
                },
            )
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def _on_watch_tick(self, health: dict) -> None:
        """Watchdog callback: refresh gauges + the live metrics file."""
        cfg = self.config
        try:
            if self.pool is not None:
                obs.gauge("serve.live.workers_alive", self.pool.alive())
            obs.gauge("serve.live.inflight_keys", len(self._flights))
            oslo.update_slo_gauges(self.slo)
            if cfg.run_dir is not None:
                write_prometheus(
                    os.path.join(cfg.run_dir, live.METRICS_NAME)
                )
        except Exception:  # pragma: no cover - telemetry must not kill
            pass

    async def aclose(self) -> None:
        olog.info("serve.stop")
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._flights.values()):
            task.cancel()
        self._flights.clear()
        if self.pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self.pool.close
            )
            self.pool = None
        if self._obs_here:
            obs.disable()
            self._obs_here = False

    # -- connection / routing ---------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    req = await read_request(reader)
                except HttpError as exc:
                    await send_json(
                        writer,
                        exc.status,
                        {"error": exc.message},
                        close=True,
                    )
                    break
                if req is None:
                    break
                close = req.wants_close
                try:
                    done = await self._route(req, writer, close=close)
                except HttpError as exc:
                    obs.count("serve.errors")
                    await send_json(
                        writer,
                        exc.status,
                        {"error": exc.message},
                        retry_after=exc.retry_after,
                        close=close,
                    )
                    done = True
                except (ConnectionError, asyncio.CancelledError):
                    raise
                except Exception as exc:  # noqa: BLE001 - render as 500
                    obs.count("serve.errors")
                    olog.error(
                        "serve.internal_error",
                        path=req.path,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                    await send_json(
                        writer,
                        500,
                        {"error": f"{type(exc).__name__}: {exc}"},
                        close=close,
                    )
                    done = True
                if not done or close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- request tracing ---------------------------------------------------

    def _begin_request(self, req: HttpRequest) -> ocontext.RequestTrace:
        """Open the per-request root span and assign a request id.

        The inbound ``x-repro-trace`` header (stamped by loadgen or
        an upstream) wins; a request without one gets a fresh context
        head-sampled at ``--trace-sample``.
        """
        ctx = ocontext.parse_traceparent(req.headers.get(TRACE_HEADER))
        if ctx is None:
            ctx = ocontext.new_context(
                sampled=ocontext.should_sample(self.config.trace_sample)
            )
        self._req_seq += 1
        request_id = f"r{self._req_seq:06d}-{ctx.trace_id[:8]}"
        return ocontext.RequestTrace(
            ctx,
            request_id,
            path=req.path,
            client=req.client_id,
        )

    def _finish_request(
        self,
        rt: ocontext.RequestTrace,
        status: int,
        *,
        source: str | None = None,
        error: str | None = None,
        **attrs,
    ) -> None:
        """Close the root span, observe latency, retain the request.

        One exit point for success and failure alike: the latency
        histogram gets an exemplar naming this trace, 5xx statuses
        feed the SLO error budget, and the tail-sampling ring buffer
        keeps the record (spans included when sampled) for
        ``/debug/requests`` / ``/debug/trace/<id>``.
        """
        if source is not None:
            attrs["source"] = source
        if error is not None:
            attrs["error"] = error
        root = rt.finish(status, **attrs)
        obs.observe(
            "serve.request_ms",
            rt.latency_ms,
            LATENCY_BOUNDS_MS,
            exemplar=rt.ctx.trace_id,
        )
        if status >= 500:
            obs.count("serve.errors_5xx")
        self.requests.add(
            ocontext.RequestRecord(
                request_id=rt.request_id,
                trace_id=rt.ctx.trace_id,
                path=str(root.attrs.get("path", "")),
                status=status,
                latency_ms=rt.latency_ms,
                time_unix=time.time(),
                sampled=rt.ctx.sampled,
                source=source,
                error=error,
                attrs={
                    k: v
                    for k, v in root.attrs.items()
                    if k in ("network", "scheme", "layers", "jobs", "client")
                },
                root=root if rt.ctx.sampled else None,
            )
        )
        olog.info(
            "serve.request",
            request_id=rt.request_id,
            trace=rt.ctx.trace_id,
            path=root.attrs.get("path"),
            status=status,
            latency_ms=round(rt.latency_ms, 3),
            source=source,
        )

    async def _route(
        self,
        req: HttpRequest,
        writer: asyncio.StreamWriter,
        *,
        close: bool,
    ) -> bool:
        """Dispatch one request; True keeps the connection usable."""
        obs.count("serve.requests")
        if req.path == "/healthz" and req.method == "GET":
            await send_json(
                writer,
                200,
                {
                    "schema": SERVE_SCHEMA,
                    "ok": True,
                    "workers_alive": (
                        self.pool.alive() if self.pool else 0
                    ),
                },
                close=close,
            )
            return True
        if req.path == "/stats" and req.method == "GET":
            await send_json(writer, 200, self.stats(), close=close)
            return True
        if req.path == "/metrics" and req.method == "GET":
            from repro.obs.export import prometheus_text

            oslo.update_slo_gauges(self.slo)
            body = prometheus_text().encode()
            from repro.serve.protocol import send_response

            await send_response(
                writer,
                200,
                body,
                content_type="text/plain; version=0.0.4",
                close=close,
            )
            return True
        if req.path == "/debug/requests" and req.method == "GET":
            limit = None
            if "limit" in req.query:
                try:
                    limit = int(req.query["limit"])
                except ValueError:
                    raise HttpError(400, "limit must be an integer") from None
            await send_json(
                writer,
                200,
                {
                    "schema": SERVE_SCHEMA,
                    "requests": self.requests.requests(limit),
                    "totals": self.requests.snapshot(),
                },
                close=close,
            )
            return True
        if req.path.startswith("/debug/trace/") and req.method == "GET":
            await send_json(
                writer,
                200,
                self._trace_document(req.path[len("/debug/trace/"):]),
                close=close,
            )
            return True
        if req.path == "/v1/layout" and req.method == "POST":
            rt = self._begin_request(req)
            token = ocontext.set_context(rt.ctx)
            try:
                doc = await self._layout_request(req, rt)
            except HttpError as exc:
                self._finish_request(rt, exc.status, error=exc.message)
                raise
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:
                self._finish_request(
                    rt, 500, error=f"{type(exc).__name__}: {exc}"
                )
                raise
            finally:
                ocontext.reset_context(token)
            doc = {
                **doc,
                "request_id": rt.request_id,
                "trace_id": rt.ctx.trace_id,
            }
            self._finish_request(
                rt,
                200,
                source=doc.get("source"),
                network=doc.get("network"),
                scheme=doc.get("scheme"),
                layers=doc.get("layers"),
            )
            await send_json(writer, 200, doc, close=close)
            return True
        if req.path == "/v1/sweep" and req.method == "POST":
            rt = self._begin_request(req)
            token = ocontext.set_context(rt.ctx)
            try:
                await self._sweep_request(req, writer, rt)
            except HttpError as exc:
                self._finish_request(rt, exc.status, error=exc.message)
                raise
            except (ConnectionError, asyncio.CancelledError):
                raise
            except Exception as exc:
                self._finish_request(
                    rt, 500, error=f"{type(exc).__name__}: {exc}"
                )
                raise
            finally:
                ocontext.reset_context(token)
            self._finish_request(rt, 200, source="sweep")
            # Chunked responses end the framing cleanly, but any error
            # mid-stream already wrote a partial body: simplest safe
            # policy is one sweep per connection.
            return False
        known = (
            "/healthz", "/stats", "/metrics", "/debug/requests",
            "/v1/layout", "/v1/sweep",
        )
        if req.path in known or req.path.startswith("/debug/trace/"):
            raise HttpError(405, f"{req.method} not allowed on {req.path}")
        raise HttpError(404, f"no such endpoint: {req.path}")

    def _trace_document(self, ident: str) -> dict:
        """The Chrome-trace JSON for one retained request."""
        rec = self.requests.find(ident.strip("/"))
        if rec is None:
            raise HttpError(
                404, f"no retained request for id {ident!r}"
            )
        if rec.root is None:
            raise HttpError(
                404,
                f"request {rec.request_id} was retained without spans "
                "(not sampled)",
            )
        doc = chrome_trace(
            [rec.root], {"counters": {}, "gauges": {}, "histograms": {}}
        )
        doc["otherData"].update(
            {
                "trace_id": rec.trace_id,
                "request_id": rec.request_id,
                "path": rec.path,
                "status": rec.status,
                "latency_ms": round(rec.latency_ms, 3),
            }
        )
        return doc

    # -- admission ---------------------------------------------------------

    def _admit(self, req: HttpRequest, cost: float) -> None:
        ok, retry_after = self.quotas.admit(req.client_id, cost)
        if not ok:
            obs.count("serve.rejected_quota")
            olog.warning(
                "serve.quota_reject",
                client=req.client_id,
                cost=cost,
                retry_after_s=round(retry_after, 3)
                if retry_after != float("inf")
                else None,
            )
            if retry_after == float("inf"):
                raise HttpError(
                    429,
                    f"request cost {cost:g} exceeds quota burst "
                    f"{self.quotas.burst:g}",
                )
            raise HttpError(
                429,
                f"quota exceeded for client {req.client_id!r}",
                retry_after=retry_after,
            )

    # -- /v1/layout --------------------------------------------------------

    @staticmethod
    def _parse_layout_body(doc: dict) -> tuple[str, str, int, bool]:
        network = doc.get("network")
        if not isinstance(network, str) or not network:
            raise HttpError(400, "missing required field: network")
        scheme = doc.get("scheme", "auto")
        if scheme not in SCHEMES:
            raise HttpError(
                400,
                f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}",
            )
        layers = doc.get("layers", 2)
        if not isinstance(layers, int) or isinstance(layers, bool):
            raise HttpError(400, "layers must be an integer")
        if not 1 <= layers <= MAX_LAYERS:
            raise HttpError(400, f"layers must be in [1, {MAX_LAYERS}]")
        include_layout = bool(doc.get("include_layout", False))
        return network, scheme, layers, include_layout

    async def _layout_request(
        self, req: HttpRequest, rt: ocontext.RequestTrace
    ) -> dict:
        network, scheme, layers, include_layout = self._parse_layout_body(
            req.json()
        )
        rt.annotate(network=network, scheme=scheme, layers=layers)
        if include_layout and self.cache is None:
            raise HttpError(
                400,
                "include_layout requires the server to run with "
                "--cache-dir (layout payloads are served from the cache)",
            )
        self._admit(req, 1.0)
        if not self.gate.try_enter():
            obs.count("serve.rejected_busy")
            raise HttpError(
                503,
                f"server at max in-flight ({self.gate.limit}); retry",
                retry_after=1.0,
            )
        try:
            doc = await self._resolve(network, scheme, layers, rt)
        finally:
            self.gate.leave()
        if include_layout:
            entry = await self._cache_probe(network, scheme, layers)
            if entry is not None:
                doc = {**doc, "layout": json.loads(entry.layout_json)}
        return doc

    async def _resolve(
        self,
        network: str,
        scheme: str,
        layers: int,
        rt: ocontext.RequestTrace,
    ) -> dict:
        """One coalesced lookup-or-build; returns a response document.

        The *leader* request (the one that starts the flight) owns
        the build spans: cache probe, pool dispatch, and the worker's
        shipped forest all land under its root.  A coalesced follower
        instead records exactly one link-span naming the leader's
        trace id -- its trace shows the wait, not duplicated work.
        """
        key = (network, scheme, layers)
        task = self._flights.get(key)
        if task is not None:
            obs.count("serve.coalesced")
            leader_trace = getattr(task, "leader_trace", None)
            link = rt.link(leader_trace or "unknown")
            t_wait = time.perf_counter()
            doc = await self._await_flight(task)
            link.duration = time.perf_counter() - t_wait
            return {**doc, "source": "coalesced"}
        task = asyncio.ensure_future(
            self._lookup_or_build(network, scheme, layers, rt)
        )
        task.leader_trace = rt.ctx.trace_id
        self._flights[key] = task
        task.add_done_callback(
            lambda _t, _k=key: self._flights.pop(_k, None)
        )
        return await self._await_flight(task)

    async def _await_flight(self, task: asyncio.Task) -> dict:
        try:
            return await asyncio.wait_for(
                asyncio.shield(task), self.config.request_timeout_s
            )
        except asyncio.TimeoutError:
            obs.count("serve.timeouts")
            raise HttpError(
                504,
                f"build exceeded {self.config.request_timeout_s:g}s",
            ) from None

    async def _cache_probe(
        self, network: str, scheme: str, layers: int
    ):
        """Probe the cache off-loop; None on miss or no cache."""
        if self.cache is None:
            return None
        net = _parse_net(network)

        def probe():
            key, key_doc = self.cache.key_for(
                net, scheme=scheme, layers=layers
            )
            return self.cache.get(key, key_doc)

        entry = await asyncio.get_running_loop().run_in_executor(
            None, probe
        )
        if entry is not None and entry.metrics is None:
            return None
        return entry

    async def _lookup_or_build(
        self,
        network: str,
        scheme: str,
        layers: int,
        rt: ocontext.RequestTrace,
    ) -> dict:
        t0 = time.perf_counter()
        net = _parse_net(network)  # 400 before the pool sees bad specs
        with rt.child("cache.probe", network=network):
            entry = await self._cache_probe(network, scheme, layers)
        if entry is not None:
            obs.count("serve.hits")
            olog.debug(
                "serve.hit", network=network, scheme=scheme, layers=layers
            )
            return {
                "schema": SERVE_SCHEMA,
                "job_id": f"{network}@L{layers}/{scheme}",
                "network": network,
                "scheme": scheme,
                "layers": layers,
                "N": net.num_nodes,
                "E": net.num_edges,
                "metrics": entry.metrics,
                "source": "cache",
                "elapsed_ms": round(
                    (time.perf_counter() - t0) * 1000.0, 3
                ),
            }
        obs.count("serve.built")
        olog.info(
            "serve.build", network=network, scheme=scheme, layers=layers
        )
        assert self.pool is not None
        trace = (
            rt.ctx.child().as_dict() if rt.ctx.sampled else None
        )
        with rt.child(
            "pool.build", network=network, scheme=scheme, layers=layers
        ) as build_span:
            env = await self.pool.submit(
                network, scheme, layers, trace=trace
            )
            self._graft_worker_spans(build_span, env)
        res = env["result"]
        return {
            "schema": SERVE_SCHEMA,
            "job_id": res["job_id"],
            "network": res["network"],
            "scheme": res["scheme"],
            "layers": res["layers"],
            "N": res["N"],
            "E": res["E"],
            "metrics": res["metrics"],
            "source": res["source"],
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }

    @staticmethod
    def _graft_worker_spans(
        build_span: SpanRecord, env: dict
    ) -> None:
        """Reroot a pool worker's shipped forest under the request.

        The forest is wrapped in a ``pool.worker`` span whose integer
        ``worker_id`` attr lifts it onto its own process row in the
        Chrome-trace rendering -- the same convention sweep worker
        forests use.  Fork shares ``perf_counter``'s clock on the
        platforms we fork on, so child timestamps line up with the
        server's spans.
        """
        spans = env.get("spans")
        if not spans:
            return
        forest = [SpanRecord.from_dict(d) for d in spans]
        start = min((r.start for r in forest if r.start), default=0.0)
        end = max((r.end() for r in forest), default=start)
        wrapper = SpanRecord(
            name="pool.worker",
            attrs={"worker_id": env.get("worker")},
            start=start,
            duration=max(0.0, end - start),
            children=forest,
        )
        build_span.children.append(wrapper)

    # -- /v1/sweep ---------------------------------------------------------

    async def _sweep_request(
        self,
        req: HttpRequest,
        writer: asyncio.StreamWriter,
        rt: ocontext.RequestTrace,
    ) -> None:
        body = req.json()
        networks = body.get("networks")
        if not isinstance(networks, list) or not networks:
            raise HttpError(
                400, "missing required field: networks (non-empty list)"
            )
        layers = body.get("layers", [2])
        if not isinstance(layers, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in layers
        ):
            raise HttpError(400, "layers must be a list of integers")
        scheme = body.get("scheme", "auto")
        if scheme not in SCHEMES:
            raise HttpError(
                400,
                f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}",
            )
        spec = SweepSpec(
            networks=[str(n) for n in networks],
            layers=layers,
            scheme=scheme,
            name=str(body.get("name", "serve-sweep")),
        )
        jobs = spec.expand()
        if len(jobs) > MAX_SWEEP_JOBS:
            raise HttpError(
                413,
                f"sweep expands to {len(jobs)} jobs "
                f"(limit {MAX_SWEEP_JOBS})",
            )
        rt.annotate(sweep=spec.name, jobs=len(jobs))
        self._admit(req, float(len(jobs)))
        if not self.gate.try_enter():
            obs.count("serve.rejected_busy")
            raise HttpError(
                503,
                f"server at max in-flight ({self.gate.limit}); retry",
                retry_after=1.0,
            )
        obs.count("serve.sweeps")
        stream = ChunkedJsonWriter(writer)
        await stream.start()
        await stream.send(
            {
                "schema": SERVE_SCHEMA,
                "event": "start",
                "name": spec.name,
                "jobs": len(jobs),
            }
        )
        t0 = time.perf_counter()
        sources: dict[str, int] = {}
        errors = 0
        try:
            pending = {
                asyncio.ensure_future(
                    self._resolve(j.network, j.scheme, j.layers, rt)
                ): j
                for j in jobs
            }
            while pending:
                done, _ = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    job = pending.pop(task)
                    try:
                        doc = task.result()
                    except HttpError as exc:
                        errors += 1
                        await stream.send(
                            {
                                "event": "error",
                                "index": job.index,
                                "job_id": job.job_id,
                                "error": exc.message,
                            }
                        )
                        continue
                    except Exception as exc:  # noqa: BLE001 - streamed
                        errors += 1
                        await stream.send(
                            {
                                "event": "error",
                                "index": job.index,
                                "job_id": job.job_id,
                                "error": f"{type(exc).__name__}: {exc}",
                            }
                        )
                        continue
                    sources[doc["source"]] = (
                        sources.get(doc["source"], 0) + 1
                    )
                    await stream.send(
                        {"event": "job", "index": job.index, **doc}
                    )
            await stream.send(
                {
                    "event": "done",
                    "jobs": len(jobs),
                    "errors": errors,
                    "sources": sources,
                    "elapsed_s": round(time.perf_counter() - t0, 4),
                }
            )
            await stream.finish()
        finally:
            self.gate.leave()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        slo_doc = oslo.update_slo_gauges(self.slo)
        reg = obs.registry().snapshot()
        counters = reg.get("counters", {})
        return {
            "schema": SERVE_SCHEMA,
            "uptime_s": round(time.time() - self.started_unix, 3),
            "requests": counters.get("serve.requests", 0),
            "hits": counters.get("serve.hits", 0),
            "built": counters.get("serve.built", 0),
            "coalesced": counters.get("serve.coalesced", 0),
            "errors": counters.get("serve.errors", 0),
            "rejected_quota": counters.get("serve.rejected_quota", 0),
            "rejected_busy": counters.get("serve.rejected_busy", 0),
            "inflight_keys": len(self._flights),
            "pool": self.pool.snapshot() if self.pool else None,
            "gate": self.gate.snapshot(),
            "quotas": self.quotas.snapshot(),
            "cache": (
                self.cache.stats.as_dict() if self.cache else None
            ),
            "slo": slo_doc,
            "debug_requests": self.requests.snapshot(),
        }


def _parse_net(network: str):
    """``parse_network`` with SystemExit turned into a 400."""
    try:
        return parse_network(network)
    except SystemExit as exc:
        raise HttpError(400, str(exc)) from None


async def run_server(config: ServeConfig) -> None:
    """Start, announce, and serve until cancelled (the CLI entry).

    SIGTERM cancels the serving task just as SIGINT does, so the
    ``finally`` below closes the server and reaps the worker pool
    instead of the process dying with its workers still running.  The
    handler covers serving only: it is removed before the pool is
    reaped, so a second SIGTERM still ends a stuck shutdown.
    """
    server = await LayoutServer(config).start()
    loop = asyncio.get_running_loop()
    on_term = False
    try:
        try:
            loop.add_signal_handler(
                signal.SIGTERM, asyncio.current_task().cancel
            )
            on_term = True
        except (NotImplementedError, RuntimeError):
            pass  # no signal handlers off the main thread or on Windows
        print(
            f"repro serve: listening on {config.host}:{server.port} "
            f"({config.workers} worker{'s' if config.workers != 1 else ''}, "
            f"cache={'on' if config.cache_dir else 'off'})",
            flush=True,
        )
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        if on_term:
            loop.remove_signal_handler(signal.SIGTERM)
        await server.aclose()
