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
   ``shield`` of it and report ``source: "coalesced"``.  This flight
   map is the only coalescer: the cache below it is plain get + put,
   and pool workers are separate processes with separate handles, so
   two daemons racing one key both build it and write identical bytes.
3. **The pool** -- cache misses run on long-lived worker processes
   (:class:`~repro.serve.pool.WorkerPool`); the event loop never
   blocks on a build.  Warm keys are answered straight from the
   content-addressed cache without touching the pool.

Each ``(network, scheme, layers)`` triple is keyed once per daemon:
its first cache probe parses the spec and derives the cache key, and
an LRU key map keeps ``(key, key text, N, E)`` so later probes of the
same triple go straight to ``LayoutCache.get``, on the event loop,
with no flight task and no thread hop (reading on the loop serves more
requests for a little more loop lag; docs/PERFORMANCE.md, "Where a
warm hit goes").  A first probe's parse and key derivation run in a
thread.  Within
one process the key is a pure function of the triple
(``parse_network`` is deterministic and the format and schema versions
are constants), and every hit still reads the entry and checks its key
line and hash.

Every request lands in :mod:`repro.obs`: ``serve.*`` counters, a
``serve.request_ms`` histogram, and the standard Prometheus
exposition at ``GET /metrics`` -- so the load generator's client-side
percentiles can be cross-checked against the server's own.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro import obs
from repro.batch.cache import CacheEntry, LayoutCache
from repro.batch.runner import reroot_worker_spans
from repro.batch.spec import SCHEMES, SweepSpec, parse_network
from repro.obs import context as ocontext
from repro.obs import live
from repro.obs import logging as olog
from repro.obs import slo as oslo
from repro.obs.export import chrome_trace, write_prometheus
from repro.obs.trace import SpanRecord
from repro.serve.pool import WorkerLost, WorkerPool
from repro.serve.protocol import (
    SERVE_SCHEMA,
    TRACE_HEADER,
    ChunkedJsonWriter,
    HttpError,
    HttpRequest,
    json_body,
    json_body_spliced,
    read_request,
    send_json,
    send_response,
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

#: Bound on the key map, in characters summed over its entries (about
#: 64 MiB): each entry is charged its spec string as the client sent
#: it, its key text and ``KEY_ENTRY_CHARS``.  Past the bound the least
#: recently used triples are dropped, and their next probe derives the
#: key again.
KEY_MAP_CHARS = 64 * 1024 * 1024

#: Fixed charge per key-map entry for what its strings do not count:
#: the map node, the triple, the ``_Keyed`` tuple, the hex key and the
#: string headers (a few hundred bytes in CPython).
KEY_ENTRY_CHARS = 512

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


class _Keyed(NamedTuple):
    """A triple's cache key and the counts a hit reports, as the key
    map keeps them."""

    key: str
    key_text: str
    N: int
    E: int


def _entry_chars(spec: tuple, keyed: _Keyed) -> int:
    """What one key-map entry is charged against ``KEY_MAP_CHARS``."""
    return len(spec[0]) + len(keyed.key_text) + KEY_ENTRY_CHARS


class _Answer(NamedTuple):
    """One resolved key, as a flight hands it to every waiter.

    ``doc`` is the response document.  The cache entry a hit already
    read and verified -- or, after a build, the key the worker wrote
    under -- travels beside it, never inside the shared document, so
    a payload request can send the stored layout text without probing
    the cache again.
    """

    doc: dict
    entry: CacheEntry | None = None
    keyed: _Keyed | None = None


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
        # (network, scheme, layers) -> _Keyed, least recently used
        # first; read and written on the event-loop thread only.
        self._keys: OrderedDict[tuple, _Keyed] = OrderedDict()
        self._key_chars = 0
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
        self.pool = WorkerPool(
            cfg.workers,
            cache_dir=cfg.cache_dir,
            validate=cfg.validate,
            run_dir=cfg.run_dir,
        ).start()
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

    @contextlib.contextmanager
    def _traced(self, req: HttpRequest):
        """Scope one request: its root span and trace context.

        The inbound ``x-repro-trace`` header (stamped by loadgen or
        an upstream) wins; a request without one gets a fresh context
        head-sampled at ``--trace-sample``.  The root is current for
        every ``obs.span`` the request opens, and for the flight task
        it starts, but never joins ``obs.trace_roots()``: the daemon
        collects for its whole life, and only ``self.requests``
        retains request trees.  The request is finished as the block
        exits: with the failure's status, or 200 and the ``source``
        the block set on the root.
        """
        ctx = ocontext.parse_traceparent(req.headers.get(TRACE_HEADER))
        if ctx is None:
            ctx = ocontext.new_context(
                sampled=ocontext.should_sample(self.config.trace_sample)
            )
        self._req_seq += 1
        root = SpanRecord(
            name="serve.request",
            attrs={
                "trace_id": ctx.trace_id,
                "request_id": f"r{self._req_seq:06d}-{ctx.trace_id[:8]}",
                "path": req.path,
                "client": req.client_id,
            },
            start=time.perf_counter(),
        )
        with obs.use_span(root), ocontext.use_context(ctx):
            try:
                yield root
            except HttpError as exc:
                self._finish_request(root, ctx, exc.status, error=exc.message)
                raise
            except ConnectionError:
                raise
            except Exception as exc:
                self._finish_request(
                    root, ctx, 500, error=f"{type(exc).__name__}: {exc}"
                )
                raise
            self._finish_request(root, ctx, 200)

    def _finish_request(
        self,
        root: SpanRecord,
        ctx: ocontext.TraceContext,
        status: int,
        *,
        error: str | None = None,
    ) -> None:
        """Close the root span, observe latency, retain the request.

        One exit point for success and failure alike: the latency
        histogram gets an exemplar naming this trace, 5xx statuses
        feed the SLO error budget, and the tail-sampling ring buffer
        keeps the record (spans included when sampled) for
        ``/debug/requests`` / ``/debug/trace/<id>``.
        """
        root.duration = time.perf_counter() - root.start
        latency_ms = root.duration * 1000.0
        attrs = root.attrs
        attrs["status"] = status
        if error is not None:
            attrs["error"] = error
        source = attrs.get("source")
        obs.observe(
            "serve.request_ms",
            latency_ms,
            LATENCY_BOUNDS_MS,
            exemplar=ctx.trace_id,
        )
        if status >= 500:
            obs.count("serve.errors_5xx")
        self.requests.add(
            ocontext.RequestRecord(
                request_id=attrs["request_id"],
                trace_id=ctx.trace_id,
                path=attrs["path"],
                status=status,
                latency_ms=latency_ms,
                time_unix=time.time(),
                sampled=ctx.sampled,
                source=source,
                error=error,
                attrs={
                    k: v
                    for k, v in attrs.items()
                    if k in ("network", "scheme", "layers", "jobs", "client")
                },
                root=root if ctx.sampled else None,
            )
        )
        olog.info(
            "serve.request",
            request_id=attrs["request_id"],
            path=attrs["path"],
            status=status,
            latency_ms=round(latency_ms, 3),
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
            alive = self.pool.alive() if self.pool else 0
            await send_json(
                writer,
                200,
                {"schema": SERVE_SCHEMA, "ok": alive > 0,
                 "workers_alive": alive},
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
            with self._traced(req) as root:
                doc, layout_json = await self._layout_request(req)
                root.attrs["source"] = doc["source"]
            doc = {
                **doc,
                "request_id": root.attrs["request_id"],
                "trace_id": root.attrs["trace_id"],
            }
            await send_response(
                writer,
                200,
                json_body(doc)
                if layout_json is None
                else json_body_spliced(doc, "layout", layout_json),
                content_type="application/json",
                close=close,
            )
            return True
        if req.path == "/v1/sweep" and req.method == "POST":
            with self._traced(req) as root:
                await self._sweep_request(req, writer)
                root.attrs["source"] = "sweep"
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

    @contextlib.contextmanager
    def _admitted(self, req: HttpRequest, cost: float):
        """Charge ``cost`` quota tokens and hold an in-flight gate slot
        for the block (429 or 503 when either refuses).  The slot is
        given back however the block exits: a client that resets the
        connection mid-response must not keep it."""
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
        if not self.gate.try_enter():
            obs.count("serve.rejected_busy")
            raise HttpError(
                503,
                f"server at max in-flight ({self.gate.limit}); retry",
                retry_after=1.0,
            )
        try:
            yield
        finally:
            self.gate.leave()

    # -- /v1/layout --------------------------------------------------------

    @staticmethod
    def _parse_layout_body(doc: dict) -> tuple[str, str, int, bool]:
        network = doc.get("network")
        if not isinstance(network, str) or not network:
            raise HttpError(400, "missing required field: network")
        scheme = _scheme(doc)
        layers = doc.get("layers", 2)
        if not isinstance(layers, int) or isinstance(layers, bool):
            raise HttpError(400, "layers must be an integer")
        if not 1 <= layers <= MAX_LAYERS:
            raise HttpError(400, f"layers must be in [1, {MAX_LAYERS}]")
        include_layout = bool(doc.get("include_layout", False))
        return network, scheme, layers, include_layout

    async def _layout_request(
        self, req: HttpRequest
    ) -> tuple[dict, str | None]:
        """The response document, and the stored layout text when the
        request asked for it (spliced into the body verbatim: a cache
        entry's text is valid JSON once ``LayoutCache.get`` has checked
        its SHA-256)."""
        network, scheme, layers, include_layout = self._parse_layout_body(
            req.json()
        )
        obs.current_span().attrs.update(
            network=network, scheme=scheme, layers=layers
        )
        if include_layout and self.cache is None:
            raise HttpError(
                400,
                "include_layout requires the server to run with "
                "--cache-dir (layout payloads are served from the cache)",
            )
        with self._admitted(req, 1.0):
            answer = await self._resolve(network, scheme, layers)
        if not include_layout:
            return answer.doc, None
        entry = answer.entry
        if entry is None:
            # This flight built the key: read the entry the worker wrote
            # (on the loop, as a mapped hit is read).
            entry = self.cache.get(answer.keyed.key, answer.keyed.key_text)
            if entry is None:
                raise HttpError(
                    503,
                    "the built layout is missing from the cache; retry",
                    retry_after=1.0,
                )
        return answer.doc, entry.layout_json

    async def _resolve(
        self, network: str, scheme: str, layers: int
    ) -> _Answer:
        """One coalesced lookup-or-build.

        A mapped triple with no flight running is read right here, on
        the event loop: a hit is answered with no task and no thread
        hop, and a miss (the entry was deleted or is corrupt) starts a
        flight that goes straight to the pool.  Any other triple starts
        a flight that derives its key and probes the cache in a thread
        (:meth:`_cache_probe`), then builds on a miss.  Every request
        probes the cache at most once.

        The *leader* request (the one that starts the flight) owns
        the build spans: the flight task inherits its context, so the
        cache probe, pool dispatch, and the worker's shipped forest
        all land under its root.  A coalesced follower instead records
        exactly one link-span naming the leader's trace id -- its
        trace shows the wait, not duplicated work.
        """
        spec = (network, scheme, layers)
        task = self._flights.get(spec)
        if task is not None:
            obs.count("serve.coalesced")
            with obs.span(
                "serve.link",
                linked_trace_id=task.leader_trace,
                link="coalesced",
            ):
                answer = await self._await_flight(spec, task)
            return answer._replace(
                doc={**answer.doc, "source": "coalesced"}
            )
        t0 = time.perf_counter()
        keyed = self._keys.get(spec)
        if keyed is None:
            return await self._fly(spec, self._lookup_or_build(spec, t0))
        with obs.span("cache.probe", network=network, key_source="map"):
            self._keys.move_to_end(spec)
            entry = self.cache.get(keyed.key, keyed.key_text)
        if entry is None:
            return await self._fly(spec, self._build(spec, keyed, t0))
        return self._hit(spec, keyed, entry, t0)

    async def _fly(self, spec: tuple, coro) -> _Answer:
        """Run ``coro`` as the flight of ``spec`` and await it."""
        task = asyncio.ensure_future(coro)
        task.leader_trace = ocontext.current_context().trace_id
        task.waiters = 0
        self._flights[spec] = task
        task.add_done_callback(lambda t, k=spec: self._landed(k, t))
        return await self._await_flight(spec, task)

    def _landed(self, spec: tuple, task: asyncio.Task) -> None:
        """Drop a finished flight from the flight map, unless a newer
        flight of ``spec`` took its place there."""
        if self._flights.get(spec) is task:
            del self._flights[spec]

    async def _await_flight(
        self, spec: tuple, task: asyncio.Task
    ) -> _Answer:
        """Wait for a flight, up to the request timeout (then 504; the
        build goes on and fills the cache).  A waiter that is cancelled
        -- a sweep whose client went away -- and was the flight's last
        cancels the flight too, so no build runs that no admitted
        request waits for."""
        task.waiters += 1
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
        except asyncio.CancelledError:
            if task.waiters == 1:
                self._landed(spec, task)
                task.cancel()
            raise
        finally:
            task.waiters -= 1

    async def _cache_probe(
        self, spec: tuple
    ) -> tuple[_Keyed | None, CacheEntry | None]:
        """The key and entry of a triple not yet in the key map, derived
        and read in a thread: ``(keyed, entry)``, the entry None on a
        miss; both None without a cache.

        The spec is parsed first (a bad one is a 400 before the pool
        sees it), and the derived key is then mapped, so the triple's
        later probes are read on the loop by :meth:`_resolve`.
        """
        network, scheme, layers = spec
        net = _parse_net(network)  # 400 before the pool sees it
        key_source = "derived" if self.cache is not None else "none"
        with obs.span(
            "cache.probe", network=network, key_source=key_source
        ):
            if self.cache is None:
                return None, None

            def probe():
                key, key_text = self.cache.key_for(
                    net, scheme=scheme, layers=layers
                )
                keyed = _Keyed(key, key_text, net.num_nodes, net.num_edges)
                return keyed, self.cache.get(key, key_text)

            keyed, entry = await asyncio.to_thread(probe)
        self._remember(spec, keyed)
        return keyed, entry

    def _remember(self, spec: tuple, keyed: _Keyed) -> None:
        """Map ``spec`` to ``keyed``, then drop least recently used
        triples until the map holds at most ``KEY_MAP_CHARS``.  (The
        flight map runs one probe per triple at a time, so ``spec`` is
        never in the map already.)

        The spec is the raw string the client sent, and padded aliases
        (``RING:3``, ``ring:03``, ``ring:3,,,``) parse to one network
        but are stored apart, so each entry is charged its spec string
        too: the bound holds whatever the clients send.
        """
        self._keys[spec] = keyed
        self._key_chars += _entry_chars(spec, keyed)
        while self._key_chars > KEY_MAP_CHARS:
            self._key_chars -= _entry_chars(*self._keys.popitem(last=False))

    async def _lookup_or_build(self, spec: tuple, t0: float) -> _Answer:
        """A flight that probes the cache in a thread first."""
        keyed, entry = await self._cache_probe(spec)
        if entry is not None:
            return self._hit(spec, keyed, entry, t0)
        return await self._build(spec, keyed, t0)

    def _hit(
        self, spec: tuple, keyed: _Keyed, entry: CacheEntry, t0: float
    ) -> _Answer:
        """The answer for a cache hit, mapped or just derived."""
        network, scheme, layers = spec
        obs.count("serve.hits")
        olog.debug(
            "serve.hit", network=network, scheme=scheme, layers=layers
        )
        doc = {
            "schema": SERVE_SCHEMA,
            "job_id": f"{network}@L{layers}/{scheme}",
            "network": network,
            "scheme": scheme,
            "layers": layers,
            "N": keyed.N,
            "E": keyed.E,
            "metrics": entry.metrics,
            "source": "cache",
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }
        return _Answer(doc, entry=entry)

    async def _build(
        self, spec: tuple, keyed: _Keyed | None, t0: float
    ) -> _Answer:
        """Build ``spec`` on the pool; the worker writes the entry."""
        network, scheme, layers = spec
        obs.count("serve.built")
        olog.info(
            "serve.build", network=network, scheme=scheme, layers=layers
        )
        assert self.pool is not None
        ctx = ocontext.current_context()
        trace = ctx.child().as_dict() if ctx.sampled else None
        with obs.span(
            "pool.build", network=network, scheme=scheme, layers=layers
        ):
            try:
                env = await self.pool.submit(
                    network, scheme, layers, trace=trace
                )
            except WorkerLost as exc:
                raise HttpError(
                    503, f"{exc}; retry", retry_after=1.0
                ) from None
            reroot_worker_spans(
                env.get("worker"), env.get("spans"), name="pool.worker"
            )
        res = env["result"]
        doc = {
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
        return _Answer(doc, keyed=keyed)

    # -- /v1/sweep ---------------------------------------------------------

    async def _sweep_request(
        self, req: HttpRequest, writer: asyncio.StreamWriter
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
        scheme = _scheme(body)
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
        obs.current_span().attrs.update(sweep=spec.name, jobs=len(jobs))
        with self._admitted(req, float(len(jobs))):
            obs.count("serve.sweeps")
            await self._stream_sweep(
                spec.name, jobs, ChunkedJsonWriter(writer)
            )

    async def _stream_sweep(
        self, name: str, jobs: list, stream: ChunkedJsonWriter
    ) -> None:
        """Resolve every job at once and stream one event per answer.

        If the stream fails (the client went away), the jobs still
        unanswered are cancelled before the sweep gives its gate slot
        back, and so is every build that only they were waiting for.
        """
        await stream.send(
            {
                "schema": SERVE_SCHEMA,
                "event": "start",
                "name": name,
                "jobs": len(jobs),
            }
        )
        t0 = time.perf_counter()
        sources: dict[str, int] = {}
        errors = 0
        pending = {
            asyncio.ensure_future(
                self._resolve(j.network, j.scheme, j.layers)
            ): j
            for j in jobs
        }
        try:
            while pending:
                done, _ = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    job = pending.pop(task)
                    try:
                        doc = task.result().doc
                    except Exception as exc:  # noqa: BLE001 - streamed
                        errors += 1
                        await stream.send(
                            {
                                "event": "error",
                                "index": job.index,
                                "job_id": job.job_id,
                                "error": exc.message
                                if isinstance(exc, HttpError)
                                else f"{type(exc).__name__}: {exc}",
                            }
                        )
                        continue
                    sources[doc["source"]] = (
                        sources.get(doc["source"], 0) + 1
                    )
                    await stream.send(
                        {"event": "job", "index": job.index, **doc}
                    )
        finally:
            for task in pending:
                task.cancel()
            # Wait for the cancellations, and retrieve the failures
            # that will never be streamed.
            await asyncio.gather(*pending, return_exceptions=True)
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


def _scheme(doc: dict) -> str:
    """The body's ``scheme`` (default ``auto``); 400 when unknown."""
    scheme = doc.get("scheme", "auto")
    if scheme not in SCHEMES:
        raise HttpError(
            400, f"unknown scheme {scheme!r}; known: {', '.join(SCHEMES)}"
        )
    return scheme


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
