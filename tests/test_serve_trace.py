"""Request tracing, /debug endpoints, exemplars, and the serve SLO.

End-to-end against a real :class:`LayoutServer` on an ephemeral port
(same harness as ``test_serve.py``).  The properties pinned here:

* a cold ``/v1/layout`` leaves a ``/debug/trace/<id>`` document whose
  span tree carries the server's root span *and* the pool worker's
  ``cache.build`` subtree under one trace id -- the whole point of
  shipping context across the fork boundary;
* coalesced followers do not duplicate the leader's build subtree:
  they carry exactly one ``serve.link`` span naming the leader's
  trace;
* the span-name *set* of a request is deterministic across worker
  counts;
* request trees stay out of the process-wide span roots, and a log
  line emitted inside a request carries its trace id and span;
* ``/metrics`` renders histogram exemplars and the ``slo.*`` gauges;
* a ``--run-dir`` server feeds the ``repro watch`` SLO panel through
  its live ``metrics.prom``.
"""

import asyncio
import io
import json

import pytest

from repro import obs
from repro.obs import context as ocontext
from repro.obs import live
from repro.obs import logging as olog
from repro.obs.export import validate_chrome_trace
from repro.serve import LayoutServer, ServeConfig, http_request
from repro.serve.pool import POOL_DELAY_ENV
from repro.serve.protocol import TRACE_HEADER


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _serve(test_coro, **cfg_kw):
    async def runner():
        cfg = ServeConfig(port=0, workers=cfg_kw.pop("workers", 1), **cfg_kw)
        server = await LayoutServer(cfg).start()
        try:
            await test_coro(server, server.port)
        finally:
            await server.aclose()

    asyncio.run(runner())


def _post_layout(port, network, layers=2, **extra):
    return http_request(
        "127.0.0.1",
        port,
        "POST",
        "/v1/layout",
        body={"network": network, "layers": layers, **extra.pop("body", {})},
        **extra,
    )


async def _get_json(port, path):
    st, _, body = await http_request("127.0.0.1", port, "GET", path)
    return st, json.loads(body)


def _event_names(trace_doc):
    return {
        ev["name"]
        for ev in trace_doc["traceEvents"]
        if ev.get("ph") == "X"
    }


class TestTraceDocument:
    def test_cold_build_trace_spans_fork_boundary(self, tmp_path):
        """The acceptance shape: server root span and the worker's
        cache.build subtree under one trace id."""

        async def t(server, port):
            st, _, body = await _post_layout(port, "hypercube:3")
            doc = json.loads(body)
            assert st == 200 and doc["source"] == "built"
            assert len(doc["trace_id"]) == 32
            assert doc["request_id"].startswith("r")
            st, trace = await _get_json(
                port, f"/debug/trace/{doc['trace_id']}"
            )
            assert st == 200
            validate_chrome_trace(trace)
            assert trace["otherData"]["trace_id"] == doc["trace_id"]
            assert trace["otherData"]["request_id"] == doc["request_id"]
            names = _event_names(trace)
            assert {
                "serve.request", "cache.probe", "pool.build",
                "pool.worker", "sweep.job", "cache.build",
            } <= names
            (root_ev,) = [
                ev for ev in trace["traceEvents"]
                if ev.get("name") == "serve.request"
            ]
            assert root_ev["args"]["trace_id"] == doc["trace_id"]
            assert root_ev["args"]["request_id"] == doc["request_id"]
            assert root_ev["args"]["status"] == 200
            # The worker subtree renders on its own process row.
            pids = {
                ev["pid"]
                for ev in trace["traceEvents"]
                if ev.get("ph") == "X"
            }
            assert len(pids) >= 2

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_trace_found_by_request_id_too(self, tmp_path):
        async def t(server, port):
            _, _, body = await _post_layout(port, "ring:6")
            doc = json.loads(body)
            st, trace = await _get_json(
                port, f"/debug/trace/{doc['request_id']}"
            )
            assert st == 200
            assert trace["otherData"]["trace_id"] == doc["trace_id"]

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_inbound_traceparent_adopted(self, tmp_path):
        async def t(server, port):
            ctx = ocontext.new_context()
            st, _, body = await _post_layout(
                port,
                "ring:6",
                headers={TRACE_HEADER: ctx.to_traceparent()},
            )
            doc = json.loads(body)
            assert st == 200
            assert doc["trace_id"] == ctx.trace_id
            st, trace = await _get_json(
                port, f"/debug/trace/{ctx.trace_id}"
            )
            assert st == 200

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_unknown_id_404s(self):
        async def t(server, port):
            st, _, _ = await http_request(
                "127.0.0.1", port, "GET", "/debug/trace/deadbeef"
            )
            assert st == 404

        _serve(t)

    def test_unsampled_request_retained_without_spans(self, tmp_path):
        async def t(server, port):
            _, _, body = await _post_layout(port, "ring:6")
            doc = json.loads(body)
            st, _, _ = await http_request(
                "127.0.0.1",
                port,
                "GET",
                f"/debug/trace/{doc['trace_id']}",
            )
            assert st == 404  # retained, but no span tree
            st, listing = await _get_json(port, "/debug/requests")
            rec = next(
                r
                for r in listing["requests"]
                if r["request_id"] == doc["request_id"]
            )
            assert rec["sampled"] is False
            assert rec["has_spans"] is False

        _serve(t, cache_dir=str(tmp_path / "cache"), trace_sample=0.0)


class TestCoalescedTraces:
    def test_follower_links_leader_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv(POOL_DELAY_ENV, "0.3")

        async def t(server, port):
            results = await asyncio.gather(
                *(
                    _post_layout(port, "kary:3,2", layers=4)
                    for _ in range(3)
                )
            )
            docs = [json.loads(b) for _, _, b in results]
            by_source = {d["source"]: d for d in docs}
            assert set(d["source"] for d in docs) == {
                "built", "coalesced",
            }
            leader = by_source["built"]
            _, lt = await _get_json(
                port, f"/debug/trace/{leader['trace_id']}"
            )
            assert "pool.build" in _event_names(lt)
            for d in docs:
                if d["source"] != "coalesced":
                    continue
                _, ft = await _get_json(
                    port, f"/debug/trace/{d['trace_id']}"
                )
                validate_chrome_trace(ft)
                names = [
                    ev["name"]
                    for ev in ft["traceEvents"]
                    if ev.get("ph") == "X"
                ]
                # Exactly one link span, no duplicated build subtree.
                assert names.count("serve.link") == 1
                assert "pool.build" not in names
                link_ev = next(
                    ev
                    for ev in ft["traceEvents"]
                    if ev.get("name") == "serve.link"
                )
                assert (
                    link_ev["args"]["linked_trace_id"]
                    == leader["trace_id"]
                )

        _serve(t, cache_dir=str(tmp_path / "cache"), workers=2)


class TestDeterministicSpanShape:
    def _names_for(self, workers, tmp_path):
        found = {}

        async def t(server, port):
            _, _, body = await _post_layout(port, "hypercube:3")
            doc = json.loads(body)
            _, trace = await _get_json(
                port, f"/debug/trace/{doc['trace_id']}"
            )
            found["names"] = _event_names(trace)

        _serve(
            t,
            cache_dir=str(tmp_path / f"cache-w{workers}"),
            workers=workers,
        )
        return found["names"]

    def test_span_name_set_stable_across_worker_counts(self, tmp_path):
        assert self._names_for(1, tmp_path) == self._names_for(
            4, tmp_path
        )


class TestRequestScope:
    def test_requests_leave_no_process_roots(self, tmp_path, monkeypatch):
        """The daemon collects spans for its whole life: request trees
        live in the request log only, never in ``obs.trace_roots()``."""
        monkeypatch.setenv(POOL_DELAY_ENV, "0.2")

        async def t(server, port):
            results = await asyncio.gather(
                *(_post_layout(port, "ring:8", layers=4) for _ in range(3))
            )
            sources = sorted(json.loads(b)["source"] for _, _, b in results)
            assert sources == ["built", "coalesced", "coalesced"]
            await _post_layout(port, "ring:8", layers=4)  # cache hit
            st, _, _ = await http_request(
                "127.0.0.1", port, "POST", "/v1/sweep",
                body={"networks": ["ring:6", "ring:8"], "layers": [2, 4]},
            )
            assert st == 200
            await _post_layout(port, "nosuchfamily:3")  # 400
            assert obs.trace_roots() == []
            _, listing = await _get_json(port, "/debug/requests")
            assert listing["totals"]["added"] == 6

        _serve(t, cache_dir=str(tmp_path / "cache"), workers=2)

    def test_log_lines_join_trace_and_span(self, tmp_path):
        sink = io.StringIO()
        olog.configure(stream=sink)
        docs = []

        async def t(server, port):
            _, _, body = await _post_layout(port, "hypercube:3")
            docs.append(json.loads(body))

        try:
            _serve(t, cache_dir=str(tmp_path / "cache"))
        finally:
            olog.close()
        recs = [json.loads(line) for line in sink.getvalue().splitlines()]
        for event in ("serve.build", "serve.request"):
            (rec,) = [r for r in recs if r["event"] == event]
            assert rec["trace"] == docs[0]["trace_id"]
            assert rec["span"] == "serve.request"


class TestDebugRequests:
    def test_listing_and_limit(self, tmp_path):
        async def t(server, port):
            for spec in ("ring:6", "ring:8"):
                await _post_layout(port, spec)
            st, doc = await _get_json(port, "/debug/requests")
            assert st == 200
            assert doc["totals"]["added"] == 2
            assert len(doc["requests"]) == 2
            # Newest first; every row names its retention pools.
            assert doc["requests"][0]["status"] == 200
            assert "recent" in doc["requests"][0]["retained"]
            st, doc = await _get_json(port, "/debug/requests?limit=1")
            assert len(doc["requests"]) == 1
            st, _, _ = await http_request(
                "127.0.0.1", port, "GET", "/debug/requests?limit=x"
            )
            assert st == 400

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_failed_request_retained_with_error(self):
        async def t(server, port):
            st, _, _ = await _post_layout(port, "nosuchfamily:3")
            assert st == 400
            st, doc = await _get_json(port, "/debug/requests")
            rec = doc["requests"][0]
            assert rec["status"] == 400
            assert rec["error"]

        _serve(t)


class TestMetricsAndSLO:
    def test_metrics_render_exemplars_and_slo_gauges(self, tmp_path):
        async def t(server, port):
            _, _, body = await _post_layout(port, "ring:6")
            doc = json.loads(body)
            st, _, text = await http_request(
                "127.0.0.1", port, "GET", "/metrics"
            )
            text = text.decode()
            assert st == 200
            assert f'trace_id="{doc["trace_id"]}"' in text
            assert "repro_slo_burn_rate" in text
            assert "repro_slo_compliance" in text
            assert "repro_serve_request_ms_bucket" in text

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_stats_carry_slo_and_request_log(self, tmp_path):
        async def t(server, port):
            await _post_layout(port, "ring:6")
            st, doc = await _get_json(port, "/stats")
            assert st == 200
            assert doc["slo"]["requests"] >= 1
            assert doc["slo"]["compliance"] is not None
            assert doc["debug_requests"]["added"] >= 1

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_run_dir_feeds_watch_slo_panel(self, tmp_path):
        run_dir = str(tmp_path / "run")

        async def t(server, port):
            await _post_layout(port, "ring:6")
            # Force one watchdog tick's worth of output immediately.
            server._on_watch_tick({})
            snap = live.watch_snapshot(run_dir)
            assert snap["slo"] is not None
            assert snap["slo"]["requests"] >= 1
            assert snap["slo"]["objective_ms"] == 250.0

        _serve(
            t,
            cache_dir=str(tmp_path / "cache"),
            run_dir=run_dir,
            watch_interval_s=0.05,
        )
