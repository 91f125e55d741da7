"""Trace context, request telemetry, and SLO math unit tests.

The serve e2e suite (``test_serve_trace.py``) exercises these pieces
through real sockets; here each piece is pinned in isolation --
traceparent parsing tolerance, contextvar propagation across threads
and tasks, RequestLog tail-sampling retention, and the SLO
estimator's bucket interpolation.
"""

import asyncio
import random
import threading

import pytest

from repro.obs import context as ocontext
from repro.obs import slo as oslo
from repro.obs.metrics import Histogram, MetricsRegistry


class TestTraceparent:
    def test_round_trip(self):
        ctx = ocontext.new_context()
        back = ocontext.parse_traceparent(ctx.to_traceparent())
        assert back == ctx
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16

    def test_unsampled_flag_round_trips(self):
        ctx = ocontext.new_context(sampled=False)
        back = ocontext.parse_traceparent(ctx.to_traceparent())
        assert back is not None and back.sampled is False

    def test_child_keeps_trace_changes_span(self):
        ctx = ocontext.new_context()
        kid = ctx.child()
        assert kid.trace_id == ctx.trace_id
        assert kid.span_id != ctx.span_id
        assert kid.sampled == ctx.sampled

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "",
            "garbage",
            "00-abc-def-01",  # wrong lengths
            "00" + "-" + "g" * 32 + "-" + "0" * 16 + "-01",  # non-hex
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # zero trace
            "00-" + "1" * 32 + "-" + "0" * 16 + "-01",  # zero span
            "00-" + "1" * 32 + "-" + "1" * 16,  # missing flags
        ],
    )
    def test_malformed_header_degrades_to_none(self, bad):
        assert ocontext.parse_traceparent(bad) is None

    def test_dict_round_trip(self):
        ctx = ocontext.new_context(sampled=False)
        assert ocontext.TraceContext.from_dict(ctx.as_dict()) == ctx

    def test_should_sample_edges(self):
        assert ocontext.should_sample(1.0) is True
        assert ocontext.should_sample(0.0) is False


class TestContextPropagation:
    def test_use_context_scopes_and_restores(self):
        assert ocontext.current_context() is None
        ctx = ocontext.new_context()
        with ocontext.use_context(ctx):
            assert ocontext.current_context() is ctx
        assert ocontext.current_context() is None

    def test_threads_do_not_inherit_ambient_context(self):
        seen = []
        ctx = ocontext.new_context()
        with ocontext.use_context(ctx):
            t = threading.Thread(
                target=lambda: seen.append(ocontext.current_context())
            )
            t.start()
            t.join()
        # A fresh thread starts with the contextvar default; workers
        # receive their context explicitly via set_context.
        assert seen == [None]

    def test_asyncio_tasks_are_isolated(self):
        async def task(ctx):
            with ocontext.use_context(ctx):
                await asyncio.sleep(0)
                return ocontext.current_context().trace_id

        async def main():
            a, b = ocontext.new_context(), ocontext.new_context()
            return await asyncio.gather(task(a), task(b))

        ids = asyncio.run(main())
        assert len(set(ids)) == 2


def _rec(request_id, status=200, latency_ms=1.0, **kw):
    return ocontext.RequestRecord(
        request_id=request_id,
        trace_id=f"t-{request_id}",
        path="/v1/layout",
        status=status,
        latency_ms=latency_ms,
        time_unix=0.0,
        **kw,
    )


class TestRequestLog:
    def test_errors_survive_recent_eviction(self):
        log = ocontext.RequestLog(capacity=4)
        log.add(_rec("err", status=503, latency_ms=1.0))
        for i in range(10):
            log.add(_rec(f"ok{i}", latency_ms=0.1))
        tags = {
            d["request_id"]: d["retained"] for d in log.requests()
        }
        assert "err" in tags and "error" in tags["err"]

    def test_slowest_survive_eviction(self):
        log = ocontext.RequestLog(capacity=10, keep_slow=2)
        log.add(_rec("slow", latency_ms=500.0))
        for i in range(30):
            log.add(_rec(f"fast{i}", latency_ms=0.5))
        ids = {d["request_id"] for d in log.requests()}
        assert "slow" in ids

    def test_find_by_either_id(self):
        log = ocontext.RequestLog(capacity=4)
        log.add(_rec("abc"))
        assert log.find("abc") is not None
        assert log.find("t-abc") is not None
        assert log.find("nope") is None
        assert log.find("") is None

    def test_dropped_counts_only_fully_evicted(self):
        log = ocontext.RequestLog(capacity=2, keep_slow=1, keep_errors=1)
        log.add(_rec("keep", latency_ms=100.0))  # slowest: retained
        log.add(_rec("a", latency_ms=1.0))
        log.add(_rec("b", latency_ms=1.0))  # evicts "keep" from recent
        log.add(_rec("c", latency_ms=1.0))  # evicts "a" entirely
        snap = log.snapshot()
        assert snap["added"] == 4
        assert snap["dropped"] == 1

    def test_requests_limit_newest_first(self):
        log = ocontext.RequestLog(capacity=8)
        for i in range(5):
            log.add(_rec(f"r{i}"))
        docs = log.requests(limit=2)
        assert [d["request_id"] for d in docs] == ["r4", "r3"]


class _ReferenceLog:
    """The retention rule as plain lists: FIFO ``recent`` and
    ``errors``, and ``slow`` re-sorted slowest first, newest first on
    ties, after every add."""

    def __init__(self, capacity, keep_errors, keep_slow):
        self.capacity = capacity
        self.keep_errors, self.keep_slow = keep_errors, keep_slow
        self.recent, self.errors, self.slow = [], [], []
        self.dropped = 0

    def add(self, rec):
        self.recent.append(rec)
        if len(self.recent) > self.capacity:
            old = self.recent.pop(0)
            if old not in self.errors and old not in self.slow:
                self.dropped += 1
        if self.keep_errors and (rec.status >= 500 or rec.error):
            self.errors = (self.errors + [rec])[-self.keep_errors:]
        if self.keep_slow:
            self.slow.append(rec)
            self.slow.sort(key=lambda r: (-r.latency_ms, -r.seq))
            del self.slow[self.keep_slow:]

    def retained(self):
        pools = (
            ("recent", self.recent), ("error", self.errors),
            ("slow", self.slow),
        )
        recs = {r.seq: r for _, pool in pools for r in pool}
        return [
            (recs[q].request_id, [t for t, pool in pools if recs[q] in pool])
            for q in sorted(recs, reverse=True)
        ]


class TestRequestLogMatchesReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_sequences(self, seed):
        rng = random.Random(seed)
        capacity = rng.randint(1, 12)
        keep_errors = rng.choice([None, 0, 1, rng.randint(1, 6)])
        keep_slow = rng.choice([None, 0, 1, rng.randint(1, 6)])
        log = ocontext.RequestLog(
            capacity=capacity, keep_errors=keep_errors, keep_slow=keep_slow
        )
        ref = _ReferenceLog(capacity, log.keep_errors, log.keep_slow)
        # Few distinct latencies, so ties are common.
        latencies = [rng.choice([0.5, 1.0, 2.0, 3.5]) for _ in range(4)]
        for i in range(rng.randint(1, 80)):
            rec = _rec(
                f"r{i}",
                status=rng.choice([200] * 6 + [404, 500, 503]),
                latency_ms=rng.choice(latencies),
                error=rng.choice([None] * 8 + ["boom"]),
            )
            log.add(rec)
            ref.add(rec)
            got = [(d["request_id"], d["retained"]) for d in log.requests()]
            assert got == ref.retained()
            snap = log.snapshot()
            assert snap["added"] == i + 1
            assert snap["dropped"] == ref.dropped
            assert snap["retained"] == len(got)
            assert snap["errors_retained"] == len(ref.errors)


class TestSLO:
    def test_fraction_within_interpolates(self):
        h = Histogram((10.0, 100.0))
        for v in (5.0, 50.0, 95.0, 200.0):
            h.observe(v)
        d = h.as_dict()
        assert oslo.fraction_within(d, 200.0) == 1.0
        assert oslo.fraction_within(d, 1.0) == 0.0
        mid = oslo.fraction_within(d, 100.0)
        assert 0.5 <= mid <= 1.0
        assert oslo.fraction_within({"count": 0}, 10.0) is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            oslo.SLOConfig(latency_ms=0)
        with pytest.raises(ValueError):
            oslo.SLOConfig(target=1.0)
        assert oslo.SLOConfig(target=0.99).budget == pytest.approx(0.01)

    def test_snapshot_and_burn_rate(self):
        reg = MetricsRegistry()
        h = reg.histogram(oslo.REQUEST_HIST, (10.0, 100.0))
        for _ in range(98):
            h.observe(5.0)
        h.observe(5000.0)
        h.observe(5000.0)
        reg.counter(oslo.ERROR_COUNTER).inc(0)
        cfg = oslo.SLOConfig(latency_ms=100.0, target=0.99)
        doc = oslo.slo_snapshot(cfg, reg.snapshot())
        assert doc["requests"] == 100
        # 98/100 within objective: burn rate ~2x the 1% budget.
        assert doc["compliance"] == pytest.approx(0.98, abs=0.01)
        assert doc["burn_rate"] == pytest.approx(2.0, abs=1.0)

    def test_errors_burn_budget(self):
        reg = MetricsRegistry()
        h = reg.histogram(oslo.REQUEST_HIST, (10.0,))
        for _ in range(10):
            h.observe(1.0)
        reg.counter(oslo.ERROR_COUNTER).inc(5)
        doc = oslo.slo_snapshot(
            oslo.SLOConfig(latency_ms=10.0, target=0.9), reg.snapshot()
        )
        assert doc["compliance"] == pytest.approx(0.5)
        assert doc["burn_rate"] == pytest.approx(5.0)

    def test_gauges_round_trip_through_prometheus(self):
        from repro.obs.export import prometheus_text

        reg = MetricsRegistry()
        h = reg.histogram(oslo.REQUEST_HIST, (10.0, 100.0))
        for _ in range(20):
            h.observe(5.0)
        cfg = oslo.SLOConfig(latency_ms=100.0, target=0.95)
        doc = oslo.update_slo_gauges(cfg, reg)
        text = prometheus_text(reg.snapshot())
        back = oslo.slo_from_prometheus(text)
        assert back is not None
        assert back["objective_ms"] == 100.0
        assert back["target"] == 0.95
        assert back["requests"] == 20
        assert back["compliance"] == pytest.approx(doc["compliance"])
        assert back["burn_rate"] == pytest.approx(doc["burn_rate"])

    def test_no_slo_gauges_reads_as_none(self):
        assert oslo.slo_from_prometheus("# just a comment\n") is None
        # A sweep metrics file has counters but no slo gauges.
        assert (
            oslo.slo_from_prometheus("repro_sweep_jobs_total 4\n")
            is None
        )
