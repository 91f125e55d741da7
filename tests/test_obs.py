"""The observability subsystem: spans, metrics, run reports, CLI."""

import asyncio
import json
import threading

import pytest

from repro import layout_hypercube, measure, obs, validate_layout
from repro.obs.trace import NOOP_SPAN


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with observability off and empty."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSpans:
    def test_disabled_is_noop(self):
        with obs.span("outer", k=1) as sp:
            sp.add("n", 3).set(x=2)
        assert sp is NOOP_SPAN
        assert obs.trace_roots() == []

    def test_nesting_builds_a_tree(self):
        obs.enable()
        with obs.span("outer", layers=4) as sp:
            with obs.span("inner_a"):
                with obs.span("leaf"):
                    pass
            with obs.span("inner_b"):
                pass
            sp.add("wires", 7).add("wires", 3)
        roots = obs.trace_roots()
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert [c.name for c in outer.children[0].children] == ["leaf"]
        assert outer.attrs == {"layers": 4}
        assert outer.counts == {"wires": 10}
        assert outer.duration >= outer.children[0].duration >= 0.0
        assert outer.self_time() <= outer.duration

    def test_sequential_roots(self):
        obs.enable()
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        assert [r.name for r in obs.trace_roots()] == ["first", "second"]

    def test_reset_clears(self):
        obs.enable()
        with obs.span("x"):
            pass
        obs.reset_trace()
        assert obs.trace_roots() == []

    def test_threads_do_not_interleave(self):
        obs.enable()

        def work(tag):
            with obs.span(f"root_{tag}"):
                for _ in range(50):
                    with obs.span("child"):
                        pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = obs.trace_roots()
        assert len(roots) == 4  # one tree per thread, never nested
        for r in roots:
            assert len(r.children) == 50
            assert all(c.name == "child" for c in r.children)

    def test_asyncio_tasks_do_not_interleave(self):
        """Concurrent tasks holding spans across awaits build one tree
        each: every task owns its current span, as every thread does."""
        obs.enable()

        async def work(tag):
            with obs.span(f"req_{tag}"):
                for i in range(3):
                    with obs.span(f"{tag}.step", i=i):
                        await asyncio.sleep(0)
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(work("a"), work("b"))

        asyncio.run(main())
        roots = obs.trace_roots()
        assert sorted(r.name for r in roots) == ["req_a", "req_b"]
        for r in roots:
            tag = r.name[-1]
            assert [c.name for c in r.children] == [f"{tag}.step"] * 3
            assert all(not c.children for c in r.children)

    def test_use_span_scopes_without_a_root(self):
        """A caller-owned record collects the block's spans but never
        joins the process-wide root list."""
        obs.enable()
        owned = obs.SpanRecord(name="owned", attrs={})
        with obs.use_span(owned):
            assert obs.current_span() is owned
            with obs.span("child"):
                assert obs.current_span_name() == "child"
        assert obs.current_span() is None
        assert [c.name for c in owned.children] == ["child"]
        assert obs.trace_roots() == []

    def test_phase_totals_aggregates_by_name(self):
        obs.enable()
        for _ in range(3):
            with obs.span("phase"):
                with obs.span("sub"):
                    pass
        totals = obs.phase_totals()
        assert totals["phase"]["calls"] == 3
        assert totals["sub"]["calls"] == 3
        assert totals["phase"]["total_s"] >= totals["phase"]["self_s"]

    def test_format_span_tree(self):
        obs.enable()
        with obs.span("build", name="ring") as sp:
            sp.add("wires", 5)
            with obs.span("pack"):
                pass
        text = obs.format_span_tree()
        assert "build" in text and "  pack" in text
        assert "name=ring" in text and "wires:5" in text

    def test_traffic_setup_has_its_own_spans(self):
        """A traced ``simulate_fast`` charges its set-up to
        ``routing.table`` and ``simulate.routes``, beside the engine."""
        from repro.routing import simulate_fast, uniform
        from repro.topology import Hypercube

        net = Hypercube(4)
        msgs = uniform(net, rate=0.5, duration=8, seed=1)
        obs.enable()
        with obs.span("run"):
            simulate_fast(net, msgs)
        (root,) = obs.trace_roots()
        names = [c.name for c in root.children]
        assert names == ["routing.table", "simulate.routes", "simulate.engine"]
        assert root.children[0].attrs["nodes"] == 16
        assert root.children[1].attrs["messages"] == len(msgs)


class TestMetrics:
    def test_count_noop_when_disabled(self):
        obs.count("x", 5)
        assert obs.registry().snapshot()["counters"] == {}

    def test_counter_aggregation(self):
        obs.enable()
        obs.count("wires", 3)
        obs.count("wires", 4)
        obs.count("vias")
        snap = obs.registry().snapshot()
        assert snap["counters"] == {"wires": 7, "vias": 1}

    def test_counter_thread_safety(self):
        obs.enable()
        c = obs.registry().counter("hot")

        def bump():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000

    def test_gauge_last_value_wins(self):
        obs.enable()
        obs.gauge("depth", 3)
        obs.gauge("depth", 9)
        assert obs.registry().snapshot()["gauges"] == {"depth": 9}

    def test_histogram_buckets_and_stats(self):
        obs.enable()
        for v in (1, 2, 3, 100, 5000):
            obs.observe("q", v)
        h = obs.registry().snapshot()["histograms"]["q"]
        assert h["count"] == 5
        assert h["sum"] == 5106
        assert h["min"] == 1 and h["max"] == 5000
        assert h["buckets"]["le_1"] == 1
        assert h["buckets"]["le_2"] == 1
        assert h["buckets"]["le_4"] == 1
        assert h["buckets"]["le_128"] == 1
        assert h["buckets"]["overflow"] == 1

    @pytest.mark.parametrize("values", [
        [],
        [1, 2, 3, 100, 5000],
        [0.5, 7.25, 7.25, 1024, 1025, 2.0e6, -3],
        [3] * 50 + [1.5] * 7,
    ], ids=["empty", "ints", "floats-and-overflow", "repeats"])
    def test_observe_many_equals_repeated_observe(self, values):
        from repro.obs.metrics import Histogram

        for seeded in (False, True):
            one, many = Histogram(), Histogram()
            if seeded:
                for h in (one, many):
                    h.observe(4)
                    h.observe(0.25)
            for v in values:
                one.observe(v)
            many.observe_many(iter(values))
            assert json.dumps(many.as_dict()) == json.dumps(one.as_dict())
            overflow = sum(v > Histogram.DEFAULT_BOUNDS[-1] for v in values)
            assert many.as_dict()["buckets"]["overflow"] == overflow

    def test_registry_reset(self):
        obs.enable()
        obs.count("x")
        obs.registry().reset()
        assert obs.registry().snapshot()["counters"] == {}

    def test_histogram_percentiles(self):
        obs.enable()
        h = obs.registry().histogram("lat")
        for v in range(1, 101):  # 1..100, near-uniform
            h.observe(v)
        assert h.percentile(1.0) == 100
        # Bucket interpolation keeps estimates within one bucket width.
        assert h.percentile(0.5) == pytest.approx(50, abs=15)
        assert h.percentile(0.9) == pytest.approx(90, abs=15)
        d = h.as_dict()
        assert d["p50"] <= d["p90"] <= d["p99"] <= 100

    def test_histogram_percentile_single_value_is_exact(self):
        obs.enable()
        h = obs.registry().histogram("const")
        for _ in range(10):
            h.observe(7)
        assert h.percentile(0.5) == 7
        assert h.percentile(0.99) == 7

    def test_histogram_percentile_empty_and_bad_q(self):
        h = obs.Histogram()
        assert h.percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            h.percentile(0.0)
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_merge_folds_counters_gauges_histograms(self):
        obs.enable()
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.counter("jobs").inc(2)
        b.counter("jobs").inc(3)
        b.gauge("depth").set(9)
        for v in (1, 5, 2000):
            a.histogram("q").observe(v)
        for v in (2, 64):
            b.histogram("q").observe(v)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["jobs"] == 5
        assert snap["gauges"]["depth"] == 9
        q = snap["histograms"]["q"]
        assert q["count"] == 5
        assert q["sum"] == 2072
        assert q["min"] == 1 and q["max"] == 2000
        assert q["buckets"]["le_1"] == 1   # a's 1
        assert q["buckets"]["le_2"] == 1   # b's 2
        assert q["buckets"]["le_8"] == 1   # a's 5
        assert q["buckets"]["le_64"] == 1  # b's 64
        assert q["buckets"]["overflow"] == 1  # a's 2000

    def test_merge_histograms_with_mismatched_bounds_widens(self):
        """The satellite case: different bucket edges must union, not
        silently drop (the old merge ignored histograms entirely)."""
        obs.enable()
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        a.histogram("mix", bounds=(10, 100)).observe(7)
        a.histogram("mix").observe(500)  # overflow for a
        b.histogram("mix", bounds=(50,)).observe(30)
        b.histogram("mix").observe(40)
        a.merge(b.snapshot())
        h = a.snapshot()["histograms"]["mix"]
        assert sorted(
            int(k[3:]) for k in h["buckets"] if k != "overflow"
        ) == [10, 50, 100]
        assert h["count"] == 4
        assert h["sum"] == 577
        assert h["min"] == 7 and h["max"] == 500
        assert h["buckets"]["le_10"] == 1     # a's 7
        assert h["buckets"]["le_50"] == 2     # b's 30, 40
        assert h["buckets"]["le_100"] == 0
        assert h["buckets"]["overflow"] == 1  # a's 500

    def test_merge_percentiles_over_widened_edges(self):
        """Percentile estimates must stay sane on a merged histogram
        whose bucket edges were widened by the union: p50/p90/p99 are
        interpolated inside the *merged* bucket list, so edges from
        either side anchor them."""
        obs.enable()
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        ha = a.histogram("lat", bounds=(10, 20, 40, 80))
        for v in (5, 12, 18, 33, 70):
            ha.observe(v)
        hb = b.histogram("lat", bounds=(25, 50, 100, 200))
        for v in (22, 48, 95, 180, 199):
            hb.observe(v)
        a.merge(b.snapshot())
        merged = a.histogram("lat")
        snap = a.snapshot()["histograms"]["lat"]
        assert sorted(
            int(k[3:]) for k in snap["buckets"] if k != "overflow"
        ) == [10, 20, 25, 40, 50, 80, 100, 200]
        assert snap["count"] == 10
        assert snap["min"] == 5 and snap["max"] == 199
        p50 = merged.percentile(0.5)
        p90 = merged.percentile(0.9)
        p99 = merged.percentile(0.99)
        # rank 5 lands exactly on the le_40 bucket's edge; ranks 9 and
        # 9.9 interpolate inside (100, 200], clamped by max=199.
        assert p50 == pytest.approx(40.0)
        assert p90 == pytest.approx(149.5, rel=0.01)
        assert p99 == pytest.approx(194.05, rel=0.01)
        assert p50 <= p90 <= p99 <= snap["max"]

    def test_merge_creates_missing_histogram_with_incoming_bounds(self):
        obs.enable()
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        b.histogram("fresh", bounds=(3, 9)).observe(5)
        a.merge(b.snapshot())
        h = a.snapshot()["histograms"]["fresh"]
        assert h["count"] == 1
        assert h["buckets"]["le_9"] == 1

    def test_merge_is_associative_enough_for_worker_folds(self):
        """Folding worker snapshots one at a time, in worker order,
        yields the same totals as any single combined registry."""
        obs.enable()
        parent = obs.MetricsRegistry()
        workers = []
        for wid in range(3):
            w = obs.MetricsRegistry()
            w.counter("n").inc(wid + 1)
            for v in range(wid + 2):
                w.histogram("h").observe(v + 1)
            workers.append(w)
        for w in workers:
            parent.merge(w.snapshot())
        snap = parent.snapshot()
        assert snap["counters"]["n"] == 6
        assert snap["histograms"]["h"]["count"] == 2 + 3 + 4


class TestRunReport:
    def _traced_run(self):
        obs.enable()
        lay = layout_hypercube(3, layers=4)
        validate_layout(lay)
        measure(lay)
        return obs.collect_report(
            "unit", spec={"network": "hypercube:3"}, layers=4
        )

    def test_pipeline_phases_present(self):
        rep = self._traced_run()
        names = set()

        def walk(node):
            names.add(node["name"])
            for c in node["children"]:
                walk(c)

        for s in rep.spans:
            walk(s)
        assert {"build", "validate", "measure"} <= names

    def test_environment_stamp(self):
        from repro import __version__

        rep = self._traced_run()
        assert rep.environment["repro_version"] == __version__
        assert rep.environment["python"]
        assert rep.environment["platform"]

    def test_json_round_trip(self):
        rep = self._traced_run()
        clone = obs.RunReport.from_json(rep.to_json())
        assert clone.to_dict() == rep.to_dict()
        # And through a plain json pass (what CI's smoke job does).
        obs.validate_report(json.loads(rep.to_json()))

    def test_validate_report_rejects_bad_docs(self):
        rep = self._traced_run()
        good = rep.to_dict()
        for mutate, needle in [
            (lambda d: d.pop("name"), "name"),
            (lambda d: d.update(schema="bogus"), "schema"),
            (lambda d: d.pop("spans"), "spans"),
            (lambda d: d.pop("environment"), "environment"),
            (lambda d: d["spans"][0].pop("duration_ms"), "duration_ms"),
        ]:
            bad = json.loads(json.dumps(good))
            mutate(bad)
            with pytest.raises(ValueError, match=needle):
                obs.validate_report(bad)

    def test_counters_land_in_report(self):
        rep = self._traced_run()
        counters = rep.metrics["counters"]
        assert counters["builder.wires_routed"] > 0
        assert counters["validator.checks_run"] > 0
        assert counters["measure.layouts_measured"] == 1


class TestCliObservability:
    def test_stats_writes_valid_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.json"
        assert main(["stats", "--layers", "4", "--report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "pipeline phase timings" in text
        data = json.loads(out.read_text())
        obs.validate_report(data)
        assert data["name"] == "stats"
        assert data["layers"] == 4
        names = set()

        def walk(node):
            names.add(node["name"])
            for c in node["children"]:
                walk(c)

        for s in data["spans"]:
            walk(s)
        assert {"network", "build", "validate", "measure"} <= names
        # main() turns collection back off.
        assert not obs.enabled()

    def test_trace_flag_prints_span_tree(self, capsys):
        from repro.cli import main

        assert main(["predict", "hypercube:6", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "== span tree ==" in out

    def test_layout_report(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "layout.json"
        rc = main(
            ["layout", "hypercube:4", "-L", "4", "--validate",
             "--report", str(out)]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        obs.validate_report(data)
        assert data["spec"]["network"] == "hypercube:4"
        assert data["metrics"]["counters"]["builder.wires_routed"] == 32
