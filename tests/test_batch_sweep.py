"""Sweep engine: expansion, determinism, worker fan-out, CLI, fuzz."""

import functools
import json
import os

import pytest

from repro import obs
from repro.batch import (
    LayoutCache,
    SweepRunner,
    SweepSpec,
    TrafficSpec,
    dispatch_scheme,
    standard_family_sweep,
)
from repro.batch.runner import run_sweep_job
from repro.batch.spec import FAMILIES, SweepJob, parse_network
from repro.cli import main
from repro.core import layout_network
from repro.grid.io import layout_to_json
from repro.topology.base import Network

SPEC = SweepSpec(
    networks=["ring:8", "hypercube:3", "star:3", "complete:5"],
    layers=[2, 4],
    name="test",
)


class TestSpec:
    def test_expand_is_deterministic_and_ordered(self):
        jobs = SPEC.expand()
        assert [j.index for j in jobs] == list(range(8))
        assert jobs == SPEC.expand()
        assert [j.job_id for j in jobs[:3]] == [
            "ring:8@L2/auto", "ring:8@L4/auto", "hypercube:3@L2/auto",
        ]

    def test_roundtrip_through_dict(self):
        assert SweepSpec.from_dict(SPEC.to_dict()) == SPEC

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            SweepSpec(networks=["ring:4"], scheme="nope")

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"networks": [], "extra": 1})

    def test_standard_sweep_is_nontrivial(self):
        jobs = standard_family_sweep().expand()
        assert len(jobs) >= 8  # the multi-worker benchmark's floor
        for job in jobs:
            job.build_network()  # every spec parses

    def test_parse_network_errors(self):
        with pytest.raises(SystemExit, match="unknown network family"):
            parse_network("klein-bottle:4")
        with pytest.raises(SystemExit, match="bad arguments"):
            parse_network("hypercube:2,2,2")

    def test_dispatch_scheme_unknown(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            dispatch_scheme(parse_network("ring:4"), layers=2, scheme="x")


#: One small member of every family in ``FAMILIES``.
SMALL_FAMILIES = (
    "ring:5", "mesh:3,2", "kary:3,2", "hypercube:3", "folded-hypercube:3",
    "enhanced-cube:3", "complete:5", "ghc:3,3", "butterfly:2", "isn:2",
    "ccc:3", "reduced-hypercube:4", "hsn:3,2", "hhn:2,2",
    "kary-cluster:3,2,2", "star:4", "wrapped-butterfly:3",
    "shuffle-exchange:4", "de-bruijn:4", "scc:4",
)


class TestOneDispatch:
    """Every front door builds a key's layout the same way."""

    def test_every_family_is_covered(self):
        assert {s.split(":")[0] for s in SMALL_FAMILIES} == set(FAMILIES)

    @pytest.mark.parametrize("spec", SMALL_FAMILIES)
    def test_auto_scheme_is_layout_network(self, spec):
        net = parse_network(spec)
        assert layout_to_json(layout_network(net, layers=4)) == (
            layout_to_json(dispatch_scheme(net, layers=4, scheme="auto"))
        )

    @pytest.mark.parametrize("spec", SMALL_FAMILIES)
    def test_one_network_per_job(self, spec, tmp_path, monkeypatch):
        """A cached job keys, builds and lays out one network instance:
        its family's edge list is evaluated exactly once."""
        evaluated = []
        real_edges = Network.edges.func

        def edges(self):
            evaluated.append(type(self))
            return real_edges(self)

        counted = functools.cached_property(edges)
        counted.__set_name__(Network, "edges")
        monkeypatch.setattr(Network, "edges", counted)
        family = type(parse_network(spec))
        res = run_sweep_job(SweepJob(0, spec, 4), LayoutCache(tmp_path))
        assert res.source == "built"
        assert evaluated.count(family) == 1

    def test_cli_layout_takes_the_auto_scheme(self, capsys):
        assert main(["layout", "shuffle-exchange:5", "-L", "4"]) == 0
        header, rule, row = capsys.readouterr().out.strip().splitlines()[-3:]
        assert dict(zip(header.split(), row.split()))["area"] == "840"


class TestTrafficSpec:
    def test_roundtrip_through_dict(self):
        spec = TrafficSpec(
            network="hypercube:4", workload="hotspot", rate=0.3,
            duration=16, seed=7, layers=4, mode="cut_through",
            message_length=4,
            params={"hot_fraction": 0.8},
        )
        assert TrafficSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic spec keys"):
            TrafficSpec.from_dict({"network": "ring:4", "warmup": 10})

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            TrafficSpec(network="ring:4", workload="teleport")
        with pytest.raises(ValueError, match="mode"):
            TrafficSpec(network="ring:4", mode="wormhole")
        with pytest.raises(ValueError, match="network"):
            TrafficSpec.from_dict({"workload": "uniform"})

    def test_run_saturation_sweep(self):
        spec = TrafficSpec(
            network="ring:8", rates=[0.05, 0.5, 1.0], duration=16,
        )
        out = spec.run()
        assert [r["rate"] for r in out["rows"]] == [0.05, 0.5, 1.0]
        assert out["knee"] is None or out["knee"] in (0.05, 0.5, 1.0)


class TestRunner:
    def test_serial_vs_parallel_identical_merge(self, tmp_path):
        serial = SweepRunner(workers=1).run(SPEC)
        for w in (2, 4):
            par = SweepRunner(workers=w).run(SPEC)
            assert par.rows() == serial.rows()
            assert par.workers == w

    def test_second_run_hits_everything(self, tmp_path):
        cdir = tmp_path / "cache"
        cold = SweepRunner(cache_dir=cdir).run(SPEC)
        warm = SweepRunner(cache_dir=cdir).run(SPEC)
        assert cold.rows() == warm.rows()
        assert all(r.source == "built" for r in cold.results)
        assert all(r.source == "cache" for r in warm.results)
        assert warm.cache_stats.hits == len(SPEC.expand())
        assert warm.cache_stats.misses == warm.cache_stats.writes == 0

    def test_parallel_cold_then_parallel_warm(self, tmp_path):
        cdir = tmp_path / "cache"
        cold = SweepRunner(cache_dir=cdir, workers=3).run(SPEC)
        warm = SweepRunner(cache_dir=cdir, workers=3).run(SPEC)
        assert cold.rows() == warm.rows()
        assert warm.cache_stats.hits == len(SPEC.expand())
        assert all(r.source == "cache" for r in warm.results)

    def test_cache_shared_across_worker_counts(self, tmp_path):
        cdir = tmp_path / "cache"
        SweepRunner(cache_dir=cdir, workers=2).run(SPEC)
        warm = SweepRunner(cache_dir=cdir, workers=1).run(SPEC)
        assert all(r.source == "cache" for r in warm.results)

    def test_result_as_dict_is_json_ready(self):
        res = SweepRunner().run(SweepSpec(networks=["ring:6"], layers=[2]))
        doc = json.loads(json.dumps(res.as_dict()))
        assert doc["jobs"] == 1
        assert doc["results"][0]["metrics"]["N"] == 6

    def test_run_dir_keeps_telemetry_artifacts(self, tmp_path):
        from repro.obs import live

        rd = tmp_path / "run"
        res = SweepRunner(workers=2, run_dir=rd).run(SPEC)
        assert res.run_dir == str(rd)
        man = live.read_run_manifest(rd)
        assert man["kind"] == "sweep"
        assert man["state"] == "done"
        assert man["jobs_total"] == 8 and man["jobs_done"] == 8
        beats = live.read_heartbeats(rd)
        assert sorted(beats) == [0, 1]
        assert all(d["state"] == "done" for d in beats.values())
        assert sum(d["jobs_done"] for d in beats.values()) == 8
        # Workers' result handoff files stay for post-mortems...
        assert sorted(
            p.name for p in rd.glob("result-*.json")
        ) == ["result-0.json", "result-1.json"]
        # ...and the run got a default structured log.
        assert (rd / "log.jsonl").exists()
        health = res.worker_health
        assert sorted(health) == [0, 1]
        assert all(r["verdict"] == "done" for r in health.values())
        assert all(r["exitcode"] == 0 for r in health.values())
        doc = json.loads(json.dumps(res.as_dict()))
        assert doc["run_dir"] == str(rd)
        assert set(doc["worker_health"]) == {"0", "1"}

    def test_serial_run_dir_heartbeat(self, tmp_path):
        from repro.obs import live

        rd = tmp_path / "run"
        res = SweepRunner(workers=1, run_dir=rd).run(SPEC)
        assert res.jobs == 8
        beats = live.read_heartbeats(rd)
        assert list(beats) == [0]
        assert beats[0]["state"] == "done"
        assert beats[0]["jobs_done"] == 8
        assert live.read_run_manifest(rd)["state"] == "done"

    def test_parallel_without_run_dir_leaves_nothing(self, tmp_path):
        import glob
        import tempfile

        before = set(glob.glob(
            os.path.join(tempfile.gettempdir(), "repro-sweep-*")
        ))
        res = SweepRunner(workers=2).run(SPEC)
        assert res.jobs == 8
        assert res.run_dir is None
        after = set(glob.glob(
            os.path.join(tempfile.gettempdir(), "repro-sweep-*")
        ))
        assert after == before  # scratch dir cleaned up

    @pytest.mark.parametrize("workers", [1, 2])
    def test_job_error_reraises(self, workers, monkeypatch):
        from repro.batch import runner

        def flaky(net, *, layers, scheme):
            if net.name.startswith("star") and layers == 4:
                raise ValueError("boom")
            return dispatch_scheme(net, layers=layers, scheme=scheme)

        monkeypatch.setattr(runner, "dispatch_scheme", flaky)
        # star:3@L4 is job 5: worker 1's third job.
        match = "boom" if workers == 1 else "sweep worker 1 failed: .*boom"
        with pytest.raises((ValueError, RuntimeError), match=match):
            SweepRunner(workers=workers).run(SPEC)

    def test_metrics_out_written_live(self, tmp_path):
        out = tmp_path / "metrics.prom"
        SweepRunner(workers=2, metrics_out=out).run(SPEC)
        text = out.read_text()
        assert "repro_sweep_jobs_total 8" in text
        assert "repro_sweep_runs_total 1" in text


class TestCrossProcessTrace:
    """Worker span forests must come home and merge deterministically."""

    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    @staticmethod
    def _span_names(roots):
        names = set()
        stack = list(roots)
        while stack:
            rec = stack.pop()
            names.add(rec.name)
            stack.extend(rec.children)
        return names

    def _observed_run(self, workers):
        obs.reset()
        obs.enable()
        SweepRunner(workers=workers).run(SPEC)
        return obs.trace_roots(), obs.phase_totals(), (
            obs.registry().snapshot()
        )

    def test_parallel_trace_matches_serial(self):
        """The satellite gate: workers=1 vs workers=4 agree on every
        phase's call count and on the span-name set (timings aside);
        the only parallel-side extras are the per-worker wrapper and
        its setup span."""
        roots1, totals1, snap1 = self._observed_run(1)
        roots4, totals4, snap4 = self._observed_run(4)

        per_worker = {"sweep.worker", "sweep.worker.setup"}
        names1 = self._span_names(roots1)
        names4 = self._span_names(roots4)
        assert names4 - per_worker == names1
        assert per_worker <= names4

        calls1 = {n: t["calls"] for n, t in totals1.items()}
        calls4 = {
            n: t["calls"] for n, t in totals4.items()
            if n not in per_worker
        }
        assert calls4 == calls1
        # Counter folds already guaranteed this; spans now match too.
        assert snap4["counters"] == snap1["counters"]

    def test_worker_spans_are_rerooted_under_sweep_run(self):
        roots, _, _ = self._observed_run(4)
        assert [r.name for r in roots] == ["sweep.run"]
        workers = [
            c for c in roots[0].children if c.name == "sweep.worker"
        ]
        assert workers, "no worker spans re-rooted"
        # Worker order (and hence attrs) is deterministic.
        assert [w.attrs["worker_id"] for w in workers] == list(
            range(len(workers))
        )
        for w in workers:
            assert w.children, "worker span lost its forest"
            # The fixed per-worker cost comes first, then the jobs.
            names = [c.name for c in w.children]
            assert names[0] == "sweep.worker.setup"
            assert set(names[1:]) == {"sweep.job"}
            setup = w.children[0]
            assert setup.duration > 0
            assert setup.end() <= w.children[1].start
            total_jobs = sum(
                1 for w in workers for c in w.children
                if c.name == "sweep.job"
            )
        assert total_jobs == len(SPEC.expand())

    def test_serial_run_has_no_worker_wrappers(self):
        roots, totals, _ = self._observed_run(1)
        assert "sweep.worker" not in self._span_names(roots)
        assert totals["sweep.job"]["calls"] == len(SPEC.expand())


class TestCLI:
    def test_sweep_command_smoke(self, tmp_path, capsys):
        cdir = tmp_path / "cache"
        out_json = tmp_path / "sweep.json"
        argv = [
            "sweep", "--networks", "ring:8", "hypercube:3",
            "--layers", "2", "--cache-dir", str(cdir),
            "--json", str(out_json),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "built" in first and "2 miss(es)" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache" in second and "2 hit(s)" in second
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == "repro.sweep-result/v1"
        assert doc["cache"]["hits"] == 2

    def test_sweep_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {"name": "fromfile", "networks": ["ring:6"], "layers": [2]}
        ))
        assert main(["sweep", "--spec-file", str(spec_file)]) == 0
        assert "fromfile" in capsys.readouterr().out

    def test_sweep_report_validates(self, tmp_path, capsys):
        """Regression: sweep's list-valued --layers must not leak into
        the run report's integer `layers` field."""
        from repro.obs import validate_report

        rpt = tmp_path / "run.json"
        assert main([
            "sweep", "--networks", "ring:6", "--layers", "2", "4",
            "--report", str(rpt),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(rpt.read_text())
        validate_report(doc)
        assert doc["layers"] is None
        assert doc["metrics"]["counters"]["sweep.jobs"] == 2

    def test_sweep_run_dir_and_metrics_flags(self, tmp_path, capsys):
        rd = tmp_path / "run"
        prom = tmp_path / "metrics.prom"
        assert main([
            "sweep", "--networks", "ring:6", "hypercube:3",
            "--layers", "2", "--workers", "2",
            "--run-dir", str(rd), "--metrics-out", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "WARNING" not in out  # no workers lost
        assert (rd / "manifest.json").exists()
        assert (rd / "log.jsonl").exists()
        assert "repro_sweep_jobs_total 2" in prom.read_text()

    def test_stats_cache_dir_surfaces_cache_counters(
        self, tmp_path, capsys
    ):
        cdir = tmp_path / "cache"
        assert main(["stats", "--cache-dir", str(cdir)]) == 0
        cold = capsys.readouterr().out
        assert "pipeline counters" in cold
        assert "cache.misses" in cold
        assert "cache.writes" in cold
        assert main(["stats", "--cache-dir", str(cdir)]) == 0
        warm = capsys.readouterr().out
        assert "cache.hits" in warm

    def test_stats_without_cache_has_no_cache_counters(
        self, capsys
    ):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "cache.hits" not in out

    def test_fuzz_run_dir_flag(self, tmp_path, capsys):
        from repro.obs import live

        rd = tmp_path / "fuzz-run"
        assert main([
            "fuzz", "--budget", "6", "--seed", "5", "--workers", "2",
            "--run-dir", str(rd),
        ]) == 0
        assert "fuzz: OK" in capsys.readouterr().out
        assert live.read_run_manifest(rd)["kind"] == "fuzz"
        assert sorted(live.read_heartbeats(rd)) == [0, 1]

    def test_fuzz_workers_flag(self, tmp_path, capsys):
        assert main([
            "fuzz", "--budget", "6", "--seed", "5", "--workers", "2",
            "--cache-dir", str(tmp_path / "c"),
        ]) == 0
        assert "fuzz: OK" in capsys.readouterr().out


class TestFuzzParallel:
    def test_worker_count_does_not_change_report(self):
        from repro.check import run_fuzz

        serial = run_fuzz(seed=11, budget=9, workers=1)
        par = run_fuzz(seed=11, budget=9, workers=3)
        assert par.cases_run == serial.cases_run
        assert par.kind_counts == serial.kind_counts
        assert par.stage_counts == serial.stage_counts
        assert (
            [(f.case.case_id, [str(v) for v in f.violations])
             for f in par.failures]
            == [(f.case.case_id, [str(v) for v in f.violations])
                for f in serial.failures]
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_counts_are_pinned(self, workers):
        from repro.check import run_fuzz

        rep = run_fuzz(seed=0, budget=30, workers=workers)
        assert rep.ok and rep.cases_run == 30
        assert rep.kind_counts == {"random": 10, "zoo": 10, "mutant": 10}
        # A skipped stage (cutwidth past its node limit, folding on a
        # non-uniform pitch, threedee off the k^3 tori) is not counted.
        assert rep.stage_counts == {
            "collinear": 30, "cutwidth": 25, "orthogonal": 30,
            "agreement": 30, "folding": 8,
            "traffic": 30,
        }

    def test_parallel_without_run_dir_leaves_nothing(self):
        import glob
        import tempfile

        from repro.check import run_fuzz

        pattern = os.path.join(tempfile.gettempdir(), "repro-sweep-*")
        before = set(glob.glob(pattern))
        rep = run_fuzz(seed=4, budget=4, workers=2)
        assert rep.cases_run == 4
        assert sorted(rep.worker_health) == [0, 1]
        assert set(glob.glob(pattern)) == before

    def test_workers_share_cache_readonly(self, tmp_path):
        from repro.check import run_fuzz

        cdir = tmp_path / "cache"
        # Serial run populates; parallel workers may only read.
        seeded = run_fuzz(seed=2, budget=6, workers=1, cache_dir=cdir)
        entries = sorted(p.name for p in cdir.rglob("*.json"))
        assert entries  # the serial run wrote layouts
        for path in cdir.rglob("*.json"):  # each one measured
            assert isinstance(json.loads(path.read_text())["metrics"], dict)
        par = run_fuzz(seed=2, budget=6, workers=2, cache_dir=cdir)
        assert sorted(p.name for p in cdir.rglob("*.json")) == entries
        assert par.cases_run == seeded.cases_run
        assert par.violations == seeded.violations

    def test_workers_never_write_a_cold_cache(self, tmp_path):
        from repro.check import run_fuzz

        cdir = tmp_path / "cache"
        run_fuzz(seed=2, budget=6, workers=2, cache_dir=cdir)
        assert not list(cdir.rglob("*.json"))
