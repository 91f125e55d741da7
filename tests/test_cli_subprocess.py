"""End-to-end CLI tests through a real subprocess.

The in-process CLI tests (test_io.TestCli) exercise command logic;
these run ``python -m repro ...`` the way a user does, checking exit
codes, stdout stability and the machine-readable run reports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.report import validate_report

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def run_cli(*args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestExitCodes:
    def test_layout_ok(self):
        p = run_cli("layout", "hypercube:3", "--validate")
        assert p.returncode == 0, p.stderr
        assert "validation: OK" in p.stdout

    def test_unknown_family_fails(self):
        p = run_cli("layout", "nonsense:3")
        assert p.returncode != 0
        assert "unknown network family" in p.stderr

    def test_missing_command_fails(self):
        p = run_cli()
        assert p.returncode != 0

    def test_predict_ok(self):
        p = run_cli("predict", "hypercube:6", "--layers", "4")
        assert p.returncode == 0, p.stderr
        assert "paper leading terms" in p.stdout


class TestStdoutStability:
    def test_layout_output_is_deterministic(self):
        a = run_cli("layout", "kary:3,2", "--layers", "4")
        b = run_cli("layout", "kary:3,2", "--layers", "4")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_fuzz_output_is_deterministic(self):
        a = run_cli("fuzz", "--budget", "12", "--seed", "5")
        b = run_cli("fuzz", "--budget", "12", "--seed", "5")
        assert a.returncode == b.returncode == 0
        # The elapsed column varies; compare everything else.
        stable_a = [l for l in a.stdout.splitlines() if "elapsed" not in l]
        stable_b = [l for l in b.stdout.splitlines() if "elapsed" not in l]
        assert stable_a[0] == stable_b[0]
        assert stable_a[-1] == stable_b[-1] == (
            "fuzz: OK (no invariant violations)"
        )


class TestFuzzCommand:
    def test_clean_run_exits_zero(self):
        p = run_cli("fuzz", "--budget", "9", "--seed", "2")
        assert p.returncode == 0, p.stderr
        assert "cases" in p.stdout
        assert "fuzz: OK" in p.stdout

    def test_stage_and_kind_filters(self):
        p = run_cli(
            "fuzz", "--budget", "6", "--seed", "0",
            "--stages", "collinear", "cutwidth", "--kinds", "random",
        )
        assert p.returncode == 0, p.stderr
        assert "agreement" not in p.stdout

    def test_bad_stage_rejected(self):
        p = run_cli("fuzz", "--budget", "1", "--stages", "bogus")
        assert p.returncode != 0

    def test_report_is_valid(self, tmp_path):
        report = tmp_path / "fuzz.json"
        p = run_cli(
            "fuzz", "--budget", "9", "--seed", "1",
            "--report", str(report),
        )
        assert p.returncode == 0, p.stderr
        doc = json.loads(report.read_text())
        validate_report(doc)
        assert doc["name"] == "fuzz"
        assert doc["spec"]["budget"] == 9
        assert doc["spec"]["seed"] == 1
        counters = doc["metrics"]["counters"]
        assert counters["fuzz.cases_run"] == 9
        assert counters["fuzz.stage.collinear"] == 9

    def test_trace_prints_span_tree(self):
        p = run_cli("fuzz", "--budget", "3", "--seed", "0", "--trace")
        assert p.returncode == 0, p.stderr
        assert "== span tree ==" in p.stdout
        assert "fuzz.case" in p.stdout


class TestProfileFlag:
    def test_profile_dumps_pstats(self, tmp_path):
        import pstats

        prof = tmp_path / "run.prof"
        p = run_cli("layout", "hypercube:3", "--profile", str(prof))
        assert p.returncode == 0, p.stderr
        assert f"profile written to {prof}" in p.stdout
        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0

    def test_profile_excluded_from_report_spec(self, tmp_path):
        prof = tmp_path / "run.prof"
        report = tmp_path / "run.json"
        p = run_cli(
            "layout", "hypercube:3",
            "--profile", str(prof), "--report", str(report),
        )
        assert p.returncode == 0, p.stderr
        doc = json.loads(report.read_text())
        validate_report(doc)
        assert "profile" not in doc["spec"]


class TestStatsMem:
    def test_mem_table_covers_the_zoo(self):
        p = run_cli("stats", "--mem", "--layers", "2")
        assert p.returncode == 0, p.stderr
        assert "layout representation memory" in p.stdout
        assert "TOTAL" in p.stdout
        assert "5-cube" in p.stdout
        # Every per-network reduction ratio holds the table's promise.
        ratios = [
            float(line.rsplit(None, 1)[-1][:-1])
            for line in p.stdout.splitlines()
            if line.endswith("x")
        ]
        assert ratios and all(r >= 1.0 for r in ratios)


class TestTraceOut:
    """--trace-out must emit loadable Chrome trace-event JSON."""

    @staticmethod
    def _check_chrome_schema(doc):
        from repro.obs.export import validate_chrome_trace

        validate_chrome_trace(doc)
        events = doc["traceEvents"]
        assert events, "empty trace"
        completes = [e for e in events if e["ph"] == "X"]
        assert completes, "no span events"
        for ev in completes:
            assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
            assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
        return completes

    def test_sweep_trace_out(self, tmp_path):
        trace = tmp_path / "sweep-trace.json"
        p = run_cli(
            "sweep", "--networks", "ring:8", "hypercube:3", "star:3",
            "complete:5", "--layers", "2", "--workers", "2",
            "--trace-out", str(trace),
        )
        assert p.returncode == 0, p.stderr
        assert f"chrome trace written to {trace}" in p.stdout
        completes = self._check_chrome_schema(
            json.loads(trace.read_text())
        )
        # One process row per worker, plus the orchestrating process.
        pids = {e["pid"] for e in completes}
        assert pids == {0, 1, 2}
        names = {e["name"] for e in completes}
        assert {"sweep.run", "sweep.worker", "sweep.job",
                "build"} <= names

    def test_fuzz_trace_out(self, tmp_path):
        trace = tmp_path / "fuzz-trace.json"
        p = run_cli(
            "fuzz", "--budget", "4", "--seed", "0",
            "--trace-out", str(trace),
        )
        assert p.returncode == 0, p.stderr
        completes = self._check_chrome_schema(
            json.loads(trace.read_text())
        )
        names = {e["name"] for e in completes}
        assert {"fuzz.run", "fuzz.case"} <= names

    def test_events_out_jsonl(self, tmp_path):
        events = tmp_path / "events.jsonl"
        p = run_cli(
            "sweep", "--networks", "ring:8", "--layers", "2",
            "--events-out", str(events),
        )
        assert p.returncode == 0, p.stderr
        lines = [
            json.loads(line)
            for line in events.read_text().splitlines()
        ]
        assert lines[0]["type"] == "header"
        types = {line["type"] for line in lines}
        assert {"span", "counter"} <= types


class TestReportsAcrossCommands:
    @pytest.mark.parametrize(
        "args",
        [
            ("layout", "hypercube:3"),
            ("zoo", "--layers", "4"),
            ("predict", "kary:4,2"),
        ],
        ids=["layout", "zoo", "predict"],
    )
    def test_report_validates(self, tmp_path, args):
        report = tmp_path / "run.json"
        p = run_cli(*args, "--report", str(report))
        assert p.returncode == 0, p.stderr
        doc = json.loads(report.read_text())
        validate_report(doc)
        assert doc["name"] == args[0]


class TestSaturationDegenerate:
    def test_single_rate_sweep_exits_zero_with_message(self):
        """`--saturation` with one rate cannot bracket a knee: the CLI
        must say so and report knee=none instead of tracebacking."""
        p = run_cli(
            "simulate", "ring:6", "--saturation", "0.2",
            "--duration", "8",
        )
        assert p.returncode == 0, p.stderr
        assert "knee detection needs >= 2 rates" in p.stdout
        assert "knee at none in range" in p.stdout
        assert "Traceback" not in p.stderr

    def test_two_rates_no_message(self):
        p = run_cli(
            "simulate", "ring:6", "--saturation", "0.05", "0.2",
            "--duration", "8",
        )
        assert p.returncode == 0, p.stderr
        assert "knee detection needs" not in p.stdout


class TestServeLoadgenCli:
    """The daemon + load generator as real processes, like CI runs them."""

    def test_serve_then_loadgen_reports_percentiles(self, tmp_path):
        import time

        from repro.obs.live import read_heartbeats

        ready = tmp_path / "ready.json"
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.jsonl"
        run_dir = tmp_path / "run"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--ready-file", str(ready),
                "--run-dir", str(run_dir),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.time() + 30
            while not ready.exists() and time.time() < deadline:
                assert server.poll() is None, server.stderr.read()
                time.sleep(0.1)
            port = json.loads(ready.read_text())["port"]
            p = run_cli(
                "loadgen", "--port", str(port), "-n", "20", "-c", "2",
                "--networks", "ring:6", "hypercube:3",
                "--json", str(report_path),
                "--save-trace", str(trace_path),
            )
            assert p.returncode == 0, p.stderr
            report = json.loads(report_path.read_text())
            assert report["ok"] == 20 and report["five_xx"] == 0
            lat = report["latency_ms"]
            assert lat["p50"] is not None
            assert lat["p50"] <= lat["p90"] <= lat["p99"]
            # Replay of the saved trace is all warm now.
            p = run_cli(
                "loadgen", "--port", str(port),
                "--trace-file", str(trace_path),
            )
            assert p.returncode == 0, p.stderr
            assert "20/20 ok" in p.stdout
            worker_pids = [
                doc["pid"] for doc in read_heartbeats(run_dir).values()
            ]
            assert len(worker_pids) == 2
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait(timeout=10)
        # SIGTERM shuts down through the pool: no worker outlives it.
        for pid in worker_pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
