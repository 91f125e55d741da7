"""Perf-regression tracker: trajectory records and bench-diff."""

import hashlib
import json
import shutil
import subprocess

import pytest

from repro.bench.trajectory import (
    TRAJECTORY_SCHEMA,
    append_record,
    bench_diff,
    gate_ratios,
    git_sha,
    git_stamp,
    load_records,
    load_timings,
    trajectory_record,
)
from repro.cli import main

SUMMARY = {
    "schema": "repro.bench-summary/v1",
    "environment": {"python": "3.12"},
    "total_seconds": 12.5,
    "benches": [
        {"bench": "bench_kary", "seconds": 4.0},
        {"bench": "bench_performance", "seconds": 8.5},
    ],
}

PERF_RECORD = {
    "schema": "repro.bench-result/v1",
    "bench": "bench_performance",
    "tests": [
        {"test": "test_cache", "seconds": 5.0},
        {"test": "test_dp", "seconds": 3.5},
    ],
    "tables": [
        {
            "title": "E7c: cold vs warm",
            "headers": ["pass", "seconds", "speedup"],
            "rows": [["cold", "1.0", "1.00x"], ["warm", "0.1", "9.6x"]],
        },
        {
            "title": "E7h: memory",
            "headers": ["layout", "bytes", "reduction"],
            "rows": [["8-cube", "1", "2.9x"], ["10-cube", "2", "2.2x"]],
        },
        {
            "title": "no ratio column here",
            "headers": ["a", "b"],
            "rows": [["x", "y"]],
        },
    ],
}


TRAFFIC_RECORD = {
    "schema": "repro.bench-result/v1",
    "bench": "bench_traffic",
    "tests": [{"test": "test_engine_vs_oracle_gate", "seconds": 20.0}],
    "tables": [
        {
            "title": "E9d: batched engine vs per-packet oracle",
            "headers": ["messages", "oracle s", "engine s", "speedup"],
            "rows": [["524288", "192.0", "8.0", "24.0x"]],
        },
    ],
}


def _slowed(summary, factor):
    doc = json.loads(json.dumps(summary))
    for b in doc["benches"]:
        b["seconds"] = round(b["seconds"] * factor, 4)
    return doc


class TestRecord:
    def test_trajectory_record_contents(self):
        rec = trajectory_record(
            SUMMARY, {"bench_performance": PERF_RECORD}, sha="abc123"
        )
        assert rec["schema"] == TRAJECTORY_SCHEMA
        assert rec["git_sha"] == "abc123"
        assert rec["benches"] == {
            "bench_kary": 4.0, "bench_performance": 8.5,
        }
        assert rec["tests"]["bench_performance::test_cache"] == 5.0
        assert rec["gates"] == {"E7c": 9.6, "E7h": 2.2}
        assert rec["total_seconds"] == 12.5

    def test_traffic_gates_merge_into_record(self):
        rec = trajectory_record(
            SUMMARY,
            {
                "bench_performance": PERF_RECORD,
                "bench_traffic": TRAFFIC_RECORD,
            },
            sha="abc123",
        )
        assert rec["gates"] == {"E7c": 9.6, "E7h": 2.2, "E9d": 24.0}
        assert rec["tests"]["bench_traffic::test_engine_vs_oracle_gate"] == 20.0

    def test_traffic_result_file_carries_gates(self, tmp_path):
        p = tmp_path / "bench_traffic.json"
        p.write_text(json.dumps(TRAFFIC_RECORD))
        _, timings, gates = load_timings(p)
        assert timings == {"bench_traffic::test_engine_vs_oracle_gate": 20.0}
        assert gates == {"E9d": 24.0}

    def test_gate_ratios_skip_baseline_rows(self):
        gates = gate_ratios(PERF_RECORD)
        assert gates["E7c"] == 9.6  # not the 1.00x baseline row

    def test_git_sha_in_this_repo(self):
        sha = git_sha()
        assert sha is None or len(sha) == 40

    def test_append_and_load(self, tmp_path):
        path = tmp_path / "trajectory.jsonl"
        for sha in ("a" * 40, "b" * 40):
            append_record(
                path, trajectory_record(SUMMARY, None, sha=sha)
            )
        records = load_records(path)
        assert [r["git_sha"] for r in records] == ["a" * 40, "b" * 40]
        label, timings, gates = load_timings(path)
        assert label.endswith("bbbbbbbbbbbb")  # newest record wins
        assert timings["bench_kary"] == 4.0
        assert gates == {}


def _git(repo, *args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         *args],
        cwd=repo, check=True, capture_output=True,
    ).stdout


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestStamp:
    """Records name the tree they measured: HEAD, dirty flag, diff digest."""

    @pytest.fixture
    def repo(self, tmp_path):
        _git(tmp_path, "init", "-q")
        (tmp_path / "a.txt").write_text("one\n")
        _git(tmp_path, "add", "a.txt")
        _git(tmp_path, "commit", "-q", "-m", "first")
        return tmp_path

    def test_clean_tree(self, repo):
        head = _git(repo, "rev-parse", "HEAD").decode().strip()
        assert git_stamp(repo) == {"git_sha": head, "dirty": False}
        rec = trajectory_record(SUMMARY, None, repo_root=repo)
        assert rec["git_sha"] == head and rec["dirty"] is False
        assert "diff_sha256" not in rec

    def test_dirty_tree(self, repo, tmp_path_factory):
        head = _git(repo, "rev-parse", "HEAD").decode().strip()
        (repo / "a.txt").write_text("two\n")
        diff = _git(repo, "diff", "HEAD", "--binary", "--no-ext-diff")
        rec = trajectory_record(SUMMARY, None, repo_root=repo)
        assert rec["git_sha"] == head and rec["dirty"] is True
        assert rec["diff_sha256"] == hashlib.sha256(diff).hexdigest()
        # A different edit gives a different digest.
        (repo / "a.txt").write_text("three\n")
        assert git_stamp(repo)["diff_sha256"] != rec["diff_sha256"]
        # The label says the tree was dirty.
        out = tmp_path_factory.mktemp("traj") / "trajectory.jsonl"
        append_record(out, rec)
        label, _, _ = load_timings(out)
        assert label == f"trajectory.jsonl@{head[:12]}+dirty"

    def test_no_git(self, tmp_path, monkeypatch):
        # Stop git's search at tmp_path, whatever encloses it.
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert git_stamp(tmp_path) == {"git_sha": None, "dirty": False}
        rec = trajectory_record(SUMMARY, None, repo_root=tmp_path)
        assert rec["git_sha"] is None and rec["dirty"] is False
        p = tmp_path / "rec.json"
        p.write_text(json.dumps(rec))
        assert load_timings(p)[0] == "rec.json@unknown"

    def test_explicit_sha_is_clean(self):
        rec = trajectory_record(SUMMARY, None, sha="abc123")
        assert rec["git_sha"] == "abc123" and rec["dirty"] is False


class TestPartial:
    """A record says whether its session ran every bench module."""

    @pytest.fixture
    def checkout(self, tmp_path):
        (tmp_path / "benchmarks").mkdir()
        for name in ("bench_kary", "bench_performance", "bench_ccc"):
            (tmp_path / "benchmarks" / f"{name}.py").write_text("")
        (tmp_path / "benchmarks" / "conftest.py").write_text("")
        return tmp_path

    def _label(self, tmp_path, rec):
        out = tmp_path / "out" / "trajectory.jsonl"
        append_record(out, rec)
        return load_timings(out)[0]

    def test_full_session(self, checkout):
        summary = json.loads(json.dumps(SUMMARY))
        summary["benches"].append({"bench": "bench_ccc", "seconds": 1.0})
        rec = trajectory_record(summary, None, sha="abc123", repo_root=checkout)
        assert rec["partial"] is False and "missing" not in rec
        assert self._label(checkout, rec) == "trajectory.jsonl@abc123"

    def test_partial_session(self, checkout):
        rec = trajectory_record(SUMMARY, None, sha="abc123", repo_root=checkout)
        assert rec["partial"] is True
        assert rec["missing"] == ["bench_ccc"]
        assert self._label(checkout, rec) == "trajectory.jsonl@abc123+partial"

    def test_older_record_without_the_field(self, tmp_path):
        rec = trajectory_record(SUMMARY, None, sha="abc123", repo_root=tmp_path)
        for field in ("partial", "missing"):
            rec.pop(field, None)
        assert self._label(tmp_path, rec) == "trajectory.jsonl@abc123"


class TestLoadTimings:
    def test_summary_json(self, tmp_path):
        p = tmp_path / "BENCH_summary.json"
        p.write_text(json.dumps(SUMMARY))
        _, timings, gates = load_timings(p)
        assert timings == {"bench_kary": 4.0, "bench_performance": 8.5}
        assert gates == {}

    def test_bench_result_json(self, tmp_path):
        p = tmp_path / "bench_performance.json"
        p.write_text(json.dumps(PERF_RECORD))
        _, timings, gates = load_timings(p)
        assert timings == {
            "bench_performance::test_cache": 5.0,
            "bench_performance::test_dp": 3.5,
        }
        assert gates == {"E7c": 9.6, "E7h": 2.2}

    def test_unrecognized_document(self, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="unrecognized"):
            load_timings(p)

    def test_empty_trajectory(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_timings(p)


class TestBenchDiff:
    def _write(self, tmp_path, name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return p

    def test_identical_runs_are_clean(self, tmp_path):
        old = self._write(tmp_path, "old.json", SUMMARY)
        new = self._write(tmp_path, "new.json", SUMMARY)
        diff = bench_diff(old, new)
        assert diff["regressions"] == []
        assert all(r[4] == "ok" for r in diff["rows"])

    def test_synthetic_slowdown_regresses(self, tmp_path):
        """The acceptance case: a 1.3x-slowed bench JSON must trip the
        default 15% threshold."""
        old = self._write(tmp_path, "old.json", SUMMARY)
        new = self._write(tmp_path, "new.json", _slowed(SUMMARY, 1.3))
        diff = bench_diff(old, new)
        assert set(diff["regressions"]) == {
            "bench_kary", "bench_performance",
        }
        worst = diff["rows"][0]
        assert worst[4] == "REGRESSION"
        assert worst[3] == pytest.approx(0.3, abs=0.01)

    def test_speedup_never_regresses(self, tmp_path):
        old = self._write(tmp_path, "old.json", SUMMARY)
        new = self._write(tmp_path, "new.json", _slowed(SUMMARY, 0.5))
        diff = bench_diff(old, new)
        assert diff["regressions"] == []
        assert all(r[4] == "improved" for r in diff["rows"])

    def test_threshold_is_respected(self, tmp_path):
        old = self._write(tmp_path, "old.json", SUMMARY)
        new = self._write(tmp_path, "new.json", _slowed(SUMMARY, 1.3))
        assert bench_diff(old, new, threshold=0.5)["regressions"] == []

    def test_gate_ratio_drop_regresses(self, tmp_path):
        old = self._write(tmp_path, "old.json", PERF_RECORD)
        worse = json.loads(json.dumps(PERF_RECORD))
        worse["tables"][0]["rows"][1][2] = "4.0x"  # E7c 9.6x -> 4.0x
        new = self._write(tmp_path, "new.json", worse)
        diff = bench_diff(old, new)
        assert diff["gate_regressions"] == ["E7c"]

    def test_disjoint_benches_reported_not_gated(self, tmp_path):
        other = json.loads(json.dumps(SUMMARY))
        other["benches"][0]["bench"] = "bench_new"
        old = self._write(tmp_path, "old.json", SUMMARY)
        new = self._write(tmp_path, "new.json", other)
        diff = bench_diff(old, new)
        assert diff["only_old"] == ["bench_kary"]
        assert diff["only_new"] == ["bench_new"]
        assert diff["regressions"] == []


class TestCli:
    def _write(self, tmp_path, name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_clean_diff_exits_zero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", SUMMARY)
        new = self._write(tmp_path, "new.json", SUMMARY)
        assert main(["bench-diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "bench-diff: OK" in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", SUMMARY)
        new = self._write(
            tmp_path, "new.json", _slowed(SUMMARY, 1.3)
        )
        assert main(["bench-diff", old, new]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "regression(s) past 15%" in out

    def test_threshold_flag(self, tmp_path, capsys):
        old = self._write(tmp_path, "old.json", SUMMARY)
        new = self._write(
            tmp_path, "new.json", _slowed(SUMMARY, 1.3)
        )
        assert main(
            ["bench-diff", old, new, "--threshold", "0.5"]
        ) == 0
        capsys.readouterr()

    def test_one_sided_benches_exit_clean(self, tmp_path, capsys):
        """Added/removed benches are reported but never gate: a
        renamed bench must not fail CI as a phantom regression."""
        other = json.loads(json.dumps(SUMMARY))
        other["benches"][0]["bench"] = "bench_renamed"
        old = self._write(tmp_path, "old.json", SUMMARY)
        new = self._write(tmp_path, "new.json", other)
        assert main(["bench-diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "removed bench(es): bench_kary" in out
        assert "new bench(es): bench_renamed" in out
        assert "bench-diff: OK" in out

    def test_fully_disjoint_sides_exit_clean(self, tmp_path, capsys):
        other = json.loads(json.dumps(SUMMARY))
        for b in other["benches"]:
            b["bench"] = "fresh_" + b["bench"]
        old = self._write(tmp_path, "old.json", SUMMARY)
        new = self._write(tmp_path, "new.json", other)
        assert main(["bench-diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "no bench timings in common" in out
        assert "bench-diff: OK" in out

    def test_gate_ratio_drop_exits_nonzero(self, tmp_path, capsys):
        worse = json.loads(json.dumps(PERF_RECORD))
        worse["tables"][0]["rows"][1][2] = "4.0x"  # E7c 9.6x -> 4.0x
        old = self._write(tmp_path, "old.json", PERF_RECORD)
        new = self._write(tmp_path, "new.json", worse)
        assert main(["bench-diff", old, new]) == 1
        out = capsys.readouterr().out
        assert "performance-gate ratios" in out
        assert "E7c" in out
        assert "regression(s) past 15%" in out

    def test_against_committed_baseline(self, tmp_path, capsys):
        """The repo's own trajectory baseline must diff cleanly
        against itself -- the shape CI runs."""
        import pathlib

        baseline = (
            pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "trajectory.jsonl"
        )
        if not baseline.exists():
            pytest.skip("no committed baseline")
        assert main(
            ["bench-diff", str(baseline), str(baseline)]
        ) == 0
        capsys.readouterr()