"""Live telemetry: heartbeats, watchdog verdicts, `repro watch`.

The acceptance tests at the bottom exercise the ISSUE's contract: a
live 4-worker sweep is visible through ``watch --once --json``; a
SIGSTOP'd worker is flagged *stalled* (and recovers); a SIGKILL'd
worker is flagged *dead* without corrupting the merged SweepResult.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro import obs
from repro.batch import SweepRunner, SweepSpec
from repro.batch.runner import FAULT_ENV, FanOutTask, fan_out
from repro.cli import main
from repro.obs import live
from repro.obs import logging as olog

SPEC = SweepSpec(
    networks=["ring:8", "hypercube:3", "star:3", "complete:5"],
    layers=[2, 4],
    name="live-test",
)

FAST = dict(heartbeat_s=0.05, watch_interval_s=0.05)


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv(FAULT_ENV, raising=False)
    olog.close()
    obs.disable()
    obs.reset()
    yield
    olog.close()
    obs.disable()
    obs.reset()


def _wait_for(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return None


def _log_events(run_dir) -> list[str]:
    try:
        with open(os.path.join(run_dir, live.LOG_NAME)) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    out = []
    for line in lines:
        try:
            out.append(json.loads(line)["event"])
        except (json.JSONDecodeError, KeyError):
            continue
    return out


class TestProbes:
    def test_rss_bytes_self(self):
        rss = live.rss_bytes()
        if rss is not None:  # /proc present (Linux)
            assert rss > 1 << 20  # a Python process exceeds 1 MiB

    def test_rss_bytes_missing_pid(self):
        assert live.rss_bytes(2**22 + 12345) is None

    def test_pid_alive(self):
        assert live.pid_alive(os.getpid())
        assert not live.pid_alive(-1)
        assert not live.pid_alive(0)

    def test_write_json_atomic_leaves_no_temp(self, tmp_path):
        path = tmp_path / "doc.json"
        live.write_json_atomic(path, {"a": 1, "odd": object()})
        assert json.loads(path.read_text())["a"] == 1
        assert list(tmp_path.iterdir()) == [path]


class TestManifest:
    def test_roundtrip_and_update(self, tmp_path):
        olog.configure(stream=__import__("io").StringIO(), run_id="r1")
        doc = live.write_run_manifest(tmp_path, kind="sweep", jobs_total=8)
        assert doc["schema"] == live.MANIFEST_SCHEMA
        assert doc["run_id"] == "r1"
        got = live.read_run_manifest(tmp_path)
        assert got["kind"] == "sweep" and got["jobs_total"] == 8
        live.update_run_manifest(tmp_path, state="done")
        got = live.read_run_manifest(tmp_path)
        assert got["state"] == "done" and got["jobs_total"] == 8

    def test_read_missing_is_none(self, tmp_path):
        assert live.read_run_manifest(tmp_path) is None
        assert live.read_run_manifest(tmp_path / "nope") is None


class TestHeartbeatWriter:
    def test_doc_shape(self, tmp_path):
        hb = live.HeartbeatWriter(tmp_path, 3, jobs_total=5)
        hb.beat(force=True)
        (doc,) = live.read_heartbeats(tmp_path).values()
        assert doc["schema"] == live.HEARTBEAT_SCHEMA
        assert doc["worker_id"] == 3
        assert doc["pid"] == os.getpid()
        assert doc["state"] == "running"
        assert doc["jobs_done"] == 0 and doc["jobs_total"] == 5
        assert isinstance(doc["mono"], float)

    def test_job_tick_forces_and_extra_persists(self, tmp_path):
        hb = live.HeartbeatWriter(tmp_path, 0, interval_s=3600)
        hb.job_tick("ring:8@L2", cache={"hits": 1, "misses": 2})
        hb.job_tick("ring:8@L4")
        doc = live.read_heartbeats(tmp_path)[0]
        assert doc["jobs_done"] == 2
        assert doc["current_job"] == "ring:8@L4"
        assert doc["extra"]["cache"] == {"hits": 1, "misses": 2}

    def test_plain_beat_rate_limited(self, tmp_path):
        hb = live.HeartbeatWriter(tmp_path, 0, interval_s=3600)
        hb.beat(force=True)
        first = live.read_heartbeats(tmp_path)[0]["mono"]
        hb.beat()  # inside the interval: dropped
        assert live.read_heartbeats(tmp_path)[0]["mono"] == first

    def test_pulse_advances_stamp(self, tmp_path):
        hb = live.HeartbeatWriter(tmp_path, 0, interval_s=0.02)
        hb.beat(force=True)
        first = live.read_heartbeats(tmp_path)[0]["mono"]
        hb.start_pulse()
        try:
            assert _wait_for(
                lambda: live.read_heartbeats(tmp_path)[0]["mono"] > first,
                timeout=5.0,
            )
        finally:
            hb.finish()
        assert live.read_heartbeats(tmp_path)[0]["state"] == "done"

    def test_finish_failed(self, tmp_path):
        hb = live.HeartbeatWriter(tmp_path, 1)
        hb.finish("failed")
        doc = live.read_heartbeats(tmp_path)[1]
        assert doc["state"] == "failed"
        assert doc["current_job"] is None

    def test_beat_survives_unwritable_dir(self, tmp_path):
        hb = live.HeartbeatWriter(tmp_path / "gone", 0)
        hb.beat(force=True)  # must not raise


class TestClassify:
    def _doc(self, **over):
        doc = {
            "pid": os.getpid(),
            "state": "running",
            "mono": time.monotonic(),
            "time_unix": time.time(),
        }
        doc.update(over)
        return doc

    def test_fresh_is_ok(self):
        verdict, age = live.classify_heartbeat(self._doc())
        assert verdict == "ok" and age < 1.0

    def test_terminal_states_win(self):
        assert live.classify_heartbeat(self._doc(state="done"))[0] == "done"
        assert (
            live.classify_heartbeat(self._doc(state="failed"))[0] == "failed"
        )
        # ...even when the pid is long gone (the worker exited).
        assert (
            live.classify_heartbeat(self._doc(state="done", pid=-5))[0]
            == "done"
        )

    def test_dead_pid(self):
        assert live.classify_heartbeat(self._doc(pid=-5))[0] == "dead"

    def test_stalled_when_stale(self):
        doc = self._doc(mono=time.monotonic() - 100)
        verdict, age = live.classify_heartbeat(doc, stall_after_s=1.0)
        assert verdict == "stalled"
        assert age == pytest.approx(100, abs=5)

    def test_wall_clock_fallback(self):
        # Monotonic stamp from a "previous boot": negative delta, so
        # the wall clock decides.
        doc = self._doc(
            mono=time.monotonic() + 10_000,
            time_unix=time.time() - 50,
        )
        verdict, age = live.classify_heartbeat(doc, stall_after_s=1.0)
        assert verdict == "stalled"
        assert age == pytest.approx(50, abs=5)

    def test_no_stamps_is_infinitely_old(self):
        verdict, age = live.classify_heartbeat(
            {"pid": os.getpid(), "state": "running"}
        )
        assert verdict == "stalled" and age == float("inf")


class TestWatchdog:
    def test_poll_classifies_and_counts_stalls(self, tmp_path):
        live.write_json_atomic(
            tmp_path / "heartbeat-0.json",
            {
                "pid": os.getpid(),
                "state": "running",
                "mono": time.monotonic() - 100,
                "jobs_done": 2,
            },
        )
        wd = live.Watchdog(tmp_path, stall_after_s=1.0)
        health = wd.poll()
        assert health[0]["verdict"] == "stalled"
        assert health[0]["stalls"] == 1 and health[0]["ever_stalled"]
        wd.poll()  # still stalled: not a new transition
        assert wd.health[0]["stalls"] == 1

    def test_recovery_keeps_ever_stalled(self, tmp_path):
        path = tmp_path / "heartbeat-0.json"
        live.write_json_atomic(
            path,
            {
                "pid": os.getpid(),
                "state": "running",
                "mono": time.monotonic() - 100,
            },
        )
        wd = live.Watchdog(tmp_path, stall_after_s=1.0)
        assert wd.poll()[0]["verdict"] == "stalled"
        live.write_json_atomic(
            path,
            {
                "pid": os.getpid(),
                "state": "running",
                "mono": time.monotonic(),
            },
        )
        rec = wd.stop()[0]
        assert rec["verdict"] == "ok"
        assert rec["ever_stalled"] and rec["stalls"] == 1

    def test_on_tick_exceptions_ignored(self, tmp_path):
        def boom(_):
            raise RuntimeError("tick")

        wd = live.Watchdog(tmp_path, stall_after_s=1.0, on_tick=boom)
        assert wd.poll() == {}


class TestWatchSnapshot:
    def test_empty_dir(self, tmp_path):
        snap = live.watch_snapshot(tmp_path)
        assert snap["schema"] == live.WATCH_SCHEMA
        assert snap["workers"] == []
        assert snap["totals"]["workers"] == 0
        assert snap["totals"]["jobs_total"] is None
        assert snap["manifest"] is None

    def test_totals_eta_and_hit_rate(self, tmp_path):
        live.write_run_manifest(
            tmp_path, kind="sweep", jobs_total=8, state="running"
        )
        # Backdate the start so jobs/sec and the ETA are well-defined.
        live.update_run_manifest(tmp_path, time_unix=time.time() - 10)
        for wid in range(2):
            live.write_json_atomic(
                tmp_path / f"heartbeat-{wid}.json",
                {
                    "pid": os.getpid(),
                    "state": "running",
                    "mono": time.monotonic(),
                    "time_unix": time.time(),
                    "jobs_done": 2,
                    "jobs_total": 4,
                    "rss_bytes": 1 << 20,
                    "extra": {"cache": {"hits": 3, "misses": 1}},
                },
            )
        totals = live.watch_snapshot(tmp_path)["totals"]
        assert totals["workers"] == 2 and totals["ok"] == 2
        assert totals["jobs_done"] == 4 and totals["jobs_total"] == 8
        assert totals["jobs_per_s"] == pytest.approx(0.4, rel=0.3)
        assert totals["eta_s"] == pytest.approx(10, rel=0.4)
        assert totals["cache_hits"] == 6 and totals["cache_misses"] == 2
        assert totals["cache_hit_rate"] == pytest.approx(0.75)

    def test_same_tick_snapshot_reports_unknown_rate(self, tmp_path):
        """A snapshot in the manifest's creation tick must not divide
        by the zero elapsed: jobs/sec and the ETA read unknown."""
        now = time.time()
        live.write_run_manifest(
            tmp_path, kind="sweep", jobs_total=8, state="running"
        )
        live.update_run_manifest(tmp_path, time_unix=now + 3600)
        # Wall clock appears *behind* the manifest stamp (clock skew /
        # same-tick write): elapsed clamps to 0.0.
        live.write_json_atomic(
            tmp_path / "heartbeat-0.json",
            {
                "pid": os.getpid(),
                "state": "running",
                "mono": time.monotonic(),
                "time_unix": now,
                "jobs_done": 3,
                "jobs_total": 8,
            },
        )
        totals = live.watch_snapshot(tmp_path)["totals"]
        assert totals["elapsed_s"] == 0.0
        assert totals["jobs_done"] == 3
        assert totals["jobs_per_s"] is None
        assert totals["eta_s"] is None

    def test_jobs_total_falls_back_to_manifest(self, tmp_path):
        live.write_run_manifest(tmp_path, jobs_total=12)
        live.write_json_atomic(
            tmp_path / "heartbeat-0.json",
            {
                "pid": os.getpid(),
                "state": "running",
                "mono": time.monotonic(),
                "jobs_done": 1,
                "jobs_total": None,
            },
        )
        assert live.watch_snapshot(tmp_path)["totals"]["jobs_total"] == 12

    def test_log_tail_included(self, tmp_path):
        olog.configure(tmp_path / live.LOG_NAME)
        for i in range(20):
            olog.info("tick", i=i)
        olog.close()
        snap = live.watch_snapshot(tmp_path, log_lines=5)
        assert len(snap["log_tail"]) == 5
        assert snap["log_tail"][-1]["i"] == 19

    def test_tail_log_skips_garbage(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"event": "a"}\nnot json\n{"event": "b"}\n')
        assert [d["event"] for d in live.tail_log(path)] == ["a", "b"]
        assert live.tail_log(tmp_path / "missing.jsonl") == []


class TestWatchCli:
    def test_missing_run_dir_fails(self, tmp_path, capsys):
        rc = main(["watch", str(tmp_path / "nope"), "--once"])
        assert rc == 1
        assert "no run directory" in capsys.readouterr().out

    def test_once_json_on_finished_run(self, tmp_path, capsys):
        rd = tmp_path / "run"
        res = SweepRunner(workers=2, run_dir=rd, **FAST).run(SPEC)
        assert res.jobs == 8
        assert main(["watch", str(rd), "--once", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["schema"] == live.WATCH_SCHEMA
        assert snap["totals"]["done"] == snap["totals"]["workers"] == 2
        assert snap["totals"]["jobs_done"] == 8
        assert snap["manifest"]["state"] == "done"

    def test_follow_exits_when_run_done(self, tmp_path, capsys):
        rd = tmp_path / "run"
        SweepRunner(workers=2, run_dir=rd, **FAST).run(SPEC)
        # Not --once: the follow loop must notice state=done and exit.
        assert main(["watch", str(rd), "--interval", "0.05"]) == 0
        assert "workers" in capsys.readouterr().out


class TestLiveSweepAcceptance:
    """ISSUE acceptance: watch a real 4-worker sweep mid-flight."""

    def _run_async(self, runner, box):
        def target():
            try:
                box["result"] = runner.run(SPEC)
            except BaseException as exc:  # pragma: no cover - surfaced below
                box["error"] = exc

        t = threading.Thread(target=target, daemon=True)
        t.start()
        return t

    def test_watch_reports_every_worker_live(self, tmp_path, capsys):
        rd = tmp_path / "run"
        runner = SweepRunner(workers=4, run_dir=rd, **FAST)
        box: dict = {}
        t = self._run_async(runner, box)
        try:
            # Catch the run mid-flight: all four heartbeats present.
            snap = _wait_for(
                lambda: (
                    (s := live.watch_snapshot(rd, stall_after_s=30.0))
                    if os.path.isdir(rd)
                    and len(live.read_heartbeats(rd)) == 4
                    else None
                )
            )
        finally:
            t.join(timeout=60)
        assert snap is not None, "never saw 4 heartbeats"
        assert "error" not in box, box.get("error")
        assert not t.is_alive()

        live_verdicts = {"ok", "done"}
        assert len(snap["workers"]) == 4
        for w in snap["workers"]:
            assert w["verdict"] in live_verdicts
            assert isinstance(w["jobs_done"], int)
            assert isinstance(w["jobs_total"], int)
            assert w["age_s"] < 30.0  # fresh beat
            assert isinstance(w["pid"], int) and w["pid"] > 0
            if os.path.isdir("/proc"):
                assert w["rss_bytes"] and w["rss_bytes"] > 0

        # After completion the console contract still holds.
        res = box["result"]
        assert res.jobs == 8
        assert sorted(res.worker_health) == [0, 1, 2, 3]
        assert all(
            rec["verdict"] == "done"
            for rec in res.worker_health.values()
        )
        assert res.lost_workers() == []
        assert main(["watch", str(rd), "--once", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["totals"]["done"] == 4
        assert out["totals"]["jobs_done"] == 8
        assert all(
            w["jobs_done"] is not None and w["rss_bytes"]
            for w in out["workers"]
        )

    def test_sigstop_worker_flagged_stalled_then_recovers(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_ENV, "1:stop")
        rd = tmp_path / "run"
        runner = SweepRunner(
            workers=4,
            run_dir=rd,
            stall_after_s=0.4,
            **FAST,
        )
        box: dict = {}
        t = self._run_async(runner, box)
        pid = None
        try:
            # The watchdog must flag the SIGSTOP'd worker within its
            # deadline; the structured log records the transition.
            assert _wait_for(
                lambda: "live.worker_stalled" in _log_events(rd)
            ), "watchdog never flagged the stopped worker"
            beats = live.read_heartbeats(rd)
            assert beats[1]["state"] == "running"
            pid = beats[1]["pid"]
            verdict, _ = live.classify_heartbeat(
                beats[1], stall_after_s=0.4
            )
            assert verdict == "stalled"
        finally:
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            t.join(timeout=60)
            if pid is not None:  # belt and braces: never leak a T-state pid
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        assert "error" not in box, box.get("error")
        assert not t.is_alive()

        # Resumed worker finished its slice: nothing lost, stall noted.
        res = box["result"]
        assert res.jobs == 8
        assert res.lost_workers() == []
        assert res.worker_health[1]["ever_stalled"]
        assert res.worker_health[1]["verdict"] == "done"
        assert "live.worker_recovered" in _log_events(rd) or (
            res.worker_health[1]["verdict"] == "done"
        )

    def test_sigkill_worker_flagged_dead_merge_survives(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(FAULT_ENV, "1:kill")
        rd = tmp_path / "run"
        res = SweepRunner(
            workers=4,
            run_dir=rd,
            stall_after_s=0.4,
            **FAST,
        ).run(SPEC)

        # Worker 1 died after its first job; its slice (jobs 1 and 5)
        # is lost, every other worker's rows merged intact.
        assert res.worker_health[1]["verdict"] == "dead"
        assert res.lost_workers() == [1]
        assert res.jobs == 6
        merged = {r.job_id for r in res.results}
        expect = {
            j.job_id for j in SPEC.expand() if j.index % 4 != 1
        }
        assert merged == expect
        assert "live.worker_dead" in _log_events(rd) or (
            res.worker_health[1]["verdict"] == "dead"
        )
        # The loss is JSON-visible for downstream tooling.
        doc = json.loads(json.dumps(res.as_dict()))
        assert doc["worker_health"]["1"]["verdict"] == "dead"


class TestFuzzTelemetry:
    def test_fuzz_run_dir_heartbeats_and_health(self, tmp_path):
        from repro.check.differential import run_fuzz

        rd = tmp_path / "fuzz-run"
        rep = run_fuzz(seed=11, budget=9, workers=3, run_dir=rd)
        assert rep.cases_run == 9
        man = live.read_run_manifest(rd)
        assert man["kind"] == "fuzz"
        assert man["state"] == "done"
        beats = live.read_heartbeats(rd)
        assert sorted(beats) == [0, 1, 2]
        assert all(d["state"] == "done" for d in beats.values())
        assert sum(d["jobs_done"] for d in beats.values()) == 9
        assert sorted(rep.worker_health) == [0, 1, 2]
        assert all(
            rec["verdict"] == "done"
            for rec in rep.worker_health.values()
        )

    def test_fuzz_sigkill_worker_is_dead_and_the_run_raises(
        self, tmp_path, monkeypatch
    ):
        from repro.check.differential import run_fuzz

        monkeypatch.setenv(FAULT_ENV, "1:kill")
        rd = tmp_path / "fuzz-kill"
        # Worker 1 holds cases 1, 4 and 7 and dies after the first.
        with pytest.raises(
            RuntimeError, match=r"fuzz worker 1 was lost: 3 of its cases"
        ):
            run_fuzz(seed=11, budget=9, workers=3, run_dir=rd)
        snap = live.watch_snapshot(rd)
        verdicts = {w["worker_id"]: w["verdict"] for w in snap["workers"]}
        assert verdicts == {0: "done", 1: "dead", 2: "done"}
        assert "sweep.worker_lost" in _log_events(rd)
        assert live.read_run_manifest(rd).get("state") != "done"

    def test_fuzz_serial_run_dir(self, tmp_path):
        from repro.check.differential import run_fuzz

        rd = tmp_path / "fuzz-serial"
        rep = run_fuzz(seed=3, budget=4, workers=1, run_dir=rd)
        assert rep.cases_run == 4
        beats = live.read_heartbeats(rd)
        assert beats[0]["state"] == "done"
        assert beats[0]["jobs_done"] == 4


class _Square(FanOutTask):
    def run(self, item):
        return {"sq": item * item}


class TestFanOutLostResult:
    @pytest.mark.parametrize("damage", ["torn", "missing"])
    def test_done_worker_without_a_result_is_dead(
        self, tmp_path, monkeypatch, damage
    ):
        """Worker 1 finishes its slice and its heartbeat says ``done``,
        but its ``result-1.json`` is torn or never written: it handed
        nothing back, so it is ``dead`` and its items are lost."""
        write = live.write_json_atomic

        def damaged(path, doc):
            if os.path.basename(path) != "result-1.json":
                return write(path, doc)
            if damage == "torn":
                write(path, doc)
                with open(path, "r+") as fh:
                    fh.truncate(os.path.getsize(path) // 2)

        # Patched before the fork, so the workers inherit it.
        monkeypatch.setattr(live, "write_json_atomic", damaged)
        rd = tmp_path / "run"
        rd.mkdir()
        fan = fan_out(_Square(), range(6), workers=3, run_dir=str(rd), **FAST)
        assert live.read_heartbeats(rd)[1]["state"] == "done"
        assert fan.health[1]["verdict"] == "dead"
        assert fan.lost == {1: 2}
        assert fan.health[0]["verdict"] == fan.health[2]["verdict"] == "done"
        assert fan.rows == {i: {"sq": i * i} for i in (0, 2, 3, 5)}
