"""The benchmark's four workloads.

Each workload is a function ``(env, seconds, traced) -> Pass`` that runs
one measured pass: it performs its set-up, repeats its operation until
``seconds`` have passed (always finishing the round it is in, so every
round's key mix is complete), checks every output against the pinned
answers in ``expected.json``, and returns the samples.  ``traced=True``
runs the same pass with the program's own tracing on; set-up samples are
only taken on untraced passes.

Every key set below is fixed here rather than read from the program, so a
change to the program cannot silently change what is measured.  The sets
are banded on purpose: the latencies of each workload's operations fall
into a few groups that are far apart, sized so that the 90th percentile
lands inside a group rather than on the edge between two, which is what
keeps it steady from run to run.  (The median is taken per operation
kind, so it needs no band.)

Every operation and every set-up is recorded with the reading of a
``gauge.Gauge`` taken around it, so that its time can be scaled to a host
of reference speed.
"""

from __future__ import annotations

import glob
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro import obs
from repro.batch.cache import LayoutCache
from repro.batch.runner import run_sweep_job
from repro.batch.spec import SweepJob, parse_network
from repro.core.metrics import measure
from repro.core.schemes import layout_network
from repro.grid.io import layout_to_json
from repro.routing import make_workload, simulate_fast

from gauge import REF_MS, Gauge

#: Fresh set-ups behind every ``setup_s``, spread evenly over the window.
SETUP_SAMPLES = 7
#: Seconds a server may take to write its ready file, and a request or
#: a child process to finish, before the run gives up.
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
PROCESS_TIMEOUT_S = 120.0
#: serve-cold sends each key on this many connections at once.
CONNECTIONS = 2

L248 = (2, 4, 8)

# batch-cold: the paper's three families, sized so that a pass holds well
# over a hundred jobs (the 90th percentile then has ten samples beyond it).
# The 9-cube's jobs take about twice the others', so the 90th percentile
# falls inside its band.
BATCH_KEYS = [
    (n, L) for n in ("hypercube:9", "kary:6,3", "ghc:5,5,5") for L in L248
]

# serve-warm: the standard family sweep (less ccc:4) plus four larger
# networks, all as cache hits, and the three largest also with their
# layout.  One connection, so a request never waits behind another.  The
# 20 small keys answer in 1-1.6 ms, the large ones in 2.4-5.3 ms and a
# payload in 13-16 ms: a deck of 26 plain hits and 6 payloads puts the
# 90th percentile in the middle of the payload band.  (kary:8,2's 5.6 ms
# payloads sat in the gap and made it jump.)
WARM_NETS = [
    "ring:16", "kary:4,2", "hypercube:5", "folded-hypercube:4",
    "complete:10", "ghc:4,4", "butterfly:3", "star:4",
    "shuffle-exchange:5", "kary:8,2", "hypercube:8", "ghc:8,8",
    "butterfly:5",
]
WARM_KEYS = [(n, L) for n in WARM_NETS for L in (2, 4)]
WARM_HEAVY = [(n, L) for n in WARM_NETS[-3:] for L in (2, 4)]
#: Seconds of requests between two readings of the gauge: well inside the
#: host's spells at one speed (1-s slices left the run-to-run spread of
#: the scaled figures twice as wide), long enough for about 50 requests.
WARM_SLICE_S = 0.25

# serve-cold: 30 keys, every one a fresh build.  hypercube:9 and ccc:7
# build in 80-100 ms, the other 24 in 5-30 ms: the 20% heavy band holds
# the 90th percentile.
COLD_NETS = [
    "kary:10,2", "butterfly:4", "ccc:5", "kary:4,3", "hypercube:7",
    "kary:6,2", "folded-hypercube:6", "complete:16", "hypercube:9",
    "ccc:7",
]
COLD_KEYS = [(n, L) for n in COLD_NETS for L in L248]

# traffic-sat: one traffic run, repeated: uniform traffic at saturation on
# the 8-cube's 4-layer layout, made from the seed.  Every op is the same
# run, so the median and the 90th percentile are taken over all of them.
# (A run takes about 0.1 s, so a pass holds well over a hundred; one on the
# 10-cube takes about 2 s, too few samples in a pass.)
TRAFFIC_KEY = ("hypercube:8", 4)
TRAFFIC_RATE = 1.0
TRAFFIC_DURATION = 16
TRAFFIC_MESSAGE_LENGTH = 16

BATCH_SETUP_CODE = (
    "import sys, repro.batch.runner, repro.batch.cache; "
    "repro.batch.cache.LayoutCache(sys.argv[1])"
)
TRAFFIC_SETUP_CODE = (
    "from repro.batch.spec import parse_network; "
    "from repro.core.schemes import layout_network; "
    "import repro.routing; "
    f"layout_network(parse_network({TRAFFIC_KEY[0]!r}), "
    f"layers={TRAFFIC_KEY[1]})"
)


def key_name(net: str, layers: int) -> str:
    return f"{net}@L{layers}"


def all_keys() -> list[tuple[str, int]]:
    """Every (network, L) some workload uses, for the pins."""
    return sorted(set(BATCH_KEYS + WARM_KEYS + COLD_KEYS + [TRAFFIC_KEY]))


def sim_summary(res, n_messages: int) -> dict:
    """The deterministic fields of a traffic run that the pins compare."""
    return {
        "messages": n_messages,
        "delivered": int(res.latency_hist.get("count", 0)),
        "makespan": res.makespan,
        "avg_latency": res.avg_latency,
        "max_latency": res.max_latency,
        "max_link_load": res.max_link_load,
    }


class Pins:
    """The pinned answers every output is checked against."""

    def __init__(self, path):
        with open(path) as fh:
            doc = json.load(fh)
        self.layouts: dict = doc["layouts"]
        self.traffic: dict = doc["traffic"]

    def check_metrics(self, net: str, layers: int, metrics) -> str | None:
        want = self.layouts[key_name(net, layers)]["metrics"]
        if metrics != want:
            return f"{key_name(net, layers)}: metrics {metrics} != pinned {want}"
        return None

    def check_layout(self, net: str, layers: int, text: str) -> str | None:
        want = self.layouts[key_name(net, layers)]["layout_sha256"]
        got = hashlib.sha256(text.encode()).hexdigest()
        if got != want:
            return f"{key_name(net, layers)}: layout sha256 {got[:12]} != pinned {want[:12]}"
        return None


@dataclass
class Env:
    """Where a run lives: the checkout, its scratch space and its pins."""

    root: Path
    tmp: Path
    seed: int
    pins: Pins

    def child_env(self) -> dict:
        env = dict(os.environ)
        # Children get Python's default bytecode caching whatever the
        # caller set, so import times measure imports, not compilation.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = str(self.root / "src")
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        env["TMPDIR"] = str(self.tmp)
        return env

    def scratch(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.tmp)


@dataclass
class Pass:
    """The samples one measured pass produced."""

    #: ``(seconds, reference ms)`` per fresh set-up.
    setup_s: list = field(default_factory=list)
    #: ``(kind, seconds, reference ms)`` per successful operation.
    ops: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: ``(operations, seconds, reference ms)`` per round: a whole key
    #: deck, a slice of a request window, or one fresh server.
    rounds: list = field(default_factory=list)
    #: Named per-operation side samples (server time, lateness, ...).
    samples: dict = field(default_factory=dict)
    #: Named totals (server counters, cache writes, ...).
    counts: dict = field(default_factory=dict)
    #: Every reading of the pass's ``Gauge``, in ms.
    ref_ms: list = field(default_factory=list)

    def ok(self, kind: str, seconds: float, ref_ms: float) -> None:
        self.attempted += 1
        self.ops.append((kind, seconds, ref_ms))

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def add(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


# ---------------------------------------------------------------------------
# Processes


def run_python(env: Env, args: list, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        env=env.child_env(),
        cwd=env.tmp,
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
        **kw,
    )


def _fresh_sample(env: Env, code: str, *args: str) -> float:
    """Wall time of one fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    proc = run_python(env, ["-c", code, *args])
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr[-2000:]}")
    return elapsed


class SetupSampler:
    """Fresh-process set-up samples, spread evenly over a pass's window,
    so that their median sees the host as the whole pass saw it.  Each
    sample is recorded with the gauge read around it.

    The first run is untimed, so every sample sees compiled bytecode and
    a warm page cache.
    """

    def __init__(self, env: Env, p: Pass, gauge: Gauge, seconds: float,
                 code: str, *args: str, active: bool = True):
        self.env, self.p, self.gauge = env, p, gauge
        self.code, self.args = code, args
        self.active = active
        if active:
            _fresh_sample(env, code, *args)
        self.start = time.perf_counter()
        self.every = seconds / SETUP_SAMPLES

    def take(self) -> None:
        """Take a sample if the next one is due."""
        due = self.start + len(self.p.setup_s) * self.every
        if (self.active and len(self.p.setup_s) < SETUP_SAMPLES
                and time.perf_counter() >= due):
            elapsed = _fresh_sample(self.env, self.code, *self.args)
            self.p.setup_s.append((elapsed, self.gauge.around()))

    def finish(self) -> None:
        while self.active and len(self.p.setup_s) < SETUP_SAMPLES:
            elapsed = _fresh_sample(self.env, self.code, *self.args)
            self.p.setup_s.append((elapsed, self.gauge.around()))


class Daemon:
    """One ``repro serve --workers 1`` process on an ephemeral port."""

    def __init__(self, env: Env, cache_dir: str, trace_sample: float):
        self.env = env
        self.cache_dir = cache_dir
        self.trace_sample = trace_sample
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._log = ""

    def start(self) -> float:
        """Spawn the server; returns seconds until its ready file appeared."""
        run_dir = self.env.scratch("serve-")
        ready = os.path.join(run_dir, "ready.json")
        self._log = os.path.join(run_dir, "server.log")
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--workers", "1", "--cache-dir", self.cache_dir,
            "--ready-file", ready, "--trace-sample", repr(self.trace_sample),
        ]
        with open(self._log, "wb") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                cmd, env=self.env.child_env(), cwd=self.env.tmp,
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
            )
        while not os.path.exists(ready):
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited: {self._tail()}")
            if time.perf_counter() - t0 > READY_TIMEOUT_S:
                self.stop()
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.002)
        elapsed = time.perf_counter() - t0
        with open(ready) as fh:
            self.port = json.load(fh)["port"]
        return elapsed

    def stats(self) -> dict:
        client = Client(self.port)
        try:
            return json.loads(client.call("GET", "/stats")[0])
        finally:
            client.close()

    def stop(self) -> None:
        """Interrupt the server (it drains its pool), then reap its group."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=15)

    def _tail(self) -> str:
        try:
            with open(self._log, errors="replace") as fh:
                return fh.read()[-2000:]
        except OSError:
            return "(no log)"


def _spawn_samples(env: Env, p: Pass, gauge: Gauge) -> None:
    """Top ``p.setup_s`` up to ``SETUP_SAMPLES`` server spawns."""
    while len(p.setup_s) < SETUP_SAMPLES:
        cache_dir = env.scratch("spawn-")
        daemon = Daemon(env, cache_dir, 0.0)
        try:
            elapsed = daemon.start()
            p.setup_s.append((elapsed, gauge.around()))
        finally:
            daemon.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)


class Client:
    """One keep-alive HTTP/1.1 connection to a daemon."""

    def __init__(self, port: int):
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, doc=None) -> tuple[bytes, float]:
        """``(response body, perf_counter when it arrived)``; raises on a
        transport error or a status other than 200."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        body = None if doc is None else json.dumps(doc).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        done = time.perf_counter()
        if resp.status != 200:
            raise RuntimeError(f"HTTP {resp.status}: {data[:200]!r}")
        return data, done

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


@dataclass
class Reply:
    """One timed request; checked only after the measured window, so that
    checking a reply never delays the requests after it."""

    net: str
    layers: int
    heavy: bool
    sent: float = 0.0
    done: float = 0.0
    body: bytes = b""
    error: str | None = None
    ref_ms: float = REF_MS  # the gauge read around the request


def _send(client: Client, reply: Reply) -> Reply:
    req = {"network": reply.net, "layers": reply.layers,
           "include_layout": reply.heavy}
    reply.sent = time.perf_counter()
    try:
        reply.body, reply.done = client.call("POST", "/v1/layout", req)
    except Exception as exc:  # noqa: BLE001 - counted when settled
        reply.error = f"{type(exc).__name__}: {exc}"
    return reply


def _settle(env: Env, replies: list, p: Pass, *, sources,
            layouts=None) -> None:
    """Check every reply against the pins and record its samples; an
    operation's kind is its key, with ``+layout`` for a payload."""
    for r in replies:
        name = key_name(r.net, r.layers)
        if r.error:
            p.fail(f"{name}: {r.error}")
            continue
        doc = json.loads(r.body)
        err = None
        if doc.get("source") not in sources:
            err = f"{name}: source {doc.get('source')!r}"
        else:
            err = env.pins.check_metrics(r.net, r.layers, doc.get("metrics"))
        if err is None and r.heavy and (
            doc.get("layout") != layouts[(r.net, r.layers)]
        ):
            err = f"{name}: served layout differs from the pin"
        if err:
            p.fail(err)
            continue
        p.ok(name + ("+layout" if r.heavy else ""), r.done - r.sent,
             r.ref_ms)
        server_ms = float(doc["elapsed_ms"])
        p.sample("server_ms", server_ms)
        p.sample("http_overhead_ms", (r.done - r.sent) * 1e3 - server_ms)


# ---------------------------------------------------------------------------
# Workloads


def batch_cold(env: Env, seconds: float, traced: bool) -> Pass:
    """Closed loop in-process: fresh-cache sweep jobs, validated."""
    p = Pass()
    gauge = Gauge()
    setup = SetupSampler(env, p, gauge, seconds, BATCH_SETUP_CODE,
                         env.scratch("c-"), active=not traced)
    rng = random.Random(env.seed)
    deadline = time.perf_counter() + seconds
    while not p.attempted or time.perf_counter() < deadline:
        jobs = list(BATCH_KEYS)
        rng.shuffle(jobs)
        n0 = len(p.ops)
        for index, (net, L) in enumerate(jobs):
            cache_dir = env.scratch("batch-")
            try:
                t0 = time.perf_counter()
                with obs.span("perf.batch.job", key=key_name(net, L)):
                    res = run_sweep_job(
                        SweepJob(index, net, L), LayoutCache(cache_dir),
                        validate=True,
                    )
                elapsed = time.perf_counter() - t0
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                p.fail(f"{key_name(net, L)}: {type(exc).__name__}: {exc}")
                shutil.rmtree(cache_dir, ignore_errors=True)
                continue
            ref = gauge.around()
            err = (
                None if res.source == "built"
                else f"{key_name(net, L)}: source {res.source!r}"
            ) or env.pins.check_metrics(net, L, res.metrics)
            if err is None:
                err = _check_entry(env, net, L, cache_dir)
            shutil.rmtree(cache_dir, ignore_errors=True)
            if err:
                p.fail(err)
            else:
                p.ok(key_name(net, L), elapsed, ref)
                p.add("cache_writes", 1)
        _close_round(p, n0)
        setup.take()
    setup.finish()
    p.ref_ms = gauge.samples
    return p


def _close_round(p: Pass, n0: int) -> None:
    """Record the ops since ``p.ops[n0]`` as one round of sequential
    operations: its time is the time spent in them, and its reference
    time the one that scales that sum as each op is scaled."""
    ops = p.ops[n0:]
    if ops:
        busy = sum(s for _, s, _ in ops)
        ref = busy / sum(s / r for _, s, r in ops)
        p.rounds.append((len(ops), busy, ref))


def _check_entry(env: Env, net: str, L: int, cache_dir: str) -> str | None:
    """The one entry a job wrote must hold the pinned layout."""
    paths = glob.glob(os.path.join(cache_dir, "*", "*.json"))
    if len(paths) != 1:
        return f"{key_name(net, L)}: {len(paths)} cache entries written"
    with open(paths[0]) as fh:
        return env.pins.check_layout(net, L, json.load(fh)["layout"])


def prefill(env: Env, cache_dir: str, p: Pass) -> dict:
    """Fill ``cache_dir`` with every warm key, untimed; returns the pinned
    layout documents the payload requests must get back."""
    layouts = {}
    cache = LayoutCache(cache_dir)
    for net, L in WARM_KEYS:
        res = run_sweep_job(SweepJob(0, net, L), cache, validate=True)
        key, key_doc = cache.key_for(parse_network(net), scheme="auto",
                                     layers=L)
        text = cache.get(key, key_doc).layout_json
        err = env.pins.check_metrics(net, L, res.metrics) or (
            env.pins.check_layout(net, L, text)
        )
        if err:
            p.fail(f"prefill {err}")
        elif (net, L) in WARM_HEAVY:
            layouts[(net, L)] = json.loads(text)
    return layouts


def serve_warm(env: Env, seconds: float, traced: bool) -> Pass:
    """Closed loop over one keep-alive connection against a warm cache.

    The window is split across ``SETUP_SAMPLES`` servers spawned in turn
    (each spawn is a set-up sample), so no single process's memory layout
    or hash seed sets the run's numbers.  Each server's share is cut into
    slices of ``WARM_SLICE_S``; between slices the connection idles while
    the gauge is read.
    """
    p = Pass()
    cache_dir = env.scratch("warm-")
    layouts = prefill(env, cache_dir, p)
    deck = [(n, L, False) for n, L in WARM_KEYS]
    deck += [(n, L, True) for n, L in WARM_HEAVY]
    gauge = Gauge()
    replies: list = []
    try:
        for k in range(SETUP_SAMPLES):
            daemon = Daemon(env, cache_dir, 1.0 if traced else 0.0)
            client = None
            try:
                startup = daemon.start()
                ref = gauge.around()
                if not traced:
                    p.setup_s.append((startup, ref))
                client = Client(daemon.port)
                stream = _deck_stream(deck, random.Random(env.seed * 100 + k))
                end = time.perf_counter() + seconds / SETUP_SAMPLES
                while time.perf_counter() < end:
                    t0 = time.perf_counter()
                    deadline = min(t0 + WARM_SLICE_S, end)
                    out = []
                    while time.perf_counter() < deadline:
                        out.append(_send(client, Reply(*next(stream))))
                    wall = time.perf_counter() - t0
                    ref = gauge.around()
                    for r in out:
                        r.ref_ms = ref
                    replies += out
                    p.rounds.append((len(out), wall, ref))
                stats = daemon.stats()
            finally:
                if client is not None:
                    client.close()
                daemon.stop()
            _server_counts(stats, p)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    p.ref_ms = gauge.samples
    _settle(env, replies, p, sources=("cache",), layouts=layouts)
    if p.counts.get("built"):
        p.fail(f"{p.counts['built']} builds on a warm cache")
    return p


def _deck_stream(deck, rng):
    """The deck, shuffled anew each time round, without end."""
    while True:
        order = list(deck)
        rng.shuffle(order)
        yield from order


def _server_counts(stats: dict, p: Pass) -> None:
    for name in ("hits", "built", "coalesced"):
        p.add(name, int(stats.get(name, 0)))


def serve_cold(env: Env, seconds: float, traced: bool) -> Pass:
    """Closed loop: each key sent on both connections at once, the next
    key once both replies are in; every key a fresh build, into a fresh
    cache and a fresh server each round.

    Of the two requests for a key, one leads the build and the other is
    coalesced onto it.  While the server idles between two keys, the
    gauge is read.
    """
    p = Pass()
    gauge = Gauge()
    rng = random.Random(env.seed)
    deadline = time.perf_counter() + seconds
    with ThreadPoolExecutor(CONNECTIONS) as senders:
        while not p.attempted or time.perf_counter() < deadline:
            keys = list(COLD_KEYS)
            rng.shuffle(keys)
            cache_dir = env.scratch("cold-")
            daemon = Daemon(env, cache_dir, 1.0 if traced else 0.0)
            clients = []
            try:
                startup = daemon.start()
                ref = gauge.around()
                if not traced:
                    p.setup_s.append((startup, ref))
                clients = [Client(daemon.port) for _ in range(CONNECTIONS)]
                replies = []
                for net, L in keys:
                    t0 = time.perf_counter()
                    got = [f.result() for f in [
                        senders.submit(_send, client, Reply(net, L, False))
                        for client in clients
                    ]]
                    wall = time.perf_counter() - t0
                    ref = gauge.around()
                    for r in got:
                        r.ref_ms = ref
                    replies += got
                    p.rounds.append((len(got), wall, ref))
                stats = daemon.stats()
                _settle(env, replies, p,
                        sources=("built", "coalesced", "cache"))
                _server_counts(stats, p)
                if stats.get("built") != len(keys):
                    p.fail(f"{stats.get('built')} builds for {len(keys)} keys")
                p.add("cache_writes", len(
                    glob.glob(os.path.join(cache_dir, "*", "*.json"))
                ))
            finally:
                for client in clients:
                    client.close()
                daemon.stop()
                shutil.rmtree(cache_dir, ignore_errors=True)
            p.add("keys", len(keys))
    if not traced:
        _spawn_samples(env, p, gauge)
    p.ref_ms = gauge.samples
    return p


def traffic_sat(env: Env, seconds: float, traced: bool) -> Pass:
    """Message generation plus the fast engine at saturation, in-process:
    one traffic run made from the seed, repeated."""
    p = Pass()
    gauge = Gauge()
    setup = SetupSampler(env, p, gauge, seconds, TRAFFIC_SETUP_CODE,
                         active=not traced)
    net_spec, L = TRAFFIC_KEY
    net = parse_network(net_spec)
    lay = layout_network(net, layers=L)
    err = env.pins.check_metrics(net_spec, L, measure(lay).as_dict()) or (
        env.pins.check_layout(net_spec, L, layout_to_json(lay))
    )
    if err:
        p.fail(err)
    # One untimed run warms the engine and gives the answer every repeat
    # must match; for a pinned seed, that answer is checked too.
    want, _ = _traffic_run(net, lay, env.seed)
    pinned = env.pins.traffic.get(str(env.seed), want)
    if want["delivered"] != want["messages"]:
        p.fail(f"{want['delivered']} of {want['messages']} delivered")
    elif want != pinned:
        p.fail(f"traffic run {want} != pinned {pinned}")
    gauge.start()
    deadline = time.perf_counter() + seconds
    while not p.attempted or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        got, t1 = _traffic_run(net, lay, env.seed)
        t2 = time.perf_counter()
        ref = gauge.around()
        if got != want:
            p.fail(f"traffic run {got} != first run {want}")
        else:
            p.ok("run", t2 - t0, ref)
            p.rounds.append((1, t2 - t0, ref))
            p.sample("workload_ms", (t1 - t0) * 1e3)
            p.sample("simulate_ms", (t2 - t1) * 1e3)
            p.add("messages_simulated", got["messages"])
        setup.take()
    setup.finish()
    p.ref_ms = gauge.samples
    p.counts["messages"] = want["messages"]
    return p


def _traffic_run(net, lay, seed: int) -> tuple[dict, float]:
    """One traffic run; returns its summary and when generation ended."""
    with obs.span("perf.routing.workload"):
        msgs = make_workload("uniform", net, rate=TRAFFIC_RATE,
                             duration=TRAFFIC_DURATION, seed=seed)
    generated = time.perf_counter()
    with obs.span("perf.routing.simulate"):
        res = simulate_fast(net, msgs, layout=lay,
                            message_length=TRAFFIC_MESSAGE_LENGTH)
    return sim_summary(res, len(msgs)), generated


WORKLOADS = {
    "batch-cold": batch_cold,
    "serve-warm": serve_warm,
    "serve-cold": serve_cold,
    "traffic-sat": traffic_sat,
}

#: Distinct (network, L) keys each workload's outputs are layouts of; the
#: traced run replays them through every in-process layer.
WORKLOAD_KEYS = {
    "batch-cold": BATCH_KEYS,
    "serve-warm": WARM_KEYS,
    "serve-cold": COLD_KEYS,
    "traffic-sat": [TRAFFIC_KEY],
}
