"""The layout daemon end to end: sockets, coalescing, admission.

Every e2e test boots a real :class:`~repro.serve.server.LayoutServer`
on an ephemeral port inside ``asyncio.run`` and talks to it over real
sockets via the protocol helpers -- no mocked transport.  The
``REPRO_POOL_DELAY_S`` hook (tests/CI only) stretches builds so the
races these tests pin (coalescing, the in-flight gate) are
deterministic instead of scheduler-lucky.
"""

import asyncio
import json
import multiprocessing
import os
import shutil
import signal
import socket
import struct
import time

import pytest

from repro import obs
from repro.batch.cache import LayoutCache
from repro.batch.spec import dispatch_scheme, parse_network
from repro.grid.io import layout_to_json
from repro.serve import LayoutServer, ServeConfig, http_request
from repro.serve import server as server_mod
from repro.serve.pool import POOL_DELAY_ENV
from repro.serve.protocol import CLIENT_HEADER, json_body, json_body_spliced
from repro.serve.quotas import AdmissionGate, QuotaManager, TokenBucket


@pytest.fixture(autouse=True)
def _obs_clean():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _serve(test_coro, **cfg_kw):
    """Boot a server, run ``test_coro(server, port)``, always close."""

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


class TestLayoutEndpoint:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        async def t(server, port):
            st, _, body = await _post_layout(port, "hypercube:3")
            doc = json.loads(body)
            assert st == 200
            assert doc["source"] == "built"
            assert doc["N"] == 8 and doc["E"] == 12
            assert doc["metrics"]["area"] > 0
            st, _, body = await _post_layout(port, "hypercube:3")
            warm = json.loads(body)
            assert st == 200
            assert warm["source"] == "cache"
            # The answer, not just the status, must match.
            assert warm["metrics"] == doc["metrics"]

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_no_cache_dir_still_serves(self):
        async def t(server, port):
            st, _, body = await _post_layout(port, "ring:6")
            doc = json.loads(body)
            assert st == 200 and doc["source"] == "built"
            # Without a cache every request is a fresh build.
            st, _, body = await _post_layout(port, "ring:6")
            assert json.loads(body)["source"] == "built"

        _serve(t)

    def test_concurrent_duplicates_coalesce(self, tmp_path, monkeypatch):
        monkeypatch.setenv(POOL_DELAY_ENV, "0.3")

        async def t(server, port):
            results = await asyncio.gather(
                *(
                    _post_layout(port, "kary:3,2", layers=4)
                    for _ in range(3)
                )
            )
            docs = [json.loads(b) for _, _, b in results]
            assert all(d["metrics"] == docs[0]["metrics"] for d in docs)
            sources = sorted(d["source"] for d in docs)
            assert sources == ["built", "coalesced", "coalesced"]
            st, _, body = await http_request(
                "127.0.0.1", port, "GET", "/stats"
            )
            stats = json.loads(body)
            assert stats["built"] == 1
            assert stats["coalesced"] == 2

        _serve(t, cache_dir=str(tmp_path / "cache"), workers=2)

    def test_include_layout_roundtrip(self, tmp_path):
        async def t(server, port):
            st, _, body = await _post_layout(
                port, "ring:6", body={"include_layout": True}
            )
            doc = json.loads(body)
            assert st == 200
            assert doc["layout"]["layers"] >= 2
            assert doc["layout"]["placements"]

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_include_layout_requires_cache(self):
        async def t(server, port):
            st, _, body = await _post_layout(
                port, "ring:6", body={"include_layout": True}
            )
            assert st == 400
            assert "cache-dir" in json.loads(body)["error"]

        _serve(t)


def _library_layout(network, layers):
    """The layout document the library builds for ``network`` at L."""
    net = parse_network(network)
    lay = dispatch_scheme(net, layers=layers, scheme="auto")
    return json.loads(layout_to_json(lay))


def _without(doc, *keys):
    return {k: v for k, v in doc.items() if k not in keys}


#: Response fields that differ between any two requests.
PER_REQUEST = ("elapsed_ms", "request_id", "trace_id")


class TestLayoutPayload:
    """``include_layout`` splices the stored layout text into the reply."""

    def test_payload_matches_library_for_every_source(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(POOL_DELAY_ENV, "0.3")
        cache_dir = tmp_path / "cache"
        network, layers = "hypercube:3", 4
        want = _library_layout(network, layers)

        def check_pair(heavy, plain, source):
            assert heavy["source"] == plain["source"] == source
            assert heavy["layout"] == want
            assert _without(heavy, "layout", *PER_REQUEST) == _without(
                plain, *PER_REQUEST
            )

        async def t(server, port):
            async def post(payload):
                st, _, body = await _post_layout(
                    port, network, layers=layers,
                    body={"include_layout": payload},
                )
                assert st == 200
                doc = json.loads(body)  # one JSON object, nothing after
                assert isinstance(doc, dict)
                assert ("layout" in doc) == payload
                return doc

            # Cold: one build, three followers; at least one payload
            # and one plain request are among the coalesced.
            docs = await asyncio.gather(
                post(True), post(True), post(False), post(False)
            )
            assert sorted(d["source"] for d in docs) == [
                "built", "coalesced", "coalesced", "coalesced",
            ]
            for d in docs:
                if "layout" in d:
                    assert d["layout"] == want
            heavy = next(
                d for d in docs
                if "layout" in d and d["source"] == "coalesced"
            )
            plain = next(
                d for d in docs
                if "layout" not in d and d["source"] == "coalesced"
            )
            check_pair(heavy, plain, "coalesced")
            # Warm: both straight from the cache.
            check_pair(await post(True), await post(False), "cache")
            # Emptied cache: each request is built afresh.
            shutil.rmtree(cache_dir)
            heavy = await post(True)
            shutil.rmtree(cache_dir)
            check_pair(heavy, await post(False), "built")

        _serve(t, cache_dir=str(cache_dir))

    def test_warm_payload_reads_the_cache_once(self, tmp_path):
        n = 5

        async def t(server, port):
            await _post_layout(port, "ring:6")  # build + store
            gets = []
            real_get = server.cache.get

            def counting_get(*args, **kw):
                gets.append(args[0])
                return real_get(*args, **kw)

            server.cache.get = counting_get
            hits0 = server.stats()["cache"]["hits"]
            counter0 = obs.registry().snapshot()["counters"].get(
                "cache.hits", 0
            )
            for _ in range(n):
                st, _, body = await _post_layout(
                    port, "ring:6", body={"include_layout": True}
                )
                assert st == 200
                assert json.loads(body)["source"] == "cache"
            assert len(gets) == n
            assert server.stats()["cache"]["hits"] == hits0 + n
            counters = obs.registry().snapshot()["counters"]
            assert counters["cache.hits"] == counter0 + n

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_metrics_less_entry_is_a_miss_not_a_hit(self, tmp_path):
        """An entry without metrics (an older fuzzer wrote those) is
        corrupt: it is rebuilt, and ``/stats`` counts a miss, not a hit."""
        cache_dir = tmp_path / "cache"
        net = parse_network("ring:6")
        seeded = LayoutCache(cache_dir)
        key, key_text = seeded.key_for(net, scheme="auto", layers=2)
        layout = dispatch_scheme(net, layers=2)
        seeded.put(key, key_text, layout_to_json(layout), {})
        path = seeded._path(key)
        path.write_text(
            path.read_text().replace('"metrics": {},', '"metrics": null,')
        )

        async def t(server, port):
            st, _, body = await _post_layout(port, "ring:6")
            assert st == 200 and json.loads(body)["source"] == "built"
            stats = server.stats()["cache"]
            assert stats["hits"] == 0 and stats["misses"] == 1
            assert stats["corrupt"] == 1
            st, _, body = await _post_layout(port, "ring:6")
            assert st == 200 and json.loads(body)["source"] == "cache"
            assert server.stats()["cache"]["hits"] == 1

        _serve(t, cache_dir=str(cache_dir))

    def test_post_build_miss_is_503_not_a_bare_200(self, tmp_path):
        async def t(server, port):
            # The pool worker stores the entry through its own cache
            # handle; the server's handle then fails to read it back.
            server.cache.get = lambda *args, **kw: None
            st, headers, body = await _post_layout(
                port, "ring:6", body={"include_layout": True}
            )
            assert st == 503
            assert int(headers["retry-after"]) >= 1
            assert "layout" in json.loads(body)["error"]
            # A request without the payload still gets its answer.
            st, _, body = await _post_layout(port, "ring:6")
            assert st == 200 and "layout" not in json.loads(body)

        _serve(t, cache_dir=str(tmp_path / "cache"))


class TestKeyMap:
    """Each ``(network, scheme, layers)`` is keyed once per daemon."""

    @staticmethod
    def _count_keying(monkeypatch):
        """Count the server's ``parse_network`` and ``key_for`` calls
        (pool workers are separate processes and are not counted)."""
        calls = {"parse": 0, "key_for": 0}
        real_parse = server_mod.parse_network
        real_key_for = LayoutCache.key_for

        def parse(spec):
            calls["parse"] += 1
            return real_parse(spec)

        def key_for(self, *args, **kw):
            calls["key_for"] += 1
            return real_key_for(self, *args, **kw)

        monkeypatch.setattr(server_mod, "parse_network", parse)
        monkeypatch.setattr(LayoutCache, "key_for", key_for)
        return calls

    def test_repeat_hit_skips_parse_and_key(self, tmp_path, monkeypatch):
        async def t(server, port):
            calls = self._count_keying(monkeypatch)
            st, _, body = await _post_layout(port, "kary:4,2", layers=4)
            built = json.loads(body)
            assert st == 200 and built["source"] == "built"
            assert calls == {"parse": 1, "key_for": 1}
            ids = [built["request_id"]]
            for payload in (False, True, False):
                st, _, body = await _post_layout(
                    port, "kary:4,2", layers=4,
                    body={"include_layout": payload},
                )
                warm = json.loads(body)
                ids.append(warm["request_id"])
                assert st == 200 and warm["source"] == "cache"
                assert (warm["N"], warm["E"]) == (16, 32)
                assert _without(
                    warm, "layout", "source", *PER_REQUEST
                ) == _without(built, "source", *PER_REQUEST)
            assert calls == {"parse": 1, "key_for": 1}
            assert server.stats()["cache"]["hits"] == 3
            probes = [
                span.attrs["key_source"]
                for rid in ids
                for span in server.requests.find(rid).root.children
                if span.name == "cache.probe"
            ]
            assert probes == ["derived", "map", "map", "map"]

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_deleted_entry_is_rebuilt_under_the_same_key(self, tmp_path):
        network, layers = "hypercube:3", 4
        want = _library_layout(network, layers)

        async def t(server, port):
            async def post():
                st, _, body = await _post_layout(
                    port, network, layers=layers,
                    body={"include_layout": True},
                )
                assert st == 200
                doc = json.loads(body)
                assert doc["layout"] == want
                return doc["source"]

            assert await post() == "built"
            assert await post() == "cache"
            (keyed,) = server._keys.values()
            path = server.cache._path(keyed.key)
            path.unlink()
            assert await post() == "built"
            assert path.exists()
            assert list(server._keys.values()) == [keyed]
            hits = server.stats()["cache"]["hits"]
            assert await post() == "cache"
            assert server.stats()["cache"]["hits"] == hits + 1

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_bad_spec_is_400_every_time_and_never_stored(self, tmp_path):
        cache_dir = tmp_path / "cache"

        async def t(server, port):
            for _ in range(2):
                st, _, body = await _post_layout(port, "nosuch:3")
                assert st == 400
                assert "error" in json.loads(body)
            assert not server._keys and server._key_chars == 0
            assert not list(cache_dir.rglob("*.json"))

        _serve(t, cache_dir=str(cache_dir))

    def test_least_recently_used_specs_are_evicted(
        self, tmp_path, monkeypatch
    ):
        specs = ["ring:6", "ring:7", "ring:8"]
        charge = {}
        for s in specs:
            key, text = LayoutCache(tmp_path).key_for(
                parse_network(s), scheme="auto", layers=2
            )
            charge[s] = server_mod._entry_chars(
                (s, "auto", 2), server_mod._Keyed(key, text, 0, 0)
            )
        # Any two entries fit, all three do not.
        monkeypatch.setattr(
            server_mod, "KEY_MAP_CHARS", sum(charge.values()) - 1
        )

        async def t(server, port):
            async def post(spec):
                st, _, body = await _post_layout(port, spec)
                assert st == 200
                doc = json.loads(body)
                n = int(spec.split(":")[1])
                assert (doc["N"], doc["E"]) == (n, n)
                return doc["source"]

            def mapped():
                return [spec for spec, _, _ in server._keys]

            assert [await post(s) for s in specs[:2]] == ["built"] * 2
            assert await post("ring:6") == "cache"  # now most recent
            assert await post("ring:8") == "built"
            assert mapped() == ["ring:6", "ring:8"]
            assert server._key_chars == charge["ring:6"] + charge["ring:8"]
            # The evicted spec is keyed again and still served warm.
            assert await post("ring:7") == "cache"
            assert mapped() == ["ring:8", "ring:7"]

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_padded_aliases_are_charged_their_spec_strings(
        self, tmp_path, monkeypatch
    ):
        # Each alias parses to ring:3 but is mapped apart; the padding
        # alone is ten times the bound, so only a charge on the spec
        # string keeps the map within it.
        pad = 4096
        monkeypatch.setattr(server_mod, "KEY_MAP_CHARS", 4 * pad)
        aliases = ["ring:3", "RING:3", " ring: 3 ", "ring:03"] + [
            "ring:" + "0" * i + "3" + "," * pad for i in range(40)
        ]

        async def t(server, port):
            for alias in aliases:
                st, _, body = await _post_layout(port, alias)
                doc = json.loads(body)
                assert st == 200 and (doc["N"], doc["E"]) == (3, 3)
                assert server._key_chars <= server_mod.KEY_MAP_CHARS
                assert server._key_chars == sum(
                    server_mod._entry_chars(spec, keyed)
                    for spec, keyed in server._keys.items()
                )
            held = sum(len(spec) for spec, _, _ in server._keys)
            assert 0 < held <= server_mod.KEY_MAP_CHARS
            assert len(server._keys) < len(aliases)
            assert server.stats()["cache"]["hits"] == len(aliases) - 1

        _serve(t, cache_dir=str(tmp_path / "cache"))

    @staticmethod
    def _count_reads(server, monkeypatch):
        """Record the server's ``cache.get`` keys and every
        ``asyncio.to_thread`` call."""
        reads = {"get": [], "to_thread": []}
        real_get = server.cache.get
        real_to_thread = asyncio.to_thread

        def get(key, key_text):
            reads["get"].append(key)
            return real_get(key, key_text)

        async def to_thread(fn, *args, **kw):
            reads["to_thread"].append(fn)
            return await real_to_thread(fn, *args, **kw)

        server.cache.get = get
        monkeypatch.setattr(asyncio, "to_thread", to_thread)
        return reads

    @staticmethod
    def _spans(server, request_id):
        """The names of a request's top-level spans."""
        return [
            span.name
            for span in server.requests.find(request_id).root.children
        ]

    def test_mapped_hit_is_read_on_the_loop(self, tmp_path, monkeypatch):
        async def t(server, port):
            st, _, _ = await _post_layout(port, "kary:4,2", layers=4)
            assert st == 200
            reads = self._count_reads(server, monkeypatch)
            flights = []
            real_fly = server._fly

            def fly(spec, coro):
                flights.append(spec)
                return real_fly(spec, coro)

            server._fly = fly
            for payload in (False, True):
                st, _, body = await _post_layout(
                    port, "kary:4,2", layers=4,
                    body={"include_layout": payload},
                )
                doc = json.loads(body)
                assert st == 200 and doc["source"] == "cache"
                assert ("layout" in doc) == payload
                assert self._spans(server, doc["request_id"]) == [
                    "cache.probe"
                ]
            (keyed,) = server._keys.values()
            assert reads == {"get": [keyed.key] * 2, "to_thread": []}
            assert flights == []

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_payload_right_after_a_build_is_the_library_layout(
        self, tmp_path, monkeypatch
    ):
        network, layers = "hypercube:3", 4
        want = _library_layout(network, layers)

        async def t(server, port):
            reads = self._count_reads(server, monkeypatch)
            for _ in range(2):
                st, _, body = await _post_layout(
                    port, network, layers=layers,
                    body={"include_layout": True},
                )
                doc = json.loads(body)
                assert st == 200 and doc["source"] == "built"
                assert doc["layout"] == want
                shutil.rmtree(server.cache.root)
            (keyed,) = server._keys.values()
            # Each request probes once and reads the built entry once.
            # The first derives its key and probes off-loop; every
            # other read is on the loop.
            assert reads["get"] == [keyed.key] * 4
            assert len(reads["to_thread"]) == 1

        _serve(t, cache_dir=str(tmp_path / "cache"))

    @pytest.mark.parametrize("damage", ["delete", "truncate"])
    def test_damaged_mapped_entry_is_rebuilt_with_one_probe(
        self, tmp_path, monkeypatch, damage
    ):
        monkeypatch.setenv(POOL_DELAY_ENV, "0.3")
        network, layers = "hypercube:3", 4
        want = _library_layout(network, layers)

        async def t(server, port):
            st, _, _ = await _post_layout(port, network, layers=layers)
            assert st == 200
            (keyed,) = server._keys.values()
            path = server.cache._path(keyed.key)
            if damage == "delete":
                path.unlink()
            else:
                text = path.read_text()
                path.write_text(text[: len(text) // 2])
            before = server.stats()
            leader = asyncio.ensure_future(_post_layout(
                port, network, layers=layers,
                body={"include_layout": True},
            ))
            await asyncio.sleep(0.1)  # the rebuild is running
            st, _, body = await _post_layout(port, network, layers=layers)
            follower = json.loads(body)
            st_leader, _, body = await leader
            rebuilt = json.loads(body)
            assert st == st_leader == 200
            assert rebuilt["source"] == "built"
            assert rebuilt["layout"] == want
            assert follower["source"] == "coalesced"
            assert self._spans(server, rebuilt["request_id"]) == [
                "cache.probe", "pool.build",
            ]
            after = server.stats()
            assert after["built"] == before["built"] + 1
            assert after["coalesced"] == before["coalesced"] + 1
            cache0, cache1 = before["cache"], after["cache"]
            assert cache1["misses"] == cache0["misses"] + 1
            assert cache1["corrupt"] == cache0["corrupt"] + (
                damage == "truncate"
            )
            # The payload is the entry the worker wrote, read once.
            assert cache1["hits"] == cache0["hits"] + 1
            assert list(server._keys.values()) == [keyed]
            st, _, body = await _post_layout(port, network, layers=layers)
            assert st == 200 and json.loads(body)["source"] == "cache"

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_sweep_reuses_keys_layout_stored(self, tmp_path, monkeypatch):
        async def t(server, port):
            for spec in ("ring:6", "hypercube:3"):
                st, _, _ = await _post_layout(port, spec)
                assert st == 200
            calls = self._count_keying(monkeypatch)
            _, _, raw = await http_request(
                "127.0.0.1", port, "POST", "/v1/sweep",
                body={"networks": ["ring:6", "hypercube:3"], "layers": [2]},
            )
            lines = [json.loads(l) for l in raw.decode().splitlines()]
            assert lines[-1]["sources"] == {"cache": 2}
            assert calls == {"parse": 0, "key_for": 0}

        _serve(t, cache_dir=str(tmp_path / "cache"))


class TestSplicedBody:
    @pytest.mark.parametrize("key", ["a", "layout", "zz"])
    def test_same_bytes_as_json_body_for_sorted_text(self, key):
        obj = {"b": 1, "metrics": {"y": 2.5, "x": [1, 2]}, "n": "s\"q"}
        value = {"wires": [{"v": 1, "u": [0, 1]}], "layers": 4}
        raw = json.dumps(value, sort_keys=True)
        assert json_body_spliced(obj, key, raw) == json_body(
            {**obj, key: value}
        )

    def test_raw_text_is_kept_verbatim(self):
        raw = '{"z": 1, "a": [2, 3]}'
        body = json_body_spliced({"x": 0}, "layout", raw)
        assert raw.encode() in body
        assert json.loads(body) == {"x": 0, "layout": json.loads(raw)}
        assert body.endswith(b"}\n")

    def test_lone_key(self):
        assert json_body_spliced({}, "k", "[1]") == b'{"k": [1]}\n'


class TestValidation:
    def test_unknown_family_is_400(self):
        async def t(server, port):
            st, _, body = await _post_layout(port, "nonsense:5")
            assert st == 400
            assert "unknown network family" in json.loads(body)["error"]

        _serve(t)

    def test_unknown_scheme_is_400(self):
        async def t(server, port):
            st, _, body = await _post_layout(
                port, "ring:6", body={"scheme": "wat"}
            )
            assert st == 400

        _serve(t)

    def test_bad_layers_is_400(self):
        async def t(server, port):
            for layers in ("two", 0, 9999, True):
                st, _, _ = await _post_layout(port, "ring:6", layers=layers)
                assert st == 400

        _serve(t)

    def test_unknown_path_404_wrong_method_405(self):
        async def t(server, port):
            st, _, _ = await http_request(
                "127.0.0.1", port, "GET", "/nope"
            )
            assert st == 404
            st, _, _ = await http_request(
                "127.0.0.1", port, "GET", "/v1/layout"
            )
            assert st == 405

        _serve(t)

    def test_garbage_body_is_400(self):
        async def t(server, port):
            st, _, body = await http_request(
                "127.0.0.1",
                port,
                "POST",
                "/v1/layout",
                body=None,
            )
            # Empty body -> missing network field.
            assert st == 400

        _serve(t)


class TestAdmission:
    def test_quota_429_with_retry_after(self, tmp_path):
        async def t(server, port):
            hdr = {CLIENT_HEADER: "greedy"}
            codes = []
            for _ in range(4):
                st, headers, _ = await _post_layout(
                    port, "ring:6", headers=hdr
                )
                codes.append((st, headers.get("retry-after")))
            assert [c for c, _ in codes] == [200, 200, 429, 429]
            assert all(
                int(ra) >= 1 for c, ra in codes if c == 429
            )
            # A different client id has its own bucket.
            st, _, _ = await _post_layout(
                port, "ring:6", headers={CLIENT_HEADER: "polite"}
            )
            assert st == 200

        _serve(
            t,
            cache_dir=str(tmp_path / "cache"),
            quota_rate=0.01,
            quota_burst=2.0,
        )

    def test_sweep_cost_counts_expanded_jobs(self):
        async def t(server, port):
            # 2 networks x 2 layer budgets = 4 jobs > burst of 3.
            st, _, body = await http_request(
                "127.0.0.1",
                port,
                "POST",
                "/v1/sweep",
                body={"networks": ["ring:4", "ring:6"], "layers": [2, 4]},
                headers={CLIENT_HEADER: "sweeper"},
            )
            assert st == 429
            assert "burst" in json.loads(body)["error"]

        _serve(t, quota_rate=0.01, quota_burst=3.0)

    def test_max_inflight_503(self, monkeypatch):
        monkeypatch.setenv(POOL_DELAY_ENV, "0.5")

        async def t(server, port):
            slow = asyncio.ensure_future(_post_layout(port, "ring:8"))
            await asyncio.sleep(0.1)  # let it occupy the gate
            st, headers, body = await _post_layout(port, "ring:6")
            assert st == 503
            assert "retry-after" in headers
            st_slow, _, slow_body = await slow
            assert st_slow == 200
            assert json.loads(slow_body)["source"] == "built"

        _serve(t, max_inflight=1)


def _post_and_reset(port, path, body):
    """POST ``body`` on a fresh connection, then close it with a TCP
    reset (``SO_LINGER`` 0) before reading anything."""
    payload = json_body(body)
    head = (
        f"POST {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "Content-Type: application/json\r\n\r\n"
    ).encode()
    with socket.create_connection(("127.0.0.1", port)) as sock:
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.sendall(head + payload)


class TestGateRelease:
    """Every request that enters the in-flight gate leaves it."""

    def test_reset_sweeps_give_their_slots_back(self, tmp_path):
        async def t(server, port):
            for _ in range(40):
                _post_and_reset(
                    port, "/v1/sweep",
                    {"networks": ["ring:4"], "layers": [2]},
                )
                await asyncio.sleep(0)

            async def idle():
                _, _, body = await http_request(
                    "127.0.0.1", port, "GET", "/stats"
                )
                return json.loads(body)["gate"]["active"] == 0

            await _until(idle)
            st, _, body = await _post_layout(port, "ring:4")
            assert st == 200, body

        _serve(t, cache_dir=str(tmp_path / "cache"), max_inflight=4)

    def test_reset_cold_sweep_cancels_its_queued_builds(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(POOL_DELAY_ENV, "0.4")
        networks = [f"ring:{n}" for n in range(4, 14)]

        async def t(server, port):
            # Started before the sweep, this build takes the one worker.
            other = asyncio.ensure_future(_post_layout(port, "ring:3"))
            await asyncio.sleep(0.1)
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            payload = json_body({"networks": networks, "layers": [2]})
            writer.write(
                b"POST /v1/sweep HTTP/1.1\r\nHost: x\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )
            await reader.readuntil(b'"event": "start"')

            async def stats():
                _, _, body = await http_request(
                    "127.0.0.1", port, "GET", "/stats"
                )
                return json.loads(body)

            async def queued():
                return (await stats())["pool"]["pending"] > len(networks)

            await _until(queued)
            writer.transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            writer.close()
            # The sweep's stream fails when its first job lands; its
            # other builds are dropped from the queue then, not run one
            # by one for nobody (that would take 10 x 0.4 s).
            t0 = time.monotonic()

            async def drained():
                s = await stats()
                return s["pool"]["pending"] == 0 and s["gate"]["active"] == 0

            await _until(drained)
            assert time.monotonic() - t0 < 2.0
            st, _, _ = await other
            assert st == 200
            assert server._flights == {}
            entries = list(server.cache.root.rglob("*.json"))
            assert len(entries) < len(networks)
            st, _, body = await _post_layout(port, networks[-1])
            assert st == 200 and json.loads(body)["source"] == "built"

        _serve(t, cache_dir=str(tmp_path / "cache"), max_inflight=4)


class TestSweepStreaming:
    def test_sweep_streams_jsonl_events(self, tmp_path):
        async def t(server, port):
            st, headers, body = await http_request(
                "127.0.0.1",
                port,
                "POST",
                "/v1/sweep",
                body={
                    "networks": ["ring:4", "ring:6", "hypercube:3"],
                    "layers": [2, 4],
                    "name": "st",
                },
            )
            assert st == 200
            assert headers["transfer-encoding"] == "chunked"
            lines = [
                json.loads(line) for line in body.decode().splitlines()
            ]
            assert lines[0]["event"] == "start"
            assert lines[0]["jobs"] == 6
            jobs = [l for l in lines if l["event"] == "job"]
            assert sorted(j["index"] for j in jobs) == list(range(6))
            assert all(j["metrics"]["area"] > 0 for j in jobs)
            done = lines[-1]
            assert done["event"] == "done"
            assert done["errors"] == 0
            assert sum(done["sources"].values()) == 6

        _serve(t, cache_dir=str(tmp_path / "cache"), workers=2)

    def test_sweep_warm_rerun_hits_cache(self, tmp_path):
        async def t(server, port):
            body = {"networks": ["ring:4", "ring:6"], "layers": [2]}
            await http_request(
                "127.0.0.1", port, "POST", "/v1/sweep", body=body
            )
            _, _, raw = await http_request(
                "127.0.0.1", port, "POST", "/v1/sweep", body=body
            )
            lines = [json.loads(l) for l in raw.decode().splitlines()]
            done = lines[-1]
            assert done["sources"] == {"cache": 2}

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_sweep_validates_body(self):
        async def t(server, port):
            st, _, _ = await http_request(
                "127.0.0.1", port, "POST", "/v1/sweep", body={}
            )
            assert st == 400
            st, _, _ = await http_request(
                "127.0.0.1",
                port,
                "POST",
                "/v1/sweep",
                body={"networks": ["ring:4"], "layers": ["two"]},
            )
            assert st == 400

        _serve(t)


class TestIntrospection:
    def test_healthz_stats_metrics(self, tmp_path):
        async def t(server, port):
            st, _, body = await http_request(
                "127.0.0.1", port, "GET", "/healthz"
            )
            doc = json.loads(body)
            assert st == 200 and doc["ok"] and doc["workers_alive"] == 1
            await _post_layout(port, "ring:6")
            await _post_layout(port, "ring:6")
            st, _, body = await http_request(
                "127.0.0.1", port, "GET", "/stats"
            )
            stats = json.loads(body)
            assert stats["built"] == 1 and stats["hits"] == 1
            assert stats["pool"]["workers"] == 1
            st, _, body = await http_request(
                "127.0.0.1", port, "GET", "/metrics"
            )
            text = body.decode()
            assert st == 200
            assert "repro_serve_requests_total" in text
            assert "repro_serve_request_ms_bucket" in text

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_keepalive_serves_multiple_requests(self, tmp_path):
        async def t(server, port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            from repro.serve.protocol import json_body, read_response

            try:
                for _ in range(3):
                    payload = json_body(
                        {"network": "ring:6", "layers": 2}
                    )
                    writer.write(
                        (
                            "POST /v1/layout HTTP/1.1\r\n"
                            f"Host: x\r\nContent-Length: {len(payload)}"
                            "\r\nContent-Type: application/json\r\n\r\n"
                        ).encode()
                        + payload
                    )
                    await writer.drain()
                    st, _, body = await read_response(reader)
                    assert st == 200
            finally:
                writer.close()

        _serve(t, cache_dir=str(tmp_path / "cache"))


def _kill_pool_worker():
    """SIGKILL one pool worker of the in-process server."""
    (victim, *_) = multiprocessing.active_children()
    os.kill(victim.pid, signal.SIGKILL)


async def _healthz(port):
    _, _, body = await http_request("127.0.0.1", port, "GET", "/healthz")
    return json.loads(body)


async def _alive_is(port, n):
    return (await _healthz(port))["workers_alive"] == n


async def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not await predicate():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.05)


class TestWorkerDeath:
    """A dead pool worker costs its in-flight requests a prompt 503 and
    nothing more: the pool is replaced and later builds succeed."""

    def test_killed_mid_build_is_503_at_once_then_rebuilt(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(POOL_DELAY_ENV, "1.0")

        async def t(server, port):
            # One build running, one queued behind it on the only worker.
            held = [
                asyncio.ensure_future(_post_layout(port, net))
                for net in ("ring:8", "ring:10")
            ]
            await asyncio.sleep(0.3)
            _kill_pool_worker()
            killed = time.monotonic()
            for st, headers, body in await asyncio.gather(*held):
                assert st == 503, (st, body)
                assert int(headers["retry-after"]) >= 1
            assert time.monotonic() - killed < 2.0
            st, _, body = await _post_layout(port, "ring:8")
            assert st == 200 and json.loads(body)["source"] == "built"

        _serve(t, cache_dir=str(tmp_path / "cache"), request_timeout_s=6)

    def test_idle_death_next_cold_key_is_built(self, tmp_path):
        async def t(server, port):
            st, _, _ = await _post_layout(port, "ring:6")
            assert st == 200
            _kill_pool_worker()
            await _until(lambda: _alive_is(port, 0))
            st, _, body = await _post_layout(port, "ring:8")
            assert st == 200, body
            assert json.loads(body)["source"] == "built"

        _serve(t, cache_dir=str(tmp_path / "cache"))

    def test_healthz_follows_alive_and_stats_keep_pool_keys(self, tmp_path):
        async def t(server, port):
            doc = await _healthz(port)
            assert doc["ok"] is True and doc["workers_alive"] == 2
            # One death breaks the executor, which ends the other worker.
            _kill_pool_worker()
            await _until(lambda: _alive_is(port, 0))
            assert (await _healthz(port))["ok"] is False
            st, _, _ = await _post_layout(port, "ring:6")
            assert st == 200
            doc = await _healthz(port)
            assert doc["ok"] is True and doc["workers_alive"] == 2
            _, _, body = await http_request(
                "127.0.0.1", port, "GET", "/stats"
            )
            pool = json.loads(body)["pool"]
            assert pool == {"workers": 2, "alive": 2, "pending": 0}

        _serve(t, cache_dir=str(tmp_path / "cache"), workers=2)


class TestQuotaUnits:
    """Token buckets and the gate, driven by a fake clock."""

    def test_bucket_refills_continuously(self):
        bucket = TokenBucket(rate=2.0, burst=4.0, now=0.0)
        assert all(bucket.try_take(1, 0.0) for _ in range(4))
        assert not bucket.try_take(1, 0.0)
        assert bucket.retry_after(1) == pytest.approx(0.5)
        assert bucket.try_take(1, 0.5)  # 0.5s x 2/s = 1 token
        assert not bucket.try_take(4, 1.0)  # only 1 token refilled
        assert bucket.try_take(4, 10.0)  # refill capped at burst = 4

    def test_manager_disabled_admits_everything(self):
        q = QuotaManager(rate=0.0)
        assert q.admit("anyone", 10_000) == (True, 0.0)

    def test_manager_isolates_clients(self):
        clock = [0.0]
        q = QuotaManager(rate=1.0, burst=2.0, clock=lambda: clock[0])
        assert q.admit("a")[0] and q.admit("a")[0]
        ok, retry = q.admit("a")
        assert not ok and retry == pytest.approx(1.0)
        assert q.admit("b")[0]  # separate bucket
        clock[0] = 2.0
        assert q.admit("a")[0]  # refilled

    def test_oversized_cost_reports_infinite_retry(self):
        q = QuotaManager(rate=1.0, burst=2.0)
        ok, retry = q.admit("a", cost=5.0)
        assert not ok and retry == float("inf")

    def test_gate_counts_and_limits(self):
        gate = AdmissionGate(limit=2)
        assert gate.try_enter() and gate.try_enter()
        assert not gate.try_enter()
        assert gate.snapshot()["rejected"] == 1
        gate.leave()
        assert gate.try_enter()
        unlimited = AdmissionGate(limit=0)
        assert all(unlimited.try_enter() for _ in range(100))
