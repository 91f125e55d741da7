"""Content-addressed layout cache: keys, round-trips, corruption."""

import json

import pytest

from repro.batch.cache import (
    CACHE_SCHEMA_VERSION,
    LayoutCache,
    cache_key,
    network_fingerprint,
)
from repro.batch.spec import parse_network
from repro.core.metrics import measure
from repro.core.schemes import layout_network
from repro.grid.io import layout_to_json
from repro.topology import Hypercube, Ring
from repro.topology.base import build_network


@pytest.fixture()
def cache(tmp_path):
    return LayoutCache(tmp_path / "cache")


def _store(cache, net, *, scheme="auto", layers=2, params=None):
    lay = layout_network(net, layers=layers)
    payload = layout_to_json(lay)
    metrics = measure(lay).as_dict()
    key, doc = cache.key_for(net, scheme=scheme, layers=layers, params=params)
    cache.put(key, doc, payload, metrics)
    return key, doc, payload, metrics


class TestKeys:
    def test_key_is_deterministic(self, cache):
        net = Ring(6)
        k1, d1 = cache.key_for(net, scheme="auto", layers=2)
        k2, d2 = cache.key_for(Ring(6), scheme="auto", layers=2)
        assert k1 == k2 and d1 == d2

    def test_key_changes_with_every_input(self, cache):
        net = Ring(6)
        base, _ = cache.key_for(net, scheme="auto", layers=2)
        variants = [
            cache.key_for(net, scheme="generic", layers=2)[0],
            cache.key_for(net, scheme="auto", layers=4)[0],
            cache.key_for(net, scheme="auto", layers=2,
                          params={"x": 1})[0],
            cache.key_for(Ring(7), scheme="auto", layers=2)[0],
        ]
        assert len({base, *variants}) == 5

    def test_key_changes_when_format_version_bumps(self, cache, monkeypatch):
        from repro.batch import cache as mod

        net = Ring(6)
        before, _ = cache.key_for(net, scheme="auto", layers=2)
        monkeypatch.setattr(mod, "FORMAT_VERSION", mod.FORMAT_VERSION + 1)
        bumped_fmt, _ = cache.key_for(net, scheme="auto", layers=2)
        monkeypatch.setattr(mod, "FORMAT_VERSION", mod.FORMAT_VERSION - 1)
        monkeypatch.setattr(
            mod, "CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        bumped_schema, _ = cache.key_for(net, scheme="auto", layers=2)
        assert len({before, bumped_fmt, bumped_schema}) == 3

    def test_fingerprint_preserves_structure_order_and_name(self):
        a = build_network([0, 1, 2], [(0, 1), (1, 2)], "a")
        b = build_network([0, 1, 2], [(1, 2), (0, 1)], "a")  # edge order
        c = build_network([0, 1, 2], [(0, 1), (1, 2)], "c")  # name
        fps = [network_fingerprint(n) for n in (a, b, c)]
        assert len({cache_key(fp) for fp in fps}) == 3

    def test_same_structure_same_fingerprint_across_doors(self):
        """A graph rebuilt from the same node/edge stream fingerprints
        identically, whatever code path constructed it."""
        net = Hypercube(3)
        clone = build_network(net.nodes, net.edges, net.name)
        assert network_fingerprint(net) == network_fingerprint(clone)

    #: ``key_for(parse_network(spec), scheme="auto", layers=4)`` as
    #: computed before labels were memoized: keys must never drift.
    PINNED_KEYS = {
        "ring:12": "25245e13fd5c2662054f7ed76dc5341320b754a5d61bd78d8cfb42a6b11966c7",
        "hypercube:5": "62ce299d9d9d0c55094fce7425872521af720703a6710a7d6a888d24d9b37006",
        "complete:10": "cd8e1062e8823a7d9af14025b1641d5d6e2c9ed260239eb1d784accc394d3ee7",
        "de-bruijn:5": "53811bdd5ed76c5fc96727cacd70bcd788b2807545c5c70a0f4b130b627d06f5",
        "kary:4,2": "9f034bff9be8192e059ca9993dc007f9645c6e1eda4a71702802f520e0d92735",
        "kary:6,3": "04b9b4e9793687d7867caf40adac8ae779d3c0317c3b7c40f5dc8e6369c97e9b",
        "ghc:4,4": "8f50a6d0c47985a766a704dfdb4eb010dad96a07cad93b335a207d3291ff1e05",
        "ghc:5,5,5": "46535358f8838eaa1fda88cadae8fdbe71e4de746873470eb4e9b5b72840f82b",
        "butterfly:3": "d4e64d0ea71a1fa512206873b8a947dfd07b2f940b7ef40f9b30049520c5f551",
        "ccc:4": "faf4eb29f7a6f982da49b5336e0358d4aa4bb940ea6834b7a277b4413295ffd2",
        "star:4": "f991dcefda464ef95eb2b51a4db2dea0e4ab93cf06440387237d3961fad9dd93",
        "hsn:4,2": "b21ce25a310d8efbef77a7a5e46aaae5c9f628296415f51d57e3a9d8d4edf19e",
        "scc:4": "2689acd33447e9dbed46a8b3769e645e5b0436e59e8153197f3238f2830035f1",
        "kary-cluster:4,2,2": "4cdc0049e8f3fa3a5c01480dd81cf6689a43874d4ea8d5f402c58d647234376b",
    }

    @pytest.mark.parametrize("spec", sorted(PINNED_KEYS))
    def test_keys_pinned(self, cache, spec):
        key, _ = cache.key_for(parse_network(spec), scheme="auto", layers=4)
        assert key == self.PINNED_KEYS[spec]

    @pytest.mark.parametrize(
        "nodes", [[True, 2], [(0, True), (1, 2)]], ids=["bare", "nested"]
    )
    def test_bool_label_still_raises(self, nodes):
        net = build_network(nodes, [tuple(nodes)], "b")
        with pytest.raises(TypeError, match="unsupported node label"):
            network_fingerprint(net)


class TestRoundTrip:
    def test_cold_build_vs_cache_hit_byte_identical(self, cache):
        net = Hypercube(3)
        key, doc, payload, metrics = _store(cache, net)
        entry = cache.get(key, doc)
        assert entry is not None
        assert entry.layout_json == payload  # byte-identical payload
        assert entry.metrics == metrics
        assert layout_to_json(entry.layout()) == payload
        assert cache.stats.hits == 1 and cache.stats.writes == 1

    def test_stored_entry_text_is_json_dumps(self, cache):
        """An entry file holds exactly ``json.dumps`` of its document
        (the C encoder; ``json.dump`` would stream the same bytes)."""
        import hashlib

        key, doc, payload, metrics = _store(cache, Hypercube(3))
        text = cache._path(key).read_text()
        assert text == json.dumps({
            "key": doc,
            "layout": payload,
            "layout_sha256": hashlib.sha256(payload.encode()).hexdigest(),
            "metrics": metrics,
        })

    def test_miss_on_absent_key(self, cache):
        key, doc = cache.key_for(Ring(5), scheme="auto", layers=2)
        assert cache.get(key, doc) is None
        assert cache.stats.misses == 1

    def test_metrics_optional(self, cache):
        net = Ring(5)
        lay = layout_network(net, layers=2)
        key, doc = cache.key_for(net, scheme="auto", layers=2)
        cache.put(key, doc, layout_to_json(lay))
        entry = cache.get(key, doc)
        assert entry is not None and entry.metrics is None


class TestCorruption:
    def _entry_path(self, cache, key):
        return cache.root / key[:2] / f"{key}.json"

    def test_truncated_entry_detected_and_rebuilt(self, cache):
        net = Ring(6)
        key, doc, payload, _ = _store(cache, net)
        path = self._entry_path(cache, key)
        path.write_text(path.read_text()[: len(payload) // 2])
        assert cache.get(key, doc) is None  # miss, not garbage
        assert cache.stats.corrupt == 1
        assert not path.exists()  # quarantined
        _store(cache, net)  # rebuild repopulates
        assert cache.get(key, doc).layout_json == payload

    def test_bitflip_in_payload_detected(self, cache):
        net = Ring(6)
        key, doc, payload, _ = _store(cache, net)
        path = self._entry_path(cache, key)
        stored = json.loads(path.read_text())
        stored["layout"] = stored["layout"].replace('"layers": 2', '"layers": 3')
        path.write_text(json.dumps(stored))  # digest now stale
        assert cache.get(key, doc) is None
        assert cache.stats.corrupt == 1

    def test_key_document_mismatch_is_a_miss(self, cache):
        """A swapped file (right digest, wrong key doc) is not trusted."""
        net = Ring(6)
        key, doc, _, _ = _store(cache, net)
        other_key, other_doc = cache.key_for(
            Ring(7), scheme="auto", layers=2
        )
        path = self._entry_path(cache, key)
        swapped = self._entry_path(cache, other_key)
        swapped.parent.mkdir(parents=True, exist_ok=True)
        swapped.write_text(path.read_text())
        assert cache.get(other_key, other_doc) is None
        assert cache.stats.corrupt == 1

    def test_non_dict_entry_is_corrupt(self, cache):
        key, doc = cache.key_for(Ring(5), scheme="auto", layers=2)
        path = self._entry_path(cache, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2, 3]")
        assert cache.get(key, doc) is None
        assert cache.stats.corrupt == 1


class TestSingleFlight:
    """The duplicate-build race: concurrent getters of one cold key."""

    def _inputs(self, cache, net):
        lay = layout_network(net, layers=2)
        key, doc = cache.key_for(net, scheme="auto", layers=2)
        return key, doc, layout_to_json(lay), measure(lay).as_dict()

    def test_racing_getters_build_exactly_once(self, cache):
        """Two threads racing a cold key: one ``cache.build`` log
        event, one ``build()`` call, the loser reports coalesced."""
        import io
        import threading

        from repro.obs import logging as olog

        key, doc, payload, metrics = self._inputs(cache, Ring(6))
        sink = io.StringIO()
        olog.configure(stream=sink, level="debug")
        follower_arrived = threading.Event()
        builds = []

        def build():
            builds.append(threading.get_ident())
            # Hold the key in flight until the follower has committed
            # to get_or_build, then a beat longer so it lands in the
            # in-flight map rather than after the pop.
            follower_arrived.wait(timeout=5.0)
            import time

            time.sleep(0.2)
            return payload, metrics

        results = {}

        def leader():
            results["leader"] = cache.get_or_build(key, doc, build)

        def follower():
            follower_arrived.set()
            results["follower"] = cache.get_or_build(key, doc, build)

        try:
            t1 = threading.Thread(target=leader)
            t1.start()
            t2 = threading.Thread(target=follower)
            t2.start()
            t1.join(timeout=10)
            t2.join(timeout=10)
        finally:
            records = [
                json.loads(line)
                for line in sink.getvalue().splitlines()
                if line
            ]
            olog.close()
        assert len(builds) == 1
        build_events = [
            r for r in records if r["event"] == "cache.build"
        ]
        assert len(build_events) == 1
        sources = sorted(src for _, src in results.values())
        assert sources == ["built", "coalesced"]
        for entry, _ in results.values():
            assert entry.metrics == metrics
            assert entry.layout_json == payload
        assert cache.stats.coalesced == 1
        assert cache.stats.writes == 1

    def test_leader_reprobes_after_winning(self, cache):
        """A key stored between probe and flight entry is a hit, not a
        rebuild."""
        key, doc, payload, metrics = self._inputs(cache, Ring(6))
        cache.put(key, doc, payload, metrics)
        entry, source = cache.get_or_build(
            key, doc, lambda: (_ for _ in ()).throw(AssertionError)
        )
        assert source == "cache"
        assert entry.metrics == metrics

    def test_failed_build_propagates_to_followers(self, cache):
        import threading

        key, doc, _, _ = self._inputs(cache, Ring(6))
        follower_arrived = threading.Event()

        def build():
            follower_arrived.wait(timeout=5.0)
            import time

            time.sleep(0.1)
            raise ValueError("boom")

        errors = []

        def run(set_event):
            if set_event:
                follower_arrived.set()
            try:
                cache.get_or_build(key, doc, build)
            except ValueError as exc:
                errors.append(str(exc))

        t1 = threading.Thread(target=run, args=(False,))
        t1.start()
        t2 = threading.Thread(target=run, args=(True,))
        t2.start()
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert errors.count("boom") == 2
        # The flight is gone: the key is retryable afterwards.
        lay = layout_network(Ring(6), layers=2)
        entry, source = cache.get_or_build(
            key, doc,
            lambda: (layout_to_json(lay), measure(lay).as_dict()),
        )
        assert source == "built"


class TestReadonly:
    def test_readonly_never_writes_or_deletes(self, tmp_path):
        rw = LayoutCache(tmp_path / "c")
        net = Ring(6)
        key, doc, payload, metrics = _store(rw, net)
        ro = LayoutCache(tmp_path / "c", readonly=True)
        assert ro.get(key, doc).layout_json == payload
        assert ro.put(key, doc, payload, metrics) is False
        # Corrupt the entry: readonly detects but must not unlink.
        path = rw.root / key[:2] / f"{key}.json"
        path.write_text("not json")
        assert ro.get(key, doc) is None
        assert path.exists()
        assert ro.stats.writes == 0
