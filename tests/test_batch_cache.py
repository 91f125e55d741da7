"""Content-addressed layout cache: keys, round-trips, corruption."""

import hashlib
import json

import pytest

from repro.batch.cache import CACHE_SCHEMA_VERSION, LayoutCache
from repro.batch.spec import parse_network
from repro.cli import _zoo_networks
from repro.core.metrics import measure
from repro.core.schemes import layout_network
from repro.grid.io import (
    FORMAT_VERSION,
    canonical_json,
    encode_label,
    layout_to_json,
)
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

    def test_fingerprint_preserves_structure_order_and_name(self, cache):
        a = build_network([0, 1, 2], [(0, 1), (1, 2)], "a")
        b = build_network([0, 1, 2], [(1, 2), (0, 1)], "a")  # edge order
        c = build_network([0, 1, 2], [(0, 1), (1, 2)], "c")  # name
        keys = [
            cache.key_for(n, scheme="auto", layers=2)[0] for n in (a, b, c)
        ]
        assert len(set(keys)) == 3

    def test_same_structure_same_fingerprint_across_doors(self, cache):
        """A graph rebuilt from the same node/edge stream keys
        identically, whatever code path constructed it."""
        net = Hypercube(3)
        clone = build_network(net.nodes, net.edges, net.name)
        assert cache.key_for(net, scheme="auto", layers=2) == cache.key_for(
            clone, scheme="auto", layers=2
        )

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
    def test_bool_label_still_raises(self, cache, nodes):
        net = build_network(nodes, [tuple(nodes)], "b")
        with pytest.raises(TypeError, match="unsupported node label"):
            cache.key_for(net, scheme="auto", layers=2)


def _reference_doc(net, *, scheme, layers, params=None):
    """The key document as a dict, built label by label: the form the
    key text must match byte for byte under ``canonical_json``."""
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "format": FORMAT_VERSION,
        "network": {
            "name": net.name,
            "nodes": [encode_label(v) for v in net.nodes],
            "edges": [
                [encode_label(u), encode_label(v)] for u, v in net.edges
            ],
        },
        "scheme": scheme,
        "layers": layers,
        "params": dict(params or {}),
    }


def _hand_built():
    return [
        build_network(["a", "b", "c"], [("a", "b"), ("c", "b")], "strs"),
        build_network(
            [(0, (1, 2)), (0, (2, 1)), ((3,), "x")],
            [((0, (1, 2)), (0, (2, 1))), (((3,), "x"), (0, (1, 2)))],
            "nested",
        ),
        build_network(
            [0, "0", (0,), ()], [(0, "0"), ((0,), ()), ("0", ())], "mixed"
        ),
        build_network(
            ["über", "ß", ("é", 1)],
            [("über", "ß"), (("é", 1), "über")],
            "Réseau-ÿ\u2603",
        ),
        build_network([5, 3, 9], [(9, 3), (3, 5), (9, 3)], "parallel"),
        build_network([], [], "empty"),
    ]


class TestKeyText:
    """``key_for`` writes the key document's canonical text directly;
    it must be byte-identical to ``canonical_json`` of the document."""

    CASES = [
        *((n.name, n) for n in _zoo_networks()),
        *((n.name, n) for n in _hand_built()),
    ]

    @pytest.mark.parametrize(
        "net", [n for _, n in CASES], ids=[name for name, _ in CASES]
    )
    @pytest.mark.parametrize(
        "scheme,layers,params",
        [
            ("auto", 4, None),
            ("generic", 2, {"b": [1, {"z": 0, "y": "é"}], "a": 2.5}),
        ],
        ids=["plain", "params"],
    )
    def test_key_text_is_canonical_json_of_the_document(
        self, cache, net, scheme, layers, params
    ):
        key, key_text = cache.key_for(
            net, scheme=scheme, layers=layers, params=params
        )
        ref = _reference_doc(net, scheme=scheme, layers=layers, params=params)
        assert key_text == canonical_json(ref)
        assert key == hashlib.sha256(key_text.encode()).hexdigest()
        assert key_text.isascii() and "\n" not in key_text

    def test_int_equal_endpoints_key_as_the_nodes_they_equal(self, cache):
        """Edge endpoints that equal an int node without being exact
        ints (numpy ints, say) key as that node, as they always did."""
        np = pytest.importorskip("numpy")
        plain = build_network([0, 1, 2], [(0, 1), (1, 2)], "n")
        wide = build_network(
            [0, 1, 2], [(np.int64(0), np.int64(1)), (1, np.int32(2))], "n"
        )
        assert cache.key_for(wide, scheme="auto", layers=2) == cache.key_for(
            plain, scheme="auto", layers=2
        )


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

    def test_entry_is_one_json_document_in_three_lines(self, cache):
        """Header, key text verbatim, layout string: and still one JSON
        document that plain ``json.load`` reads whole."""
        key, key_text, payload, metrics = _store(cache, Hypercube(3))
        text = cache._path(key).read_text()
        lines = text.split("\n")
        assert len(lines) == 3
        assert lines[1] == '"key": ' + key_text + ","
        assert json.loads(text) == {
            "key": json.loads(key_text),
            "layout": payload,
            "layout_sha256": hashlib.sha256(payload.encode()).hexdigest(),
            "metrics": metrics,
        }

    def test_miss_on_absent_key(self, cache):
        key, doc = cache.key_for(Ring(5), scheme="auto", layers=2)
        assert cache.get(key, doc) is None
        assert cache.stats.misses == 1

    def test_put_requires_metrics(self, cache):
        net = Ring(5)
        key, doc = cache.key_for(net, scheme="auto", layers=2)
        with pytest.raises(TypeError, match="metrics"):
            cache.put(key, doc, layout_to_json(layout_network(net)))
        assert cache.get(key, doc) is None

    def test_metrics_less_entry_is_a_miss_when_metrics_required(self, cache):
        """Every entry must carry metrics: one without (an older fuzzer
        wrote those) is corrupt -- a miss, deleted so it is rebuilt."""
        net = Ring(5)
        key, doc = cache.key_for(net, scheme="auto", layers=2)
        cache.put(key, doc, layout_to_json(layout_network(net)), {})
        path = cache._path(key)
        path.write_text(
            path.read_text().replace('"metrics": {},', '"metrics": null,')
        )
        assert cache.get(key, doc) is None
        assert not path.exists()
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 1, "corrupt": 1, "writes": 1,
        }
        _, _, _, metrics = _store(cache, net)
        assert cache.get(key, doc).metrics == metrics


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
        head, key_line, layout_line = path.read_text().split("\n")
        flipped = layout_line.replace('\\"layers\\": 2', '\\"layers\\": 3')
        assert flipped != layout_line
        # Still the three-line shape: only the digest check can catch it.
        path.write_text("\n".join((head, key_line, flipped)))
        assert json.loads(path.read_text())["layout"] != payload
        assert cache.get(key, doc) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()

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

    def test_swapped_entry_with_valid_digest_is_deleted(self, cache):
        """The swapped file's own digest checks out: only the key-text
        comparison rejects it."""
        key, doc, payload, _ = _store(cache, Ring(6))
        other_key, other_doc = cache.key_for(Ring(7), scheme="auto", layers=2)
        swapped = self._entry_path(cache, other_key)
        swapped.parent.mkdir(parents=True, exist_ok=True)
        swapped.write_text(self._entry_path(cache, key).read_text())
        stored = json.loads(swapped.read_text())
        assert stored["layout_sha256"] == hashlib.sha256(
            stored["layout"].encode()
        ).hexdigest()
        assert cache.get(other_key, other_doc) is None
        assert cache.stats.corrupt == 1
        assert not swapped.exists()
        assert cache.get(key, doc).layout_json == payload

    def _old_one_line_entry(self, cache, net):
        key, doc, payload, metrics = _store(cache, net)
        path = self._entry_path(cache, key)
        path.write_text(json.dumps({
            "key": json.loads(doc),
            "layout": payload,
            "layout_sha256": hashlib.sha256(payload.encode()).hexdigest(),
            "metrics": metrics,
        }))
        return key, doc, path

    def test_old_one_line_entry_is_a_miss_and_rebuilt(self, cache):
        net = Ring(6)
        key, doc, path = self._old_one_line_entry(cache, net)
        assert cache.get(key, doc) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()
        _store(cache, net)
        assert cache.get(key, doc) is not None

    def test_old_one_line_entry_kept_when_readonly(self, cache):
        key, doc, path = self._old_one_line_entry(cache, Ring(6))
        ro = LayoutCache(cache.root, readonly=True)
        assert ro.get(key, doc) is None
        assert ro.stats.corrupt == 1
        assert path.exists()

    @pytest.mark.parametrize(
        "head",
        [
            '{"layout_sha256": garbage,',
            '{"layout_sha256": "00", "metrics": null,',
            '{"layout_sha256": 7, "metrics": null,',
            '{"layout_sha256": "%s", "metrics": [1],',
            '{"metrics": null, "layout_sha256": "%s",',
            "",
        ],
        ids=["garbage", "wrong-digest", "int-digest", "list-metrics",
             "reordered", "empty"],
    )
    def test_bad_header_line_is_corrupt(self, cache, head):
        key, doc, payload, _ = _store(cache, Ring(6))
        path = self._entry_path(cache, key)
        _, key_line, layout_line = path.read_text().split("\n")
        if "%s" in head:
            head %= hashlib.sha256(payload.encode()).hexdigest()
        path.write_text("\n".join((head, key_line, layout_line)))
        assert cache.get(key, doc) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda line: '"layout": {"a": 1}}',
            lambda line: line[:-1] + ', "extra": 1}',
            lambda line: line[:-1] + " }",
            lambda line: line + "\n",
        ],
        ids=["not-a-string", "extra-field", "space", "fourth-line"],
    )
    def test_bad_layout_line_is_corrupt(self, cache, edit):
        """The layout line must be exactly ``"layout": <string>}``."""
        key, doc, _, _ = _store(cache, Ring(6))
        path = self._entry_path(cache, key)
        head, key_line, layout_line = path.read_text().split("\n")
        path.write_text("\n".join((head, key_line, edit(layout_line))))
        assert cache.get(key, doc) is None
        assert cache.stats.corrupt == 1

    def test_non_ascii_byte_is_corrupt(self, cache):
        key, doc, _, _ = _store(cache, Ring(6))
        path = self._entry_path(cache, key)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10] + b"\xff" + raw[-9:])
        assert cache.get(key, doc) is None
        assert cache.stats.corrupt == 1

    def test_non_dict_entry_is_corrupt(self, cache):
        key, doc = cache.key_for(Ring(5), scheme="auto", layers=2)
        path = self._entry_path(cache, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("[1, 2, 3]")
        assert cache.get(key, doc) is None
        assert cache.stats.corrupt == 1


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
