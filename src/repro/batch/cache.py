"""Content-addressed on-disk cache for built layouts.

Every cacheable unit of work is *pure*: a canonical network structure
plus a scheme name, a layer budget, and scheme parameters fully
determine the layout the pipeline builds (all builders are
deterministic).  The cache therefore addresses entries by the SHA-256
of the canonical JSON text of a **key document**::

    {"format": grid.io.FORMAT_VERSION,    # layout serialization format
     "layers": 4,
     "network": {"edges": [...], "name": ..., "nodes": [...]},
     "params": {...},
     "schema": CACHE_SCHEMA_VERSION,      # cache entry format
     "scheme": "auto"}

so the same graph reached through different front doors (a family
sweep, the fuzzer's zoo draw, a CLI invocation) hits the same entry,
and bumping either version constant invalidates every stale entry at
once.  :meth:`LayoutCache.key_for` writes that text directly -- it is
byte for byte :func:`~repro.grid.io.canonical_json` of the document,
which is never built as a dict -- and the text travels with the key:
``put`` stores it verbatim and ``get`` compares it as a string.

Entries are files ``<root>/<k[:2]>/<k>.json``, each one JSON document
written as exactly three lines::

    {"layout_sha256": "<hex>", "metrics": <the layout's metrics dict>,
    "key": <key text>,
    "layout": <the layout JSON, as a JSON string>}

The key line is checked back on read (a hash collision or a swapped
file is a miss), the layout carries its own SHA-256 (bit corruption is
detected, never trusted), and the layout's measured metrics -- every
entry has them -- let hits skip not only the build but also validation
and measurement.  A read parses only the header and the layout's
string literal, never the key.  Anything that is not this shape --
truncated, flipped, swapped, without a metrics dict, or an older
one-line entry -- is a miss, deleted so the caller rebuilds it.

The cache is ``key_for`` + ``get`` + ``put`` and nothing else: each
sweep, fuzz or pool worker is a single-threaded process with its own
handle, and the only place concurrent requests for one key meet is the
daemon, whose asyncio flight map coalesces them before the cache is
asked.  Writes go through a temp file + ``os.replace`` so processes
sharing one cache directory never observe a torn entry, and racing
builders of one key write identical bytes; readers in ``readonly``
mode (parallel fuzz workers) never write or delete anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from repro import obs
from repro.obs import logging as olog
from repro.grid.io import (
    FORMAT_VERSION,
    _Memo,
    canonical_json,
    label_text,
    layout_from_json,
)
from repro.grid.layout import GridLayout
from repro.topology.base import Network

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntry",
    "CacheStats",
    "LayoutCache",
]

#: Bump to invalidate every existing cache entry (e.g. when a builder
#: change makes previously cached layouts non-reproducible).
CACHE_SCHEMA_VERSION = 1

#: Label types whose compact JSON already is the canonical text (edge
#: tuples encode as lists, exactly the key's edge form).
_PLAIN = frozenset((int, str))
#: Compact C encoder for node and edge lists, which are flat and so
#: need no cycle check.
_COMPACT = json.JSONEncoder(separators=(",", ":"), check_circular=False)

#: The entry's three lines as ``(prefix, suffix)`` around each body:
#: ``put`` writes them and ``get`` checks them.
_HEAD, _KEY, _LAYOUT = (
    ('{"layout_sha256": ', ","),
    ('"key": ', ","),
    ('"layout": ', "}"),
)
_DECODER = json.JSONDecoder()


def _label_text(label) -> str:
    """The canonical JSON text of one node label."""
    return label_text(label, (",", ":"))


def _network_text(net: Network) -> str:
    """The canonical JSON text of ``net`` *as layout input*.

    Every builder is a deterministic function of the network's name
    (embedded in layout metadata), its node list, and its edge list --
    **in order** -- so the text preserves exactly that: node labels
    through the :mod:`repro.grid.io` codec, edges as emitted (parallel
    edges and endpoint order included).  Two constructions of the same
    labelled graph share an entry precisely when they would build
    byte-identical layouts.  Plain int/str labels go through one C
    encode per list; otherwise each distinct label is encoded
    once and the edges are joined from the label texts.
    """
    nodes, edges = net.nodes, net.edges
    if set(map(type, nodes)) <= _PLAIN and set(
        map(type, chain.from_iterable(edges))
    ) <= _PLAIN:
        nodes_text = _COMPACT.encode(nodes)
        edges_text = _COMPACT.encode(edges)
    else:
        text = _Memo(_label_text)
        nodes_text = "[" + ",".join([text[v] for v in nodes]) + "]"
        edges_text = "[" + ",".join(
            [f"[{text[u]},{text[v]}]" for u, v in edges]
        ) + "]"
    return (
        '{"edges":' + edges_text
        + ',"name":' + canonical_json(net.name)
        + ',"nodes":' + nodes_text + "}"
    )


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache handle."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
        }

    def merge(self, other: "CacheStats | dict") -> None:
        d = other.as_dict() if isinstance(other, CacheStats) else other
        self.hits += d.get("hits", 0)
        self.misses += d.get("misses", 0)
        self.corrupt += d.get("corrupt", 0)
        self.writes += d.get("writes", 0)


@dataclass
class CacheEntry:
    """One retrieved entry: the layout JSON payload plus its metrics."""

    key: str
    layout_json: str
    metrics: dict

    def layout(self) -> GridLayout:
        """Deserialize the stored layout (hits that only need metrics
        never pay this)."""
        return layout_from_json(self.layout_json)


class LayoutCache:
    """Content-addressed layout store rooted at a directory.

    Parameters
    ----------
    root:
        Cache directory; created on first write.
    readonly:
        Never write, and never delete corrupt entries -- the mode fuzz
        workers share a sweep-populated cache in.
    """

    def __init__(self, root: str | os.PathLike, *, readonly: bool = False):
        self.root = Path(root)
        self.readonly = readonly
        self.stats = CacheStats()

    # -- keys -----------------------------------------------------------

    def key_for(
        self,
        network: Network,
        *,
        scheme: str,
        layers: int,
        params: dict | None = None,
    ) -> tuple[str, str]:
        """``(hex key, key text)`` for one unit of layout work.

        The key text is the canonical JSON of the key document (keys in
        ``sort_keys`` order, written out by hand), and the key is its
        SHA-256.
        """
        key_text = (
            '{"format":' + canonical_json(FORMAT_VERSION)
            + ',"layers":' + canonical_json(layers)
            + ',"network":' + _network_text(network)
            + ',"params":' + canonical_json(dict(params or {}))
            + ',"schema":' + canonical_json(CACHE_SCHEMA_VERSION)
            + ',"scheme":' + canonical_json(scheme) + "}"
        )
        return hashlib.sha256(key_text.encode()).hexdigest(), key_text

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read -----------------------------------------------------------

    def get(self, key: str, key_text: str) -> CacheEntry | None:
        """The entry under ``key``, or None on miss *or* corruption.

        ``key_text`` is the key's text from :meth:`key_for`; the entry's
        key line must hold exactly it.  A corrupt entry (not the
        three-line shape, a key line that differs, a payload hash
        mismatch, or no metrics dict) is deleted (unless readonly) and
        reported as a miss, so the caller rebuilds instead of trusting
        it.
        """
        path = self._path(key)
        try:
            raw = path.read_text(encoding="ascii")
        except UnicodeDecodeError:
            raw = ""  # entries are ASCII: a non-ASCII byte is corruption
        except OSError:
            return self._miss(key)
        entry = self._decode(raw, key, key_text)
        if entry is None:
            self.stats.corrupt += 1
            obs.count("cache.corrupt")
            olog.warning(
                "cache.corrupt",
                key=key[:16],
                readonly=self.readonly,
            )
            if not self.readonly:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing unlink
                    pass
            return self._miss(key)
        self.stats.hits += 1
        obs.count("cache.hits")
        olog.debug("cache.hit", key=key[:16])
        return entry

    def _miss(self, key: str) -> None:
        self.stats.misses += 1
        obs.count("cache.misses")
        olog.debug("cache.miss", key=key[:16])
        return None

    @staticmethod
    def _decode(raw: str, key: str, key_text: str) -> CacheEntry | None:
        """The entry in ``raw``, or None unless it is a sound entry for
        ``key_text``.  Only the header and the layout's string literal
        are parsed; the key line is compared as text."""
        head_end = raw.find("\n")
        key_end = raw.find("\n", head_end + 1)
        if head_end < 0 or key_end < 0:
            return None
        if raw[head_end + 1:key_end] != _KEY[0] + key_text + _KEY[1]:
            return None
        head = raw[:head_end]
        if not (head.startswith(_HEAD[0]) and head.endswith(_HEAD[1])):
            return None
        layout_at = key_end + 1 + len(_LAYOUT[0])
        if not (
            raw.startswith(_LAYOUT[0], key_end + 1)
            and raw.endswith(_LAYOUT[1])
        ):
            return None
        try:
            header = json.loads(head[:-len(_HEAD[1])] + "}")
            # Decoded in place: the layout line is never copied out.
            layout_json, end = _DECODER.raw_decode(raw, layout_at)
        except ValueError:
            return None
        if end != len(raw) - len(_LAYOUT[1]):
            return None
        digest = header.get("layout_sha256")
        metrics = header.get("metrics")
        if not isinstance(layout_json, str) or not isinstance(digest, str):
            return None
        if hashlib.sha256(layout_json.encode()).hexdigest() != digest:
            return None
        if not isinstance(metrics, dict):
            return None
        return CacheEntry(key=key, layout_json=layout_json, metrics=metrics)

    # -- write ----------------------------------------------------------

    def put(
        self,
        key: str,
        key_text: str,
        layout_json: str,
        metrics: dict,
    ) -> bool:
        """Store an entry atomically; no-op (False) in readonly mode.

        The entry is assembled from ``key_text`` verbatim, one small
        header ``json.dumps`` and one ``json.dumps`` of the layout
        string; the key document is never re-encoded.
        """
        if self.readonly:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        head = json.dumps({
            "layout_sha256": hashlib.sha256(layout_json.encode()).hexdigest(),
            "metrics": metrics,
        })
        text = "".join((
            head[:-1], _HEAD[1], "\n",
            _KEY[0], key_text, _KEY[1], "\n",
            _LAYOUT[0], json.dumps(layout_json), _LAYOUT[1],
        ))
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="ascii") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.writes += 1
        obs.count("cache.writes")
        olog.debug("cache.write", key=key[:16])
        return True
