"""Content-addressed on-disk cache for built layouts.

Every cacheable unit of work is *pure*: a canonical network structure
plus a scheme name, a layer budget, and scheme parameters fully
determine the layout the pipeline builds (all builders are
deterministic).  The cache therefore addresses entries by the SHA-256
of a canonical **key document**::

    {"schema": CACHE_SCHEMA_VERSION,      # cache entry format
     "format": grid.io.FORMAT_VERSION,    # layout serialization format
     "network": {"nodes": [...], "edges": [...]},   # structural, not
     "scheme": "auto",                    #   family-name based
     "layers": 4,
     "params": {...}}

so the same graph reached through different front doors (a family
sweep, the fuzzer's zoo draw, a CLI invocation) hits the same entry,
and bumping either version constant invalidates every stale entry at
once.

Entries are JSON files ``<root>/<k[:2]>/<k>.json`` holding the key
document (checked back on read -- a hash collision or a swapped file
is treated as a miss), the layout JSON payload with its own SHA-256
(bit corruption is detected, never trusted), and the layout's measured
metrics (so cache hits skip not only the build but also validation and
measurement).  Writes go through a temp file + ``os.replace`` so
concurrent sweep workers sharing one cache directory never observe a
torn entry; readers in ``readonly`` mode (the fuzz workers) never
write or delete anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.obs import logging as olog
from repro.grid.io import (
    FORMAT_VERSION,
    _Memo,
    canonical_json,
    encode_label,
    layout_from_json,
)
from repro.grid.layout import GridLayout
from repro.topology.base import Network

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntry",
    "CacheStats",
    "LayoutCache",
    "cache_key",
    "network_fingerprint",
]

#: Bump to invalidate every existing cache entry (e.g. when a builder
#: change makes previously cached layouts non-reproducible).
CACHE_SCHEMA_VERSION = 1


def network_fingerprint(net: Network) -> dict:
    """A canonical document identifying ``net`` *as layout input*.

    Every builder is a deterministic function of the network's name
    (embedded in layout metadata), its node list, and its edge list --
    **in order** -- so the fingerprint preserves exactly that: node
    labels through the :mod:`repro.grid.io` codec, edges as emitted
    (parallel edges and endpoint order included).  Two constructions of
    the same labelled graph share an entry precisely when they would
    build byte-identical layouts.  Each distinct label is encoded once
    per call, as :func:`~repro.grid.io.layout_to_json` does.
    """
    label = _Memo(encode_label)
    return {
        "name": net.name,
        "nodes": [label[v] for v in net.nodes],
        "edges": [[label[u], label[v]] for u, v in net.edges],
    }


def cache_key(doc: dict) -> str:
    """SHA-256 of the canonical JSON form of a key document."""
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache handle.

    ``coalesced`` counts getters that neither hit nor built: they
    arrived while another thread was already building the same key
    (see :meth:`LayoutCache.get_or_build`) and simply waited for its
    result.
    """

    hits: int = 0
    misses: int = 0
    corrupt: int = 0
    writes: int = 0
    coalesced: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "writes": self.writes,
            "coalesced": self.coalesced,
        }

    def merge(self, other: "CacheStats | dict") -> None:
        d = other.as_dict() if isinstance(other, CacheStats) else other
        self.hits += d.get("hits", 0)
        self.misses += d.get("misses", 0)
        self.corrupt += d.get("corrupt", 0)
        self.writes += d.get("writes", 0)
        self.coalesced += d.get("coalesced", 0)


@dataclass
class CacheEntry:
    """One retrieved entry: the layout JSON payload plus its metrics."""

    key: str
    layout_json: str
    metrics: dict | None = None

    def layout(self) -> GridLayout:
        """Deserialize the stored layout (hits that only need metrics
        never pay this)."""
        return layout_from_json(self.layout_json)


class _Flight:
    """One in-progress build: followers wait on ``done``."""

    __slots__ = ("done", "entry", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.entry: CacheEntry | None = None
        self.error: BaseException | None = None


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
        # Single-flight state: one _Flight per key currently being
        # built *by this handle*; guarded by _flight_lock.
        self._flight_lock = threading.Lock()
        self._inflight: dict[str, _Flight] = {}

    # -- keys -----------------------------------------------------------

    def key_for(
        self,
        network: Network,
        *,
        scheme: str,
        layers: int,
        params: dict | None = None,
    ) -> tuple[str, dict]:
        """``(hex key, key document)`` for one unit of layout work."""
        doc = {
            "schema": CACHE_SCHEMA_VERSION,
            "format": FORMAT_VERSION,
            "network": network_fingerprint(network),
            "scheme": scheme,
            "layers": layers,
            "params": dict(params or {}),
        }
        return cache_key(doc), doc

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read -----------------------------------------------------------

    def get(self, key: str, key_doc: dict | None = None) -> CacheEntry | None:
        """The entry under ``key``, or None on miss *or* corruption.

        A corrupt entry (unparseable JSON, payload hash mismatch, or --
        when ``key_doc`` is given -- a key document that does not match)
        is deleted (unless readonly) and reported as a miss, so the
        caller rebuilds instead of trusting it.
        """
        path = self._path(key)
        try:
            raw = path.read_text()
        except OSError:
            self.stats.misses += 1
            obs.count("cache.misses")
            olog.debug("cache.miss", key=key[:16])
            return None
        entry = self._decode(raw, key, key_doc)
        if entry is None:
            self.stats.corrupt += 1
            self.stats.misses += 1
            obs.count("cache.corrupt")
            obs.count("cache.misses")
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
            return None
        self.stats.hits += 1
        obs.count("cache.hits")
        olog.debug("cache.hit", key=key[:16])
        return entry

    @staticmethod
    def _decode(raw: str, key: str, key_doc: dict | None) -> CacheEntry | None:
        try:
            doc = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(doc, dict):
            return None
        layout_json = doc.get("layout")
        digest = doc.get("layout_sha256")
        if not isinstance(layout_json, str) or not isinstance(digest, str):
            return None
        if hashlib.sha256(layout_json.encode()).hexdigest() != digest:
            return None
        if key_doc is not None and doc.get("key") != key_doc:
            return None
        metrics = doc.get("metrics")
        if metrics is not None and not isinstance(metrics, dict):
            return None
        return CacheEntry(key=key, layout_json=layout_json, metrics=metrics)

    # -- write ----------------------------------------------------------

    def put(
        self,
        key: str,
        key_doc: dict,
        layout_json: str,
        metrics: dict | None = None,
    ) -> bool:
        """Store an entry atomically; no-op (False) in readonly mode."""
        if self.readonly:
            return False
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "key": key_doc,
            "layout": layout_json,
            "layout_sha256": hashlib.sha256(layout_json.encode()).hexdigest(),
            "metrics": metrics,
        }
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
        )
        try:
            # One json.dumps call runs the C encoder; json.dump would
            # stream through the pure-Python iterencode (same bytes).
            text = json.dumps(doc)
            with os.fdopen(fd, "w") as fh:
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

    # -- single-flight build --------------------------------------------

    def get_or_build(
        self,
        key: str,
        key_doc: dict,
        build,
        *,
        require_metrics: bool = True,
    ) -> tuple[CacheEntry, str]:
        """The entry under ``key``, building it at most once per handle.

        ``build()`` must return ``(layout_json, metrics)``.  Returns
        ``(entry, source)`` where ``source`` is ``"cache"`` (warm
        hit), ``"built"`` (this caller paid the build), or
        ``"coalesced"`` (another thread was already building the same
        key; this caller waited for its result without re-probing the
        disk, so neither the build work nor the ``cache.misses``
        count is doubled).

        Concurrency is **per handle**: two threads sharing one
        :class:`LayoutCache` coalesce; separate processes (or separate
        handles) still race benignly through the atomic ``put``.  A
        build that raises releases the flight and propagates to every
        waiter, so a later request retries cleanly.
        """
        while True:
            with self._flight_lock:
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _Flight()
                    self._inflight[key] = flight
                    leader = True
                else:
                    leader = False
            if not leader:
                flight.done.wait()
                if flight.error is not None:
                    raise flight.error
                if flight.entry is None:
                    # The leader found a usable warm entry *after* we
                    # enqueued (rare); loop and take the fast path.
                    continue
                self.stats.coalesced += 1
                obs.count("cache.coalesced")
                olog.debug("cache.coalesced", key=key[:16])
                return flight.entry, "coalesced"
            try:
                entry = self.get(key, key_doc)
                if entry is not None and (
                    not require_metrics or entry.metrics is not None
                ):
                    flight.entry = entry
                    return entry, "cache"
                olog.info("cache.build", key=key[:16])
                with obs.span("cache.build", key=key[:16]):
                    layout_json, metrics = build()
                self.put(key, key_doc, layout_json, metrics)
                entry = CacheEntry(
                    key=key, layout_json=layout_json, metrics=metrics
                )
                flight.entry = entry
                return entry, "built"
            except BaseException as exc:
                flight.error = exc
                raise
            finally:
                with self._flight_lock:
                    self._inflight.pop(key, None)
                flight.done.set()
