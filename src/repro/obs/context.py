"""Trace context propagation and request-level telemetry.

Zero-dependency W3C-traceparent-style context: a ``TraceContext``
carries a 128-bit trace id, a 64-bit span id, and a sampling
decision across process and machine boundaries.  The wire format is
the familiar ``00-<trace_id>-<span_id>-<flags>`` string carried in
the ``x-repro-trace`` header (see ``repro.serve.protocol``).

One more piece lives here because every layer of the stack needs it
and none may import anything heavy: ``RequestLog``, a tail-sampling
ring buffer of completed requests -- a bounded window of recent
traffic that *always* retains errors and the slowest decile, so "why
was p99 high" has an answer after the fact.  The request span trees
it keeps are built by ordinary ``obs.span`` calls under a root the
server scopes with :func:`repro.obs.trace.use_span`.

Everything here is stdlib-only and safe to import from anywhere.
"""

from __future__ import annotations

import contextlib
import contextvars
import heapq
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator, Optional

from .trace import SpanRecord

TRACEPARENT_VERSION = "00"

_FLAG_SAMPLED = 0x01


def _hex_id(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """An immutable trace-context record.

    ``trace_id`` is 32 lowercase hex chars, ``span_id`` 16; the pair
    plus the sampling flag round-trips through ``to_traceparent``.
    """

    trace_id: str
    span_id: str
    sampled: bool = True

    def child(self) -> "TraceContext":
        """A new context in the same trace with a fresh span id."""
        return TraceContext(self.trace_id, _hex_id(8), self.sampled)

    def to_traceparent(self) -> str:
        flags = _FLAG_SAMPLED if self.sampled else 0
        return (
            f"{TRACEPARENT_VERSION}-{self.trace_id}"
            f"-{self.span_id}-{flags:02x}"
        )

    def as_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceContext":
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data.get("span_id") or _hex_id(8)),
            sampled=bool(data.get("sampled", True)),
        )


def new_context(sampled: bool = True) -> TraceContext:
    """A fresh root context with random trace and span ids."""
    return TraceContext(_hex_id(16), _hex_id(8), sampled)


def _is_hex(text: str) -> bool:
    try:
        int(text, 16)
    except ValueError:
        return False
    return True


def parse_traceparent(text: Optional[str]) -> Optional[TraceContext]:
    """Parse a traceparent-style header; ``None`` on any malformation.

    Tolerant by design: a bad header from an old client degrades to
    "no inbound context" rather than a 4xx.
    """
    if not text:
        return None
    parts = text.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or not _is_hex(version):
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id):
        return None
    if len(span_id) != 16 or not _is_hex(span_id):
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(
        trace_id, span_id, bool(int(flags, 16) & _FLAG_SAMPLED)
    )


def should_sample(rate: float, rng: Optional[random.Random] = None) -> bool:
    """Head-sampling coin flip for requests with no inbound context."""
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    roll = rng.random() if rng is not None else random.random()
    return roll < rate


# ---------------------------------------------------------------------------
# Current-context propagation (threads *and* asyncio tasks).

_current: contextvars.ContextVar[Optional[TraceContext]] = (
    contextvars.ContextVar("repro_trace_context", default=None)
)


def current_context() -> Optional[TraceContext]:
    return _current.get()


def set_context(ctx: Optional[TraceContext]) -> contextvars.Token:
    return _current.set(ctx)


def reset_context(token: contextvars.Token) -> None:
    with contextlib.suppress(ValueError):
        _current.reset(token)


@contextlib.contextmanager
def use_context(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    token = set_context(ctx)
    try:
        yield ctx
    finally:
        reset_context(token)


# ---------------------------------------------------------------------------
# Tail-sampling ring buffer of completed requests.


@dataclass
class RequestRecord:
    """One completed request as retained by ``RequestLog``."""

    request_id: str
    trace_id: str
    path: str
    status: int
    latency_ms: float
    time_unix: float
    sampled: bool = True
    source: Optional[str] = None
    error: Optional[str] = None
    attrs: dict = field(default_factory=dict)
    root: Optional[SpanRecord] = None
    seq: int = 0

    def summary(self, retained: Optional[list] = None) -> dict:
        doc = {
            "request_id": self.request_id,
            "trace_id": self.trace_id,
            "path": self.path,
            "status": self.status,
            "latency_ms": round(self.latency_ms, 3),
            "time_unix": self.time_unix,
            "sampled": self.sampled,
            "has_spans": self.root is not None,
        }
        if self.source is not None:
            doc["source"] = self.source
        if self.error is not None:
            doc["error"] = self.error
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if retained is not None:
            doc["retained"] = retained
        return doc


class RequestLog:
    """Tail-sampling retention for completed requests.

    Three overlapping pools, each bounded:

    * ``recent`` -- the last ``capacity`` requests, FIFO;
    * ``errors`` -- the last ``keep_errors`` requests with a 5xx
      status or an error annotation (never evicted by traffic);
    * ``slow`` -- the ``keep_slow`` slowest requests seen so far
      (the "slowest decile": default ``capacity // 10``).

    A request may appear in several pools; lookups dedupe.  All
    methods are thread-safe.
    """

    def __init__(
        self,
        capacity: int = 256,
        keep_errors: Optional[int] = None,
        keep_slow: Optional[int] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.keep_errors = (
            max(1, self.capacity // 4)
            if keep_errors is None
            else max(0, int(keep_errors))
        )
        self.keep_slow = (
            max(1, self.capacity // 10)
            if keep_slow is None
            else max(0, int(keep_slow))
        )
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._recent: deque[RequestRecord] = deque(maxlen=self.capacity)
        self._errors: deque[RequestRecord] = deque(maxlen=self.keep_errors)
        self._error_seqs: set[int] = set()
        # Min-heap of (latency_ms, seq, record): the root is the record
        # the next slower one displaces.  Ordering by (latency, seq)
        # keeps the newest of equally slow requests, as the slowest-
        # first, newest-first rule does.
        self._slow: list[tuple[float, int, RequestRecord]] = []
        self._slow_seqs: set[int] = set()
        self._added = 0
        self._dropped = 0

    def add(self, record: RequestRecord) -> None:
        with self._lock:
            self._seq += 1
            seq = record.seq = self._seq
            if not record.time_unix:
                record.time_unix = self._clock()
            self._added += 1
            if len(self._recent) == self.capacity:
                evicted = self._recent[0].seq
                if not (
                    evicted in self._error_seqs or evicted in self._slow_seqs
                ):
                    self._dropped += 1
            self._recent.append(record)
            if self.keep_errors and (
                record.status >= 500 or record.error is not None
            ):
                if len(self._errors) == self.keep_errors:
                    self._error_seqs.discard(self._errors[0].seq)
                self._errors.append(record)
                self._error_seqs.add(seq)
            if self.keep_slow:
                item = (record.latency_ms, seq, record)
                if len(self._slow) < self.keep_slow:
                    heapq.heappush(self._slow, item)
                    self._slow_seqs.add(seq)
                elif item[:2] > self._slow[0][:2]:
                    out = heapq.heapreplace(self._slow, item)
                    self._slow_seqs.discard(out[1])
                    self._slow_seqs.add(seq)

    def _pools(self, record: RequestRecord) -> list:
        tags = []
        # ``recent`` holds exactly the newest len(_recent) sequence numbers.
        if record.seq > self._seq - len(self._recent):
            tags.append("recent")
        if record.seq in self._error_seqs:
            tags.append("error")
        if record.seq in self._slow_seqs:
            tags.append("slow")
        return tags

    def _all_records(self) -> list[RequestRecord]:
        seen: dict[int, RequestRecord] = {}
        for rec in chain(
            self._recent, self._errors, (r for _, _, r in self._slow)
        ):
            seen[rec.seq] = rec
        return sorted(seen.values(), key=lambda r: -r.seq)

    def requests(self, limit: Optional[int] = None) -> list[dict]:
        """Retained requests, newest first, tagged with their pools."""
        with self._lock:
            docs = [
                rec.summary(retained=self._pools(rec))
                for rec in self._all_records()
            ]
        if limit is not None:
            docs = docs[: max(0, int(limit))]
        return docs

    def find(self, ident: str) -> Optional[RequestRecord]:
        """Look up by trace id or request id."""
        if not ident:
            return None
        with self._lock:
            for rec in self._all_records():
                if ident in (rec.trace_id, rec.request_id):
                    return rec
        return None

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "keep_errors": self.keep_errors,
                "keep_slow": self.keep_slow,
                "added": self._added,
                "dropped": self._dropped,
                "retained": len(self._all_records()),
                "errors_retained": len(self._errors),
            }
