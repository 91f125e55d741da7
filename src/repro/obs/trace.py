"""Nestable tracing spans with a thread-safe in-process collector.

A *span* brackets one pipeline phase (``with span("route_row_links")``)
and records wall time, custom attributes, and ad-hoc counts.  Spans
nest: entering a span inside another makes it a child, so one traced
run yields a tree mirroring the pipeline's call structure
(build -> pack_channels -> ..., validate -> ..., measure -> ...).

Tracing is **off by default** and the disabled path is a single module
global check returning a shared no-op span, so instrumentation costs
~nothing unless :func:`enable` was called.  The innermost open span
lives in one :class:`contextvars.ContextVar`: every asyncio task copies
its creator's context and every thread starts with an empty one, so
spans opened by concurrent tasks or threads never interleave into each
other's trees.  The shared root list is guarded by a lock.
"""

from __future__ import annotations

import contextlib
import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "SpanRecord",
    "current_span",
    "current_span_name",
    "use_span",
    "enable",
    "disable",
    "enabled",
    "span",
    "attach",
    "trace_roots",
    "reset_trace",
    "phase_totals",
    "format_span_tree",
    "span_names",
    "find_spans",
]

_enabled = False


@dataclass(slots=True)
class SpanRecord:
    """One completed (or in-flight) span: a node of the trace tree."""

    name: str
    attrs: dict
    start: float = 0.0
    duration: float = 0.0
    counts: dict = field(default_factory=dict)
    children: list["SpanRecord"] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start,
            "duration_ms": round(self.duration * 1e3, 4),
            "attrs": dict(self.attrs),
            "counts": dict(self.counts),
            "children": [c.as_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanRecord":
        """Rebuild a span tree from its :meth:`as_dict` form.

        This is how worker processes ship their span forests home:
        serialize with ``as_dict``, rebuild in the parent, re-root
        under a per-worker span (see :func:`attach`).
        """
        return cls(
            name=data["name"],
            attrs=dict(data.get("attrs", {})),
            start=float(data.get("start_s", 0.0)),
            duration=float(data.get("duration_ms", 0.0)) / 1e3,
            counts=dict(data.get("counts", {})),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )

    def self_time(self) -> float:
        """Duration minus time attributed to child spans."""
        return self.duration - sum(c.duration for c in self.children)

    def end(self) -> float:
        """``start + duration``: when the span closed (monotonic)."""
        return self.start + self.duration

    def walk(self):
        """Depth-first iterator over this span and every descendant."""
        stack = [self]
        while stack:
            rec = stack.pop()
            yield rec
            stack.extend(reversed(rec.children))


#: The innermost open span of the running task or thread.
_current: ContextVar[SpanRecord | None] = ContextVar(
    "repro_span", default=None
)
_roots_lock = threading.Lock()
_roots: list[SpanRecord] = []


def _adopt(rec: SpanRecord) -> None:
    """Make ``rec`` a child of the innermost open span, else a root."""
    parent = _current.get()
    if parent is not None:
        parent.children.append(rec)
    else:
        with _roots_lock:
            _roots.append(rec)


class Span:
    """Context manager recording one :class:`SpanRecord`."""

    __slots__ = ("_rec", "_token")

    def __init__(self, name: str, attrs: dict):
        self._rec = SpanRecord(name=name, attrs=attrs)

    def __enter__(self) -> "Span":
        self._rec.start = time.perf_counter()
        _adopt(self._rec)
        self._token = _current.set(self._rec)
        return self

    def __exit__(self, *exc) -> bool:
        self._rec.duration = time.perf_counter() - self._rec.start
        _current.reset(self._token)
        return False

    def set(self, **attrs) -> "Span":
        self._rec.attrs.update(attrs)
        return self

    def add(self, key: str, n: int = 1) -> "Span":
        counts = self._rec.counts
        counts[key] = counts.get(key, 0) + n
        return self

    @property
    def record(self) -> SpanRecord:
        return self._rec


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        return self

    def add(self, key, n=1):
        return self


NOOP_SPAN = _NoopSpan()


def span(name: str, /, **attrs):
    """Open a span named ``name``; a no-op unless tracing is enabled.

    The name is positional-only, so ``name=...`` is a legal attribute
    (``span("build", name=spec.name)``).
    """
    if not _enabled:
        return NOOP_SPAN
    return Span(name, attrs)


def attach(rec: SpanRecord) -> None:
    """Graft an already-built span tree into the live trace.

    The subtree lands under the innermost span open in the current
    context, or as a new root when none is open.  This is the parent
    side of cross-process tracing: worker forests come home as dicts,
    are rebuilt with :meth:`SpanRecord.from_dict`, wrapped in a
    per-worker span, and attached under the orchestrating span.
    """
    if _enabled:
        _adopt(rec)


@contextlib.contextmanager
def use_span(rec: SpanRecord):
    """Make a caller-owned ``rec`` the current span for the block.

    Spans opened inside (in this task, and in tasks it creates) nest
    under ``rec``, but ``rec`` itself never joins :func:`trace_roots`:
    the caller keeps the tree.  The daemon scopes each request this
    way, so a long-lived process collects no unbounded root list.
    """
    token = _current.set(rec)
    try:
        yield rec
    finally:
        _current.reset(token)


def current_span() -> SpanRecord | None:
    """The innermost span open in the current context, or None."""
    return _current.get()


def current_span_name() -> str | None:
    """The innermost span's name, or None.

    This is the span context the structured logger stamps on every
    record: a log line emitted inside ``with span("build")`` carries
    ``"span": "build"`` without the call sites threading anything
    through.  Returns None while tracing is disabled or outside any
    span.
    """
    rec = _current.get() if _enabled else None
    return rec.name if rec is not None else None


def enable() -> None:
    """Turn on span collection (and the ``obs`` metric helpers)."""
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def enabled() -> bool:
    return _enabled


def trace_roots() -> list[SpanRecord]:
    """The collected root spans (each a tree), in start order."""
    with _roots_lock:
        return list(_roots)


def reset_trace() -> None:
    """Drop all collected spans (the enabled flag is untouched).

    The calling context also leaves any span still open in it, so a
    forked worker that resets starts its own roots instead of nesting
    under a span it inherited from the parent.
    """
    with _roots_lock:
        _roots.clear()
    _current.set(None)


def span_names(roots: list[SpanRecord] | None = None) -> set[str]:
    """The set of span names appearing anywhere in the forest.

    The request-trace tests compare these sets across worker counts:
    the names a request produces must not depend on which process
    built the layout.
    """
    names: set[str] = set()
    for root in roots if roots is not None else trace_roots():
        for rec in root.walk():
            names.add(rec.name)
    return names


def find_spans(
    name: str, roots: list[SpanRecord] | None = None
) -> list[SpanRecord]:
    """Every span named ``name`` in the forest, depth-first order."""
    found: list[SpanRecord] = []
    for root in roots if roots is not None else trace_roots():
        for rec in root.walk():
            if rec.name == name:
                found.append(rec)
    return found


def phase_totals(
    roots: list[SpanRecord] | None = None,
) -> dict[str, dict]:
    """Aggregate the span forest by span name.

    Returns ``{name: {"calls", "total_s", "self_s"}}`` where ``self_s``
    excludes time spent in child spans -- the number a phase-timing
    breakdown should rank by.
    """
    totals: dict[str, dict] = {}

    def visit(rec: SpanRecord) -> None:
        t = totals.setdefault(
            rec.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        t["calls"] += 1
        t["total_s"] += rec.duration
        t["self_s"] += rec.self_time()
        for c in rec.children:
            visit(c)

    for r in roots if roots is not None else trace_roots():
        visit(r)
    return totals


def format_span_tree(
    roots: list[SpanRecord] | None = None, *, indent: str = "  "
) -> str:
    """Render the span forest as indented ``name  time  attrs`` lines."""
    lines: list[str] = []

    def visit(rec: SpanRecord, depth: int) -> None:
        extras = []
        if rec.attrs:
            extras.append(
                " ".join(f"{k}={v}" for k, v in sorted(rec.attrs.items()))
            )
        if rec.counts:
            extras.append(
                " ".join(f"{k}:{v}" for k, v in sorted(rec.counts.items()))
            )
        suffix = ("  [" + "; ".join(extras) + "]") if extras else ""
        lines.append(
            f"{indent * depth}{rec.name}  {rec.duration * 1e3:.2f}ms{suffix}"
        )
        for c in rec.children:
            visit(c, depth + 1)

    for r in roots if roots is not None else trace_roots():
        visit(r, 0)
    return "\n".join(lines)
