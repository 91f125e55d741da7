"""Counters, gauges, and histograms for the layout pipeline.

A :class:`MetricsRegistry` holds named instruments created on first
use: monotonically increasing :class:`Counter`\\ s (wires routed,
tracks packed, validator checks run), last-value :class:`Gauge`\\ s,
and :class:`Histogram`\\ s (queue depths, link utilization) with
power-of-two bucket boundaries by default.

Creation is lock-guarded so concurrent first-use from several threads
is safe; the per-instrument update path is a plain ``+=`` / ``append``
under CPython's atomic-enough semantics for our single-writer spans,
with a lock available via :meth:`MetricsRegistry.counter` consumers
that need strict cross-thread totals (the instruments themselves use
a lock for updates, so totals are exact).

The module-level default registry is what the ``obs`` helpers
(:func:`repro.obs.count` etc.) write into when tracing is enabled.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "registry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self.value += n


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v


class Histogram:
    """A distribution summary: count/sum/min/max plus bucket counts.

    ``bounds`` are inclusive upper bucket edges; values above the last
    edge land in the overflow bucket.  The default edges are powers of
    two, a good fit for queue depths and cycle counts.
    """

    __slots__ = (
        "_lock", "bounds", "buckets", "count", "total", "min", "max",
        "exemplars",
    )

    DEFAULT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

    def __init__(self, bounds: tuple = DEFAULT_BOUNDS):
        self._lock = threading.Lock()
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        # Per-bucket exemplars: bucket label ("le_<edge>"/"overflow")
        # -> {"trace_id": ..., "value": ...}, last observation wins.
        # Keyed by edge label, not index, so widening needs no remap.
        self.exemplars: dict[str, dict] = {}

    def _bucket_key(self, index: int) -> str:
        if index < len(self.bounds):
            return f"le_{self.bounds[index]}"
        return "overflow"

    def observe(self, v: float, exemplar: str | None = None) -> None:
        with self._lock:
            self.count += 1
            self.total += v
            if self.min is None or v < self.min:
                self.min = v
            if self.max is None or v > self.max:
                self.max = v
            for i, edge in enumerate(self.bounds):
                if v <= edge:
                    self.buckets[i] += 1
                    break
            else:
                i = len(self.bounds)
                self.buckets[-1] += 1
            if exemplar is not None:
                self.exemplars[self._bucket_key(i)] = {
                    "trace_id": str(exemplar),
                    "value": v,
                }

    def observe_many(self, values) -> None:
        """Record every value in ``values``, as repeated :meth:`observe`
        calls would, under one lock acquisition.

        The sum accumulates in iteration order and ``min``/``max`` keep
        the first extreme seen, so :meth:`as_dict` is byte-identical to
        the per-value path.  Buckets come from a bisect over the sorted
        edges.  No exemplars are recorded.
        """
        values = list(values)
        if not values:
            return
        bounds = self.bounds
        with self._lock:
            total = self.total
            buckets = self.buckets
            for v in values:
                total += v
                buckets[bisect_left(bounds, v)] += 1
            self.total = total
            self.count += len(values)
            lo, hi = min(values), max(values)
            if self.min is None or lo < self.min:
                self.min = lo
            if self.max is None or hi > self.max:
                self.max = hi

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 < q <= 1``) from buckets.

        The estimate interpolates linearly inside the bucket holding
        the rank, with the bucket's value range clamped to the
        observed ``min``/``max`` (so a single-bucket histogram reports
        exact percentiles and the overflow bucket tops out at ``max``
        rather than infinity).  Deterministic, and exact whenever all
        observations in the deciding bucket share one value.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if cum + n >= rank:
                lo = self.bounds[i - 1] if i > 0 else self.min
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                if lo is None:
                    lo = 0.0
                if hi is None:
                    hi = float(lo)
                # Project both edges into [min, max] *monotonically*
                # (clamp each endpoint into the observed range, rather
                # than lo=max(...) / hi=min(...) independently): after
                # a merge widens the bucket edges, a deciding bucket
                # can lie entirely outside [min, max], and the naive
                # clamp then crosses the edges (lo > hi) and silently
                # reports hi.  The projection keeps lo <= hi always.
                lo = _clamp(lo, self.min, self.max)
                hi = _clamp(hi, self.min, self.max)
                if hi <= lo:
                    return float(hi)
                frac = (rank - cum) / n
                # The interpolation can overshoot hi by an ulp when
                # frac rounds against a large hi-lo span; re-project.
                return _clamp(lo + (hi - lo) * frac, lo, hi)
            cum += n
        return float(self.max) if self.max is not None else 0.0

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Rebuild a histogram from its :meth:`as_dict` form.

        The round trip is exact: bucket counts, count/sum/min/max all
        come back verbatim, so percentile queries on the rebuilt
        histogram equal the original's.  This is how consumers of a
        serialized distribution (``SimulationResult.latency_hist``,
        run-report JSON) query percentiles without re-observing.
        """
        bounds, counts, overflow = _parse_buckets(data.get("buckets", {}))
        if bounds:
            h = cls(bounds)
            h.buckets = [*counts, overflow]
        else:
            h = cls()
        h.count = int(data.get("count", 0))
        h.total = float(data.get("sum", 0.0))
        h.min = data.get("min")
        h.max = data.get("max")
        for key, ex in (data.get("exemplars") or {}).items():
            h.exemplars[str(key)] = dict(ex)
        return h

    def as_dict(self) -> dict:
        doc = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "buckets": {
                f"le_{edge}": n for edge, n in zip(self.bounds, self.buckets)
            }
            | {"overflow": self.buckets[-1]},
        }
        # Exemplars ride as a sibling of "buckets" so pre-exemplar
        # consumers (and `_parse_buckets`) never see the new key.
        if self.exemplars:
            doc["exemplars"] = {k: dict(v) for k, v in self.exemplars.items()}
        return doc

    def _widen(self, new_bounds: tuple) -> None:
        """Rebucket onto ``new_bounds`` (a superset of ``self.bounds``).

        Every existing edge appears in ``new_bounds``, so each bucket
        count moves verbatim to the bucket ending at the same edge --
        counts are conserved exactly, at the cost of finer new edges
        inside an old bucket's range staying empty.
        """
        mapping = {edge: new_bounds.index(edge) for edge in self.bounds}
        buckets = [0] * (len(new_bounds) + 1)
        for edge, n in zip(self.bounds, self.buckets):
            buckets[mapping[edge]] += n
        buckets[-1] += self.buckets[-1]
        self.bounds = tuple(new_bounds)
        self.buckets = buckets

    def merge_dict(self, data: dict) -> None:
        """Fold another histogram's :meth:`as_dict` form into this one.

        Mismatched bucket bounds widen both sides to the sorted union
        of edges, so no count is dropped; summaries (count/sum/min/
        max) combine exactly, while bucket counts keep upper-edge
        placement (a count recorded against edge ``e`` stays at ``e``
        even if the union introduces finer edges below it).

        Exemplars survive in both directions: a snapshot from a
        pre-exemplar worker (no ``"exemplars"`` key) leaves ours in
        place, while incoming exemplars win per bucket (they are the
        newer observation).  Exemplar keys are edge labels, so they
        stay valid across the widening above.
        """
        other_bounds, other_counts, overflow = _parse_buckets(
            data.get("buckets", {})
        )
        with self._lock:
            if other_bounds != self.bounds:
                union = tuple(sorted(set(self.bounds) | set(other_bounds)))
                self._widen(union)
            index = {edge: i for i, edge in enumerate(self.bounds)}
            for edge, n in zip(other_bounds, other_counts):
                self.buckets[index[edge]] += n
            self.buckets[-1] += overflow
            self.count += int(data.get("count", 0))
            self.total += float(data.get("sum", 0.0))
            for key, pick in (("min", min), ("max", max)):
                v = data.get(key)
                if v is None:
                    continue
                mine = getattr(self, key)
                setattr(self, key, v if mine is None else pick(mine, v))
            for key, ex in (data.get("exemplars") or {}).items():
                self.exemplars[str(key)] = dict(ex)


def _clamp(v: float, lo: float | None, hi: float | None) -> float:
    """``v`` projected into ``[lo, hi]`` (either bound may be absent)."""
    if lo is not None and v < lo:
        v = lo
    if hi is not None and v > hi:
        v = hi
    return float(v)


def _parse_buckets(buckets: dict) -> tuple[tuple, list[int], int]:
    """Recover ``(bounds, counts, overflow)`` from an as_dict bucket map."""
    edges = []
    overflow = 0
    for key, n in buckets.items():
        if key == "overflow":
            overflow = int(n)
            continue
        text = key[3:] if key.startswith("le_") else key
        edge = float(text)
        if edge.is_integer():
            edge = int(edge)
        edges.append((edge, int(n)))
    edges.sort(key=lambda en: en[0])
    bounds = tuple(e for e, _ in edges)
    counts = [n for _, n in edges]
    return bounds, counts, overflow


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter())
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge())
        return g

    def histogram(self, name: str, bounds: tuple | None = None) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.setdefault(
                    name,
                    Histogram(bounds) if bounds is not None else Histogram(),
                )
        return h

    def snapshot(self) -> dict:
        """A JSON-ready dump of every instrument."""
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: h.as_dict() for k, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add; gauges take the incoming value (last-write-wins,
        matching :meth:`Gauge.set`); histograms fold bucket-by-bucket
        via :meth:`Histogram.merge_dict`, widening to the union of
        bucket bounds when the two sides disagree.  This is what the
        sweep/fuzz parents call on each worker's snapshot, in worker
        order, so the merged registry is deterministic for a given
        worker count.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            bounds, _, _ = _parse_buckets(data.get("buckets", {}))
            self.histogram(name, bounds or None).merge_dict(data)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _registry
