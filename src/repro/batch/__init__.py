"""Batch execution: declarative sweeps, worker fan-out, layout cache.

The three pieces compose:

* :mod:`repro.batch.spec` -- :class:`SweepSpec` (networks x layers x
  scheme) expands into ordered :class:`SweepJob`\\ s; the family
  registry and scheme dispatch live here.
* :mod:`repro.batch.cache` -- :class:`LayoutCache`, a content-addressed
  on-disk store keyed by canonical network structure + scheme + params
  + serialization format version.
* :mod:`repro.batch.runner` -- :class:`SweepRunner` executes a spec
  serially or across worker processes, merging results
  deterministically (worker count never changes the merged output).
"""

from repro.batch.cache import (
    CACHE_SCHEMA_VERSION,
    CacheEntry,
    CacheStats,
    LayoutCache,
)
from repro.batch.runner import JobResult, SweepResult, SweepRunner, run_sweep_job
from repro.batch.spec import (
    FAMILIES,
    SCHEMES,
    SweepJob,
    SweepSpec,
    TrafficSpec,
    dispatch_scheme,
    parse_network,
    standard_family_sweep,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheEntry",
    "CacheStats",
    "FAMILIES",
    "JobResult",
    "LayoutCache",
    "SCHEMES",
    "SweepJob",
    "SweepResult",
    "SweepRunner",
    "SweepSpec",
    "TrafficSpec",
    "dispatch_scheme",
    "parse_network",
    "run_sweep_job",
    "standard_family_sweep",
]
