"""Layout-as-a-service: the `repro serve` daemon and its clients.

The serving stack, bottom to top:

* :mod:`repro.serve.protocol` -- zero-dependency HTTP/1.1 framing
  (both sides of the wire) with chunked JSONL streaming;
* :mod:`repro.serve.quotas` -- per-client token buckets and the
  global in-flight admission gate;
* :mod:`repro.serve.pool` -- a stdlib process pool running
  :func:`repro.batch.runner.run_sweep_job` behind an asyncio facade,
  replaced when a worker dies;
* :mod:`repro.serve.server` -- the daemon: routing, request
  coalescing, cache-first resolution, streaming sweeps;
* :mod:`repro.serve.loadgen` -- the trace-replaying load generator
  with :mod:`repro.obs`-backed latency percentiles.
"""

from repro.serve.loadgen import run_loadgen, synth_rows
from repro.serve.pool import WorkerPool
from repro.serve.protocol import (
    SERVE_SCHEMA,
    TRACE_HEADER,
    HttpError,
    http_request,
)
from repro.serve.quotas import AdmissionGate, QuotaManager, TokenBucket
from repro.serve.server import LayoutServer, ServeConfig, run_server

__all__ = [
    "SERVE_SCHEMA",
    "TRACE_HEADER",
    "AdmissionGate",
    "HttpError",
    "LayoutServer",
    "QuotaManager",
    "ServeConfig",
    "TokenBucket",
    "WorkerPool",
    "http_request",
    "run_loadgen",
    "run_server",
    "synth_rows",
]
