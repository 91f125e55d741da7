"""Array kernels for the hot validation and analysis passes.

The kernels live in :mod:`repro.accel.vector` and run on numpy arrays:
validator clean-tests over :class:`repro.grid.table.WireTable` columns
and the exact-cutwidth DP.
Validator kernels are *conservative*: a "clean" verdict is only
returned when the scalar check provably accepts, so callers fall back
to the original scalar sweep -- and its byte-identical error message --
whenever a kernel reports suspicion.
"""

from repro.accel.vector import *  # noqa: F401,F403  (re-exports __all__)
