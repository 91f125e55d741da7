"""The host's speed, read as the time a fixed reference loop takes.

The shared host this benchmark runs on changes speed by a third within
seconds and by more over minutes, and every operation's time moves with
it: over 25-second runs of one workload, every raw latency statistic
spread 12-27 % from run to run.  The loop's time moves the same way, so
an operation's time divided by the loop's time read around it is what
stays steady.  The benchmark reports latency and throughput scaled to a
host on which the loop takes ``REF_MS``.

Each CPU of the host changes speed on its own: read side by side, one
CPU ran the loop in 15 ms while the other took 22 ms.  So the gauge only
tracks work done on the CPU it runs on, and the benchmark pins itself,
and every process it starts, to one CPU (``pin_to_one_cpu``).
"""

from __future__ import annotations

import gc
import json
import os
import random
import time

#: Milliseconds the reference loop takes on the host all scaled times
#: refer to.  On the 2-CPU machine the baselines come from, a run's median
#: reading ranged from 13 to 24 ms (median 15 ms).
REF_MS = 20.0


def pin_to_one_cpu() -> int | None:
    """Restrict this process, and the processes it starts from now on,
    to the lowest-numbered CPU it may run on; returns that CPU, or None
    where the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_loop() -> None:
    """A fixed piece of Python work that calls nothing in the program:
    arithmetic, a dict, a sort and a JSON round trip, about 20 ms."""
    rng = random.Random(1)
    xs = [rng.random() for _ in range(20000)]
    acc: dict = {}
    for i, x in enumerate(xs):
        acc[i % 997] = acc.get(i % 997, 0.0) + x * x
    json.loads(json.dumps({"head": sorted(xs)[:2000], "acc": acc}))
    n = 0
    for i in range(60000):
        n += i * 7 % 13


class Gauge:
    """Reads of ``reference_loop``'s time, taken while the program idles.

    Callers read the gauge only while the program does no work (between
    operations, between request slices, while a server waits), so nothing
    the program does, such as leaving work running in the background, can
    slow the loop and flatter the program's own scaled times.  The garbage
    collector is off while the loop runs, so a program that leaves a large
    heap behind does not slow the loop either.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.start()

    def start(self) -> float:
        """Take the reading the next ``around`` starts from; returns it."""
        self._last = self.read()
        return self._last

    def read(self) -> float:
        """Run the loop once; returns its milliseconds."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_loop()
            ms = (time.perf_counter() - t0) * 1e3
        finally:
            if collecting:
                gc.enable()
        self.samples.append(ms)
        return ms

    def around(self) -> float:
        """The reference time for the work done since the last reading:
        the mean of that reading and a new one."""
        before, self._last = self._last, self.read()
        return (before + self._last) / 2
