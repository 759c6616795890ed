"""How fast the host runs while the benchmark measures, from a reference
kernel timed alongside it.

The benchmark shares a few cores with other tenants, and their load moves
the speed of the same code by a fifth to a third from one ten-second spell
to the next: a pure Python loop, the optimizer and the executor's NumPy
kernels alike, minimum latencies included.  Measured on such a host, two
runs of the same program differ more than a regression the benchmark must
catch.

:class:`HostSpeed` runs a small fixed kernel -- a stable sort, a gather, a
weighted bincount and a dict fold -- in a thread of its own every
:data:`INTERVAL_S` for as long as the run measures, and times each call in
that thread's CPU time, which leaves out the waits for the interpreter lock
the client threads hold.  The kernel calls nothing of the engine, so its time
follows the host and not the program.  Each timed interval of the run -- a
statement, a round, a set-up -- is scaled by :meth:`HostSpeed.scale` over
that interval, so it reads as it would on a host where the kernel takes
:data:`REFERENCE_S`; the host's speed changes within a run, so one factor
for the whole run would still let slow spells widen the latency
percentiles.  The kernel holds the interpreter lock for about 2% of the run.
"""

from __future__ import annotations

import math
import statistics
import threading
from time import perf_counter, thread_time

import numpy as np

#: Kernel CPU time that defines the reference host speed; a quiet 2-CPU host
#: takes 4-5 ms.
REFERENCE_S = 0.004
INTERVAL_S = 0.25
#: Kernel timings this close to an interval count for it: about eight
#: timings even for the shortest statement.
PAD_S = 1.0
ARRAY_LEN = 20_000
FOLD_LEN = 3_000


class HostSpeed:
    """Kernel timings taken in a background thread while the block runs::

        with HostSpeed() as speed:
            started = perf_counter()
            ...  # one timed interval
            elapsed = perf_counter() - started
        elapsed * speed.scale(started, started + elapsed)
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1000, ARRAY_LEN)
        self._values = rng.random(ARRAY_LEN)
        #: (perf_counter() when the call ended, its CPU seconds)
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-speed")

    def _kernel(self) -> float:
        started = thread_time()
        order = np.argsort(self._keys, kind="stable")
        self._values[order].sum()
        np.bincount(self._keys, weights=self._values)
        folded: dict[tuple[int, int], int] = {}
        for i in range(FOLD_LEN):
            key = (i % 97, i % 89)
            folded[key] = folded.get(key, 0) + i
        sorted(folded.items())
        return thread_time() - started

    def _sample(self) -> None:
        self._kernel()  # the first call pays for page faults and cold caches
        while not self._stop.wait(INTERVAL_S):
            elapsed = self._kernel()
            self.samples.append((perf_counter(), elapsed))

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def kernel_s(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Median kernel CPU time from ``PAD_S`` before ``start`` to
        ``PAD_S`` after ``end``; over the whole run if none fall there."""
        near = [s for t, s in self.samples if start - PAD_S <= t <= end + PAD_S]
        return statistics.median(near or [s for _, s in self.samples])

    def scale(self, start: float, end: float) -> float:
        """Factor that turns the time from ``start`` to ``end`` into
        reference-host time; divide a rate over that interval by it."""
        return REFERENCE_S / self.kernel_s(start, end)
