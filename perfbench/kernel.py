"""The reference kernel every benchmark timing is normalized by.

The host this benchmark runs on changes speed by up to 1.7x in
stretches of seconds, and CPU time moves with wall time, so neither
clock alone can tell a slower program from a slower host.  The kernel
is a fixed pure-Python loop of the same kind of work the program does:
heap pushes and pops, dict updates, tuple allocation.  It runs between
jobs, while the program is idle, and its time scales a job's wall time
to what it would read on a host where the kernel takes exactly
``REF_MS`` milliseconds.

The kernel lives in the benchmark's own files: no change to the
program can change its speed, except through the state of the
interpreter it leaves behind.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Kernel time, in ms, of the reference host.  Normalized timings read
#: as milliseconds at that host speed.
REF_MS = 20.0

#: Loop iterations of one sample: about ``REF_MS`` on a quiet 2-vCPU
#: x86-64 container running CPython 3.11.
ITERATIONS = 16_000

#: Entries of the dict the loop updates at scattered keys (about 10 MB
#: with its int keys).  Slow stretches of this host are partly memory
#: contention: against jobs, a kernel confined to a 65,521-key dict
#: slowed down too much (job time grew as kernel time to the power
#: 0.7-0.8, so normalized times read 10-15% low on a slow host), while
#: this table tracks them at a power of 0.9 and with less noise.
TABLE_SIZE = 1 << 17

#: Depth of the heap the loop keeps pushing to and popping from.
HEAP_DEPTH = 2_048

_SCATTER = 2_654_435_761  # Knuth's multiplicative hash constant


class Kernel:
    """One process's reference kernel and the table it works on."""

    def __init__(self) -> None:
        self._table = dict.fromkeys(range(TABLE_SIZE), 0)
        self._loop(ITERATIONS)  # first run of the code path, untimed

    def _loop(self, iterations: int) -> int:
        table = self._table
        mask = TABLE_SIZE - 1
        heap: list = []
        push, pop = heapq.heappush, heapq.heappop
        acc = 0
        for i in range(iterations):
            key = (i * _SCATTER) & mask
            # The same value every sample, so every sample does the
            # same allocations.
            table[key] = i
            push(heap, (key, i))
            if len(heap) > HEAP_DEPTH:
                acc += pop(heap)[0]
        return acc

    def sample_ms(self) -> float:
        """Time one kernel run, in ms, with the cyclic GC paused so the
        program's garbage is never collected inside the window."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._loop(ITERATIONS)
            return (time.perf_counter() - t0) * 1e3
        finally:
            if enabled:
                gc.enable()
