"""Host speed, measured by a fixed reference kernel beside the ops.

On a shared virtual machine the speed of a vCPU changes by up to half
over seconds, as other guests load the same cores.  A timed op is
therefore bracketed by runs of a fixed kernel that uses no padiclab
code, and its time is scaled to the speed at which that kernel takes
``REFERENCE_S``.  A change to padiclab cannot change the kernel, so it
shows in the scaled times as in the wall times.

The host does not slow all code alike: interpreted loops over small
objects slow most, long C-level loops over big ints or arrays least.
So each workload has a kernel that does the kind of work its ops do:
``rows_kernel`` for the image code of ``figures``, ``bigint_kernel``
for the sequence and p-adic arithmetic of ``limits`` and ``arith``.
"""

from __future__ import annotations

import bisect
import statistics
import time

# Seconds a kernel takes at the reference speed.  Between ops each takes
# 1.0-1.7 ms under CPython 3.11 on the 2-vCPU Xeon of the README's numbers.
REFERENCE_S = 0.001
# Kernel runs in one sample; the sample is the fastest, so that an
# interrupt during one run does not count as a slow host.
REPEATS = 2
# Seconds on each side of an op within which samples set its local speed.
# The host's speed changes over seconds, so this window sees one speed.
SPAN_S = 0.2

_ROWS = tuple(bytes((i * j) % 7 for j in range(600)) for i in range(48))
_BIG = 3**1000


def rows_kernel() -> int:
    """A per-byte Python loop that builds rows of a byte buffer, as the
    image writers do, then a short loop of big-int reductions."""
    out = bytearray()
    for row in _ROWS:
        out += bytes(d + 48 for d in row)
    acc = 0
    for i in range(1, 300):
        acc ^= (_BIG * i) % 1000003
    return len(out) + acc


def bigint_kernel() -> int:
    """The Catalan recurrence to index 1800: a Python loop of big-int
    multiplications and exact divisions by small ints, on integers that
    grow to about a thousand digits."""
    c = 1
    for i in range(1, 1800):
        c = c * 2 * (2 * i - 1) // (i + 1)
    return c


KERNELS = {"figures": rows_kernel, "limits": bigint_kernel, "arith": bigint_kernel}


def sample(kernel) -> tuple[float, float]:
    """(time at its end, fastest wall seconds of REPEATS kernel runs)."""
    fastest = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        fastest = min(fastest, time.perf_counter() - start)
    return time.perf_counter(), fastest


def scale(latencies: list[float], before: list[int], samples: list) -> list[float]:
    """Each latency scaled by REFERENCE_S over its local kernel time.

    Op i ran between ``samples[before[i]]`` and the sample after it; its
    local kernel time is the median of those two and of every sample
    taken within SPAN_S seconds of them.
    """
    stamps = [stamp for stamp, _ in samples]
    scaled = []
    for seconds, j in zip(latencies, before):
        lo = bisect.bisect_left(stamps, stamps[j] - SPAN_S)
        hi = bisect.bisect_right(stamps, stamps[j + 1] + SPAN_S)
        local = statistics.median(k for _, k in samples[lo:hi])
        scaled.append(seconds * REFERENCE_S / local)
    return scaled
