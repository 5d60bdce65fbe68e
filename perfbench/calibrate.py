"""Host-speed calibration: times scaled to a reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts,
by up to twice, over seconds to minutes: a fixed piece of work can take
0.4 s in one second and 0.7 s in the next, with the process never off
its core.  Medians over one run do not remove a drift that lasts the
whole run, so runs of the same code disagree.

Every timed operation is therefore followed by a short fixed kernel
(none of it the library's code), and the operation's time is reported
as::

    measured time * REFERENCE_S / kernel time measured right after it

that is, the time it would have taken on a host where the kernel takes
``REFERENCE_S``.  A slower host slows both and cancels; a slower library
slows only the operation and shows in full.  The kernel runs outside
every timed interval, with the garbage collector off, so that the
program's own heap does not set the kernel's time.

The drift does not slow all code alike: NumPy passes over memory slow
more than interpreter loops.  So each workload names the kernel whose
work resembles its own (``Workload.kernel``): ``array`` (NumPy calls
over chunk- and cache-sized arrays) for most, ``interpreter`` (object
allocation) for the one whose chunks go mostly to the per-item chunk
adapter.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: A kernel's time on the reference host; about what each takes on an
#: uncontended 2-core Xeon VM.
REFERENCE_S = 1e-3

_RNG = np.random.default_rng(0)
_SMALL = _RNG.integers(0, 1 << 30, 1 << 12)
_LARGE = _RNG.integers(0, 1 << 30, 1 << 17)
_MULT = 2654435761


def array_kernel() -> int:
    """A short interpreter loop, then NumPy passes over a cache-resident
    and a larger array."""
    acc = 0
    for i in range(3000):
        acc += i * i
    for _ in range(20):
        acc += int(np.bincount((_SMALL * _MULT) & 255, minlength=256)[0])
    acc += int(np.bincount(((_LARGE * _MULT) >> 7) & 1023,
                           minlength=1024)[0])
    return acc


def _descending(entry):
    return -entry[0]


def interpreter_kernel() -> int:
    """Dict, tuple and string allocation, then a keyed sort."""
    table = {}
    for i in range(3200):
        table[i] = (i, str(i))
    return len(sorted(table.items(), key=_descending))


KERNELS = {"array": array_kernel, "interpreter": interpreter_kernel}


def host_scale(kernel: str) -> float:
    """Run the named kernel once; REFERENCE_S over its time."""
    fn = KERNELS[kernel]
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()
    return REFERENCE_S / elapsed
