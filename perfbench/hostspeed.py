"""Host speed, sampled beside the program: a fixed reference chunk timed
on a timer signal while an operation runs.

On a shared host the CPU's speed changes level (about 1.5x apart) for
seconds to minutes at a time, with the load of other tenants.  Every
``interval_s`` of a timed operation the ``SIGALRM`` handler runs the
reference chunk twice on the same CPU as the program and times the
second pass.  The chunk is pure-Python and numpy arithmetic on data
that stays in the core's cache, plus scattered object reads and numpy
passes over a working set that does not; it allocates nothing the
collector tracks and uses preallocated arrays, so it depends on the
host and not on the program's heap.  The handler's time is taken out of the
operation's time, and :meth:`HostSpeed.slowdown` says how much slower
the reference ran than ``REFERENCE_S``, its time on an unloaded host.
Dividing a host time by the slowdown gives the time at reference speed.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

import numpy as np

#: The reference chunk's second-pass time on an unloaded 2-vCPU Xeon VM,
#: python 3.11.7, numpy 2.4.6.  It only scales the normalised figures.
REFERENCE_S = 2.0e-3

# Small arrays that stay in the core's own cache, for the compute part.
_N = 16384
_A = np.linspace(0.5, 1.5, _N)
_B = np.linspace(1.5, 0.5, _N)
_T = np.empty(_N)


class _Box:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value


# A working set larger than a core's L2 cache, for the memory part: the
# program's heap and arrays live there too, and a neighbour's load on the
# shared cache slows both alike.
_BOXES = [_Box(float(i)) for i in range(100_000)]
_PICKS = np.random.default_rng(0).integers(0, len(_BOXES), 2000).tolist()
_M = 131072
_C = np.linspace(0.5, 1.5, _M)
_D = np.linspace(1.5, 0.5, _M)
_U = np.empty(_M)


def _reference() -> float:
    acc, x = 0.0, 1.0
    for k in range(1, 2000):
        x = x * 1.0001 + 0.5 / k
        acc += x * x if acc < 1e6 else -x
    for _ in range(16):
        np.multiply(_A, _B, out=_T)
        np.add(_T, _A, out=_T)
        np.sqrt(_T, out=_T)
    boxes = _BOXES
    for i in _PICKS:
        acc += boxes[i].value * 1e-9
    np.multiply(_C, _D, out=_U)
    np.add(_U, _C, out=_U)
    np.sqrt(_U, out=_U)
    return acc + float(_T[0]) + float(_U[0])


def trimmed_mean(values, share: float = 0.1) -> float:
    """Mean without the lowest and highest ``share`` of the values."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut] or ordered)


class HostSpeed:
    """Reference samples taken while :meth:`sampling` is active."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.spent_s = 0.0

    def sample(self, *_signal) -> None:
        """Time one reference sample now (also the signal handler)."""
        clock = time.perf_counter
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            _reference()
            middle = clock()
            _reference()
            end = clock()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(end - middle)
        self.spent_s += end - start

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self) -> float:
        return slowdown(self.samples)


def slowdown(samples) -> float:
    """Reference time over ``REFERENCE_S``; 1.0 without samples."""
    return trimmed_mean(samples) / REFERENCE_S if samples else 1.0
