"""CPU-speed reference for normalizing timings.

The benchmark host shares its cores: the same operation can take 1.7x
longer for minutes at a time, far more than any bound a timing metric
could hold, and it changes within a single operation.  The harness
therefore times a fixed piece of reference work (small-array numpy calls
and interpreter arithmetic, the same mix as hlift's hot path, but no
hlift code) four times a second, during operations as well as between
them, takes that time back out, and scales every operation by the speed
measured during or around it:

    normalized seconds = measured seconds * REFERENCE_S / reference time

so the timing metrics read as seconds on a host where the reference work
takes REFERENCE_S.  A change to hlift moves the measured seconds and not
the reference, so it shows in full.  Over ten 40-second runs per workload
on a 2-vCPU KVM guest (Xeon, Python 3.11, numpy 2.4) the quartile
distance of the measured throughput was 7-21% of its median, that of the
normalized throughput 3-7%.  In five-seed trials at different times,
pair-batch, whose operations last about half a second, kept a 10% spread
when sampled only between operations and 4% with the timer.
"""

from __future__ import annotations

import contextlib
import math
import signal
import time

import numpy as np

REFERENCE_S = 0.02
_ROUNDS = 700
_T = np.arange(64.0).reshape(4, 4, 4) * 1e-3
_A = np.eye(4) + np.arange(16.0).reshape(4, 4) * 1e-2
_V = np.ones(4)


def reference_work() -> float:
    acc = 0.0
    for i in range(_ROUNDS):
        M = (_V @ _T.reshape(4, 16)).reshape(4, 4)
        q = (_T @ _V) @ _V
        y = np.linalg.inv(_A) @ (M @ _V - 0.5 * q)
        acc += float(np.max(np.abs(y)))
        z = np.concatenate([y, [acc]])
        x = (i % 13) * 0.25
        acc += math.sin(x) * x * 1e-9 + float(z[-1]) * 1e-12
    return acc


class SpeedProbe:
    """Reference timings taken on a real-time timer.

    Inside ``timer(interval)`` a SIGALRM handler runs ``sample()`` every
    ``interval`` seconds, also in the middle of an operation, and once more
    on entry and on exit.  A sample runs to completion inside the handler,
    so each lies wholly inside or wholly outside any interval the caller
    timed.  ``adjust(t0, t1)`` takes, for intervals [t0, t1] timed with
    ``time.perf_counter``, the samples' own time out of each interval and
    gives the scale to normalize what is left.
    """

    def __init__(self):
        self.starts = []
        self.seconds = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    @contextlib.contextmanager
    def timer(self, interval: float):
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def adjust(self, t0, t1):
        """(seconds in [t0, t1] outside samples, normalizing scale) per interval.

        The scale is REFERENCE_S over the mean of the samples inside the
        interval or, when there are none, of the nearest sample before and
        the nearest after it.
        """
        starts = np.array(self.starts)
        secs = np.array(self.seconds)
        total = np.concatenate([[0.0], np.cumsum(secs)])
        lo = np.searchsorted(starts, t0)
        hi = np.searchsorted(starts, t1)
        inside = total[hi] - total[lo]
        around = 0.5 * (secs[np.maximum(lo - 1, 0)]
                        + secs[np.minimum(hi, len(secs) - 1)])
        ref = np.where(hi > lo, inside / np.maximum(hi - lo, 1), around)
        return np.asarray(t1) - np.asarray(t0) - inside, REFERENCE_S / ref
