"""A fixed reference task timed between sets, to factor out host-speed drift.

On a shared host the same code runs 20% or more faster or slower from one
second to the next and from one 20-second window to the next, and different
kinds of work speed up and slow down together, so a run's median moves with
the host rather than with the code.  After every set the benchmark times
this task for half a second and scales the set's passes by NOMINAL_S over
the mean of the two reference timings on either side of the set: the result
is the time the set would take on a host where one reference call takes
NOMINAL_S (about its time on a 2-core Xeon VM).  On that host this cut the
seed-to-seed spread of run medians from 15-30% to 3-10% during busy periods.

The task mimics the kinds of work gerk's paths do -- an interpreter loop of
small numpy calls, matrix rows gathered in random order from an 8 MB matrix,
full matrix-vector products, a dense SVD, and text-to-float parsing -- and
uses no gerk code, so a change to gerk cannot move it.
"""

import time

import numpy as np

NOMINAL_S = 0.018


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20220121)
        self.small = rng.standard_normal((200, 200))
        self.short = np.ones(128)
        self.text = [repr(float(v)) for v in rng.standard_normal(15000)]
        # 8 MB, larger than the caches: read by rows in random order, as in a
        # Kaczmarz sweep, and by whole matrix-vector products, as in a hook
        self.big = rng.standard_normal((1000, 1000))
        self.rows = rng.integers(0, 1000, 1000).tolist()
        self.vec = np.ones(1000)

    def work(self):
        big, vec, short = self.big, self.vec, self.short
        total = 0.0
        for i in self.rows:
            total += float(np.dot(big[i], vec)) * 1e-9
            total += float(np.dot(short, short)) * 1e-9
            np.multiply(short, 1.0 - 1e-12, out=short)
        for _ in range(3):
            total += float((big @ vec)[0])
        total += float(np.linalg.svd(self.small, compute_uv=False)[0])
        total += float(np.asarray([float(word) for word in self.text]).sum())
        return total

    def seconds(self, min_time=0.5):
        """Mean seconds per work() call over repeated calls lasting min_time."""
        calls = 0
        t0 = time.perf_counter()
        while True:
            self.work()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= min_time:
                return elapsed / calls
