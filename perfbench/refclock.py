"""Drift-normalised timing: a fixed reference kernel sampled during each op.

The host's speed drifts by tens of percent over seconds, in wall and CPU time
alike, while the ratio of a hyperlab call to a fixed numpy kernel run next to
it stays within a few percent.  So every timed op is divided by the median
time of the reference kernel, sampled throughout the op: a SIGALRM handler
runs one kernel every PERIOD_S of wall time, on the main thread, between
bytecodes.  The handler's own time is subtracted from the op's time, and
clock() gives a time line with the handler time taken out, so that spans
measured on it are not charged for the samples.

The kernel never calls hyperlab.  It mixes the kinds of work the ops do:
einsum contractions over small batches (the metric jet), many numpy calls
on tiny arrays and interpreter work (the ODE right-hand side and the leaf
solver), and stencils streaming over thousands of cells (the Klein-Gordon
evolver).  Measured on a 2-vCPU host, no single part tracked all three
kinds of op better than the sum of the parts.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.04


class RefKernel:
    """The fixed reference workload; one call takes about a millisecond.

    Five parts of similar cost, each tracking a different way the host slows
    down: batched einsum over small tensors, a chain of ufunc calls on a
    tiny array (per-call overhead), a 5-point stencil over 16k cells
    (streaming), a plain interpreter loop, and an explicit update step over
    3.5k cells (the Klein-Gordon grid size).
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.a = rng.standard_normal((32, 4, 4, 4))
        self.b = rng.standard_normal((32, 4, 4, 4))
        self.g = rng.standard_normal((32, 4, 4))
        self.small = rng.standard_normal(4)
        self.big = rng.standard_normal(16384)
        self.grid = rng.standard_normal(3520)

    def __call__(self):
        for _ in range(3):
            c = np.einsum('nabc,ncde->nabde', self.a, self.b)
            np.einsum('nla,nabde->nlbde', self.g, c)
        x = self.small
        for _ in range(100):
            x = np.sqrt(x * x + 1.0) - 0.5
        for u in [self.big] * 3 + [self.grid] * 6:
            v = (-u[4:] + 16.0 * u[3:-1] - 30.0 * u[2:-2] + 16.0 * u[1:-3]
                 - u[:-4]) * 0.5 - u[2:-2]
            w = u[2:-2] + 0.1 * v
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        return acc + float(x[0]) + float(w[0])


class Sampler:
    """Samples the reference kernel during timed regions.

    One Sampler lives for the whole run.  `stolen` accumulates the wall time
    spent inside the reference kernel, inside or outside timed regions.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.stolen = 0.0
        self.samples = []
        self._armed = False

    def clock(self):
        """Wall clock with every reference sample taken out."""
        return time.perf_counter() - self.stolen

    def sample(self):
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.stolen += dt
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        if self._armed:
            self.sample()

    def timed(self, fn, *args):
        """Run fn(*args) with sampling on.

        Returns (result, net seconds, median reference seconds, samples).
        A reference sample is also taken just before and just after, so an op
        shorter than PERIOD_S still has two.
        """
        self.samples = []
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        c0 = self.clock()
        try:
            result = fn(*args)
        finally:
            c1 = self.clock()
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self._armed = False
            signal.signal(signal.SIGALRM, previous)
        self.sample()
        samples = self.samples
        self.samples = []
        return result, c1 - c0, float(np.median(samples)), len(samples)

    def interleaved(self, fn, reps, inner):
        """Alternate `inner` calls of fn() with one reference sample, reps
        times.  Returns (median seconds per call, median of call / reference
        ratios)."""
        calls, ratios = [], []
        for _ in range(reps):
            ref = self.sample()
            t0 = time.perf_counter()
            for _ in range(inner):
                fn()
            dt = (time.perf_counter() - t0) / inner
            calls.append(dt)
            ratios.append(dt / ref)
        self.samples = []
        return float(np.median(calls)), float(np.median(ratios))
