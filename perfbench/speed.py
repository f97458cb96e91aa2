"""Machine-speed sampler: rescales wall times to a fixed reference speed.

On a shared machine the same solve can take twice as long for seconds at a
time while a neighbour loads the physical core; the process sees no steal
time and its CPU time grows with its wall time.  A reference kernel of the
benchmark's own (one softmax backward sweep over 30 days at 6 options,
repeated, the same kind of work as an FP iteration) is run from a SIGALRM
handler every ``PERIOD_S`` seconds while an operation runs, so it samples
the speed of the core the operation runs on, at the moments it runs.  One
operation's rescaled time is

    (wall - time spent in the sampler) * NOMINAL_S / mean(sample durations)

that is, its wall time on a machine where the kernel takes ``NOMINAL_S``.
The kernel is not the package's code, so a change to the package moves the
rescaled time exactly as it moves the wall time at constant speed.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.025
SWEEPS = 3
DAYS = 30
OPTIONS = 6
# Kernel duration on an idle core of a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4); the unit that rescaled times are expressed in.
NOMINAL_S = 1.25e-3


class SpeedSampler:
    """Context manager that samples the kernel's duration every PERIOD_S."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._d = rng.random((OPTIONS, OPTIONS))
        self._f = rng.random((DAYS, OPTIONS))
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.paused_s = 0.0  # total time spent sampling
        self._previous = None

    def kernel(self):
        d, f = self._d, self._f
        for _ in range(SWEEPS):
            v = np.zeros(OPTIONS)
            for n in range(DAYS - 1, -1, -1):
                scores = -(d + v[None, :])
                shift = scores.max(axis=1, keepdims=True)
                weights = np.exp(scores - shift)
                norm = weights.sum(axis=1)
                v = f[n] - (shift[:, 0] + np.log(norm))
                (f[n][:, None] * (weights / norm[:, None])).sum(axis=0)

    def sample(self):
        t0 = time.perf_counter()
        self.kernel()
        seconds = time.perf_counter() - t0
        self.samples.append((t0, seconds))
        self.paused_s += seconds

    def net_clock(self) -> float:
        """perf_counter that stands still while a sample runs."""
        while True:
            paused = self.paused_s
            now = time.perf_counter()
            if paused == self.paused_s:  # no sample ran in between
                return now - paused

    def _on_alarm(self, signum, frame):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def rescale(self, start: float, end: float, mark: int) -> tuple[float, float]:
        """(net wall seconds, rescaled seconds) of an operation timed [start, end).

        ``mark`` is taken before ``start``.  An operation shorter than the
        period gets one sample taken right after it, outside its wall time.
        """
        taken = [d for t, d in self.samples[mark:] if start <= t < end]
        net = end - start - math.fsum(taken)
        if not taken:
            self.sample()
            taken = [self.samples[-1][1]]
        return net, net * NOMINAL_S / (math.fsum(taken) / len(taken))
