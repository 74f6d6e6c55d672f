"""Host speed probe: a fixed calibration kernel timed while the benchmark runs.

On a shared host the same code runs up to 1.7x slower in some minutes than
in others. Measured on a shared 2-vCPU Xeon VM over 4 minutes: the mean time
of one ``energy_efficiency`` call in 20-second windows spread 29% (quartile
distance over median) between windows, while its ratio to a three-times
longer version of this kernel, timed in the same windows, spread 3%; over ten
benchmark runs per workload the scaled call times spread 4 to 5%. Call
timings are therefore reported in reference seconds: wall seconds times
``REFERENCE_S`` over the kernel's mean time in the same stretch of the run.
The kernel uses no fsotraj code, so a change to the program moves the
reported times in full; the raw wall times are printed next to them.

The kernel mixes what the program spends its time on: per-slot Python loops
over small numpy arrays and a sparse LU factorization.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REFERENCE_S = 0.006  # the kernel's time in a fast phase of a 2-vCPU Xeon VM; sets the scale only
INTERVAL_S = 0.5  # sampling period during timed calls: about 1.5% of their time
SPAN = "bench.hostspeed"  # span name of a sample taken inside a traced call


class HostSpeed:
    """Kernel samples, and the seconds they took inside timed calls."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = rng.standard_normal((300, 3, 3))
        self._vecs = rng.standard_normal((300, 3))
        n = 3000
        bands = [rng.uniform(4.0, 5.0, n)] + [rng.uniform(-1.0, 1.0, n - k) for k in (1, 1, 7, 7)]
        self._kkt = sp.diags(bands, [0, 1, -1, 7, -7]).tocsc()
        self._rhs = np.ones(n)
        self.samples: list[float] = []
        self.stolen = 0.0  # kernel seconds spent inside ``sampling`` blocks
        self._busy = False
        self._tracer = None

    def sample(self) -> float:
        """Run the kernel once and record its wall time."""
        t0 = time.perf_counter()
        acc = 0.0
        for m, v in zip(self._mats, self._vecs):
            w = m @ v
            acc += float(np.sqrt(w @ w)) + float(np.einsum("ij,j->i", m, v).sum())
        acc += float(spla.splu(self._kkt).solve(self._rhs)[0])
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def clock(self) -> float:
        """Wall seconds minus the kernel's stolen seconds: differences of it
        time the program alone."""
        return time.perf_counter() - self.stolen

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            if self._tracer is None:
                self.stolen += self.sample()
            else:
                with self._tracer.span(SPAN):
                    self.stolen += self.sample()
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self, tracer=None):
        """Sample every INTERVAL_S from a timer signal in the main thread.

        Time calls with ``clock`` inside the block. Under a tracer each
        sample is a span of its own, so no layer's self time includes it.
        """
        self._tracer = tracer
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self._tracer = None

    def factor(self, samples: list[float] | None = None) -> float:
        """How much slower than the reference the host ran (mean kernel time)."""
        samples = self.samples if samples is None else samples
        return statistics.fmean(samples) / REFERENCE_S if samples else 1.0
