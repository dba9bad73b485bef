"""Tracks this machine's current speed while a pass runs.

On a host shared with other tenants, the speed available to one process
drifts: on a 2-vCPU virtual machine it varied by up to a third over tens of
seconds, and process CPU time drifted with it, so raw times of one run say as
much about the neighbours as about the program.  While a pass runs, an
interval timer interrupts it every `INTERVAL_S` seconds of wall time to time a
fixed reference kernel; the time spent in the interrupts is taken out of the
pass's wall and CPU times.  `take_scale()` turns raw seconds into seconds at
the reference speed, the speed at which the kernel takes `REFERENCE_S`.

The kernel mixes the kinds of work the program does: a sparse LU
factorization and solve, a random gather and a streaming array update
(memory-bound), and an interpreted Python loop.  Apart from the small LU
factors its arrays are allocated once, so its time barely depends on the
state of the allocator.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

INTERVAL_S = 0.25
REFERENCE_S = 0.015


def _laplacian(m: int) -> sp.csc_matrix:
    d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
    eye = sp.identity(m)
    return sp.csc_matrix(sp.kron(sp.kron(d, eye), eye) + sp.kron(sp.kron(eye, d), eye)
                         + sp.kron(sp.kron(eye, eye), d))


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = _laplacian(9)
        self.rhs = np.ones(self.matrix.shape[0])
        self.table = rng.standard_normal(2_000_000)
        self.index = rng.integers(0, len(self.table), 200_000)
        self.gathered = np.empty(len(self.index))
        self.stream = np.ones(1_000_000)
        self.samples: list[float] = []
        self.paused_wall = 0.0
        self.paused_cpu = 0.0
        self._previous = None
        for _ in range(3):
            self._kernel()   # warm-up, untimed

    def _kernel(self):
        spla.splu(self.matrix).solve(self.rhs)
        np.take(self.table, self.index, out=self.gathered)
        np.multiply(self.stream, 1.0000001, out=self.stream)
        total = 0
        for i in range(40_000):
            total += i * i
        return total

    def _sample(self) -> tuple[float, float]:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        self._kernel()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self.samples.append(wall)
        return wall, cpu

    def _on_alarm(self, signum, frame):
        wall, cpu = self._sample()
        self.paused_wall += wall
        self.paused_cpu += cpu

    def start(self):
        """Sample once, then every INTERVAL_S until `stop`; call before the
        timed interval begins."""
        self._sample()
        self.paused_wall = self.paused_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def take_scale(self) -> float:
        """Factor from raw seconds to seconds at the reference speed, over the
        samples since the last call."""
        samples, self.samples = self.samples, []
        return REFERENCE_S / statistics.fmean(samples)
