"""The shared machine's current speed, read from a fixed reference kernel.

The benchmark runs on a machine it shares.  Other work there slows every
operation, by up to 2x for tens of seconds at a time, and does so between
two runs as much as within one.  Iteration counts are identical across such
runs; only the time per step changes.  So the benchmark times this kernel,
fixed work of the kinds the program does, before and after the operations it
times, and scales each operation's wall time by
``REFERENCE_S / (the kernel's time around it)``: the seconds the operation
would have taken at the speed at which the kernel takes ``REFERENCE_S``.  A
change to the program moves the scaled time as it moves the wall time,
because the kernel is not part of the program.  Set-up time is not scaled:
it is mostly loading modules, which the machine's load slows unlike the
kernel's arithmetic.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

# the kernel's seconds on the reference machine (2-vCPU Xeon VM) when quiet
REFERENCE_S = 0.1
# the kernel runs before an operation when this long has passed since it last ran
SAMPLE_EVERY_S = 1.0

_rng = np.random.default_rng(0)
_PHI = _rng.standard_normal((4, 2000))
_TARGET = _rng.standard_normal(4)
_CHOL = scipy.linalg.cho_factor(_PHI @ _PHI.T + np.eye(4))
_SMALL = 0.1 * _rng.standard_normal((4, 4))


def kernel() -> float:
    """Fixed work: splitting-solver steps, small matrix exponentials, text."""
    z = np.zeros(2000)
    y = np.zeros(2000)
    for _ in range(1200):
        nu = scipy.linalg.cho_solve(_CHOL, _PHI @ (z - y) - _TARGET)
        a = z - y - _PHI.T @ nu + y
        z_new = np.clip(np.sign(a) * np.maximum(np.abs(a) - 1e-3, 0.0), -1.0, 1.0)
        y += a - z_new
        z = z_new
        float(np.linalg.norm(_PHI @ z - _TARGET))
    for _ in range(1000):
        scipy.linalg.expm(_SMALL)
    text = ",".join(repr(float(v)) for v in z[:500])
    return sum(float(v) for v in text.split(","))


class HostSpeed:
    """The kernel's timings, taken between operations."""

    def __init__(self) -> None:
        # (perf_counter when the kernel finished, its seconds)
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> int:
        """Time the kernel now; returns the index of this sample."""
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
        return len(self.samples) - 1

    def due(self) -> int:
        """Time the kernel if it is due; returns the index of the latest sample."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def factor(self, index: int) -> float:
        """Scale for the time between samples ``index`` and ``index + 1``."""
        around = self.samples[index][1] + self.samples[index + 1][1]
        return 2.0 * REFERENCE_S / around
