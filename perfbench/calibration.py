"""Calibration kernel: the host's current speed, measured without riccati_cert.

The host's speed drifts by up to a factor 2 over minutes on a shared
2-vCPU VM, which no number of repeats inside a 10 s run averages out. So
the benchmark scales its end-to-end times to a reference speed: a fixed
kernel that touches no riccati_cert code runs next to the measured work,
and a time t measured where the kernel took c is reported as
t * CAL_REF_S / c. CAL_REF_S is close to the kernel's median time on an
Intel Xeon 2-vCPU VM (Python 3.11, numpy 2.4.6).
"""

from statistics import median
from time import perf_counter

import numpy as np

CAL_REF_S = 6e-4
CAL_BURSTS = 2
_MATRIX = (np.random.default_rng(0).standard_normal((8, 8))
           + 1j * np.random.default_rng(1).standard_normal((8, 8)))


def _burst() -> float:
    """Wall time of one run of the kernel: small LAPACK calls and a
    pure-Python loop, the mix of the workloads' per-point work."""
    t0 = perf_counter()
    for _ in range(20):
        h = _MATRIX @ _MATRIX.conj().T
        np.linalg.eigvalsh(h)
        float(np.linalg.norm(h))
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    return perf_counter() - t0


def calibrate() -> float:
    """Kernel time at the host's current speed.

    The first run only refills the caches that the measured work evicted;
    the median of the next CAL_BURSTS runs is returned.
    """
    _burst()
    return float(median(_burst() for _ in range(CAL_BURSTS)))
