"""Machine-speed probe for the shared box the benchmark runs on.

The throughput of one core of a shared 2-core box (Xeon, 2.1 GHz VM)
swings by up to 1.5x within seconds as other tenants come and go, and that
swing was most of the run-to-run spread of the raw timings (IQR/median 0.2
to 0.37 over six seeds for oracle and pmf).  So a short fixed kernel, half
interpreter work and half complex matrix products like the contour
kernels', is timed before and after every op, and the ops of a pass are
scaled by NOMINAL_S / (the median probe time of that pass).  Times are thus
seconds at the speed at which the probe takes NOMINAL_S, its usual time on
that box.  The probe is benchmark code, so it is the same on every commit
that is compared.

Importing this module imports numpy: pin BLAS threads before that, as the
workers do, so that the probe runs single-threaded everywhere.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.0045

_MATRIX = np.random.default_rng(0).standard_normal((128, 128)) * (1 + 0.5j)


def probe() -> float:
    """Time of the fixed kernel: tuple keys into a dict, then three
    128 x 128 complex matrix products."""
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(10000):
        key = (i & 255, i >> 8)
        d[key] = d.get(key, 0) + i
    for _ in range(3):
        _MATRIX @ _MATRIX
    return time.perf_counter() - t0
