"""Host-speed calibration: a fixed piece of work timed between benchmark jobs.

The benchmark runs on shared hosts whose speed drifts by up to 2x for
seconds to minutes at a time, as neighbours load the same cores.  The
process's CPU time drifts with its wall time, so neither clock alone gives
a figure that repeats from run to run.  Timing this kernel next to every
job measures the host's speed at that moment; run.py scales each job's
latency by REFERENCE_S / (the kernel's time around the job), which gives
the latency the job would have had on a host where the kernel takes
REFERENCE_S.

The kernel uses none of timcorr, so a faster or slower program moves the
scaled figures by exactly its own factor.  Its mix resembles the
program's: half interpreted loops around small numpy calls (4x4 Kronecker
products and eigenvalues, scalar maths), half elementwise maps over an
array of quadrature nodes.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Median time of kernel() on a 2-vCPU Intel Xeon at 2.1 GHz in a calm spell.
REFERENCE_S = 0.004

_A = np.array([[0.4, 0.1], [0.1, 0.6]])
_B = np.array([[0.7, -0.2], [-0.2, 0.3]])
_PHI = np.linspace(0.0, math.pi, 1 << 15)


def kernel() -> float:
    total = 0.0
    for k in range(40):
        rho = np.kron(_A, _B) + 0.001 * k * np.eye(4)
        vals = np.clip(np.linalg.eigvalsh(rho), 1e-300, None)
        total += float(-np.sum(vals * np.log2(vals)))
        total += math.fsum(math.hypot(0.01 * j, 1.0 + math.cos(0.1 * j * k)) for j in range(40))
    omega = np.hypot(0.9 * np.sin(_PHI), 1.0 + 0.9 * np.cos(_PHI))
    for r in (1, 2):
        weight = np.cos(r * _PHI) * (1.0 + 0.9 * np.cos(_PHI)) / omega
        total += float(np.where(weight > 0.0, weight, 0.0).sum())
    return total


def timed() -> float:
    """Seconds one kernel() call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
