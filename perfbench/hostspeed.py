"""Host-speed calibration for timing on a host whose speed drifts.

On a shared VM the same round can take 40 ms one minute and 75 ms a few
minutes later, with CPU time tracking wall time. The benchmark therefore
times this fixed kernel right after every timed operation. The kernel
mixes what the workloads do: a Python loop over small NumPy calls (the
per-node kernels) and whole-grid NumPy expressions (rasterization and
δ). Its code is part of the benchmark, so no change to ``repro`` can
change its cost.

``factor(seconds)`` turns one kernel time into the scale that brings a
time measured next to it to reference-host time: ``REF_S / seconds``.
A scaled time reads the same on a slow and a fast phase of the host.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time on the 2-CPU reference host this benchmark was tuned on.
REF_S = 2.9e-3

_PTS = np.random.default_rng(0).random((150, 2))
_GX, _GY = np.meshgrid(np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 101))


def kernel() -> float:
    total = 0.0
    for i in range(len(_PTS)):
        d = _PTS - _PTS[i]
        total += float(np.sqrt((d * d).sum(axis=1)).min())
    for _ in range(3):
        total += float(np.abs(np.sin(_GX * 7.0) + np.cos(_GY * 3.0)).sum())
    return total


def time_kernel() -> float:
    """Wall seconds of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factor(seconds: float) -> float:
    return REF_S / seconds
