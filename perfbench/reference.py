"""A fixed reference kernel that tracks the machine's current speed.

On a shared machine the speed available to one process drifts by 10-20% over
tens of seconds.  Every run repeats passes for only about half a minute, so
drift between runs would swamp the differences the benchmark exists to find.
The runner times this kernel between operations and rescales each operation's
wall time by REFERENCE_S / (kernel time around it): seconds at the machine
speed at which the kernel takes REFERENCE_S.

The kernel mixes what balloc's layers spend time on: small numpy ufunc calls
driven from Python loops, scipy.special reductions, dict-keyed state, and one
FFT convolution of PLD size.  It does not touch balloc, so a change to balloc
moves the rescaled times but not the kernel.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import logsumexp

# Median kernel time on the machine where the benchmark was defined
# (x86-64, 2 vCPUs, numpy 2 with scipy-openblas, one BLAS thread).
REFERENCE_S = 0.08


def reference_kernel() -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal(256)
    acc = 0.0
    for i in range(500):
        y = np.logaddexp(x, x[::-1] * 0.5)
        acc += float(logsumexp(y))
        states: dict = {}
        for j in range(30):
            key = (j, i % 7)
            states[key] = states.get(key, 0.0) + j
    z = fftconvolve(rng.random(16384), rng.random(16384))
    return acc + float(z.sum())


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
