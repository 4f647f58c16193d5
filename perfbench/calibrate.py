"""A fixed kernel that gauges how fast the host runs at this moment.

The benchmark shares a host whose speed drifts by up to a factor of two over
tens of seconds (frequency scaling and other tenants), and that drift moves
the CPU time of a process as much as its wall time. So the benchmark times
this kernel right before every timed operation and every cold start, and
reports each timing scaled to a host on which the kernel takes NOMINAL_MS:

    normalised ms = measured ms * NOMINAL_MS / kernel ms

The kernel imitates the program's mix of work (numpy calls on 4x4 matrices,
Python float arithmetic, number formatting) but imports nothing from
mesospin and never changes, so a faster or slower program still shows in
full: only the host's speed is divided out.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time of the reference host state, by definition: normalised times
# are in ms on a host where one kernel call takes this long. Chosen near the
# kernel's median on a 2-core Intel Xeon VM, so normalised and wall times are
# of the same size there.
NOMINAL_MS = 5.0

_rng = np.random.default_rng(20140506)
_M = _rng.standard_normal((128, 4, 4))
_S = _M @ np.swapaxes(_M, 1, 2) + 4.0 * np.eye(4)


def _kernel() -> float:
    acc = 0.0
    for i in range(len(_M)):
        a = _M[i] @ _S[i]
        w = np.linalg.eigvalsh(_S[i])
        x = np.linalg.solve(_S[i], a)
        acc += float(np.sqrt(w[0])) + float(np.abs(x).max())
        for k in range(60):
            acc += (k * 0.37) ** 2 / (1.0 + k)
        acc += len(",".join(f"{v:.12g}" for v in w))
    return acc


def kernel_ms() -> float:
    """Median wall time of three kernel calls, in ms; the median ignores a
    call that another process on the host happened to interrupt."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[1]


def normalised(ms: float, reference_ms: float) -> float:
    """Scale a measured time to the nominal host, given the kernel's time."""
    return ms * NOMINAL_MS / reference_ms
