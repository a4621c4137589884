"""Fixed reference kernels that calibrate trial and set-up times.

The benchmark runs on a few cores of a shared host, whose speed drifts by tens
of percent within minutes as other tenants load it. A raw wall time then
measures the host as much as the program. So the benchmark times a kernel
right after each block of trials and after each set-up, in the same process,
and gates the ratio, scaled back to seconds by the kernel's nominal time: the
time the block or set-up would take on a host that runs the kernel in that
time. Drift slower than a block cancels out; a change to qdca still moves the
ratio in full, since the kernels do not use qdca.

Other tenants do not slow every kind of work alike, so there are two kernels,
both phase flips and reflections about the mean as in a qdca Grover step:

- ``14``: on a 14-qubit state, with fresh 256 KiB temporaries as in the
  counting kernel of ``attack-k4n6``;
- ``8``: on an 8-qubit state, where per-call overhead dominates, as in the
  search.

Each workload names the kernel that calibrates it (``Workload.ref_qubits``);
every block times both, and the run records both.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# qubits -> (Grover-like steps, nominal seconds: a typical median on the 2-core
# machine of the seed baseline with Python 3.11.7, numpy 2.4.6, one BLAS thread
# and the malloc settings of run.PINNED_ENV)
KERNELS = {14: (300, 0.035), 8: (4000, 0.04)}


def kernel(qubits: int) -> None:
    steps = KERNELS[qubits][0]
    n = 1 << qubits
    x = np.full(n, n ** -0.5, dtype=np.complex128)
    marked = np.arange(n) % 7 == 0
    for _ in range(steps):
        x = np.where(marked, -x, x)
        x = 2 * x.mean() - x
    if abs(np.vdot(x, x).real - 1.0) > 1e-9:
        raise AssertionError("reference kernel lost the state's norm")


def time_kernels(runs: int = 1) -> dict[int, float]:
    """Median wall seconds of ``runs`` runs of each kernel, by qubits."""
    times: dict[int, list[float]] = {q: [] for q in KERNELS}
    for _ in range(runs):
        for q in KERNELS:
            t0 = time.perf_counter()
            kernel(q)
            times[q].append(time.perf_counter() - t0)
    return {q: statistics.median(v) for q, v in times.items()}


def nominal_s(qubits: int) -> float:
    return KERNELS[qubits][1]
