"""Reference kernels that track the host's momentary speed.

On a shared virtual-machine host the CPU speed drifts by tens of percent over
seconds and over minutes (measured on a 2-vCPU VM: back-to-back 20 s
windows of the boundary workload ran at 284 to 496 ops/s).  The benchmark
therefore times a fixed kernel after every op and scales each op's latency
by reference / (median kernel time around that op), which reports latencies
at one fixed reference speed.  Each workload uses the kernel whose work is
most like its own:

- "interpreter": a short pure-Python loop, for ops made of interpreter work
  and small single-threaded LAPACK calls.  It touches neither numpy nor much
  memory, so joincond's caches, BLAS threads and allocations do not change
  its time.
- "lapack": a 240 x 48 SVD on the default BLAS threads, for ops dominated by
  large multi-threaded SVDs, whose speed the interpreter loop does not
  follow.  It is timed on its second of two back-to-back calls, so that the
  caches and BLAS threads the previous op left behind change its time less.

Both kernels are the benchmark's own code; no joincond code runs inside
them.  Raw, unscaled figures go into the run record next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel samples (one per op) in the running median around each op.
WINDOW = 31

_MATRIX = np.random.default_rng(0).standard_normal((240, 48))


def _interpreter() -> float:
    start = perf_counter()
    acc = 0.0
    table = {}
    for i in range(1500):
        acc += (i * 0.5) ** 2
        table[i & 63] = acc
    return perf_counter() - start


def _lapack() -> float:
    np.linalg.svd(_MATRIX, full_matrices=False)
    start = perf_counter()
    np.linalg.svd(_MATRIX, full_matrices=False)
    return perf_counter() - start


# name -> (kernel, its time at the reference speed: a typical time on the
# 2-vCPU VM that bench/baseline.json was measured on)
KERNELS = {
    "interpreter": (_interpreter, 3.5e-4),
    "lapack": (_lapack, 1.5e-3),
}


def scale_factors(kernel: str, kernel_times) -> np.ndarray:
    """Reference time / running median of the kernel times, one per op."""
    k = np.asarray(kernel_times, dtype=float)
    half = WINDOW // 2
    padded = np.pad(k, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)
    return KERNELS[kernel][1] / np.median(windows, axis=1)


def scale_now(kernel: str) -> float:
    """Scale factor from WINDOW kernel runs taken now (after a warm-up)."""
    run, reference = KERNELS[kernel]
    for _ in range(3):
        run()
    return reference / float(np.median([run() for _ in range(WINDOW)]))
