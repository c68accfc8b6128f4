"""Single-threaded BLAS for small dense linear algebra.

On small matrices OpenBLAS's extra threads cost more than they save, and
the split of the work depends on the thread count, so the last bits do too.
Two scopes use one thread:

- svd_threads(shape) wraps every SVD in the package:
  condition.least_singular_triplet and its values-only twin
  least_singular_values, which takes segre's norm-balanced core and K_k
  stack, grassmann's per-block distances and the certificate's check (a
  stack passes the shape of one of its matrices).  It runs
  single_threaded() for a matrix with ONE_THREAD_MIN_ENTRIES to
  ONE_THREAD_MAX_ENTRIES entries and at most ONE_THREAD_MAX_COLUMNS
  columns, and leaves the thread count alone otherwise.  The window is
  where one thread measured faster than two on 2 vCPUs: the README's
  crossover table, under "Per-block SVDs and BLAS threads", gives the
  shapes, the times and the command that measures them.  Two threads tend
  to win beyond it on tall matrices, whose QR splits well.  The entry
  floor leaves the tiny matrices of the paatero/dsl steps (at most
  60 x 30) alone: there one thread saves nothing, and each SVD would pay
  for two thread-count calls.
- The model experiment runs whole under single_threaded(), as all its
  matrices are small (the refiner's 114 x 114 damped solves, 480 x 96 QRs).

Inside either scope results do not depend on the BLAS thread count.

numpy has no thread control, so single_threaded() calls OpenBLAS's own
get/set functions through ctypes, on the OpenBLAS that a numpy wheel ships
(numpy.libs/ or numpy/.dylibs/).  Where none is found, e.g. a numpy built
on another BLAS, it does nothing.  The setting is process-wide, so the
scopes of all Python threads share one depth count under a module lock:
only the outermost scope saves the count and sets one thread, and only the
last scope to close restores it.  Scopes nested or interleaved across
threads are thus safe, and a nested scope makes no ctypes call.  The cost
is that BLAS work outside any scope runs on one thread while another
Python thread is inside one.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

import numpy as np

# The window of svd_threads(): see the module docstring.
ONE_THREAD_MIN_ENTRIES = 2**14
ONE_THREAD_MAX_ENTRIES = 2**19
ONE_THREAD_MAX_COLUMNS = 320

# (get, set) symbol names: scipy-openblas wheels (64- or 32-bit integers),
# then a plain OpenBLAS build.
_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
)


@functools.cache
def openblas_controls():
    """OpenBLAS's (get_num_threads, set_num_threads) for numpy's bundled
    OpenBLAS, or None when there is none to control."""
    root = Path(np.__file__).resolve().parent
    for lib_dir in (root.parent / "numpy.libs", root / ".dylibs"):
        for path in sorted(lib_dir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for get, set_ in _SYMBOLS:
                if hasattr(lib, get) and hasattr(lib, set_):
                    getattr(lib, set_).restype = None
                    return getattr(lib, get), getattr(lib, set_)
    return None


# Open single_threaded() scopes across all Python threads, and the count
# the outermost one found.
_lock = threading.Lock()
_depth = 0
_saved = 0


@contextlib.contextmanager
def single_threaded():
    """Run the body with one BLAS thread; the last scope to close restores
    the count that the first one found."""
    global _depth, _saved
    controls = openblas_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _lock:
        if _depth == 0:
            _saved = get()
            set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_(_saved)


def svd_threads(shape):
    """single_threaded() for an N x n matrix inside the measured window of
    the module docstring; a no-op scope outside it."""
    N, n = shape
    if ONE_THREAD_MIN_ENTRIES <= N * n <= ONE_THREAD_MAX_ENTRIES and n <= ONE_THREAD_MAX_COLUMNS:
        return single_threaded()
    return contextlib.nullcontext()
