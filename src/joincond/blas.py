"""Single-threaded BLAS for the model experiment.

The model experiment's linear algebra is small: at the default (6,5,4,4)
r=6 model, a 114 x 114 damped solve per refiner step and a 480 x 96 QR per
condition number.  OpenBLAS still splits such calls over its threads.  On a
2-vCPU VM shared with other load, whole 25 s runs of the experiment then
settled at one of two speeds about 30% apart (op median 27 or 36 ms at the
benchmark's reference speed), while single-threaded runs were steady
(24.4-24.7 ms) and faster.  One thread also makes the model CSVs
independent of the BLAS thread count.

numpy has no thread control, so single_threaded() calls OpenBLAS's own
get/set functions through ctypes, on the OpenBLAS that a numpy wheel ships
(numpy.libs/ or numpy/.dylibs/).  Where none is found, e.g. a numpy built
on another BLAS, it does nothing.  The setting is process-wide: it is
restored on exit, and is not meant for experiments run from several Python
threads at once.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np

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


@contextlib.contextmanager
def single_threaded():
    """Run the body with one BLAS thread; restore the previous count after."""
    controls = openblas_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)
