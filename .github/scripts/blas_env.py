"""Print the numpy version, its BLAS and the BLAS thread count in
effect, so that a CI log records what the tests ran on.

Usage: python .github/scripts/blas_env.py
"""

import ctypes
import os
from pathlib import Path

import numpy as np


def blas_threads():
    """The thread count numpy's bundled OpenBLAS uses, or 'unknown'."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def blas_name():
    """numpy's BLAS name and version, or 'unknown' where numpy cannot
    report it as a dict (``show_config`` has no ``mode`` before 1.26)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas['name']} {blas['version']}"


print(f"numpy {np.__version__}  blas {blas_name()}  "
      f"blas_threads {blas_threads()}  OPENBLAS_NUM_THREADS="
      f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
