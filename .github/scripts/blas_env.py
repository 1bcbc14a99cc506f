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


blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(f"numpy {np.__version__}  blas {blas['name']} {blas['version']}  "
      f"blas_threads {blas_threads()}  OPENBLAS_NUM_THREADS="
      f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
