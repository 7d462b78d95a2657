"""The environment a benchmark result depends on.

Run as a script it prints the record as JSON; the CLI workload uses that as
its warm-up process.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMBA_NUM_THREADS", "CAYEXP_BACKEND")


def _openblas_threads() -> int | None:
    import numpy
    libdir = os.path.dirname(numpy.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def collect() -> dict:
    import numpy
    from cayexp import _kernels
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": _kernels.BACKEND,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


if __name__ == "__main__":
    print(json.dumps(collect()))
