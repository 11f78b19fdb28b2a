"""BLAS thread pin.  Call ``pin()`` before numpy is imported; OpenBLAS reads
the variables once, when it loads."""

from __future__ import annotations

import os

# One thread was the steadier choice on the 2-core reference box (see
# README.md); never more than the machine has.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin() -> int:
    n = max(1, min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_ENV:
        os.environ[var] = str(n)
    return n
