"""Numerical laboratory for Pauli spectra of noisy random quantum circuits."""

import os

__version__ = "0.1.0"

#: the BLAS thread variables as they stood when pauliscope was imported; when
#: none is set, BLAS runs one thread per process (set before numpy loads it):
#: the boundary MPS's small products only synchronise on a second thread
BLAS_THREAD_ENV = {name: os.environ.get(name)
                   for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
if all(value is None for value in BLAS_THREAD_ENV.values()):
    os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))
