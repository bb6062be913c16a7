"""Pin BLAS to one thread before any test module imports numpy.

Small matrix calls in multi-threaded OpenBLAS slow down by an order of
magnitude when another process holds the second core, so the tests would
time the host instead of the code. A thread count already set in the
environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
