"""Pin BLAS to one thread before numpy loads.

On a few cores, the small factorisations and solves of the bench
estimators run about twice as slowly with the BLAS library's default
thread count as with one thread, and their timings spread with the other
load on the host. pytest imports this file before any test module, so the
pin holds for the whole run and for the CLI processes the tests start. An
explicit setting in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
