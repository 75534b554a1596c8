"""Pin BLAS to one thread before numpy loads, and pick the hypothesis profile.

On a few cores, the small factorisations and solves of the bench
estimators run about twice as slowly with the BLAS library's default
thread count as with one thread, and their timings spread with the other
load on the host. pytest imports this file before any test module, so the
pin holds for the whole run and for the CLI processes the tests start. An
explicit setting in the environment is kept.

When ``CI`` is set, as continuous-integration services set it, the
hypothesis profile ``ci`` is loaded: it prints the reproduction blob of a
failing example (``@reproduce_failure``), so a failure on a runner can be
replayed locally. It is registered on top of the settings current at
import, so example counts and deadlines stay those hypothesis uses under
``CI`` (recent versions already switch to a built-in ``ci`` profile
there; older ones do not print the blob without this one).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hypothesis import settings  # noqa: E402  (after the pin)

settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")
