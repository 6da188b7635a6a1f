"""Test-session setup: one BLAS thread unless the environment says otherwise.

The suite's dense eigensolves are small; on a two-core host they ran slower
with two BLAS threads than with one.  The variables only take effect if they
are set before numpy is first imported, which is why they live here, and
`setdefault` keeps any value the caller exported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
