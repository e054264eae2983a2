"""Test-suite setup, loaded by pytest before any test module imports numpy.

The engine's products are small ((256, 36) x (36, 36) and less), and
OpenBLAS spends more on starting threads for them than it saves: the suite
runs with one BLAS thread unless the environment already chooses.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
