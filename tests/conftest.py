import os
import sys
from pathlib import Path

# One BLAS thread, as the benchmark runs: the solvers' kernels are small
# (16 x 16 eigh, q x p^2 GEMV), and a multi-threaded BLAS slows them many
# times over when another process holds a core.  This has to run before
# anything imports numpy; an explicit setting in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).parent))
