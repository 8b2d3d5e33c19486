"""Buckling- and yield-aware design of periodic material microstructures."""

import os
import sys
import warnings

# Pin BLAS thread counts before numpy ever loads.  Explicit BLAS settings
# made by the user win; CELLMAT_THREADS only fills the gaps.  OpenBLAS
# reads them once, when numpy loads, so after that the setting is void.
_requested = os.environ.get("CELLMAT_THREADS")
if _requested:
    if "numpy" in sys.modules:
        warnings.warn(
            "CELLMAT_THREADS cannot take effect: numpy was imported before "
            "cellmat, and its BLAS thread count is fixed when it loads; "
            "import cellmat first", RuntimeWarning, stacklevel=2)
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _requested)

__version__ = "0.1.0"
