"""Locate the wgqed sources of the checkout and pin the thread budget.

Must run before numpy is imported: the BLAS pool size is read from the
environment when the library loads.  numpy and scipy each load their own
OpenBLAS, so two threads per pool would make three threads in all; one
thread per pool keeps the process within the two cores of the target box.
The dense work (batched small solves, elementwise exponentials) does not
use a BLAS pool anyway.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def prepare() -> Path:
    """Checkout root (the working directory) with `src/` importable.

    Exits with status 1 when the working directory holds no wgqed sources,
    so a stray installed copy is never benchmarked in their place.
    """
    root = Path.cwd()
    package = root / "src" / "wgqed"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a wgqed checkout")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(root / "src"))
    import wgqed

    if Path(wgqed.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported wgqed from {wgqed.__file__}, not from {package}")
    return root
