"""Process set-up shared by the benchmark's entry points."""

import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", "out")


def prepare() -> None:
    """Pin to one thread on one CPU; put the checkout's sources on sys.path.

    Call before numpy is imported: ``np.roots`` runs LAPACK, whose thread
    pool size is read once at load.  Set-up probes inherit the CPU, so the
    calibration loop in this process measures the CPU they run on.  Exits
    with status 2 when the checkout holds no circentropy sources, so the
    benchmark never measures some other installed copy.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "circentropy", "__init__.py")):
        sys.stderr.write(f"error: no circentropy sources under {SRC}\n")
        sys.exit(2)
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
