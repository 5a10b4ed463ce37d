"""Where the package and the benchmark's scratch files live in a checkout."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"  # operation outputs; removed when a run ends
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_package():
    """Import jumpclust from this checkout's src/ with one BLAS thread, or exit non-zero.

    The load is one process; the package's thread pool and multi-threaded
    BLAS are measured slower than serial on two cores.  Probe processes
    inherit the setting.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "jumpclust" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package sources at {SRC / 'jumpclust'}")
    sys.path.insert(0, str(SRC))
    import jumpclust

    if Path(jumpclust.__file__).resolve().parent != SRC / "jumpclust":
        raise SystemExit(f"bench: jumpclust imported from {jumpclust.__file__}, not {SRC}")
    return jumpclust
