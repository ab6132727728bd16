"""Pin thread counts and locate the library source next to the benchmark.

Imported first by every entry script: importing it pins the thread counts,
which must happen before numpy is loaded, because BLAS and OpenMP read
them when numpy starts.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"

# One FFT worker and one BLAS/OpenMP thread, so figures do not depend on
# what else shares the machine's cores.
PINNED_THREADS = {
    "HYPERHEAT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)


class MissingSource(RuntimeError):
    """The library source the benchmark measures is not in the checkout."""


def prepare():
    """Put the checkout's ``src`` first on the import path.

    Raises MissingSource when ``src/hyperheat`` is absent, so the benchmark
    never measures some other installed copy of the library.
    """
    if not (SRC / "hyperheat" / "__init__.py").is_file():
        raise MissingSource(f"no library source at {SRC / 'hyperheat'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported(module):
    """Raise MissingSource unless ``module`` was loaded from the checkout."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise MissingSource(f"hyperheat was imported from {path}, not from {SRC}")
