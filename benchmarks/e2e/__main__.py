"""The repository's end-to-end benchmark: ``python -m benchmarks.e2e``
or ``python benchmarks/e2e/__main__.py`` from the repository root.

See ``README.md`` in this directory.  The program under test is the
``repro`` package in ``src/`` of the same checkout.
"""

import os
import sys
import time
from pathlib import Path

PROCESS_START = time.perf_counter()

# One BLAS thread, set before NumPy loads: the process then computes on
# the client thread and the server's batcher thread only.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"
_ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:], PROCESS_START))
