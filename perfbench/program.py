"""Point the benchmark at the library source of the checkout it sits in.

The benchmark never falls back to an installed copy: without
``src/wifi_inout`` next to this directory it stops with an error.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

# every process of a run stays on one thread, whatever numpy links against
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def use_checkout_source() -> None:
    if not (SRC / "wifi_inout" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC}")
    os.environ.update(SINGLE_THREAD_ENV)
    sys.path.insert(0, str(SRC))
