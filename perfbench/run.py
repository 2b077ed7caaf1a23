"""Benchmark entry point, run from the root of a kst checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: selectk-ward, selectk-kmeans, ingest-pipeline. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Exits 2 without a result when the checkout has no ``src/kst``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One client, one command at a time: keep numpy's BLAS on a single thread so
# the two-core host does not add thread scheduling to the measurement.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    src = ROOT / "src"
    if not (src / "kst" / "cli.py").is_file():
        print(f"perfbench: no kst sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import kst

    if Path(kst.__file__).resolve().parent != src / "kst":
        print(f"perfbench: imported kst from {kst.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    raise SystemExit(main())
