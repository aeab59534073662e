"""Benchmark entry point.

    python3 perfbench/run.py --workload presets|wide_menu|learn_io \
        --seed N --seconds S --trace 0|1

Run it from the repository root, with the environment that
``BENCHMARK.json`` sets (one BLAS/OpenMP thread, a fixed hash seed).  The
program is imported from ``src/`` of the same tree, never from an installed
copy; without it the benchmark exits with code 2 and prints no result.
"""

import os
import sys
import time
from pathlib import Path

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def process_age() -> float:
    """Seconds since this process started, interpreter start-up included (Linux)."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def main() -> int:
    if not (SRC / "assort_mnl" / "__init__.py").is_file():
        print(f"perfbench: the program's source {SRC / 'assort_mnl'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started_s = process_age()
    with SpeedProbe() as imports:
        import harness  # imports numpy, scipy and the program

    return harness.main(sys.argv[1:], ROOT, started_s + imports.reference_s)


if __name__ == "__main__":
    sys.exit(main())
