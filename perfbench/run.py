"""Few-shot episode benchmark for spikeshot: entry point.

Run from the repository root:

    python3 perfbench/run.py --workload desk-5w5s --seed 1 --seconds 20 --trace 0

Workloads: desk-5w5s, desk-plastic, conv-dvs128 (see ``workloads.py``).
The benchmark itself is ``bench.py``. This file pins the BLAS thread count
before numpy loads, and makes sure the program under test is the one in
``src/`` of the current directory; without it the command exits with code 2
and prints no result.
"""

import os
import sys

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# Leave the checkout as it was: no bytecode caches next to the sources.
sys.dont_write_bytecode = True


def main() -> int:
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    try:
        import spikeshot

        if not os.path.abspath(spikeshot.__file__).startswith(src + os.sep):
            raise ImportError(f"spikeshot imported from {spikeshot.__file__}, not from {src}")
        import bench
    except ImportError as e:
        print(f"perfbench: cannot start from {os.getcwd()}: {e}", file=sys.stderr)
        return 2
    return bench.main()


if __name__ == "__main__":
    sys.exit(main())
