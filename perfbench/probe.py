"""One cold set-up in a fresh interpreter, as every CLI invocation pays it.

Imports zonodiff, builds the workload's model, topology and trajectory and
warms the lazy scipy paths, then prints ``{"import_s": ...}``. ``run.py``
times the whole process from start to exit and reports the median of
several probes as ``setup_s``.

Usage: python3 perfbench/probe.py --workload NAME --seed N
"""

import argparse
import json
import sys
import time
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import zonodiff  # noqa: F401
    import zonodiff.cli  # noqa: F401
    import_s = time.perf_counter() - start
    import workloads
    workloads.setup(args.workload, args.seed)
    print(json.dumps({"import_s": import_s}))


if __name__ == "__main__":
    main()
