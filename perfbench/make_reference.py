"""Regenerate ``reference.json``: the summary values of one pass of each
workload at the reference seed.

Run it only when the benchmark's workloads change, never to make a changed
estimator pass the gate.

Usage: python3 perfbench/make_reference.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as out:
        for name in workloads.STEPS:
            inputs = workloads.setup(name, gate.REFERENCE_SEED, out_dir=out)
            outcome = workloads.run_pass(inputs)
            if outcome.failed:
                raise SystemExit(f"{name}: {outcome.failed} node-steps failed")
            reference[name] = outcome.summary
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
