"""Reference half of the correctness gate.

Containment is checked on every node-step inside the workloads. At the
reference seed the post-burn-in means of a pass (``group:metric``, a group
being an algorithm or a grid cell) are also compared with the values
committed in ``reference.json``. A group whose values differ counts all its
node-steps as failed. Off the reference seed only containment gates
correctness.

The tolerances are relative, one per metric. They were set from two
measurements at the reference seed:

* Rounding. Perturbing F, Q or the initial set by 1 to 4 ulps (39 variants
  per workload) stands in for reassociated arithmetic in a batched engine.
  ``reduce`` ranks generators by a score with near-ties, so such a
  perturbation can flip which generators are boxed, and the means move by
  far more than the rounding itself. Largest moves seen: radius 3.1e-3
  (cv4-track iv), centre error 3.0e-2 (cv4-track iv), Hausdorff 8.1e-3
  (paper-grid).
* A changed estimator. One generator less in the reduction budget
  (q = 19) moves the radius by 1.4e-2 (ring32-online) to 2.7e-2
  (paper-grid, cv4-track) and the grid's Hausdorff by 0.14. Uniform instead
  of F-radius-optimal diffusion weights move the grid's Hausdorff by 0.19
  and cv4-track's radius by 9.5e-3; on ring32-online they move the radius
  by only 1.6e-3, which these tolerances do not catch.

Each tolerance sits about three times above the rounding moves. Centre
error moves as much under rounding as under a changed estimator, so its
tolerance only catches gross errors; standard deviations are not compared.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
RTOL = {"radius_m": 1e-2, "center_err_m": 1e-1, "hausdorff_m": 5e-2}


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(summary: dict, expected: dict) -> list[str]:
    """Keys of ``expected`` that ``summary`` lacks or does not match."""
    return [key for key, want in expected.items()
            if key not in summary
            or not math.isclose(summary[key], want,
                                rel_tol=RTOL[key.split(":", 1)[1]])]


def apply_reference(outcome, expected: dict) -> list[str]:
    """Mark every group with a mismatching value as failed; return the keys."""
    bad = mismatches(outcome.summary, expected)
    for key in bad:
        group = outcome.groups[key.split(":", 1)[0]]
        group[1] = group[0]
    return bad
