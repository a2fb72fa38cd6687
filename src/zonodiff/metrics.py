"""Evaluation metrics: set radius, pairwise Hausdorff distance, center
localization error."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.spatial.distance import cdist

from .zonotope import Zonotope, f_radius, interval_hull, vertices_2d

__all__ = [
    "RADIUS_FROBENIUS",
    "RADIUS_HALF_DIAGONAL",
    "radius",
    "half_diagonal",
    "hausdorff_2d",
    "SimRecord",
    "StepSummary",
    "RunSummary",
    "build_records",
    "summarize",
]

RADIUS_FROBENIUS = "frobenius"
RADIUS_HALF_DIAGONAL = "half_diagonal"


def radius(z: Zonotope, kind: str = RADIUS_FROBENIUS) -> float:
    """Scalar size of an estimated set.

    ``frobenius`` (default) is the F-radius; ``half_diagonal`` is half the
    Euclidean diagonal of the interval hull. Both are monotone under
    generator removal.
    """
    if kind == RADIUS_FROBENIUS:
        return f_radius(z)
    if kind == RADIUS_HALF_DIAGONAL:
        return half_diagonal(*interval_hull(z))
    raise ValueError(f"unknown radius kind {kind!r}")


def half_diagonal(lower, upper) -> float:
    """Half the Euclidean diagonal of the box ``[lower, upper]``."""
    return 0.5 * float(np.linalg.norm(upper - lower))


def hausdorff_2d(a: Zonotope, b: Zonotope) -> float:
    """Hausdorff distance between the vertex sets of two 2-D zonotopes.

    Computed over the discrete vertex sets (not the filled polygons), which
    is the cross-node agreement measure used in the evaluation tables.
    """
    return _vertex_hausdorff(vertices_2d(a), vertices_2d(b))


def _vertex_hausdorff(va: np.ndarray, vb: np.ndarray) -> float:
    d = cdist(va, vb)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


@dataclass(frozen=True)
class SimRecord:
    """One per-step, per-node metrics row."""

    step: int
    node_id: int
    radius: float
    center_error: float
    lower: np.ndarray
    upper: np.ndarray
    step_time_us: float

    def __post_init__(self):
        if self.radius < 0 or self.center_error < 0:
            raise ValueError("radius and center error must be nonnegative")
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if np.any(lower > upper):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True)
class StepSummary:
    """Across-node statistics of one step (Hausdorff over unordered pairs;
    ``None`` when fewer than two nodes exist)."""

    step: int
    radius_mean: float
    radius_std: float
    center_error_mean: float
    center_error_std: float
    hausdorff_mean: float | None
    hausdorff_std: float | None


@dataclass(frozen=True)
class RunSummary:
    """Whole-run aggregates over steps x nodes (pairs for Hausdorff),
    excluding the burn-in steps."""

    burn_in: int
    radius_mean: float
    radius_std: float
    center_error_mean: float
    center_error_std: float
    hausdorff_mean: float | None
    hausdorff_std: float | None


def build_records(result, trajectory, radius_kind: str = RADIUS_FROBENIUS):
    """Turn a :class:`~zonodiff.network.SimulationResult` into metric rows."""
    records = []
    for k, row in enumerate(result.estimates):
        truth = trajectory.states[k]
        for i, est in enumerate(row):
            lower, upper = interval_hull(est)
            records.append(SimRecord(
                step=k,
                node_id=i,
                radius=radius(est, radius_kind),
                center_error=float(np.linalg.norm(est.center - truth)),
                lower=lower,
                upper=upper,
                step_time_us=float(result.times_us[k][i]),
            ))
    return records


def _stats(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def summarize(records, estimates=None, burn_in: int = 5):
    """Per-step summaries plus the whole-run aggregate.

    ``estimates`` is the optional ``[step][node]`` list of zonotopes; when
    given (and 2-D with at least two nodes) pairwise Hausdorff statistics
    are included. ``burn_in`` steps are excluded from the run aggregate so
    the large initial set does not dominate.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to summarize")
    by_step: dict[int, list[SimRecord]] = {}
    for rec in records:
        by_step.setdefault(rec.step, []).append(rec)

    hausdorff_by_step: dict[int, list[float]] = {}
    if estimates is not None:
        for k, row in enumerate(estimates):
            if len(row) >= 2 and row[0].dim == 2:
                # Each zonotope's vertices are enumerated once per step.
                verts = [vertices_2d(z) for z in row]
                hausdorff_by_step[k] = [_vertex_hausdorff(a, b) for a, b
                                        in combinations(verts, 2)]

    step_summaries = []
    for k in sorted(by_step):
        rows = by_step[k]
        r_mean, r_std = _stats([r.radius for r in rows])
        c_mean, c_std = _stats([r.center_error for r in rows])
        if k in hausdorff_by_step:
            h_mean, h_std = _stats(hausdorff_by_step[k])
        else:
            h_mean = h_std = None
        step_summaries.append(StepSummary(k, r_mean, r_std, c_mean, c_std,
                                          h_mean, h_std))

    tail = [r for r in records if r.step >= burn_in]
    if not tail:
        raise ValueError("burn-in leaves no records to aggregate")
    r_mean, r_std = _stats([r.radius for r in tail])
    c_mean, c_std = _stats([r.center_error for r in tail])
    h_tail = [v for k, vals in hausdorff_by_step.items() if k >= burn_in
              for v in vals]
    if h_tail:
        h_mean, h_std = _stats(h_tail)
    else:
        h_mean = h_std = None
    run = RunSummary(burn_in, r_mean, r_std, c_mean, c_std, h_mean, h_std)
    return step_summaries, run
