"""Evaluation metrics: set radii (F-radius and interval-hull half
diagonal), pairwise Hausdorff distance, center localization error.

Only numpy is loaded with this module. The Hausdorff distance uses scipy's
distance kernel, and ``scipy.spatial`` is loaded on its first call, so the
first 2-D Hausdorff summary of a process pays for the import and a process
that never asks for one never loads scipy."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .zonotope import (
    Zonotope,
    _norm,
    _vertices_stack,
    f_radius,
    interval_hull,
)

__all__ = [
    "half_diagonal",
    "hausdorff_2d",
    "Records",
    "StepSummary",
    "RunSummary",
    "build_records",
    "summarize",
]


@functools.cache
def _cdist_kernel():
    # Loaded once: an import statement per call would cost about 1 us on
    # each of the thousands of pairs of a grid run.
    from scipy.spatial.distance import cdist as kernel
    return kernel


def cdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``a`` and those of ``b``
    (``scipy.spatial.distance.cdist``)."""
    return _cdist_kernel()(a, b)


def half_diagonal(lower, upper) -> float:
    """Half the Euclidean diagonal of the box ``[lower, upper]``."""
    return 0.5 * _norm(upper - lower)


def hausdorff_2d(a: Zonotope, b: Zonotope) -> float:
    """Hausdorff distance between the vertex sets of two 2-D zonotopes.

    Computed over the discrete vertex sets (not the filled polygons), which
    is the cross-node agreement measure used in the evaluation tables.
    """
    return float(_pairs_hausdorff(_vertices_stack([a, b]), [(0, 1)])[0])


def _pairs_hausdorff(verts, pairs) -> np.ndarray:
    """Hausdorff distance between the vertex arrays ``verts[a]`` and
    ``verts[b]`` for every pair ``(a, b)``: one ``cdist`` per pair, then the
    minima and maxima of all the distance matrices at once. Min and max are
    exact, so the values do not depend on which pairs are reduced
    together."""
    dists = [cdist(verts[a], verts[b]) for a, b in pairs]
    return np.maximum(_farthest_nearest([d.T for d in dists]),
                      _farthest_nearest(dists))


def _farthest_nearest(blocks) -> np.ndarray:
    """``block.min(axis=0).max()`` of every block, as one array.

    The blocks are placed side by side and padded below with inf, so each
    minimum runs down a column with the rows as the outer loop: a minimum
    along short contiguous rows costs a loop per row."""
    widths = np.array([b.shape[1] for b in blocks])
    starts = np.cumsum(widths) - widths
    side = np.full((max(b.shape[0] for b in blocks), widths.sum()), np.inf)
    for start, block in zip(starts.tolist(), blocks):
        side[:block.shape[0], start:start + block.shape[1]] = block
    return np.maximum.reduceat(side.min(axis=0), starts)


@dataclass(frozen=True)
class Records:
    """Per-step, per-node metrics of one run: ``radius`` (the estimate's
    F-radius), ``center_error`` and ``step_time_us`` have shape
    ``(steps, nodes)``; ``[lower, upper]`` is the interval hull, shape
    ``(steps, nodes, n)``."""

    radius: np.ndarray
    center_error: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    step_time_us: np.ndarray


@dataclass(frozen=True)
class StepSummary:
    """Across-node statistics of every step, as ``(steps,)`` arrays
    (Hausdorff over unordered pairs; ``None`` when fewer than two nodes
    exist or the sets are not 2-D)."""

    radius_mean: np.ndarray
    radius_std: np.ndarray
    center_error_mean: np.ndarray
    center_error_std: np.ndarray
    hausdorff_mean: np.ndarray | None
    hausdorff_std: np.ndarray | None


@dataclass(frozen=True)
class RunSummary:
    """Whole-run aggregates over steps x nodes (pairs for Hausdorff),
    excluding the burn-in steps. ``radius`` is the records' F-radius and
    ``half_diagonal`` half the diagonal of their interval hulls."""

    burn_in: int
    radius_mean: float
    radius_std: float
    half_diagonal_mean: float
    half_diagonal_std: float
    center_error_mean: float
    center_error_std: float
    hausdorff_mean: float | None
    hausdorff_std: float | None


def build_records(result, trajectory) -> Records:
    """Metrics of a :class:`~zonodiff.network.SimulationResult` as arrays."""
    rows = result.estimates
    if not rows:
        raise ValueError("no records to summarize")
    hulls = np.array([[interval_hull(est) for est in row] for row in rows])
    return Records(
        radius=np.array([[f_radius(est) for est in row] for row in rows]),
        center_error=np.array([[_norm(est.center - truth) for est in row]
                               for row, truth in zip(rows, trajectory.states)]),
        lower=hulls[:, :, 0],
        upper=hulls[:, :, 1],
        step_time_us=np.array(result.times_us, dtype=float),
    )


def _stats(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std())


def summarize(records: Records, estimates=None, burn_in: int = 5):
    """Per-step summaries plus the whole-run aggregate: ``(steps, run)``,
    a :class:`StepSummary` of ``(steps,)`` arrays and a :class:`RunSummary`.

    ``estimates`` is the optional ``[step][node]`` list of zonotopes; when
    given (and 2-D with at least two nodes) pairwise Hausdorff statistics
    are included. ``burn_in`` steps are excluded from the run aggregate so
    the large initial set does not dominate.
    """
    if records.radius.size == 0:
        raise ValueError("no records to summarize")
    if burn_in >= len(records.radius):
        raise ValueError("burn-in leaves no records to aggregate")
    hausdorff = None
    if (estimates is not None and len(estimates[0]) >= 2
            and estimates[0][0].dim == 2):
        # The vertices of every node-step in one stacked pass, then per
        # step one distance matrix per node pair and one padded min/max
        # reduction of all of them.
        nodes = len(estimates[0])
        verts = _vertices_stack([z for row in estimates for z in row])
        pairs = list(combinations(range(nodes), 2))
        hausdorff = np.array([_pairs_hausdorff(verts[s:s + nodes], pairs)
                              for s in range(0, len(verts), nodes)])

    steps = StepSummary(
        records.radius.mean(axis=1), records.radius.std(axis=1),
        records.center_error.mean(axis=1), records.center_error.std(axis=1),
        None if hausdorff is None else hausdorff.mean(axis=1),
        None if hausdorff is None else hausdorff.std(axis=1))

    n = records.lower.shape[2]
    diagonals = np.array([
        half_diagonal(lo, up)
        for lo, up in zip(records.lower[burn_in:].reshape(-1, n),
                          records.upper[burn_in:].reshape(-1, n))])
    run = RunSummary(burn_in, *_stats(records.radius[burn_in:]),
                     *_stats(diagonals),
                     *_stats(records.center_error[burn_in:]),
                     *((None, None) if hausdorff is None
                       else _stats(hausdorff[burn_in:])))
    return steps, run
