"""Evaluation metrics: set radii (F-radius and interval-hull half
diagonal), pairwise Hausdorff distance, center localization error.

Only numpy is loaded with this module. The Hausdorff distance uses scipy's
distance kernel, and ``scipy.spatial`` is loaded on its first call, so the
first 2-D Hausdorff summary of a process pays for the import and a process
that never asks for one never loads scipy."""

from __future__ import annotations

import functools
import math
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


@functools.lru_cache(maxsize=1)
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
    is the cross-node agreement measure used in the evaluation tables. Sets
    whose vertices or distances pass the double range are measured scaled
    down by a power of two; a distance beyond the range is inf, without a
    warning.
    """
    zs = [a, b]
    return float(_pairs_hausdorff(zs, _vertices_stack(zs), [(0, 1)])[0])


# Below this a distance may have lost its value to underflow: cdist
# squares the differences, and those below 2^-511 square into the
# subnormal range or to 0.
_CLOSE = 2.0 ** -500


def _pairs_hausdorff(zs, verts, pairs) -> np.ndarray:
    """Hausdorff distance between the vertex arrays ``verts[a]`` and
    ``verts[b]`` of the sets ``zs[a]`` and ``zs[b]`` for every pair ``(a,
    b)``: one ``cdist`` per pair, then the minima and maxima of all the
    distance matrices at once. Min and max are exact, so the values do not
    depend on which pairs are reduced together.

    ``cdist`` squares the differences, so at the ends of the double range
    a pair is measured again on both sets scaled by ``2^-k``, ``k`` the
    binary exponent of their largest entry, and scaled back: the same bits
    wherever nothing underflows or overflows. These pairs are those whose
    distance is NaN or inf (a vertex past the range is +-inf, and a pair
    near 1.8e308 can give NaN or a false inf), and those below ``2^-500``
    whose sets lie below ``2^-400`` (a distance below about ``2^-520``
    reads 0). A distance past the range is inf, without a warning. Sets
    in the normal range, equal ones included, are never measured again.
    """
    dists = [cdist(verts[a], verts[b]) for a, b in pairs]
    out = np.maximum(_farthest_nearest([d.T for d in dists]),
                     _farthest_nearest(dists))
    unsure = ~((out >= _CLOSE) & (out < math.inf))
    for p in np.flatnonzero(unsure).tolist():
        a, b = (zs[i] for i in pairs[p])
        top = max(float(np.abs(x).max(initial=0.0))
                  for z in (a, b) for x in (z.center, z.generators))
        k = math.frexp(top)[1]
        if k < -400 or not out[p] < math.inf:
            out[p] = _scaled_hausdorff(a, b, k)
    return out


def _scaled_hausdorff(a: Zonotope, b: Zonotope, k: int) -> float:
    # Scaled to a largest entry below 1, every vertex of the two sets is
    # below e + 1 in magnitude, so neither the walk nor cdist overflows,
    # and differences of distinct vertices do not square into underflow.
    zs = [Zonotope(np.ldexp(z.center, -k), np.ldexp(z.generators, -k))
          for z in (a, b)]
    d = _pairs_hausdorff(zs, _vertices_stack(zs), [(0, 1)])
    with np.errstate(over="ignore"):
        return float(np.ldexp(d[0], k))


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


def _mean_std(values: np.ndarray, axis=None) -> tuple:
    """``values.mean(axis)`` and ``values.std(axis)`` (``axis`` None or
    1), computed on the values scaled by the power of two of their largest
    magnitude, one per row along ``axis = 1``, and scaled back: the same
    bits wherever nothing underflows or overflows, and no overflow for
    values up to the top of the double range."""
    k = np.frexp(np.abs(values).max(axis=axis, keepdims=True))[1]
    unit = np.ldexp(values, -k)
    k = np.squeeze(k, axis=axis)
    return np.ldexp(unit.mean(axis=axis), k), np.ldexp(unit.std(axis=axis), k)


def _stats(values: np.ndarray) -> tuple[float, float]:
    mean, std = _mean_std(values)
    return float(mean), float(std)


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
        flat = [z for row in estimates for z in row]
        verts = _vertices_stack(flat)
        pairs = list(combinations(range(nodes), 2))
        hausdorff = np.array([
            _pairs_hausdorff(flat[s:s + nodes], verts[s:s + nodes], pairs)
            for s in range(0, len(verts), nodes)])

    steps = StepSummary(
        *_mean_std(records.radius, axis=1),
        *_mean_std(records.center_error, axis=1),
        *((None, None) if hausdorff is None
          else _mean_std(hausdorff, axis=1)))

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
