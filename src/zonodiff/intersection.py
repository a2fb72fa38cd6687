"""Over-approximating intersections used by the observers.

Two primitives live here:

* strips-with-zonotope: intersect a zonotope with a family of measurement
  strips ``|h x - y| <= r`` and over-approximate the result by a zonotope
  parameterized by per-strip gain vectors;
* zonotopes-with-zonotopes: the diffusion combination, a weighted
  center/generator average that over-approximates the common intersection
  of a family of zonotopes.

Both come with the closed-form parameter choice that minimizes the
Frobenius norm (F-radius) of the resulting generator matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .zonotope import Zonotope, checked_zonotope

__all__ = [
    "Strip",
    "intersect_strips",
    "frobenius_optimal_gain",
    "intersect_zonotopes",
    "optimal_diffusion_weights",
]

# Conditioning threshold beyond which the gain solve falls back to a
# pseudo-inverse (redundant strips / point priors make the normal matrix
# effectively singular).
_COND_LIMIT = 1e12
# The certificate of the solve path bounds the condition number by
# _CERT_LIMIT, a factor 10^4 below the limit for rounding, and asks for
# normal r^2 (no subnormal or zero minimum).
_CERT_LIMIT = _COND_LIMIT / 1e4
_TINY = float(np.finfo(float).tiny)
# Outside these ranges of ||G||_F^2 and of r, the gain solve scales G and r
# first.
_TRACE_RANGE = (2.0 ** -300, 2.0 ** 300)
_R_RANGE = (2.0 ** -150, 2.0 ** 150)


@dataclass(frozen=True)
class Strip:
    """Scalar measurement constraint ``{x : |h . x - y| <= r}``.

    ``h`` is the measurement row (stored as a length-``n`` vector), ``y``
    the observed value and ``r > 0`` the noise bound.
    """

    h: np.ndarray
    y: float
    r: float

    def __post_init__(self):
        # The checks run on Python floats, a third of the cost of numpy's
        # on a short vector; one strip is built per node per step.
        h = np.asarray(self.h, dtype=float).reshape(-1)
        entries = h.tolist()
        if not all(map(math.isfinite, entries)) or not any(entries):
            raise ValueError("strip direction h must be finite and nonzero")
        y = float(self.y)
        r = float(self.r)
        if not (math.isfinite(y) and math.isfinite(r)):
            raise ValueError("strip y and r must be finite")
        if r <= 0.0:
            raise ValueError("strip half-width r must be positive")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "r", r)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    def contains(self, x) -> bool:
        """True if ``x`` satisfies the strip constraint."""
        return bool(abs(float(self.h @ np.asarray(x, dtype=float)) - self.y)
                    <= self.r)


def stack_strips(strips, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(Gamma, y, r)`` of a nonempty strip family in dimension ``dim``:
    one row of ``Gamma`` and one entry of ``y`` and ``r`` per strip.

    Raises ``ValueError`` for no strips or strips of another dimension.
    """
    strips = list(strips)
    if not strips:
        raise ValueError("at least one strip is required")
    gamma = np.array([s.h for s in strips])
    if gamma.shape[1] != dim:
        raise ValueError("strip dimension does not match the zonotope")
    y = np.array([s.y for s in strips])
    r = np.array([s.r for s in strips])
    return gamma, y, r


def correct(center, gens, gamma, y, r, lam, front=None, noise=None):
    """Gain-corrected set: the affine step shared by both observers.

    Maps ``<c, G>`` with strips ``(Gamma, y, r)`` and gain ``Lam`` to center
    ``front c + Lam (y - Gamma c)`` (:func:`corrected_center`) and
    generators ``[(front - Lam Gamma) G, lam_1 r_1, ..., lam_m r_m,
    noise]``. Shapes: ``center (n,)``, ``gens (n, e)``, ``gamma (m, n)``,
    ``y, r (m,)``, ``lam (n, m)``; ``front`` is an ``n x n`` matrix, the
    identity when None (the pure measurement update), and ``noise`` an
    optional ``n x p`` block appended as is. Returns ``(center, gens)``,
    the generators built in one concatenation.

    Only the center reads ``y``: in a round of
    :func:`~zonodiff.network.run_round`, a node whose ``G``, ``Gamma`` and
    ``r`` equal an earlier node's, bit for bit, computes
    :func:`corrected_center` alone (30 of the 32 node updates of a
    32-node paper ring, 6 of 8 of an 8-node one), and it shares that
    node's corrected generator array, so that phase 2 diffuses, reduces
    and propagates each distinct neighbourhood once per round.
    """
    out_center = corrected_center(center, gamma, y, lam, front)
    shrink = (np.eye(len(center)) if front is None else front) - lam @ gamma
    blocks = [shrink @ gens, lam * r]
    if noise is not None:
        blocks.append(noise)
    return out_center, np.concatenate(blocks, axis=1)


def corrected_center(center, gamma, y, lam, front=None):
    """``front c + Lam (y - Gamma c)``, the center of :func:`correct`: the
    one part of the corrected set that reads the measurements ``y``."""
    innovation = y - gamma @ center
    return (center if front is None else front @ center) + lam @ innovation


def intersect_strips(z: Zonotope, strips, lam) -> Zonotope:
    """Zonotope over-approximation of ``z`` intersected with all ``strips``.

    ``lam`` is the ``n x m`` gain matrix whose column ``j`` multiplies the
    innovation of strip ``j``, such as :func:`frobenius_optimal_gain`
    returns. With gains ``lam_j`` the result is
    ``c' = c + sum_j lam_j (y_j - h_j c)`` and
    ``G' = [(I - sum_j lam_j h_j) G, lam_1 r_1, ..., lam_m r_m]``,
    which contains the true intersection for every finite gain choice.
    """
    gamma, y, r = stack_strips(strips, z.dim)
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    if not np.all(np.isfinite(lam)):
        raise ValueError("gain entries must be finite")
    if lam.shape != (z.dim, len(y)):
        raise ValueError(
            f"gain shape {lam.shape} does not match (n, m) = ({z.dim}, {len(y)})"
        )
    center, gens = correct(z.center, z.generators, gamma, y, r, lam)
    return checked_zonotope(center, gens)


def frobenius_optimal_gain(prior_generators: np.ndarray, gamma: np.ndarray,
                           r: np.ndarray, front=None, unit_rows: bool = False
                           ) -> tuple[np.ndarray, bool]:
    """Gain matrix minimizing the squared F-radius of the corrected generator
    matrix ``[(front - Lam Gamma) G, lam_1 r_1, ..., lam_m r_m]``.

    Setting the gradient of the trace form to zero gives the normal
    equations ``Lam (Gamma G G' Gamma' + diag(r^2)) = front G G' Gamma'``.
    A normal matrix whose condition number is not below ``1e12``
    (redundant strips, point priors) takes a pseudo-inverse instead of the
    solve; the second return value flags it.

    Most calls skip the eigenvalues of that test: the solve path is
    certified when ``min(r^2)`` is a normal double and ``P + sum(r^2) <=
    1e8 min(r^2)`` with ``P = ||Gamma||_F^2 ||G||_F^2``
    (:func:`_solve_certified`). Why it is sound: ``Gamma G G' Gamma'`` is
    positive semidefinite with norm at most ``P``, so the exact normal
    matrix has ``lambda_min >= min(r^2)`` and ``lambda_max <= P +
    max(r^2)``, a condition number of at most ``1e8``. Rounding moves the
    computed normal matrix by at most about ``(e + 2n + 3) eps P``, and
    its computed eigenvalues by a small multiple of ``eps`` times its
    norm: both stay below ``1e-4 min(r^2)`` while ``e + 2n`` and ``m`` are
    below a few thousand. With the factor 10^4 between ``1e8`` and the
    limit, wherever the certificate holds the eigenvalue test picks the
    solve too. ``P`` and
    not the trace of the computed matrix: strips nearly orthogonal to a
    huge prior cancel in ``Gamma G``, and the computed matrix can then be
    indefinite with a small trace. A NaN or infinite bound and an ``r^2``
    below the smallest normal double fail the certificate and take the
    eigenvalue test.

    ``front`` defaults to the identity (the pure measurement update); the
    Luenberger update passes the state matrix.

    A strip ``(h_j, y_j, r_j)`` scaled by ``s`` is the same constraint,
    and its gain column ``lam_j`` is divided by ``s``. So each row ``(h_j,
    r_j)`` is first scaled by its own power of two to ``max|h_j|`` in
    ``[1, 2)``, as :func:`unit_strips` scales strips, and column ``j`` of
    ``Lam`` back; ``unit_rows`` says that the rows are at that scale
    already and skips this step (:func:`~zonodiff.network.run_round`
    scales the round's strips once). Where ``||G||_F^2`` is then outside
    ``[2^-300, 2^300]`` or an ``r_j`` outside ``[2^-150, 2^150]``, ``G``
    and ``r`` are scaled to ``max(|G|, r)`` in ``[1/2, 1)``, so that the
    normal matrix neither overflows nor loses ``r^2`` to underflow (``Lam``
    is invariant under a joint scaling of ``G`` and ``r``). The scalings
    are exact: ``2^k (h_j, y_j, r_j)`` in place of a strip gives the
    normalised problem bit for bit, and column ``j`` of the gain times
    ``2^-k``, which is exact unless it falls into the subnormal range.
    """
    gens = np.asarray(prior_generators, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    r = np.asarray(r, dtype=float)
    if unit_rows:
        return _unit_gain(gens, gamma, r, front)
    shift = _strip_shift(gamma)
    lam, fallback = _unit_gain(gens, np.ldexp(gamma, shift[:, None]),
                               np.ldexp(r, shift), front)
    return np.ldexp(lam, shift), fallback


def _unit_gain(gens, gamma, r, front) -> tuple[np.ndarray, bool]:
    # frobenius_optimal_gain for strip rows at unit scale.
    # ||Gamma||_F^2 and ||G||_F^2, overflowing to inf without a warning.
    gamma_sq = float(np.vdot(gamma, gamma))
    trace = float(np.vdot(gens, gens))
    radii = r.tolist()
    if not (_TRACE_RANGE[0] <= trace <= _TRACE_RANGE[1]
            and _R_RANGE[0] <= min(radii) and max(radii) <= _R_RANGE[1]):
        k = math.frexp(max(float(np.abs(gens).max(initial=0.0)),
                           max(radii)))[1]
        gens, r = np.ldexp(gens, -k), np.ldexp(r, -k)
        trace = float(np.vdot(gens, gens))
    gg = gens @ gens.T
    gamma_gg = gamma @ gg
    r_sq = r ** 2
    normal = gamma_gg @ gamma.T + np.diag(r_sq)
    rhs = gamma_gg  # transpose of the numerator
    if front is not None:
        rhs = gamma_gg @ np.asarray(front, dtype=float).T
    if _solve_certified(gamma_sq, trace, r_sq) or _well_conditioned(normal):
        lam, fallback = np.linalg.solve(normal, rhs).T, False
    else:
        lam, fallback = rhs.T @ np.linalg.pinv(normal), True
    return lam, fallback


def unit_strips(gamma, y, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The strips ``(Gamma, y, r)``, each ``(h_j, y_j, r_j)`` scaled by its
    own power of two to ``max|h_j|`` in ``[1, 2)``: the same constraints.
    Unit rows, such as the paper's, keep their bits. The scaling is exact
    unless an entry leaves the double range: a strip ``2^k (h_j, y_j,
    r_j)`` gives the same bits as ``(h_j, y_j, r_j)``."""
    shift = _strip_shift(gamma)
    return (np.ldexp(gamma, shift[:, None]), np.ldexp(y, shift),
            np.ldexp(r, shift))


def _strip_shift(gamma) -> np.ndarray:
    # 1 - e_j for max|h_j| in [2^(e_j - 1), 2^e_j): 0 for a row in [1, 2).
    return 1 - np.frexp(np.abs(gamma).max(axis=1))[1]


def _solve_certified(gamma_sq: float, trace: float, r_sq: np.ndarray) -> bool:
    # ||Gamma||_F^2 trace(G G') + sum(r^2) <= 1e8 min(r^2), a sufficient
    # condition for _well_conditioned (see frobenius_optimal_gain). Python
    # floats: they overflow to inf without a warning, and NaN compares
    # False.
    squares = r_sq.tolist()
    low = min(squares)
    return (low >= _TINY
            and gamma_sq * trace + sum(squares) <= _CERT_LIMIT * low)


def _well_conditioned(normal: np.ndarray) -> bool:
    # The normal matrix is symmetric positive semidefinite, so its singular
    # values are its eigenvalues, ascending. cond = ev[-1] / ev[0] <
    # _COND_LIMIT is tested without the division; a singular matrix (ev[0]
    # zero or rounded below it) fails it.
    ev = np.linalg.eigvalsh(normal)
    return bool(ev[0] * _COND_LIMIT > ev[-1])


def squared_f_radius(mats) -> tuple[np.ndarray, np.ndarray]:
    """``(beta, k)`` of the matrices ``G`` of the sequence ``mats``: ``k``
    the binary exponent of ``max |G|`` (0 for ``G = 0`` and for no
    columns) and ``beta = ||2^-k G||_F^2``, so ``||G||_F^2 = 4^k beta`` and
    scaling a matrix by ``2^j`` adds ``j`` to ``k`` and leaves ``beta`` bit
    for bit. The squares are added in the order of ``(G ** 2).sum()``, so
    ``4^k beta`` is that sum wherever it neither overflows nor underflows.
    """
    sizes = [g.size for g in mats]
    beta = np.empty(len(sizes))
    k = np.empty(len(sizes), dtype=int)
    # The matrices of one size are the rows of one C-ordered stack, each
    # summed along its contiguous axis, which is the order of a 1-D sum.
    for size in set(sizes):
        rows = [i for i, s in enumerate(sizes) if s == size]
        flat = np.array([mats[i].ravel() for i in rows])
        k[rows] = top = np.frexp(np.abs(flat).max(axis=1, initial=0.0))[1]
        beta[rows] = (np.ldexp(flat, -top[:, None]) ** 2).sum(axis=1)
    return beta, k


def diffusion_weights(beta: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Optimal weights ``w_j = (1/b_j) / sum_r 1/b_r`` along the last axis
    for ``b_j = ||G_j||_F^2 = 4^k_j beta_j`` (:func:`squared_f_radius`).
    Each ``1/b_j`` is taken times ``4^min(k)``, a factor common to the row,
    as ``4^(min k - k_j) / beta_j``: no term overflows, and the weights do
    not depend on the scale of the sets. Point sets (``G = 0``, so ``beta =
    0``) pin the result: all weight is split uniformly over them. A row of
    one member gets weight 1.0 exactly: its set is only reduced.
    """
    points = beta == 0.0
    inv = np.ldexp(1.0 / np.where(points, 1.0, beta),
                   2 * (k.min(axis=-1, keepdims=True) - k))
    # A row with point sets weighs each of them 1 and the others 0.
    inv = np.where(points.any(axis=-1, keepdims=True), points, inv)
    return inv / inv.sum(axis=-1, keepdims=True)


def combined_center(w, centers):
    """``sum_j w_j c_j / sum_j w_j`` row by row, the center of the weighted
    combination of gathered zonotopes: ``w (B, m)`` weights the centers
    ``(B, m, n)``. The one part of the combination that reads data."""
    return (w[:, :, None] * centers).sum(axis=1) / w.sum(axis=1)[:, None]


def combined_generators(w, gens, col_weights):
    """``[w_1 G_1, ..., w_m G_m] / sum_j w_j`` row by row, the generators
    of the weighted combination: ``gens (B, n, W)`` holds the members'
    generators side by side and ``col_weights (B, W)`` the weight of the
    member each column belongs to."""
    return gens * col_weights[:, None, :] / w.sum(axis=1)[:, None, None]


def intersect_zonotopes(zs, w) -> Zonotope:
    """Weighted combination over-approximating the intersection of ``zs``.

    ``c' = (sum_j w_j c_j) / (sum_j w_j)`` and
    ``G' = [w_1 G_1, ..., w_m G_m] / (sum_j w_j)``. Sound for any finite
    weight vector ``w`` with ``|sum_j w_j| > 1e-15 sum_j |w_j|``; cost is
    linear in the total generator count (O(n * sum_j e_j)).
    """
    zs = list(zs)
    if not zs:
        raise ValueError("at least one zonotope is required")
    w = np.asarray(w, dtype=float).reshape(-1)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    # w scaled to max |w| in [1/2, 1) gives the same set, exactly, and its
    # sums cannot overflow.
    w = np.ldexp(w, -np.frexp(np.abs(w).max(initial=0.0))[1])
    if abs(w.sum()) <= 1e-15 * np.abs(w).sum():
        raise ValueError("weights must not sum to zero")
    if w.shape[0] != len(zs):
        raise ValueError(f"{w.shape[0]} weights for {len(zs)} zonotopes")
    dim = zs[0].dim
    if any(z.dim != dim for z in zs):
        raise ValueError("all zonotopes must share one dimension")
    widths = [z.n_generators for z in zs]
    center = combined_center(w[None], np.stack([z.center for z in zs])[None])
    gens = combined_generators(w[None],
                               np.hstack([z.generators for z in zs])[None],
                               np.repeat(w, widths)[None])
    return checked_zonotope(center[0], gens[0])


def optimal_diffusion_weights(zs) -> np.ndarray:
    """Weight vector minimizing the F-radius of :func:`intersect_zonotopes`.

    With ``beta_j = ||G_j||_F^2`` the minimizer of
    ``sum_j beta_j w_j^2`` subject to ``sum_j w_j = 1`` is
    ``w_j = 1 / (beta_j * sum_r 1/beta_r)``, the same bits for the sets
    scaled by any one power of two (:func:`diffusion_weights`). Point sets
    (``G = 0``) pin the result: all weight is split uniformly over them.
    """
    zs = list(zs)
    if not zs:
        raise ValueError("at least one zonotope is required")
    return diffusion_weights(*squared_f_radius([z.generators for z in zs]))
