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

from .zonotope import Zonotope, checked_zonotope, stack_zonotopes

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
# first; outside that of ||Gamma||_F^2, it scales Gamma and r before that.
_TRACE_RANGE = (2.0 ** -300, 2.0 ** 300)
_R_RANGE = (2.0 ** -150, 2.0 ** 150)
_GAMMA_RANGE = (2.0 ** -16, 2.0 ** 16)


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
    ``front c + Lam (y - Gamma c)`` and generators
    ``[(front - Lam Gamma) G, lam_1 r_1, ..., lam_m r_m, noise]``. Shapes:
    ``center (n,)``, ``gens (n, e)``, ``gamma (m, n)``, ``y, r (m,)``,
    ``lam (n, m)``; ``front`` is an ``n x n`` matrix, the identity when
    None (the pure measurement update), and ``noise`` an optional ``n x p``
    block appended as is. Returns ``(center, gens)``, the generators built
    in one concatenation.
    """
    innovation = y - gamma @ center
    if front is None:
        out_center = center + lam @ innovation
        shrink = np.eye(len(center)) - lam @ gamma
    else:
        out_center = front @ center + lam @ innovation
        shrink = front - lam @ gamma
    blocks = [shrink @ gens, lam * r]
    if noise is not None:
        blocks.append(noise)
    return out_center, np.concatenate(blocks, axis=1)


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
                           r: np.ndarray, front=None) -> tuple[np.ndarray, bool]:
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

    ``Lam`` is invariant under a joint scaling of ``G`` and ``r``, and a
    joint scaling of ``Gamma`` and ``r`` by ``s`` divides it by ``s``.
    Where ``||Gamma||_F^2`` is outside ``[2^-16, 2^16]``, ``Gamma`` and
    ``r`` are first scaled by a power of two to ``max|Gamma|`` in ``[1/2,
    1)``, and ``Lam`` back. Where ``||G||_F^2`` is then outside ``[2^-300,
    2^300]`` or an ``r_j`` outside ``[2^-150, 2^150]``, ``G`` and ``r``
    are scaled to ``max(|G|, r)`` in ``[1/2, 1)``, so that the normal
    matrix neither overflows nor loses ``r^2`` to underflow. The scalings
    are exact: the gain is that of the problem at scale 1, bit for bit.
    One strip scaled alone is not normalised.
    """
    gens = np.asarray(prior_generators, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    r = np.asarray(r, dtype=float)
    # ||Gamma||_F^2 and ||G||_F^2, overflowing to inf without a warning.
    gamma_sq = float(np.vdot(gamma, gamma))
    shift = 0
    if not _GAMMA_RANGE[0] <= gamma_sq <= _GAMMA_RANGE[1]:
        shift = math.frexp(float(np.abs(gamma).max()))[1]
        gamma, r = np.ldexp(gamma, -shift), np.ldexp(r, -shift)
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
    return (np.ldexp(lam, -shift) if shift else lam), fallback


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


def squared_f_radius(mats) -> np.ndarray:
    """``||G||_F^2`` of each ``n x e`` matrix of the sequence ``mats``, as
    one array; inf, without a warning, where it overflows (entries near
    ``1e154``), which :func:`diffusion_weights` handles."""
    with np.errstate(over="ignore"):
        return np.array([(g ** 2).sum(axis=(-2, -1)) for g in mats])


def diffusion_weights(beta: np.ndarray) -> np.ndarray:
    """Optimal weights along the last axis of ``beta = ||G_j||_F^2``.

    ``w_j = 1 / (beta_j * sum_r 1/beta_r)``; where some ``1/beta_j`` are
    infinite (point sets: ``beta_j = 0``, or so small that ``1/beta_j``
    overflows) all weight is split uniformly over those, as it is over a
    row whose every ``beta_j`` overflowed to infinity. A row of one member
    gets weight 1.0 exactly: its set is only reduced.
    """
    with np.errstate(divide="ignore", over="ignore"):
        inv = 1.0 / beta
        points = np.isinf(inv) | (inv == 0.0).all(axis=-1, keepdims=True)
        inv = np.where(points, 1.0, inv)
        total = inv.sum(axis=-1, keepdims=True)
    overflow = np.isinf(total)
    if overflow.any():
        # Finite 1/beta whose sum overflows (beta near 1e-308): those rows
        # are divided by their largest 1/beta first, the others by 1, which
        # leaves them bit for bit as they were.
        inv = inv / np.where(overflow, inv.max(axis=-1, keepdims=True), 1.0)
        total = inv.sum(axis=-1, keepdims=True)
    n_points = points.sum(axis=-1, keepdims=True)
    return np.where(n_points > 0, points / np.maximum(n_points, 1),
                    inv / total)


def combine(w, centers, gens, col_weights):
    """Weighted combination of gathered zonotopes, row by row.

    ``w (B, m)`` weights the centers ``(B, m, n)``; ``gens (B, n, W)`` holds
    the members' generators side by side and ``col_weights (B, W)`` the
    weight of the member each column belongs to. Returns
    ``(sum_j w_j c_j / sum_j w_j, [w_1 G_1, ..., w_m G_m] / sum_j w_j)``.
    """
    total = w.sum(axis=1)
    center = (w[:, :, None] * centers).sum(axis=1) / total[:, None]
    return center, gens * col_weights[:, None, :] / total[:, None, None]


def intersect_zonotopes(zs, w) -> Zonotope:
    """Weighted combination over-approximating the intersection of ``zs``.

    ``c' = (sum_j w_j c_j) / (sum_j w_j)`` and
    ``G' = [w_1 G_1, ..., w_m G_m] / (sum_j w_j)``. Sound for any finite
    weight vector ``w`` with nonzero sum; cost is linear in the total
    generator count (O(n * sum_j e_j)).
    """
    zs = list(zs)
    if not zs:
        raise ValueError("at least one zonotope is required")
    w = np.asarray(w, dtype=float).reshape(-1)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if abs(w.sum()) <= 1e-15 * max(1.0, np.abs(w).sum()):
        raise ValueError("weights must not sum to zero")
    if w.shape[0] != len(zs):
        raise ValueError(f"{w.shape[0]} weights for {len(zs)} zonotopes")
    dim = zs[0].dim
    if any(z.dim != dim for z in zs):
        raise ValueError("all zonotopes must share one dimension")
    widths = [z.n_generators for z in zs]
    center, gens = combine(w[None], np.stack([z.center for z in zs])[None],
                           np.hstack([z.generators for z in zs])[None],
                           np.repeat(w, widths)[None])
    return stack_zonotopes(center, gens)[0]


def optimal_diffusion_weights(zs) -> np.ndarray:
    """Weight vector minimizing the F-radius of :func:`intersect_zonotopes`.

    With ``beta_j = ||G_j||_F^2`` the minimizer of
    ``sum_j beta_j w_j^2`` subject to ``sum_j w_j = 1`` is
    ``w_j = 1 / (beta_j * sum_r 1/beta_r)``. Point sets (``beta = 0``, or
    so small that ``1/beta`` overflows) pin the result: all weight is split
    uniformly over them.
    """
    zs = list(zs)
    if not zs:
        raise ValueError("at least one zonotope is required")
    return diffusion_weights(squared_f_radius([z.generators for z in zs]))
