"""Zonotope set representation and the exact / over-approximating operations on it.

A zonotope ``Z = <c, G>`` is the set ``{c + G @ b : b in [-1, 1]^e}`` with
center ``c`` (length ``n``) and generator matrix ``G`` (``n x e``). Zonotopes
are closed under linear maps and Minkowski sums, which makes them the working
set representation for every estimation step in this package.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

__all__ = [
    "Zonotope",
    "f_radius",
    "reduce",
    "interval_hull",
    "contains_point",
    "vertices_2d",
]


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must contain only finite values")


def _finite_array(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    _check_finite(arr, name)
    return arr


@dataclass(frozen=True)
class Zonotope:
    """Immutable zonotope ``<center, generators>``.

    ``center`` is a length-``n`` vector and ``generators`` an ``n x e`` matrix
    whose columns are the generators. ``e = 0`` is legal and denotes a point
    set. Arrays are copied and frozen at construction, so instances are safe
    to share across threads.
    """

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        c = _finite_array(self.center, "center").reshape(-1)
        g = _finite_array(self.generators, "generators")
        if g.size == 0:
            g = g.reshape(c.shape[0], 0)
        if g.ndim != 2:
            raise ValueError("generators must be a 2-D matrix (n x e)")
        if g.shape[0] != c.shape[0]:
            raise ValueError(
                f"center has dimension {c.shape[0]} but generators have "
                f"{g.shape[0]} rows"
            )
        c.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "generators", g)

    @classmethod
    def _trusted(cls, center: np.ndarray, generators: np.ndarray) -> "Zonotope":
        # Skips the checks: the caller passes a finite, read-only length-n
        # center and n x e generator matrix.
        z = object.__new__(cls)
        object.__setattr__(z, "center", center)
        object.__setattr__(z, "generators", generators)
        return z

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def n_generators(self) -> int:
        return self.generators.shape[1]

    @classmethod
    def point(cls, center) -> "Zonotope":
        """Zonotope with no generators (a single point)."""
        c = np.atleast_1d(np.asarray(center, dtype=float))
        return cls(c, np.zeros((c.shape[0], 0)))

    def to_json_dict(self) -> dict:
        """JSON-serializable form: {"center": [...], "generators": [[...]]}.

        ``generators`` is a list of ``n`` rows of length ``e``.
        """
        return {
            "center": self.center.tolist(),
            "generators": self.generators.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Zonotope":
        return cls(np.asarray(data["center"], dtype=float),
                   np.asarray(data["generators"], dtype=float))


def stack_zonotopes(centers: np.ndarray, gens: np.ndarray) -> list[Zonotope]:
    """One :class:`Zonotope` per row of a stack: centers ``(B, n)`` and
    generators ``(B, n, e)``.

    One finiteness check covers the whole stack, and the zonotopes hold
    read-only views of it.
    """
    _check_finite(centers, "center")
    _check_finite(gens, "generators")
    centers.flags.writeable = False
    gens.flags.writeable = False
    return [Zonotope._trusted(c, g) for c, g in zip(centers, gens)]


def checked_zonotope(center: np.ndarray, gens: np.ndarray) -> Zonotope:
    """:class:`Zonotope` of a freshly computed length-``n`` center and
    ``n x e`` generator matrix: one finiteness check of each, then both
    are frozen in place rather than copied."""
    _check_finite(center, "center")
    _check_finite(gens, "generators")
    center.flags.writeable = False
    gens.flags.writeable = False
    return Zonotope._trusted(center, gens)


def _norm(x: np.ndarray) -> float:
    # Euclidean norm of all entries: what np.linalg.norm computes for
    # ord=None, bit for bit, without its dispatch.
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def f_radius(z: Zonotope) -> float:
    """Frobenius norm of the generator matrix (the F-radius size proxy)."""
    return _norm(z.generators)


def reduce(z: Zonotope, q: int) -> Zonotope:
    """Over-approximate ``z`` by a zonotope with at most ``q`` generators.

    Girard-style reduction: the ``q - n`` generators with the largest
    ``||g||_1 - ||g||_inf`` score are kept verbatim; the remainder is boxed
    into at most ``n`` axis-aligned generators (the interval hull of their
    partial sum). If ``z`` already has at most ``q`` generators it is
    returned unchanged; zero generator columns are dropped only when a
    reduction actually happens.

    The body is :func:`reduce_stack` for a stack of one, without the
    stack's gathers, and gives its result bit for bit and C-ordered: the
    same sort keys, and the box summed along the contiguous axis of a
    C-ordered gather, as the stack sums it.
    """
    q = int(q)
    n, e = z.generators.shape
    if q < n:
        raise ValueError(f"q = {q} must be at least the dimension n = {n}")
    if e <= q:
        return z
    gens = z.generators
    absg = np.abs(gens)
    col_max = absg.max(axis=0)
    nonzero = col_max != 0.0
    if np.count_nonzero(nonzero) <= q:
        # np.compress gathers C-ordered; gens[:, nonzero] comes back
        # Fortran-ordered, and later sums over it can differ by an ulp.
        out = np.compress(nonzero, gens, axis=1)
    else:
        key = np.where(nonzero, col_max - absg.sum(axis=0), np.inf)
        order = np.argsort(key, kind="stable")
        box = np.abs(np.take(gens, order[q - n:], axis=1)).sum(axis=1)
        out = np.concatenate([np.take(gens, order[:q - n], axis=1),
                              np.compress(box != 0.0, np.diag(box), axis=1)],
                             axis=1)
    # The kept columns are finite; a box sum can overflow.
    _check_finite(out, "generators")
    out.flags.writeable = False
    return Zonotope._trusted(z.center, out)


def reduce_stack(gens: np.ndarray, q: int) -> list:
    """:func:`reduce` applied to every row of a stack of generator matrices.

    ``gens`` has shape ``(B, n, e)`` with ``q >= n``. The reduced rows can
    differ in generator count, so the result is a list of ``(rows,
    reduced)`` pairs, one per count: ``rows`` indexes the input stack and
    ``reduced`` has shape ``(len(rows), n, count)``. A stack with
    ``e <= q`` comes back unchanged as one pair.
    """
    batch, n, e = gens.shape
    if e <= q:
        return [(np.arange(batch), gens)]
    absg = np.abs(gens)
    col_max = absg.max(axis=1)
    nonzero = col_max != 0.0
    count = nonzero.sum(axis=1)
    boxing = count > q
    # Rows that box rank their generators by descending score
    # ||g||_1 - ||g||_inf; the others only move their zero columns last.
    # Zero columns sort last in both, and the stable sort keeps ties in
    # column order.
    key = np.where(nonzero, (col_max - absg.sum(axis=1)) * boxing[:, None],
                   np.inf)
    order = np.argsort(key, axis=1, kind="stable")
    ranked = gens[np.arange(batch)[:, None, None], np.arange(n)[:, None],
                  order[:, None, :]]
    box = np.abs(ranked[:, :, q - n:]).sum(axis=2)
    # Box generators e_k * box_k without the zero ones, in order of k.
    box_order = np.argsort(box == 0.0, axis=1, kind="stable")
    box_gens = (box_order[:, None, :] == np.arange(n)[:, None]) * box[:, :, None]
    tail = np.where(boxing[:, None, None], box_gens, ranked[:, :, q - n:q])
    out = np.concatenate([ranked[:, :, :q - n], tail], axis=2)
    widths = np.where(boxing, q - n + (box != 0.0).sum(axis=1), count)
    if (widths == widths[0]).all():
        return [(np.arange(batch), np.ascontiguousarray(out[:, :, :widths[0]]))]
    groups = []
    for w in np.unique(widths):
        rows = np.flatnonzero(widths == w)
        groups.append((rows, np.ascontiguousarray(out[rows, :, :w])))
    return groups


def interval_hull(z: Zonotope) -> tuple[np.ndarray, np.ndarray]:
    """Tightest axis-aligned box containing ``z`` as ``(lower, upper)``."""
    spread = np.abs(z.generators).sum(axis=1)
    return z.center - spread, z.center + spread


# More generator subsets than this go to the LP, which also bounds the
# memory of the subset arrays. Single-threaded, the facet test stopped being
# cheaper than the LP (2-4 ms) at about 5 000 subsets for n = 3, 5 000 to
# 10 000 for n = 4, 1 500 for n = 5 and 800 for n = 6, so above n = 4 the
# facet test can be slower than the LP between those counts and 2 000.
_MAX_NORMALS = 2_000


@functools.lru_cache(maxsize=64)
def _subsets(e: int, k: int) -> np.ndarray:
    # Column indices of every k-subset of e generators, one row per subset.
    idx = np.array(list(itertools.combinations(range(e), k)),
                   dtype=np.intp).reshape(-1, k)
    idx.flags.writeable = False
    return idx


# Generalized cross products of n - 1 vectors in R^n, given as the n rows
# of the n x (n - 1) matrix of the vectors; entry k of a row is a length-m
# array, one value per cross product. Component i is (-1)^i times the
# minor without row i.

def _minors2(y, z):
    # 2 x 2 minors of rows y, z for the column pairs (1, 2), (0, 2), (0, 1).
    return (y[1] * z[2] - y[2] * z[1], y[0] * z[2] - y[2] * z[0],
            y[0] * z[1] - y[1] * z[0])


def _det3(x, minors):
    # Determinant of the rows x, y, z by expansion along x.
    return x[0] * minors[0] - x[1] * minors[1] + x[2] * minors[2]


def _cross4(r0, r1, r2, r3):
    # Each minor is a 3 x 3 determinant; the four share the 2 x 2 minors of
    # rows (0, 1) and (2, 3), using det(r0, r1, r3) = det(r3, r0, r1).
    m01, m23 = _minors2(r0, r1), _minors2(r2, r3)
    return [_det3(r1, m23), -_det3(r0, m23), _det3(r3, m01), -_det3(r2, m01)]


def _cross_det(*rows):
    return [(-1) ** i * np.linalg.det(np.moveaxis(
                np.stack(rows[:i] + rows[i + 1:]), -1, 0))
            for i in range(len(rows))]


_PERP = np.array([-1.0, 1.0])


def _facet_normals(gens: np.ndarray) -> np.ndarray:
    """Normals of all hyperplanes spanned by ``n - 1`` columns of the
    ``n x e`` matrix ``gens``, one per row of the ``(m, n)`` result.

    Each normal is the generalized cross product of its ``n - 1``
    generators. Every facet of the zonotope is parallel to ``n - 1`` of its
    generators, so the facet normals are among these rows. In 2-D they are
    the generators' perpendiculars, and ``gens`` may be a stack ``(..., 2,
    e)``.
    """
    n, e = gens.shape[-2:]
    if n == 2:
        # C-ordered, as the rounding of the products depends on the layout.
        return np.multiply(gens.swapaxes(-1, -2)[..., ::-1], _PERP, order="C")
    # rows[i][k, s]: entry i of generator k of subset s.
    rows = np.take(gens, _subsets(e, n - 1).T, axis=1)
    return np.column_stack((_cross4 if n == 4 else _cross_det)(*rows))


def _support_test(gens: np.ndarray, d: np.ndarray, tol: float):
    """The facet test of ``d`` against ``<0, G>``: ``|N d| <= (1 + tol)
    sum_j |N g_j|`` for every row ``N`` of :func:`_facet_normals`. In 2-D,
    ``gens`` and ``d`` may be stacks ``(..., 2, e)`` and ``(..., 2)``, with
    one answer per set."""
    normals = _facet_normals(gens)
    lhs = np.abs(normals @ d[..., None])[..., 0]
    rhs = np.abs(normals @ gens).sum(axis=-1)
    return (lhs <= (1.0 + tol) * rhs).all(axis=-1)


def _contains_lp(gens: np.ndarray, d: np.ndarray, tol: float) -> bool:
    # Feasibility of G b = d with ||b||_inf <= 1 + tol, via min ||b||_inf.
    n, e = gens.shape
    cost = np.zeros(e + 1)
    cost[-1] = 1.0
    a_eq = np.hstack([gens, np.zeros((n, 1))])
    eye = np.eye(e)
    ones = np.ones((e, 1))
    a_ub = np.vstack([np.hstack([eye, -ones]), np.hstack([-eye, -ones])])
    b_ub = np.zeros(2 * e)
    bounds = [(None, None)] * e + [(0.0, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=d,
                  bounds=bounds, method="highs")
    if not res.success:
        return False
    return bool(res.x[-1] <= 1.0 + tol)


_EPS = float(np.finfo(float).eps)


def _certified_member(gens: np.ndarray, d: np.ndarray, sv: np.ndarray) -> bool:
    """Sufficient membership test for ``d`` in ``<0, G>``, ``G`` of full row
    rank ``n`` with singular values ``sv`` (descending).

    ``b^ = G^T (G G^T)^-1 d`` are the computed least-norm coefficients and
    ``rho = ||rho^|| + 2 (e + 2) eps (||d|| + sqrt(n) s_max ||b^||)``
    bounds the exact residual ``||d - G b^||``: the computed residual
    ``rho^`` is off by at most ``(e + 1) eps (||d|| + ||G||_F ||b^||)``,
    ``||G||_F <= sqrt(n) s_max``, and the factor 2 covers the rounding of
    the norms. ``s_lo = s_min - 64 eps s_max`` bounds the exact smallest
    singular value from below. The answer is True iff ``||b^||_inf + rho /
    s_lo <= 1 - mu`` with ``mu = 8 (n + e) e eps s_max / s_lo``, and False
    (not certified) when ``s_max > 1e6 s_min`` or the solve is singular or
    not finite.

    Why True is sound: ``b = b^ + G^+ (d - G b^)`` solves ``G b = d`` and
    ``||b||_inf <= ||b^||_inf + rho / s_lo <= 1 - mu``, so ``d`` is a
    member with margin ``mu``. For any normal ``N`` the facet test uses,
    ``N d = sum_j b_j N g_j``, so ``|N d| <= (1 - mu) sum_j |N g_j|``
    exactly. Since ``sum_j |N g_j| >= ||G^T N|| >= s_min ||N||``, the
    rounding of the facet test's two products and its sum is below
    ``mu sum_j |N g_j|``, so the facet test accepts ``d`` at every
    ``tol >= 0`` too.
    """
    n, e = gens.shape
    s_max, s_min = sv[0], sv[-1]
    if s_max > 1e6 * s_min:
        return False
    try:
        b = gens.T @ np.linalg.solve(gens @ gens.T, d)
    except np.linalg.LinAlgError:
        return False
    resid = d - gens @ b
    rho = (math.sqrt(resid @ resid) + 2 * (e + 2) * _EPS * (
        math.sqrt(d @ d) + math.sqrt(n) * s_max * math.sqrt(b @ b)))
    s_lo = s_min - 64 * _EPS * s_max
    mu = 8 * (n + e) * e * _EPS * s_max / s_lo
    return bool(np.abs(b).max() + rho / s_lo <= 1.0 - mu)


def _gram_full_rank(gens: np.ndarray):
    """Sufficient test that the ``2 x e`` matrix ``gens`` passes the rank
    test ``s_min > 1e-12 s_max`` of its singular values; ``gens`` may be a
    stack ``(..., 2, e)``, with one answer per matrix.

    With the Gram entries ``a = ||g_0||^2``, ``c = ||g_1||^2`` and ``b =
    g_0 . g_1`` of the rows, ``ac - b^2 = s_max^2 s_min^2`` and ``a + c =
    s_max^2 + s_min^2``, so ``(ac - b^2) / (a + c)^2 <= (s_min / s_max)^2``.
    The answer is True iff the computed ``ac - b^2 > (1e-8 + 4 (e + 2)
    eps) (a + c)^2``.

    Why True is sound: each Gram entry is a sum of ``e`` products, so the
    computed ``ac - b^2`` and ``(a + c)^2`` are off by at most about ``(e +
    1) eps (a + c)^2``, which the ``4 (e + 2) eps`` term covers. The exact
    ratio is then above ``1e-8``, so ``s_min > 1e-4 s_max``, and the
    singular values that the SVD computes, each off by a few ``eps
    s_max``, pass ``s_min > 1e-12 s_max`` too. The caller scales ``gens``
    to ``max |G|`` in ``[1/2, 1)`` first, so no sum overflows and the
    products that underflow change nothing at this margin. The test only
    answers True: a near-rank-deficient set, where ``ac - b^2`` cancels,
    is left to the SVD.
    """
    e = gens.shape[-1]
    gram = gens @ gens.swapaxes(-1, -2)
    # One matrix reads its entries as Python floats: numpy arithmetic on
    # them costs several times as much.
    (a, b), (_, c) = (gram.tolist() if gram.ndim == 2
                      else np.moveaxis(gram, (-2, -1), (0, 1)))
    s = a + c
    return a * c - b * b > (1e-8 + 4 * (e + 2) * _EPS) * s * s


def _check_tol(tol) -> None:
    # NaN fails both comparisons.
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be finite and nonnegative")


def contains_point(z: Zonotope, x, tol: float = 1e-9) -> bool:
    """Membership test: is there a ``b`` in ``[-1-tol, 1+tol]^e`` with ``c + G b = x``?

    ``G`` and ``d = x - c`` are scaled by one power of two to ``max |G|``
    in ``[1/2, 1)``. The scaling is exact and every test after it is
    invariant under it, so sets from ``2^-1000`` to ``2^1000`` give the
    decisions of scale 1 and no product underflows or overflows. A point
    whose scaled ``d`` reaches ``2^400`` is rejected first, as it must be
    unless ``(1 + tol) e`` exceeds ``2^400``. Where ``x - c`` overflows,
    the set and the point are halved first, which is exact for normal
    numbers. Then:

    * ``G = 0``, ``e = 0`` included: scaled to ``max(|x|, |c|)`` instead
      and decided by the rank-0 case of :func:`_projected`, ``||x - c|| <=
      16 n sqrt(n) eps max(|x|, |c|)``, whatever ``tol``.
    * ``n = 1``: the interval test ``|d| <= (1 + tol) sum_j |g_j|``.
    * Full rank (``e >= n``, smallest singular value of ``G`` above
      ``1e-12`` times the largest): the support test (:func:`_support_test`).
      Every facet is parallel to ``n - 1`` generators, so ``x`` is a member
      iff ``|N d| <= (1 + tol) sum_j |N g_j|`` for the normal ``N`` of
      every ``(n - 1)``-subset of generators. In 2-D the Gram screen
      (:func:`_gram_full_rank`) certifies the rank of all but
      near-rank-deficient sets, which take the SVD. For ``n >= 3`` the
      least-norm screen (:func:`_certified_member`) first accepts points
      it certifies at least ``mu`` inside: about 25 us against 150 us for
      the support test of a 4-state set with 20 generators (one thread of
      an x86-64 Xeon). Above 2 000 subsets a linear program (HiGHS)
      minimizing ``||b||_inf`` subject to ``G b = d`` decides, on the
      unscaled ``G`` and ``d``.
    * Rank-deficient sets and ``e < n``: projection onto the numerical
      column space (:func:`_projected`). A point off it by more than a
      relative rounding bound is rejected; the projected point and set are
      decided in the rank ``r`` by the cases above.

    Raises ``ValueError`` for a non-finite point, a dimension mismatch or a
    ``tol`` that is negative or not finite.
    """
    _check_tol(tol)
    point = np.asarray(x, dtype=float).reshape(-1)
    if point.shape[0] != z.dim:
        raise ValueError(
            f"point has dimension {point.shape[0]} but zonotope has {z.dim}"
        )
    # Python floats: a third of the cost of np.isfinite on a short vector.
    # The check comes first because the facet products warn on an
    # infinite point.
    coords = point.tolist()
    if not all(map(math.isfinite, coords)):
        raise ValueError("point must contain only finite values")
    # Python floats: a difference that overflows is inf, without a warning.
    center = z.center.tolist()
    offsets = [p - c for p, c in zip(coords, center)]
    if not all(map(math.isfinite, offsets)):
        # x - c overflows. Halving the set and the point is exact for
        # entries above 2^-1021 in magnitude, and x / 2 - c / 2 is finite.
        return contains_point(
            Zonotope._trusted(0.5 * z.center, 0.5 * z.generators),
            0.5 * point, tol)
    d = point - z.center
    return _member(z.generators, d, max(map(abs, offsets)),
                   max(map(abs, coords + center)), tol)


def _member(gens: np.ndarray, d: np.ndarray, far: float, reach: float,
            tol: float) -> bool:
    # contains_point for the offset d, with far the largest entry of d and
    # reach the largest entry of x and c.
    n, e = gens.shape
    top = float(np.abs(gens).max(initial=0.0))
    if top == 0.0:
        # No columns: the bound must not depend on e. Scaled to reach: the
        # residual norm can neither underflow nor overflow.
        k = math.frexp(reach)[1]
        return _projected(gens[:, :0], np.ldexp(d, -k), math.ldexp(reach, -k),
                          tol)
    k = math.frexp(top)[1]
    # Binary exponent of the farthest offset above that of max |G|.
    # frexp(0.0) has exponent 0, which must not count as far when the
    # point is the center of a set below 2^-400.
    if far and math.frexp(far)[1] - k > 400:
        return False
    unit_g, unit_d = np.ldexp(gens, -k), np.ldexp(d, -k)
    if n == 1:
        return bool(abs(unit_d[0]) <= (1.0 + tol) * np.abs(unit_g).sum())
    # The Gram screen stands in for the SVD of most 2-D sets.
    if n == 2 and e >= 2 and _gram_full_rank(unit_g):
        return bool(_support_test(unit_g, unit_d, tol))
    sv = np.linalg.svd(unit_g, compute_uv=False) if e >= n else None
    if sv is None or not sv[-1] > 1e-12 * sv[0]:
        with np.errstate(over="ignore"):  # inf accepts every residual
            reach = float(np.ldexp(reach, -k))
        return _projected(unit_g, unit_d, reach, tol)
    if n > 2 and _certified_member(unit_g, unit_d, sv):
        return True
    if n == 2 or math.comb(e, n - 1) <= _MAX_NORMALS:
        return bool(_support_test(unit_g, unit_d, tol))
    return _contains_lp(gens, d, tol)


def _projected(gens: np.ndarray, d: np.ndarray, reach: float,
               tol: float) -> bool:
    """:func:`contains_point` for an ``n x e`` matrix ``G``, scaled to
    ``max |G|`` in ``[1/2, 1)``, that is rank-deficient or has ``e < n``.

    The SVD ``G = U S V^T`` gives the rank ``r``, the count of singular
    values above ``1e-12 s_max``, and ``U_r``, their left singular vectors.
    ``d`` is rejected when its computed residual ``||d - U_r U_r^T d||``
    exceeds ``rho = (1 + tol) sqrt(e) (s_r+1 + g s_max) + 2 g sqrt(n)
    reach``, with ``g = 8 (n + e) eps``, ``s_r+1`` the largest singular
    value left out (0 if none) and ``reach`` the largest entry of ``x`` and
    ``c`` at the scale of ``G``. Otherwise ``<0, U_r^T G>`` and ``U_r^T d``
    are decided in dimension ``r``; ``r = 0`` means ``G = 0``, which
    :func:`_member` passes with no columns (``e = 0``).

    Why rho: a member ``d = G b`` has ``||b|| <= (1 + tol) sqrt(e)``. The
    SVD is backward stable, exact for ``G + E`` with ``||E||`` a small
    multiple of ``eps s_max`` (below ``g s_max``), and ``U_r`` is
    orthonormal to a few ``eps``, so the residual of ``G b`` is at most
    ``(s_r+1 + g s_max) ||b||``. ``x`` as computed from ``c + G b``, ``d =
    x - c`` and the residual's products each round by a few ``eps (|x| +
    |c|)`` per entry, within ``2 g sqrt(n) reach``. Every term scales with
    ``G``, ``x`` and ``c``, so a joint power-of-two scaling moves no
    decision; ``reach = inf`` (overflow at this scale) accepts every
    residual, as the exact bound would. A point that passes is decided
    against ``<c, U_r U_r^T G>``: ``G`` less its part off the column space,
    of norm ``s_r+1 <= 1e-12 s_max``.
    """
    n, e = gens.shape
    u, sv, _ = np.linalg.svd(gens, full_matrices=False)
    s_max = sv.max(initial=0.0)
    r = int(np.count_nonzero(sv > 1e-12 * s_max))
    basis = u[:, :r]
    coords = basis.T @ d
    resid = d - basis @ coords
    g = 8 * (n + e) * _EPS
    left_out = sv[r] if r < sv.shape[0] else 0.0
    rho = ((1.0 + tol) * math.sqrt(e) * (left_out + g * s_max)
           + 2 * g * math.sqrt(n) * reach)
    if math.sqrt(resid @ resid) > rho:
        return False
    far = max(map(abs, coords.tolist()), default=0.0)
    return r == 0 or _member(basis.T @ gens, coords, far, far, tol)


# The stacked containment test takes at most this many entries of facet
# products (B x e x e doubles, 2 MiB) per chunk of B sets, so its memory
# does not grow with the number of sets.
_STACK_ENTRIES = 1 << 18


def contains_stack(zs, points, tol: float = 1e-9) -> np.ndarray:
    """:func:`contains_point` of every pair ``(zs[i], points[i])``, as a
    boolean array; ``points`` is an ``(len(zs), n)`` array.

    2-D sets with at least two generators are stacked by generator count,
    in chunks of at most ``2^18`` facet-product entries. Each chunk is
    scaled and checked for far points at once, then goes through the Gram
    screen and the support test of :func:`contains_point` as a stack, so
    every decision is the per-set one. Far points, offsets that overflow,
    sets the Gram screen leaves to the SVD, other dimensions and sets with
    fewer generators go through :func:`contains_point` one by one.
    """
    _check_tol(tol)
    points = np.asarray(points, dtype=float)
    planar = points.shape[1:] == (2,)
    out = np.zeros(len(zs), dtype=bool)
    by_width = {}
    rest = []
    for i, z in enumerate(zs):
        n, e = z.generators.shape
        if planar and n == 2 and e >= 2:
            by_width.setdefault(e, []).append(i)
        else:
            rest.append(i)
    for e, index in by_width.items():
        size = max(1, _STACK_ENTRIES // (e * e))
        for start in range(0, len(index), size):
            rows = np.array(index[start:start + size])
            decided, member = _facet_stack(
                np.array([zs[i].center for i in rows]),
                np.array([zs[i].generators for i in rows]), points[rows], tol)
            out[rows[decided]] = member
            rest += np.delete(rows, decided).tolist()
    for i in rest:
        out[i] = contains_point(zs[i], points[i], tol)
    return out


def _facet_stack(centers, gens, points, tol):
    """The 2-D test of :func:`contains_point` for a stack of sets with
    centers ``(B, 2)`` and generators ``(B, 2, e)``, ``e >= 2``.

    Returns ``(decided, member)``: ``decided`` indexes the rows whose
    offset is finite and not far and whose rank the Gram screen certifies,
    and ``member`` holds their decisions.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = points - centers
    k = np.frexp(np.abs(gens).max(axis=(1, 2)))[1]
    far = np.abs(d).max(axis=1)
    finite = np.isfinite(far)
    spread = np.frexp(np.where(finite, far, 0.0))[1] - k
    rows = np.flatnonzero(finite & ((far == 0.0) | (spread <= 400)))
    unit_g = np.ldexp(gens[rows], -k[rows, None, None])
    unit_d = np.ldexp(d[rows], -k[rows, None])
    full = _gram_full_rank(unit_g)
    return rows[full], _support_test(unit_g[full], unit_d[full], tol)


# The stacked collinear merge decides a whole set at once when every test
# between angle-sorted neighbors is clearly on one side of the sequential
# rule (merge when a . b > 0 and the relative cross |a x b| / (|a| |b|) is
# at most 1e-14). A pair splits at a relative cross of at least
# _SPLIT_CROSS or at a nonpositive dot product. A merge group holds at most
# _JOIN_RUN + 1 generators whose relative crosses sum to at most _JOIN_SPAN.
# A group's running sum lies in the group's angular span, so the sequential
# test of the next generator against it decides the same way: rounding in
# the screen and in the running sum moves the span by at most about
# 16 * 3.3e-16, inside the factor-4 margins. Norms in _SCREEN_NORMS keep
# every product of the screen normal. Other sets take the sequential merge.
_SPLIT_CROSS = 4e-14
_JOIN_SPAN = 1e-14 / 4
_JOIN_RUN = 16
_SCREEN_NORMS = (2.0 ** -400, 2.0 ** 400)


def _same_direction(a: np.ndarray, b: np.ndarray) -> bool:
    # a . b > 0 and |a x b| <= 1e-14 |a| |b|. Where a product overflows
    # (norms above about 1e154), the test is made on the unit vectors
    # instead; every other decision is the unscaled one.
    with np.errstate(over="ignore", invalid="ignore"):
        dot = a[0] * b[0] + a[1] * b[1]
        cross = a[0] * b[1] - a[1] * b[0]
        bound = 1e-14 * np.linalg.norm(a) * np.linalg.norm(b)
    if not (math.isfinite(dot) and math.isfinite(cross)
            and math.isfinite(bound)):
        a, b = a / np.hypot(*a), b / np.hypot(*b)
        dot = a[0] * b[0] + a[1] * b[1]
        cross = a[0] * b[1] - a[1] * b[0]
        bound = 1e-14
    return bool(dot > 0 and abs(cross) <= bound)


def _merge_collinear(gens: np.ndarray) -> np.ndarray:
    # Merge each angle-sorted generator into the running sum before it when
    # the two point the same way and are parallel to 1e-14 relative, so the
    # boundary walk emits no duplicate vertices.
    merged = [gens[:, 0].copy()]
    for j in range(1, gens.shape[1]):
        g = gens[:, j]
        last = merged[-1]
        if _same_direction(last, g):
            merged[-1] = last + g
        else:
            merged.append(g.copy())
    return np.column_stack(merged)


def _merge_screen(gens: np.ndarray):
    """The collinear merge of a stack ``(B, 2, e)`` of angle-sorted
    generator matrices, one vectorized add per column.

    Returns ``(sums, join, certain)``: ``join[:, j]`` merges generator ``j``
    into the group before it, ``sums[:, :, j]`` is the group's sum through
    ``j``, added left to right as in :func:`_merge_collinear`, and
    ``certain`` marks the sets whose every decision is certified to match it.
    """
    x, y = gens[:, 0], gens[:, 1]
    with np.errstate(all="ignore"):  # NaN tests certify nothing
        norm = np.sqrt(x * x + y * y)
        cross = (np.abs(x[:, :-1] * y[:, 1:] - y[:, :-1] * x[:, 1:])
                 / (norm[:, :-1] * norm[:, 1:]))
        split = (x[:, :-1] * x[:, 1:] + y[:, :-1] * y[:, 1:] <= 0) | (
            cross >= _SPLIT_CROSS)
    low, high = _SCREEN_NORMS
    certain = ((norm >= low) & (norm <= high)).all(axis=1)
    join = np.zeros(norm.shape, dtype=bool)
    sums = gens.copy()
    span = np.zeros(len(gens))
    run = np.zeros(len(gens), dtype=int)
    # Only columns that may merge in some set need a step; every group
    # starts afresh after a column that splits in all sets.
    steps = np.flatnonzero(~split.all(axis=0)) + 1
    for j in steps:
        if not join[:, j - 1].any():
            span[:] = 0.0
            run[:] = 0
        span += cross[:, j - 1]
        run += 1
        merge = ~split[:, j - 1] & (span <= _JOIN_SPAN) & (run <= _JOIN_RUN)
        certain &= merge | split[:, j - 1]
        span[~merge] = 0.0
        run[~merge] = 0
        join[:, j] = merge
        sums[:, :, j] = np.where(merge[:, None],
                                 sums[:, :, j - 1] + gens[:, :, j],
                                 gens[:, :, j])
    return sums, join, certain


def _walk(centers: np.ndarray, gens: np.ndarray) -> np.ndarray:
    # Vertices (B, 2m, 2) of zonogons with centers (B, 2) and merged,
    # angle-sorted generators (B, 2, m): the boundary walk from
    # c - sum_j g_j (cumsum adds in order), then the remaining vertices by
    # central symmetry about the center.
    m = gens.shape[2]
    start = centers - gens.sum(axis=2)
    walk = np.cumsum(np.concatenate(
        [start[:, None], 2.0 * gens.transpose(0, 2, 1)], axis=1), axis=1)
    return np.concatenate([walk, 2.0 * centers[:, None] - walk[:, 1:m]],
                          axis=1)


def _zonogons(centers: np.ndarray, cols: np.ndarray) -> list[np.ndarray]:
    # Vertices of the zonogons with centers (B, 2) and nonzero generator
    # columns (B, e, 2), one (V, 2) array per set.
    if cols.shape[1] == 0:
        return list(centers[:, None])
    gens = np.ascontiguousarray(cols.transpose(0, 2, 1))
    flip = (gens[:, 1] < 0) | ((gens[:, 1] == 0) & (gens[:, 0] < 0))
    gens = gens * np.where(flip, -1.0, 1.0)[:, None]
    order = np.argsort(np.arctan2(gens[:, 1], gens[:, 0]), axis=1,
                       kind="stable")
    gens = np.take_along_axis(gens, order[:, None], axis=2)
    sums, join, certain = _merge_screen(gens)
    # The last column of each merge group holds the group's sum.
    ends = np.ones_like(join)
    ends[:, :-1] = ~join[:, 1:]
    widths = ends.sum(axis=1)
    out = [None] * len(gens)
    for m in np.unique(widths[certain]):
        rows = np.flatnonzero(certain & (widths == m))
        merged = sums.transpose(0, 2, 1)[rows][ends[rows]].reshape(-1, m, 2)
        verts = _walk(centers[rows],
                      np.ascontiguousarray(merged.transpose(0, 2, 1)))
        for r, v in zip(rows, verts):
            out[r] = v
    for r in np.flatnonzero(~certain):
        out[r] = _walk(centers[r:r + 1], _merge_collinear(gens[r])[None])[0]
    return out


def _vertices_stack(zs) -> list[np.ndarray]:
    """:func:`vertices_2d` of every zonotope of the sequence ``zs``.

    The sets are stacked by their counts of generators and of nonzero
    generators, and each stack is flipped into the upper half-plane, sorted
    by angle, merged and walked as a whole. A set whose merge the screen
    cannot certify is merged by the sequential :func:`_merge_collinear`.
    """
    out = [None] * len(zs)
    by_width = {}
    for i, z in enumerate(zs):
        n, e = z.generators.shape
        if n != 2:
            raise ValueError(
                f"vertex enumeration requires dimension 2, got {n}")
        by_width.setdefault(e, []).append(i)
    for e, index in by_width.items():
        index = np.array(index)
        centers = np.array([zs[i].center for i in index])
        cols = np.array([zs[i].generators.T for i in index]).reshape(
            len(index), e, 2)
        nonzero = (cols != 0.0).any(axis=2)
        counts = nonzero.sum(axis=1)
        for count in np.unique(counts):
            rows = np.flatnonzero(counts == count)
            kept = cols[rows][nonzero[rows]].reshape(len(rows), count, 2)
            for i, v in zip(index[rows], _zonogons(centers[rows], kept)):
                out[i] = v
    return out


def vertices_2d(z: Zonotope) -> np.ndarray:
    """Counter-clockwise vertices of a 2-D zonotope (zonogon).

    Returns an array of shape ``(V, 2)``. Parallel generators that point
    the same way after the flip into the upper half-plane are merged before
    the angular boundary walk; rank-1 inputs give the 2 endpoints of the
    degenerate segment, a point set gives a single vertex.
    """
    return _vertices_stack([z])[0]
