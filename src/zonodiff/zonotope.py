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


def f_radius(z: Zonotope) -> float:
    """Frobenius norm of the generator matrix (the F-radius size proxy)."""
    return float(np.linalg.norm(z.generators))


def reduce(z: Zonotope, q: int) -> Zonotope:
    """Over-approximate ``z`` by a zonotope with at most ``q`` generators.

    Girard-style reduction: the ``q - n`` generators with the largest
    ``||g||_1 - ||g||_inf`` score are kept verbatim; the remainder is boxed
    into at most ``n`` axis-aligned generators (the interval hull of their
    partial sum). If ``z`` already has at most ``q`` generators it is
    returned unchanged; zero generator columns are dropped only when a
    reduction actually happens.
    """
    q = int(q)
    if q < z.dim:
        raise ValueError(f"q = {q} must be at least the dimension n = {z.dim}")
    if z.n_generators <= q:
        return z
    [(_, gens)] = reduce_stack(z.generators[None], q)
    return stack_zonotopes(z.center[None], gens)[0]


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


def _facet_normals(gens: np.ndarray) -> np.ndarray:
    """Normals of all hyperplanes spanned by ``n - 1`` columns of the
    ``n x e`` matrix ``gens``, one per row of the ``(m, n)`` result.

    Each normal is the generalized cross product of its ``n - 1``
    generators. Every facet of the zonotope is parallel to ``n - 1`` of its
    generators, so the facet normals are among these rows.
    """
    n, e = gens.shape
    if n == 2:
        return np.column_stack([-gens[1], gens[0]])
    # rows[i][k, s]: entry i of generator k of subset s.
    rows = np.take(gens, _subsets(e, n - 1).T, axis=1)
    return np.column_stack((_cross4 if n == 4 else _cross_det)(*rows))


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


def contains_point(z: Zonotope, x, tol: float = 1e-9) -> bool:
    """Membership test: is there a ``b`` in ``[-1-tol, 1+tol]^e`` with ``c + G b = x``?

    A full-rank zonotope (``n >= 2``, ``e >= n`` generators, smallest
    singular value of ``G`` above ``1e-12`` times the largest) is tested
    exactly against its facet normals: every facet is parallel to ``n - 1``
    generators, so ``x`` is a member iff ``|N (x - c)| <= (1 + tol)
    sum_j |N g_j|`` for the normal ``N`` of every ``(n - 1)``-subset of
    generators (in 2-D the perpendicular of each generator). The normals are
    explicit cofactors for ``n = 4`` and batched determinants otherwise. A
    point set and a 1-D zonotope are compared directly. A small linear program
    minimizing ``||b||_inf`` subject to ``G b = x - c`` decides the rest:
    rank-deficient generator matrices, ``e < n``, and matrices with more
    than 2 000 generator subsets.

    For ``n >= 3``, a full-rank set first tries to certify ``x`` from its
    least-norm coefficients (:func:`_certified_member`): one ``n x n``
    solve and a rounding bound that puts the point at least ``mu`` inside,
    where the facet test and the LP would accept it too. The screen only
    answers True; a point it cannot certify goes to the exact test. On one
    thread of an x86-64 Xeon it takes about 25 us against about 150 us for
    the facet test of a 4-state set with 20 generators, and certifies most
    true states of a tracking run. 2-D sets never enter it.

    Raises ``ValueError`` for a non-finite point, a dimension mismatch or a
    negative ``tol``.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    point = np.asarray(x, dtype=float).reshape(-1)
    if point.shape[0] != z.dim:
        raise ValueError(
            f"point has dimension {point.shape[0]} but zonotope has {z.dim}"
        )
    # Python floats: a third of the cost of np.isfinite on a short vector.
    # The check comes first because the facet products warn on an
    # infinite point.
    if not all(map(math.isfinite, point.tolist())):
        raise ValueError("point must contain only finite values")
    d = point - z.center
    gens = z.generators
    n, e = gens.shape
    if e == 0:
        scale = max(1.0, float(np.max(np.abs(z.center), initial=0.0)))
        return bool(np.max(np.abs(d), initial=0.0) <= tol * scale)
    if n == 1:
        # A 1-D zonotope is exactly the interval of its hull.
        return bool(abs(d[0]) <= (1.0 + tol) * np.abs(gens).sum())
    if e >= n:
        sv = np.linalg.svd(gens, compute_uv=False)
        if sv[-1] > 1e-12 * sv[0]:
            if n > 2 and _certified_member(gens, d, sv):
                return True
            if n == 2 or math.comb(e, n - 1) <= _MAX_NORMALS:
                # Support test over the facet normals.
                normals = _facet_normals(gens)
                lhs = np.abs(normals @ d)
                rhs = np.abs(normals @ gens).sum(axis=1)
                return bool(np.all(lhs <= (1.0 + tol) * rhs))
    return _contains_lp(gens, d, tol)


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
