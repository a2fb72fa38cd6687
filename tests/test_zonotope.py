import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from zonodiff import (
    Zonotope,
    contains_point,
    f_radius,
    interval_hull,
    reduce,
    sm_time_update,
    vertices_2d,
)
from zonodiff import zonotope
from zonodiff.zonotope import contains_stack, reduce_stack, stack_zonotopes
from conftest import random_zonotope, sample_members, sample_vertices

F_ROT = np.array([[0.992, -0.1247], [0.1247, 0.992]])
UNIT_BOX = Zonotope([0.0, 0.0], np.eye(2))
NO_NOISE = np.zeros((2, 0))


@st.composite
def zonotopes(draw, dim=2, max_gens=6):
    e = draw(st.integers(min_value=0, max_value=max_gens))
    elems = st.floats(min_value=-5, max_value=5, allow_nan=False)
    center = draw(st.lists(elems, min_size=dim, max_size=dim))
    gens = draw(st.lists(st.lists(elems, min_size=e, max_size=e),
                         min_size=dim, max_size=dim))
    return Zonotope(np.array(center), np.array(gens).reshape(dim, e))


def facet_offset(rng, z):
    """Offset from the center of a point on a facet of the full-rank ``z``.

    The facet is spanned by ``n - 1`` random generators; the point's gauge
    ``min ||b||_inf`` over ``G b = offset`` is exactly 1.
    """
    n, e = z.generators.shape
    subset = rng.choice(e, n - 1, replace=False)
    normal = np.linalg.svd(z.generators[:, subset].T)[2][-1]
    b = np.sign(normal @ z.generators)
    b[subset] = rng.uniform(-1.0, 1.0, n - 1)
    return z.generators @ b


def off_range_direction(z):
    """Unit vector orthogonal to every generator of a rank-deficient ``z``."""
    return np.linalg.svd(z.generators)[0][:, -1]


def conditioned_generators(rng, n, e, kappa, scale):
    """``n x e`` generators with largest singular value ``scale`` and
    condition number ``kappa``, in random directions."""
    u = np.linalg.qr(rng.normal(size=(n, n)))[0]
    v = np.linalg.qr(rng.normal(size=(e, n)))[0]
    return scale * (u * np.logspace(0, -np.log10(kappa), n)) @ v.T


def face_offset(rng, gens):
    """Offset ``G b`` of a point on a random face, of dimension 0 to
    ``n - 1``, of the full-rank ``<0, G>``: its gauge is exactly 1."""
    n, e = gens.shape
    k = int(rng.integers(0, n))
    free = rng.choice(e, k, replace=False)
    across = np.linalg.qr(gens[:, free], mode="complete")[0][:, k:]
    b = np.sign((across @ rng.normal(size=n - k)) @ gens)
    b[free] = rng.uniform(-1.0, 1.0, k)
    return gens @ b


# Gauges of the points in the screen's soundness test. 1 - 1e-14 and
# 1 - 1e-13 lie inside the margin mu of well-conditioned sets, where only a
# screen without mu would certify.
SCREEN_GAUGES = (1 - 1e-14, 1 - 1e-13, 1 - 1e-12, 1 - 1e-9, 1.0, 1 + 1e-9,
                 1 + 1e-6)


class TestConstruction:
    def test_point_set(self):
        z = Zonotope([1.0, 2.0], [])
        assert z.n_generators == 0
        assert z.dim == 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Zonotope([np.nan, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            Zonotope([0.0, 0.0], [[1.0, np.inf], [0.0, 1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Zonotope([0.0, 0.0, 0.0], np.eye(2))

    def test_immutable(self):
        z = Zonotope([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            z.center[0] = 1.0

    def test_json_round_trip(self):
        z = Zonotope([1.5, -2.0], [[1.0, 0.5], [0.0, 2.0]])
        back = Zonotope.from_json_dict(z.to_json_dict())
        assert np.array_equal(back.center, z.center)
        assert np.array_equal(back.generators, z.generators)


# Linear map and Minkowski sum occur in the program only as the time update
# <F c, [F G, Q]>, so their tests drive sm_time_update: the identity map
# isolates the sum with the zero-centered noise zonotope <0, Q>, and no
# noise isolates the map.

class TestMinkowskiSum:
    def test_point_plus_set_identity(self):
        point = Zonotope([1.0, 2.0], [])
        out = sm_time_update(point, np.eye(2), np.eye(2))
        assert np.array_equal(out.center, [1.0, 2.0])
        assert np.array_equal(out.generators, np.eye(2))

    def test_concatenation_formula(self):
        a = Zonotope([1.0, 0.0], [[1.0], [0.0]])
        out = sm_time_update(a, np.eye(2), [[0.0], [2.0]])
        assert np.array_equal(out.center, [1.0, 0.0])
        assert np.array_equal(out.generators, [[1.0, 0.0], [0.0, 2.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sm_time_update(UNIT_BOX, np.eye(2), [[1.0]])

    def test_sampled_sums_are_members(self, rng):
        # Sampling oracle: a_pt + b_pt must be in the sum for random draws.
        a = random_zonotope(rng, 2, 4)
        b = Zonotope(np.zeros(2), rng.normal(size=(2, 3)))
        out = sm_time_update(a, np.eye(2), b.generators)
        pts = sample_members(rng, a, 10_000) + sample_members(rng, b, 10_000)
        lower, upper = interval_hull(out)
        assert np.all(pts >= lower - 1e-12) and np.all(pts <= upper + 1e-12)
        for p in pts[:50]:
            assert contains_point(out, p, 1e-9)


class TestLinearMap:
    def test_identity(self, rng):
        z = random_zonotope(rng, 2, 5)
        out = sm_time_update(z, np.eye(2), NO_NOISE)
        assert np.array_equal(out.center, z.center)
        assert np.array_equal(out.generators, z.generators)

    def test_scaling(self):
        z = Zonotope([1.0, 1.0], np.eye(2))
        out = sm_time_update(z, 2.0 * np.eye(2), NO_NOISE)
        assert np.array_equal(out.center, [2.0, 2.0])
        assert np.array_equal(out.generators, 2.0 * np.eye(2))

    def test_rotation_maps_vertices(self):
        # Vertex-enumeration oracle: image vertices equal mapped vertices.
        out = sm_time_update(UNIT_BOX, F_ROT, NO_NOISE)
        expected = sorted(map(tuple, (F_ROT @ vertices_2d(UNIT_BOX).T).T))
        got = sorted(map(tuple, vertices_2d(out)))
        assert np.allclose(got, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sm_time_update(UNIT_BOX, np.eye(3), np.zeros((3, 0)))

    @given(zonotopes())
    @settings(max_examples=30, deadline=None)
    def test_f_radius_of_image(self, z):
        mat = np.array([[1.0, 2.0], [0.5, -1.0]])
        assert f_radius(sm_time_update(z, mat, NO_NOISE)) == pytest.approx(
            np.linalg.norm(mat @ z.generators), abs=1e-12)


class TestFRadius:
    def test_unit_box(self):
        assert f_radius(UNIT_BOX) == pytest.approx(np.sqrt(2.0))

    def test_point(self):
        assert f_radius(Zonotope([3.0, 4.0], [])) == 0.0

    def test_three_four_five(self):
        assert f_radius(Zonotope([0.0, 0.0], [[3.0], [4.0]])) == pytest.approx(5.0)


class TestReduce:
    def test_noop_when_small(self, rng):
        z = random_zonotope(rng, 2, 2)
        assert reduce(z, 4) is z

    def test_output_size_and_containment(self, rng):
        z = random_zonotope(rng, 2, 10)
        out = reduce(z, 4)
        assert out.n_generators <= 4
        pts = sample_members(rng, z, 10_000)
        lower, upper = interval_hull(out)
        assert np.all(pts >= lower - 1e-9) and np.all(pts <= upper + 1e-9)
        for p in pts[::200]:
            assert contains_point(out, p, 1e-7)

    def test_axis_aligned_gives_interval_hull(self, rng):
        # Interval-hull oracle: per-row sums of |g|.
        cols = []
        for j in range(8):
            col = np.zeros(2)
            col[j % 2] = rng.uniform(0.5, 2.0) * (-1) ** j
            cols.append(col)
        z = Zonotope(rng.normal(size=2), np.column_stack(cols))
        out = reduce(z, 2)
        expected = np.diag(np.abs(z.generators).sum(axis=1))
        got = np.abs(out.generators)
        assert np.allclose(sorted(got.sum(axis=1)), sorted(expected.sum(axis=1)))
        lo_z, up_z = interval_hull(z)
        lo_o, up_o = interval_hull(out)
        assert np.allclose(lo_z, lo_o) and np.allclose(up_z, up_o)

    def test_q_below_dimension_rejected(self, rng):
        with pytest.raises(ValueError):
            reduce(random_zonotope(rng, 2, 5), 1)

    def test_drops_zero_columns_when_reducing(self):
        gens = np.hstack([np.eye(2), np.zeros((2, 5)), 0.1 * np.eye(2)])
        out = reduce(Zonotope([0.0, 0.0], gens), 4)
        assert out.n_generators <= 4
        assert np.all(np.any(out.generators != 0.0, axis=0))


def loop_reduce(gens, q):
    """Column-by-column Girard reduction of one generator matrix: the
    reference for the stacked kernel."""
    n = gens.shape[0]
    if gens.shape[1] <= q:
        return gens
    cols = [g for g in gens.T if np.any(g != 0.0)]
    if len(cols) <= q:
        return np.array(cols).reshape(-1, n).T
    score = [np.abs(g).sum() - np.abs(g).max() for g in cols]
    order = sorted(range(len(cols)), key=lambda j: -score[j])  # stable
    kept = [cols[j] for j in order[:q - n]]
    box = sum(np.abs(cols[j]) for j in order[q - n:])
    kept += [box[i] * np.eye(n)[i] for i in range(n) if box[i] != 0.0]
    return np.array(kept).T


def reduce_cases(rng):
    """``(Zonotope, q)`` pairs for every branch of the reduction: rows that
    box, rows that only drop zero columns, zero columns, tied scores, and
    generator matrices that are C-ordered, Fortran-ordered or strided
    views of a stack."""
    cases = []
    for n in (2, 3, 4):
        for q in sorted({n, n + 2, 8, 20}):
            for e in sorted({q + 1, q + 2, 2 * q, 3 * q}):
                for variant in range(5):
                    g = rng.normal(size=(n, e)) * 10.0 ** rng.uniform(-3, 3)
                    if variant == 1:
                        g[:, rng.choice(e, e // 3, replace=False)] = 0.0
                    elif variant == 2:
                        # Sign flips and copies of three columns: ties.
                        g = g[:, rng.integers(0, 3, e)] * rng.choice(
                            [-1.0, 1.0], e)
                    elif variant == 3:
                        # At most q nonzero columns: only drops zeros.
                        g[:, rng.choice(e, e - int(rng.integers(0, q + 1)),
                                        replace=False)] = 0.0
                    elif variant == 4:
                        g[rng.integers(0, n)] = 0.0  # a zero box row
                    c = rng.normal(size=n)
                    cases.append((Zonotope(c, g), q))
                    cases.append((Zonotope(c, np.asfortranarray(g)), q))
                    stack = np.repeat(g.T[None], 2, axis=0).transpose(0, 2, 1)
                    cases.append((stack_zonotopes(np.tile(c, (2, 1)),
                                                  stack)[1], q))
                    wide = np.repeat(g, 2, axis=1)[None]
                    cases.append((stack_zonotopes(c[None],
                                                  wide[:, :, ::2])[0], q))
    return cases


class TestReduceSingle:
    def test_matches_stack_bit_for_bit(self, rng):
        layouts = set()
        for z, q in reduce_cases(rng):
            g = z.generators
            layouts.add((g.flags.c_contiguous, g.flags.f_contiguous))
            got = reduce(z, q)
            [(_, want)] = reduce_stack(g[None], q)
            assert got.generators.shape == want[0].shape
            assert got.generators.tobytes() == want[0].tobytes()
            # tobytes() is C-order whatever the layout; sums over a
            # Fortran-ordered result can differ by an ulp downstream.
            assert got.generators.flags.c_contiguous
            assert np.array_equal(got.center, z.center)
        # C-ordered, Fortran-ordered and strided inputs all occurred.
        assert {(True, False), (False, True), (False, False)} <= layouts


class TestReduceStack:
    def test_rows_match_loop_reference(self, rng):
        # One stack holding a row that boxes, one whose box has a zero row,
        # one left with two generators and one that only drops zero columns.
        gens = rng.normal(size=(4, 2, 9))
        gens[1, 1, 2:] = 0.0
        gens[2, :, 2:] = 0.0
        gens[3, :, ::2] = 0.0
        widths = {}
        for rows, out in reduce_stack(gens, 4):
            for row, got in zip(rows, out):
                want = loop_reduce(gens[row], 4)
                assert got.shape == want.shape
                assert np.allclose(got, want, rtol=1e-14, atol=0.0)
                widths[int(row)] = got.shape[1]
        assert widths == {0: 4, 1: 3, 2: 2, 3: 4}

    def test_small_stack_unchanged(self, rng):
        gens = rng.normal(size=(3, 2, 4))
        [(rows, out)] = reduce_stack(gens, 4)
        assert out is gens and list(rows) == [0, 1, 2]


class TestIntervalHull:
    def test_hand_case(self):
        z = Zonotope([0.0, 0.0], [[1.0, -1.0], [0.0, 2.0]])
        lower, upper = interval_hull(z)
        assert np.array_equal(lower, [-2.0, -2.0])
        assert np.array_equal(upper, [2.0, 2.0])

    def test_point(self):
        z = Zonotope([1.0, -1.0], [])
        lower, upper = interval_hull(z)
        assert np.array_equal(lower, z.center)
        assert np.array_equal(upper, z.center)

    def test_contains_samples(self, rng):
        z = random_zonotope(rng, 2, 6)
        lower, upper = interval_hull(z)
        pts = sample_members(rng, z, 10_000)
        assert np.all(pts >= lower - 1e-12) and np.all(pts <= upper + 1e-12)

    def test_tight_within_five_percent(self, rng):
        # Extreme-point sampling reaches the bounds for e >= 5.
        for e in (5, 8, 12):
            z = random_zonotope(rng, 2, e)
            lower, upper = interval_hull(z)
            pts = np.vstack([sample_members(rng, z, 5_000),
                             sample_vertices(rng, z, 5_000)])
            width = upper - lower
            assert np.all(pts.max(axis=0) >= upper - 0.05 * width)
            assert np.all(pts.min(axis=0) <= lower + 0.05 * width)


class TestContainsPoint:
    def test_center(self, rng):
        z = random_zonotope(rng, 2, 4)
        assert contains_point(z, z.center, 0.0)

    def test_outside_interval_hull(self, rng):
        z = random_zonotope(rng, 2, 4)
        _, upper = interval_hull(z)
        assert not contains_point(z, upper + 1.0, 1e-9)

    def test_vertices_members_at_tiny_tol(self, rng):
        z = random_zonotope(rng, 2, 6)
        for signs in ([1] * 6, [-1] * 6, [1, -1, 1, -1, 1, -1]):
            vertex = z.center + z.generators @ np.array(signs, dtype=float)
            assert contains_point(z, vertex, 1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            contains_point(UNIT_BOX, [0.0, 0.0, 0.0])

    def test_degenerate_rank_one(self):
        z = Zonotope([0.0, 0.0], [[1.0], [1.0]])
        assert contains_point(z, [0.5, 0.5], 1e-9)
        assert not contains_point(z, [0.5, -0.5], 1e-9)
        assert not contains_point(z, [1.5, 1.5], 1e-9)

    def test_point_zonotope(self):
        z = Zonotope([1.0, 2.0], [])
        assert contains_point(z, [1.0, 2.0], 1e-9)
        assert not contains_point(z, [1.0, 2.1], 1e-9)

    def test_three_dimensional_lp_path(self, rng):
        z = random_zonotope(rng, 3, 6)
        for p in sample_members(rng, z, 25):
            assert contains_point(z, p, 1e-7)
        _, upper = interval_hull(z)
        assert not contains_point(z, upper + 0.5, 1e-9)

    @given(zonotopes(max_gens=5), st.lists(
        st.floats(min_value=-1, max_value=1), min_size=5, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_members_by_construction(self, z, beta):
        b = np.array(beta[: z.n_generators])
        assert contains_point(z, z.center + z.generators @ b, 1e-7)

    @given(zonotopes(dim=4, max_gens=8), st.lists(
        st.floats(min_value=-1, max_value=1), min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    # Members of sets with e < n that the LP rejected: the offset of
    # c + G b is off the range of G by a rounding of c, and HiGHS's
    # presolve fixed b from the row with the tiny entry.
    @example(Zonotope(np.zeros(4), [[1.0, 1.0, 1.0], [0.25, 0.0, 2.0],
                                    [1e-9, 0.0, 1.0], [4.0, 0.25, 0.0]]),
             [1.0] + [0.0] * 7)
    @example(Zonotope([4.0, 0.0, 0.0, 0.0], [[1e-8], [0.0], [0.0], [3.0]]),
             [0.5] + [0.0] * 7)
    def test_members_by_construction_4d(self, z, beta):
        b = np.array(beta[: z.n_generators])
        assert contains_point(z, z.center + z.generators @ b, 1e-7)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_facet_test_matches_lp(self, n, rng):
        # Points with a known answer: the center at tol 0, a vertex at tol
        # 1e-9, and a facet point scaled to gauge g, a member iff g <= 1.
        # The facet test and the LP must both give it.
        for e in sorted({n, n + 1, 12, 20}):
            for scale in (1e-3, 1.0, 1e6):
                z = random_zonotope(rng, n, e, scale)
                gens = z.generators
                vertex = gens @ np.sign(rng.normal(size=n) @ gens)
                cases = [(np.zeros(n), 0.0, True), (vertex, 1e-9, True)]
                for g in (0.0, 0.5, 1.0 - 1e-9, 1.0 + 1e-6, 1.5):
                    cases.append((g * facet_offset(rng, z), 1e-9, g <= 1.0))
                for d, tol, member in cases:
                    assert contains_point(z, z.center + d, tol) is member
                    assert zonotope._contains_lp(gens, d, tol) is member
        # Rank-deficient sets and e < n at scale 1, with points at least
        # 1e-6 inside, outside or off the column space: the projection
        # decides as the LP does.
        for gens in (rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, 7)),
                     np.outer(rng.normal(size=n), rng.normal(size=5)),
                     rng.normal(size=(n, n - 1))):
            z = Zonotope(rng.normal(size=n), gens)
            away = off_range_direction(z)
            vertex = gens @ np.sign(rng.normal(size=n) @ gens)
            cases = [(np.zeros(n), 0.0, True), (vertex, 1e-9, True),
                     (1e-6 * away, 1e-9, False)]
            for g in (0.5, 1.0 - 1e-6, 1.0 + 1e-6, 1.5):
                cases += [(g * vertex, 1e-9, g <= 1.0),
                          (g * vertex + 1e-6 * away, 1e-9, False)]
            for d, tol, member in cases:
                assert contains_point(z, z.center + d, tol) is member
                assert zonotope._contains_lp(gens, d, tol) is member

    def test_lp_only_above_2000_subsets(self, rng, monkeypatch):
        lp_calls = []
        real_lp = zonotope._contains_lp

        def counted_lp(*args):
            lp_calls.append(args[0].shape)
            return real_lp(*args)

        monkeypatch.setattr(zonotope, "_contains_lp", counted_lp)
        for n in (3, 4):
            z = random_zonotope(rng, n, 8)
            for p in sample_members(rng, z, 10):
                assert contains_point(z, p, 1e-9)
            assert not contains_point(z, interval_hull(z)[1] + 0.5, 1e-9)
            basis = rng.normal(size=(n, n - 1))
            in_plane = Zonotope(rng.normal(size=n),
                                basis @ rng.normal(size=(n - 1, 8)))
            for z in (in_plane, random_zonotope(rng, n, n - 1)):
                for p in sample_members(rng, z, 5):
                    assert contains_point(z, p, 1e-9)
                    assert not contains_point(
                        z, p + 1e-3 * off_range_direction(z), 1e-9)
        # Full-rank, rank-deficient and e < n sets: no LP.
        assert lp_calls == []
        many = random_zonotope(rng, 3, 64)  # C(64, 2) = 2016 subsets
        for p in sample_members(rng, many, 2):
            assert contains_point(many, p, 1e-9)
        assert not contains_point(many, interval_hull(many)[1] + 0.5, 1e-9)
        # The two members are certified by the least-norm screen first; only
        # the outside point reaches the LP.
        assert lp_calls == [(3, 64)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_point(self, rng, bad):
        sets = [
            Zonotope.point([1.0, 2.0]),
            Zonotope([0.0], [[1.0]]),
            random_zonotope(rng, 2, 6),  # 2-D facet test
            Zonotope([0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]),  # zero normals
            random_zonotope(rng, 4, 20),  # screen, then facet test
            random_zonotope(rng, 3, 2),  # e < n: projection
            random_zonotope(rng, 3, 64),  # 2 016 subsets: screen, then LP
        ]
        for z in sets:
            x = z.center.copy()
            x[-1] = bad
            with pytest.raises(ValueError, match="only finite values"):
                contains_point(z, x)

    def test_screen_certifies_only_exact_members(self, rng, monkeypatch):
        # A certified point has b with G b = d and ||b||_inf <= 1 - mu. So
        # the exact test (the facet test, with the screen switched off)
        # accepts it at every tol, and accepts it pushed out by mu / 4 at
        # tol 0. Dropping mu or the residual term rho / s_lo from the
        # screen fails this test.
        eps = np.finfo(float).eps
        screen = zonotope._certified_member
        monkeypatch.setattr(zonotope, "_certified_member",
                            lambda *args: False)
        certified = 0
        for n in (3, 4, 5):
            for e in (n, n + 3, 13):
                for kappa in (1.0, 10.0, 1e2, 1e4, 1e5, 1e6, 1e8, 1e11):
                    for scale in (1e-3, 1.0, 1e6):
                        gens = conditioned_generators(rng, n, e, kappa, scale)
                        z = Zonotope(np.zeros(n), gens)
                        sv = np.linalg.svd(gens, compute_uv=False)
                        s_lo = sv[-1] - 64 * eps * sv[0]
                        mu = 8 * (n + e) * e * eps * sv[0] / s_lo
                        for _ in range(12):
                            face = face_offset(rng, gens)
                            for gauge in SCREEN_GAUGES:
                                d = gauge * face
                                if not screen(gens, d, sv):
                                    continue
                                certified += 1
                                for tol in (0.0, 1e-9, 1e-7):
                                    assert contains_point(z, d, tol)
                                assert contains_point(z, d * (1 + mu / 4), 0.0)
        assert certified > 100

    def test_deep_points_skip_the_facet_test(self, rng, monkeypatch):
        def no_facets(gens):
            raise AssertionError("a certified point reached the facet test")

        z = random_zonotope(rng, 4, 20)
        monkeypatch.setattr(zonotope, "_facet_normals", no_facets)
        for b in rng.uniform(-0.5, 0.5, (20, 20)):
            assert contains_point(z, z.center + z.generators @ b, 0.0)

    def test_uncertified_points_reach_the_facet_test(self, rng, monkeypatch):
        calls = []
        facet_normals = zonotope._facet_normals

        def counted(gens):
            calls.append(gens.shape)
            return facet_normals(gens)

        monkeypatch.setattr(zonotope, "_facet_normals", counted)
        z = random_zonotope(rng, 4, 20)
        assert not contains_point(z, interval_hull(z)[1] + 0.5, 1e-9)
        assert contains_point(z, z.center + (1 - 1e-9) * facet_offset(rng, z),
                              1e-9)
        assert calls == [(4, 20), (4, 20)]

    def test_two_d_never_enters_the_screen(self, rng, monkeypatch):
        def no_screen(*args):
            raise AssertionError("a 2-D set entered the screen")

        monkeypatch.setattr(zonotope, "_certified_member", no_screen)
        for e in (1, 2, 6, 20):
            z = random_zonotope(rng, 2, e)
            for p in sample_members(rng, z, 5):
                assert contains_point(z, p, 1e-9)
            assert not contains_point(z, interval_hull(z)[1] + 0.5, 1e-9)
        flat = Zonotope([0.0, 0.0], [[1.0, 2.0], [1.0, 2.0]])
        assert contains_point(flat, [0.5, 0.5], 1e-9)
        assert not contains_point(flat, [0.5, -0.5], 1e-9)


@pytest.fixture
def no_lp(monkeypatch):
    """Fails any test that reaches the LP."""
    def reached(*args):
        raise AssertionError("the LP was reached")

    monkeypatch.setattr(zonotope, "_contains_lp", reached)


def rotated_pair(eps, angle):
    """The rotated ``[[1, 1, 2], [0, eps, -eps]]``: full rank, with a Gram
    determinant that cancels for small ``eps``."""
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    return rot @ np.array([[1.0, 1.0, 2.0], [0.0, eps, -eps]])


def unit_scaled(gens):
    """``gens`` scaled by a power of two to ``max |G|`` in ``[1/2, 1)``, as
    :func:`contains_point` scales it."""
    return np.ldexp(gens, -math.frexp(np.abs(gens).max())[1])


def svd_full_rank(gens):
    sv = np.linalg.svd(gens, compute_uv=False)
    return bool(sv[-1] > 1e-12 * sv[0])


def gram_screen_sets(rng):
    """2-D generator matrices around the screen's edge: the rotated
    near-rank-deficient pair, parallel and anti-parallel generators, and
    condition numbers from 1 to 1e14."""
    sets = [rotated_pair(eps, angle)
            for eps in np.logspace(-13, -3, 41)
            for angle in rng.uniform(0.0, 2 * np.pi, 3)]
    for _ in range(30):
        u = rng.normal(size=2)
        sets.append(np.outer(u, rng.normal(size=6)))  # both orientations
        sets.append(np.outer(u, [1.0, -1.0, 2.0, -0.5]))
        sets.append(np.outer(u, [1.0, -1.0, 2.0]) + 1e-9 * rng.normal(
            size=(2, 3)))
    for kappa in np.logspace(0, 14, 29):
        for e in (2, 5, 20):
            sets.append(conditioned_generators(rng, 2, e, kappa, 1.0))
    return sets


class TestContainsPointScreensAndScale:
    def test_gram_screen_never_certifies_rank_deficient(self, rng):
        certified = 0
        for gens in gram_screen_sets(rng):
            for k in (-500, 0, 500):
                scaled = np.ldexp(gens, k)
                # Unscaled at 2^+-500 the sums overflow or underflow and
                # certify nothing; contains_point scales to max |G| ~ 1.
                for g in (scaled, unit_scaled(scaled)):
                    with np.errstate(over="ignore", invalid="ignore"):
                        screened = zonotope._gram_full_rank(g)
                    if screened:
                        certified += 1
                        assert svd_full_rank(g) and svd_full_rank(gens)
        assert certified > 100
        for eps in (1e-13, 1e-12, 1e-11):
            assert not zonotope._gram_full_rank(rotated_pair(eps, 0.3))

    def test_gram_screen_keeps_decisions(self, rng, monkeypatch):
        cases = []
        sets = gram_screen_sets(rng) + [rng.normal(size=(2, e))
                                        for e in (2, 3, 6, 20)]
        for gens in sets:
            z = Zonotope(rng.normal(size=2), gens)
            if not svd_full_rank(gens):
                continue
            for _ in range(2):
                face = facet_offset(rng, z)
                for gauge in (1 - 1e-9, 1 + 1e-9, 1 - 1e-14, 1 + 1e-14):
                    for tol in (0.0, 1e-9):
                        cases.append((z, z.center + gauge * face, tol))
        screened = [contains_point(*case) for case in cases]
        monkeypatch.setattr(zonotope, "_gram_full_rank", lambda gens: False)
        assert screened == [contains_point(*case) for case in cases]
        assert len(cases) > 1000 and 0 < sum(screened) < len(cases)

    @pytest.mark.parametrize(
        "n, e, rank", [(2, 6, 2), (2, 20, 2), (3, 8, 3), (4, 20, 4),
                       (5, 7, 5), (3, 5, 1), (4, 2, 2)],
        ids=["2-6", "2-20", "3-8", "4-20", "5-7", "3-5-rank1", "4-2"])
    def test_decisions_invariant_under_power_of_two_scale(self, n, e, rank,
                                                          rng):
        # Facet points (vertices for a degenerate set) at gauges around 1,
        # a deep point, an outside point and points off the column space:
        # at 2^k times the set and the point, every answer is the answer
        # at scale 1, from 2^-1000 to 2^1000.
        gens = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, e))
        z = Zonotope(np.zeros(n), gens)
        points = [0.3 * gens @ rng.uniform(-1, 1, e),
                  interval_hull(z)[1] * 1.01]
        for _ in range(3):
            face = (facet_offset(rng, z) if rank == n
                    else gens @ np.sign(rng.normal(size=n) @ gens))
            points += [g * face for g in (1 - 1e-9, 1 - 1e-14, 1 + 1e-14,
                                          1 + 1e-9)]
        if rank < n:
            points += [points[0] + t * off_range_direction(z)
                       for t in (1e-14, 1e-12, 1e-9)]
        answers = [contains_point(z, d, tol) for d in points
                   for tol in (0.0, 1e-9)]
        assert 0 < sum(answers) < len(answers)
        for k in (-1000, -600, -300, 300, 600, 1000):
            scaled = Zonotope(np.zeros(n), np.ldexp(gens, k))
            assert answers == [contains_point(scaled, np.ldexp(d, k), tol)
                               for d in points for tol in (0.0, 1e-9)]

    @pytest.mark.parametrize("n, scale", [(4, 1e-110), (3, 1e-170),
                                          (2, 1e155)])
    def test_tiny_or_huge_set_rejects_far_point(self, n, scale, rng):
        # Tiny 3-D and 4-D sets accepted far points (the facet normals
        # underflowed to 0), and a huge 2-D set a point 1000x outside, with
        # warnings (errors in the tests).
        z = Zonotope(np.zeros(n), scale * rng.normal(size=(n, 20)))
        far = 1000 * interval_hull(z)[1]
        assert not contains_point(z, far)
        assert not contains_point(z, np.ones(n) if scale < 1 else far)
        assert contains_point(z, 0.5 * z.generators @ rng.uniform(-1, 1, 20))

    @pytest.mark.parametrize("scale", [1e78, 1e80])
    def test_huge_set_accepts_members(self, scale, rng):
        # normals @ gens overflowed, with warnings, and members were
        # rejected.
        z = Zonotope(np.zeros(4), scale * rng.normal(size=(4, 20)))
        b = rng.uniform(0.9, 1.0, (20, 20)) * rng.choice([-1.0, 1.0],
                                                          (20, 20))
        assert all(contains_point(z, z.generators @ row) for row in b)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("scale", [1e-130, 1e-156])
    def test_tiny_set_accepts_center_and_near_center(self, n, scale, rng):
        # The far-point check read the exponent of max |d| = 0 at the
        # center as 0, which is more than 400 above a set below 2^-400.
        z = Zonotope(np.zeros(n), scale * rng.normal(size=(n, 8)))
        assert contains_point(z, z.center)
        assert contains_point(z, 1e-3 * z.generators @ rng.uniform(-1, 1, 8))
        assert contains_point(Zonotope(np.zeros(n), scale * np.eye(n)),
                              np.zeros(n))
        # A rank-deficient set is projected after the same check.
        flat = scale * np.outer(rng.normal(size=n), rng.normal(size=5))
        z = Zonotope(np.full(n, scale), flat)
        assert contains_point(z, z.center)
        assert contains_point(z, z.center + 1e-3 * flat @ rng.uniform(-1, 1, 5))

    def test_huge_rank_deficient_set_accepts_its_centre(self, no_lp):
        # HiGHS on the unscaled 1e308 entries rejected the centre.
        z = Zonotope([1e308, 0.0], [[1e308] * 3, [1.0, -1.0, 0.5]])
        assert contains_point(z, z.center)
        assert contains_point(z, z.center + [-5e307, 0.0])
        assert not contains_point(z, z.center + [0.0, 1e300])

    def test_off_line_point_rejected_at_every_scale(self, no_lp):
        # s [2, -1, 0] is orthogonal to the line of the set. HiGHS's
        # absolute tolerance accepted it at s = 1e-10 and 1e-8.
        line = np.outer([1.0, 2.0, 0.5], [1.0, -2.0, 0.5, 3.0, 1.0])
        for s in (1e-10, 1e-8, 1e-6, 1e-3, 1.0, 1e3):
            z = Zonotope(np.zeros(3), s * line)
            assert not contains_point(z, s * np.array([2.0, -1.0, 0.0]), 1e-9)
            assert contains_point(z, z.generators @ np.full(5, 0.5), 1e-9)

    def test_point_set_and_zero_generators_agree_at_every_scale(self):
        # A point set and its G = 0, e = 2 twin are both decided by the
        # rank-0 bound of the projection: x must be c up to a few ulps of
        # max(|x|, |c|), whatever tol. The point set had an absolute floor
        # (Zonotope.point([1e-12, 0]) accepted [0, 0]), and the twin's
        # residual norm underflowed below 2^-600 and overflowed above 2^600.
        cases = [([1.0, 0.0], [1.0 + off, 0.0], member)
                 for off, member in [(0.0, True), (2.0 ** -52, True),
                                     (2.0 ** -50, True), (2.0 ** -40, False),
                                     (1e-10, False), (1.0, False)]]
        cases.append(([1e-12, 0.0], [0.0, 0.0], False))
        for k in (-600, -300, 0, 300, 600):
            for c, x, member in cases:
                c, x = np.ldexp(c, k), np.ldexp(x, k)
                for z in (Zonotope.point(c), Zonotope(c, np.zeros((2, 2)))):
                    for tol in (0.0, 1e-9, 1e-7):
                        assert contains_point(z, x, tol) is member

    def test_one_dimensional_sum_does_not_overflow(self):
        # The unscaled sum of |G| overflowed, with a warning.
        z = Zonotope([0.0], [[1e308, 1e308]])
        assert contains_point(z, [1.5e308])
        assert not contains_point(Zonotope([-1e308], [[1e308, 1e308]]),
                                  [1.5e308])

    def test_far_point_rejected_without_products(self, rng, monkeypatch):
        # Scaled to max |G| ~ 1 these points would overflow: they are
        # rejected before the rank test.
        def no_svd(*args, **kwargs):
            raise AssertionError("a far point reached the rank test")

        for n in (2, 3, 4):
            z = Zonotope(np.zeros(n), 1e-300 * rng.normal(size=(n, 8)))
            monkeypatch.setattr(np.linalg, "svd", no_svd)
            assert not contains_point(z, np.full(n, 1e300))
            monkeypatch.undo()
            assert contains_point(z, z.generators @ rng.uniform(-1, 1, 8))


class TestFewerGeneratorsThanDimensions:
    """Sets with fewer generators than dimensions, decided by projection
    onto their column space: members up to rounding are accepted, and
    points off the column space are rejected."""

    @pytest.mark.parametrize("n, e", [(3, 1), (3, 2), (4, 3), (6, 2)])
    def test_members_accepted_off_range_rejected(self, n, e, rng, no_lp):
        for kappa in (1.0, 1e3, 1e8):
            for scale in (1e-8, 1.0, 1e8):
                # Full column rank with condition number kappa.
                u = np.linalg.qr(rng.normal(size=(n, e)))[0]
                v = np.linalg.qr(rng.normal(size=(e, e)))[0]
                gens = scale * (u * np.logspace(0, -np.log10(kappa), e)) @ v.T
                z = Zonotope(np.zeros(n), gens)
                away = off_range_direction(z) * np.abs(gens).max()
                for b in rng.uniform(-1, 1, (10, e)):
                    for gauge in (0.5, 1 - 1e-9, 1 + 1e-6):
                        d = gauge * (gens @ b) / np.abs(b).max()
                        # At kappa = 1e8 the rounding of the test exceeds
                        # the margin 2e-9 of gauge 1 - 1e-9 at tol 1e-9.
                        if gauge > 1:
                            assert not contains_point(z, d, 1e-9)
                        elif gauge == 0.5 or kappa <= 1e3:
                            assert contains_point(z, d, 1e-9)
                        # A point off the range by 1e-9 of the set's size,
                        # far above rounding, is rejected.
                        assert not contains_point(z, d + 1e-9 * away, 1e-9)

    def test_rank_deficient_columns(self, rng, no_lp):
        flat = np.outer(rng.normal(size=4), [1.0, 2.0, -1.0])
        z = Zonotope(np.zeros(4), flat)
        assert contains_point(z, np.zeros(4), 1e-9)
        assert contains_point(z, flat @ [0.5, 0.5, -0.5], 1e-9)
        assert not contains_point(z, 1.01 * flat @ [1.0, 1.0, -1.0], 1e-9)
        assert not contains_point(z, 1e-3 * off_range_direction(z), 1e-9)
        # G = 0 is the point c: HiGHS accepted offsets below its absolute
        # tolerance.
        zero = Zonotope([1.0, 2.0], np.zeros((2, 3)))
        assert contains_point(zero, [1.0, 2.0], 0.0)
        assert not contains_point(zero, [1.0, 2.0 + 1e-9], 1e-9)


class TestOverflowingOffset:
    """Centers and points near +-1e308, whose offset x - c overflows. The
    suite turns RuntimeWarnings into errors, so these tests also check
    that no warning is emitted."""

    GENS = np.array([[1.2e308, 1.2e308], [1e308, -1e308]])

    def cases(self):
        # (zonotope, point, member): b = (-5/6, -5/6) reaches the first
        # point; the second needs |b_2| = 4/3.
        wide = Zonotope([1e308, 0.0], self.GENS)
        return [(Zonotope([1e308, 0.0], np.eye(2)), [-1e308, 0.0], False),
                (Zonotope([1e308, 0.0], np.eye(2)), [-1e308, 1.0], False),
                (wide, [-1e308, 0.0], True),
                (wide, [-1e308, 1e308], False),
                (Zonotope([-1e308, 0.0, 0.0], np.eye(3)), [1e308, 0.0, 0.0],
                 False),
                (Zonotope.point([1e308, 0.0]), [-1e308, 0.0], False)]

    def test_per_set(self):
        for z, x, member in self.cases():
            assert contains_point(z, x) is member

    def test_stacked(self):
        two_d = [(z, x, member) for z, x, member in self.cases()
                 if z.dim == 2]
        got = contains_stack([z for z, _, _ in two_d],
                             [x for _, x, _ in two_d], 1e-9)
        assert got.tolist() == [member for _, _, member in two_d]


def stack_cases(rng):
    """2-D sets and points for the stacked containment test: facet points
    at gauges near 1, deep and far points, at scales 2^-500 to 2^500; the
    near-rank-deficient rotated pair, which the Gram screen leaves to the
    SVD; rank-1 sets; one generator and none."""
    zs, points = [], []
    for e in (2, 3, 6, 20):
        for k in (-500, 0, 500):
            for _ in range(3):
                z = Zonotope(np.ldexp(rng.normal(size=2), k),
                             np.ldexp(rng.normal(size=(2, e)), k))
                face = facet_offset(rng, z)
                for gauge in (0.3, 1 - 1e-9, 1 + 1e-9, 1 - 1e-14, 1 + 1e-14,
                              1 + 1e-7, 3.0):
                    zs.append(z)
                    points.append(z.center + gauge * face)
                zs += [z, z]
                points += [z.center, z.center + np.ldexp(face, 402)]
    for eps in np.logspace(-13, -3, 11):
        z = Zonotope(rng.normal(size=2), rotated_pair(eps, rng.uniform(0, 6)))
        face = facet_offset(rng, z)
        for gauge in (1 - 1e-9, 1 + 1e-9):
            zs.append(z)
            points.append(z.center + gauge * face)
    flat = Zonotope([1.0, 2.0], np.outer([1.0, 2.0], [1.0, -0.5, 2.0]))
    zs += [flat, flat, Zonotope([0.0, 0.0], [[1.0], [1.0]]),
           Zonotope.point([1.0, 2.0])]
    points += [[2.0, 4.0], [2.0, 4.5], [0.5, 0.5], [1.0, 2.0]]
    order = rng.permutation(len(zs))
    return [zs[i] for i in order], np.array(points)[order]


class TestContainsStack:
    @pytest.mark.parametrize("entries", [1 << 18, 50])
    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-7])
    def test_matches_per_set(self, entries, tol, rng, monkeypatch):
        # Small chunks (one set of 20 generators, 12 of 2) put chunk
        # boundaries inside every generator count.
        zs, points = stack_cases(rng)
        want = [contains_point(z, x, tol) for z, x in zip(zs, points)]
        monkeypatch.setattr(zonotope, "_STACK_ENTRIES", entries)
        got = contains_stack(zs, points, tol)
        assert got.tolist() == want
        assert 50 < sum(want) < len(want) - 50

    def test_stack_decides_most_rows(self, rng, monkeypatch):
        # Far points, the rotated pair's small eps, rank-1 sets, one
        # generator and none go through contains_point; the stack decides
        # the rest.
        zs, points = stack_cases(rng)
        per_set = []
        real = zonotope.contains_point

        def counted(z, x, tol):
            per_set.append(z)
            return real(z, x, tol)

        monkeypatch.setattr(zonotope, "contains_point", counted)
        contains_stack(zs, points, 1e-9)
        # 36 far points, 4 sets with rank 1 or fewer than two generators,
        # and some of the 22 points of rotated pairs.
        assert 40 <= len(per_set) <= 62 and len(per_set) < len(zs) / 4

    def test_other_dimensions_go_per_set(self, rng):
        zs = [random_zonotope(rng, 3, e) for e in (2, 3, 8)]
        points = [z.center + 0.5 * z.generators.sum(axis=1) for z in zs]
        points += [z.center + 10 * z.generators.sum(axis=1) for z in zs]
        got = contains_stack(zs + zs, np.array(points), 1e-9)
        assert got.tolist() == [True] * 3 + [False] * 3

    def test_rejects_non_finite_point_and_negative_tol(self, rng):
        z = random_zonotope(rng, 2, 6)
        with pytest.raises(ValueError, match="only finite values"):
            contains_stack([z, z], np.array([z.center, [np.nan, 0.0]]))
        # A NaN tol rejected the set's own centre, and an infinite one
        # accepted every point.
        for tol in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be finite"):
                contains_stack([z], z.center[None], tol)
            with pytest.raises(ValueError, match="tol must be finite"):
                contains_point(z, z.center, tol)


class TestVertices2D:
    def test_unit_box(self):
        verts = vertices_2d(UNIT_BOX)
        assert sorted(map(tuple, verts)) == [(-1.0, -1.0), (-1.0, 1.0),
                                             (1.0, -1.0), (1.0, 1.0)]

    def test_segment(self):
        z = Zonotope([0.0, 0.0], [[1.0], [1.0]])
        verts = vertices_2d(z)
        assert sorted(map(tuple, verts)) == [(-1.0, -1.0), (1.0, 1.0)]

    def test_point(self):
        verts = vertices_2d(Zonotope([2.0, 3.0], []))
        assert verts.shape == (1, 2)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            vertices_2d(random_zonotope(rng, 3, 3))

    def test_three_generators_vs_hull_oracle(self, rng):
        # Exact oracle: hull of all 2^e sign combinations.
        for _ in range(20):
            z = random_zonotope(rng, 2, 3)
            verts = vertices_2d(z)
            assert verts.shape[0] == 6
            signs = np.array(np.meshgrid(*[[-1, 1]] * 3)).T.reshape(-1, 3)
            cloud = z.center + signs @ z.generators.T
            hull = ConvexHull(cloud)
            expected = {tuple(np.round(p, 9)) for p in cloud[hull.vertices]}
            got = {tuple(np.round(p, 9)) for p in verts}
            assert got == expected
            for v in verts:
                assert contains_point(z, v, 1e-7)

    def test_sampled_points_inside_polygon(self, rng):
        z = random_zonotope(rng, 2, 5)
        verts = vertices_2d(z)
        pts = sample_members(rng, z, 10_000)
        # All samples inside the polygon: check via the edge normals.
        for a, b in zip(verts, np.roll(verts, -1, axis=0)):
            edge = b - a
            normal = np.array([-edge[1], edge[0]])  # inward for CCW order
            assert np.all((pts - a) @ normal >= -1e-6)

    def test_collinear_generators_merged(self):
        z = Zonotope([0.0, 0.0], [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        verts = vertices_2d(z)
        assert verts.shape[0] == 4
        assert sorted(map(tuple, verts)) == [(-3.0, -1.0), (-3.0, 1.0),
                                             (3.0, -1.0), (3.0, 1.0)]

    @given(zonotopes(max_gens=6))
    @settings(max_examples=40, deadline=None)
    def test_convex_and_centrally_symmetric(self, z):
        verts = vertices_2d(z)
        n = verts.shape[0]
        if n >= 3:
            # CCW convexity: every cross product of consecutive edges >= 0.
            for i in range(n):
                a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
                e1, e2 = b - a, c - b
                cross = e1[0] * e2[1] - e1[1] * e2[0]
                assert cross >= -1e-9 * max(1.0, abs(cross))
        reflected = 2.0 * z.center - verts
        got = {tuple(np.round(p, 7)) for p in verts}
        exp = {tuple(np.round(p, 7)) for p in reflected}
        assert got == exp
