import numpy as np
import pytest
from hypothesis import given, settings
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
from zonodiff.zonotope import reduce_stack
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

    def test_lp_only_when_rank_deficient_or_e_small_or_large(
            self, rng, monkeypatch):
        real_lp = zonotope._contains_lp

        def no_lp(*args):
            raise AssertionError("full-rank zonotope reached the LP")

        monkeypatch.setattr(zonotope, "_contains_lp", no_lp)
        for n in (3, 4):
            z = random_zonotope(rng, n, 8)
            for p in sample_members(rng, z, 10):
                assert contains_point(z, p, 1e-9)
            assert not contains_point(z, interval_hull(z)[1] + 0.5, 1e-9)

        lp_calls = []

        def counted_lp(*args):
            lp_calls.append(args)
            return real_lp(*args)

        monkeypatch.undo()
        monkeypatch.setattr(zonotope, "_contains_lp", counted_lp)
        checks = 0
        for n in (3, 4):
            basis = rng.normal(size=(n, n - 1))
            in_plane = Zonotope(rng.normal(size=n),
                                basis @ rng.normal(size=(n - 1, 8)))
            for z in (in_plane, random_zonotope(rng, n, n - 1)):
                for p in sample_members(rng, z, 5):
                    assert contains_point(z, p, 1e-9)
                    assert not contains_point(
                        z, p + 1e-3 * off_range_direction(z), 1e-9)
                    checks += 2
        many = random_zonotope(rng, 3, 64)  # C(64, 2) = 2016 subsets
        for p in sample_members(rng, many, 2):
            assert contains_point(many, p, 1e-9)
        assert not contains_point(many, interval_hull(many)[1] + 0.5, 1e-9)
        # The two members are certified by the least-norm screen first; only
        # the outside point reaches the LP.
        assert len(lp_calls) == checks + 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_point(self, rng, bad):
        sets = [
            Zonotope.point([1.0, 2.0]),
            Zonotope([0.0], [[1.0]]),
            random_zonotope(rng, 2, 6),  # 2-D facet test
            Zonotope([0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]]),  # zero normals
            random_zonotope(rng, 4, 20),  # screen, then facet test
            random_zonotope(rng, 3, 2),  # e < n: LP
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
