import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from zonodiff import (
    Strip,
    Zonotope,
    contains_point,
    f_radius,
    intersect_strips,
    intersect_zonotopes,
    optimal_diffusion_weights,
)
from zonodiff import intersection
from zonodiff.intersection import diffusion_weights, frobenius_optimal_gain
from conftest import certified_member, random_zonotope, sample_members


def gbar_norm(lam, z, strips):
    return f_radius(intersect_strips(z, strips, lam))


def optimal_gain(z, strips):
    """F-radius-optimal gain for :func:`intersect_strips` and the flag of
    its pseudo-inverse fallback."""
    gamma = np.array([s.h for s in strips])
    r = np.array([s.r for s in strips])
    return frobenius_optimal_gain(z.generators, gamma, r)


def random_instance(rng, dim):
    """Zonotope plus strips that all contain a common anchor point."""
    z = random_zonotope(rng, dim, rng.integers(dim, dim + 4))
    anchor = z.center + z.generators @ rng.uniform(-0.8, 0.8, z.n_generators)
    strips = []
    for _ in range(rng.integers(1, 4)):
        h = rng.normal(size=dim)
        while not np.any(h):
            h = rng.normal(size=dim)
        r = rng.uniform(0.1, 1.5)
        y = float(h @ anchor) + r * rng.uniform(-0.5, 0.5)
        strips.append(Strip(h, y, r))
    return z, strips, anchor


class TestStrip:
    def test_rejects_zero_direction(self):
        with pytest.raises(ValueError):
            Strip([0.0, 0.0], 1.0, 0.5)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            Strip([1.0, 0.0], 1.0, 0.0)

    def test_membership_helper(self):
        s = Strip([1.0, 0.0], 0.5, 0.1)
        assert s.contains([0.55, 3.0])
        assert not s.contains([0.7, 0.0])

    @pytest.mark.parametrize("h, y, r", [
        ([np.nan, 1.0], 0.0, 1.0), ([1.0, np.inf], 0.0, 1.0),
        ([-0.0, 0.0], 0.0, 1.0), ([1.0, 0.0], np.nan, 1.0),
        ([1.0, 0.0], -np.inf, 1.0), ([1.0, 0.0], 0.0, np.inf),
        ([1.0, 0.0], 0.0, np.nan), ([1.0, 0.0], 0.0, -1.0),
    ])
    def test_rejects_non_finite_or_degenerate(self, h, y, r):
        with pytest.raises(ValueError):
            Strip(np.array(h), y, r)

    def test_stores_frozen_floats(self):
        s = Strip([1, 2], np.float64(0.5), 3)
        assert s.h.dtype == float and not s.h.flags.writeable
        assert type(s.y) is float and type(s.r) is float


class TestDiffusionWeights:
    def test_rejects_zero_sum(self, rng):
        z = random_zonotope(rng, 2, 2)
        with pytest.raises(ValueError, match="sum to zero"):
            intersect_zonotopes([z, z], [1.0, -1.0])

    def test_rejects_nonfinite(self, rng):
        z = random_zonotope(rng, 2, 2)
        for w in ([np.inf, 1.0], [np.nan, 1.0]):
            with pytest.raises(ValueError, match="weights must be finite"):
                intersect_zonotopes([z, z], w)


class TestIntersectStrips:
    def test_zero_gain_keeps_set(self, rng):
        z = random_zonotope(rng, 2, 3)
        strips = [Strip([1.0, 0.0], 0.3, 0.2), Strip([0.0, 1.0], -0.1, 0.4)]
        out = intersect_strips(z, strips, np.zeros((2, 2)))
        assert np.array_equal(out.center, z.center)
        assert np.array_equal(out.generators[:, :3], z.generators)
        assert np.array_equal(out.generators[:, 3:], np.zeros((2, 2)))

    def test_hand_evaluated_case(self):
        z = Zonotope([0.0, 0.0], np.eye(2))
        strip = Strip([1.0, 0.0], 0.5, 0.1)
        out = intersect_strips(z, [strip], np.array([[1.0], [0.0]]))
        assert np.allclose(out.center, [0.5, 0.0])
        assert np.allclose(out.generators, [[0.0, 0.0, 0.1], [0.0, 1.0, 0.0]])

    def test_dimension_mismatch(self, rng):
        z = random_zonotope(rng, 2, 3)
        with pytest.raises(ValueError):
            intersect_strips(z, [Strip([1.0, 0.0, 0.0], 0.0, 1.0)],
                             np.zeros((2, 1)))

    def test_rejects_bad_gain(self, rng):
        z = random_zonotope(rng, 2, 3)
        strips = [Strip([1.0, 0.0], 0.0, 1.0)]
        for lam in ([[np.nan], [0.0]], [[np.inf], [0.0]]):
            with pytest.raises(ValueError, match="gain entries must be finite"):
                intersect_strips(z, strips, lam)
        with pytest.raises(ValueError, match="gain shape"):
            intersect_strips(z, strips, np.zeros((2, 2)))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_soundness_rejection_sampling(self, rng, dim):
        # Every sampled member of the true intersection stays a member of
        # the over-approximation, for arbitrary gains.
        for _ in range(40):
            z, strips, anchor = random_instance(rng, dim)
            gain = rng.normal(size=(dim, len(strips)))
            out = intersect_strips(z, strips, gain)
            pts = sample_members(rng, z, 300)
            keep = [p for p in pts
                    if all(s.contains(p) for s in strips)][:8]
            keep.append(anchor)
            for p in keep:
                assert contains_point(out, p, 1e-7)


class TestOptimalStripGain:
    def test_point_prior_gives_zero_gain(self):
        z = Zonotope([1.0, 2.0], [])
        lam, _ = optimal_gain(z, [Strip([1.0, 0.0], 0.0, 1.0)])
        assert np.array_equal(lam, np.zeros((2, 1)))

    def test_scalar_case_matches_golden_section(self):
        # 1-D: g = 2, h = 1, r = 1 has optimum g^2 / (g^2 + r^2) = 0.8.
        z = Zonotope([0.0], [[2.0]])
        strip = Strip([1.0], 0.0, 1.0)
        lam, _ = optimal_gain(z, [strip])
        assert lam[0, 0] == pytest.approx(0.8, abs=1e-12)
        res = minimize_scalar(
            lambda lam: gbar_norm(np.array([[lam]]), z, [strip]),
            bounds=(-2.0, 2.0), method="bounded",
            options={"xatol": 1e-12})
        assert lam[0, 0] == pytest.approx(res.x, abs=1e-8)

    def test_local_minimality_against_perturbations(self, rng):
        z, strips, _ = random_instance(rng, 2)
        lam, _ = optimal_gain(z, strips)
        best = gbar_norm(lam, z, strips)
        for _ in range(1000):
            delta = rng.normal(size=lam.shape) * 0.1
            assert best <= gbar_norm(lam + delta, z, strips) + 1e-12

    def test_gradient_zero_at_closed_form(self, rng):
        for _ in range(20):
            dim = int(rng.integers(1, 4))
            z, strips, _ = random_instance(rng, dim)
            lam, _ = optimal_gain(z, strips)
            f0 = gbar_norm(lam, z, strips) ** 2
            grad = np.zeros_like(lam)
            eps = 1e-6
            for idx in np.ndindex(*lam.shape):
                d = np.zeros_like(lam)
                d[idx] = eps
                grad[idx] = (gbar_norm(lam + d, z, strips) ** 2
                             - gbar_norm(lam - d, z, strips) ** 2) / (2 * eps)
            assert np.abs(grad).max() < 1e-5 * (1.0 + f0)

    def test_pseudo_inverse_fallback_flag(self):
        # Two identical strips on a rank-deficient prior stress conditioning;
        # force the degenerate case with an enormous prior.
        z = Zonotope([0.0, 0.0], [[1e9, 1e9], [1e9, 1e9]])
        strips = [Strip([1.0, 0.0], 0.0, 1e-9), Strip([1.0, 0.0], 0.0, 1e-9)]
        lam, used_pseudo_inverse = optimal_gain(z, strips)
        assert used_pseudo_inverse
        assert np.all(np.isfinite(lam))

    def test_all_at_once_equals_strip_by_strip(self, rng):
        # Frobenius-optimal gains make the joint update and the sequential
        # one agree in resulting F-radius.
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            z, strips, _ = random_instance(rng, dim)
            joint = intersect_strips(z, strips, optimal_gain(z, strips)[0])
            seq = z
            for s in strips:
                seq = intersect_strips(seq, [s], optimal_gain(seq, [s])[0])
            assert f_radius(joint) == pytest.approx(f_radius(seq), abs=1e-8,
                                                    rel=1e-8)


def gain_inputs(gens, gamma, r):
    """``(certified, well_conditioned)`` of the gain solve's two tests on
    one normal matrix, formed as :func:`frobenius_optimal_gain` forms it
    from ``G`` and ``r`` as given (unscaled)."""
    gg = gens @ gens.T
    r_sq = np.asarray(r, dtype=float) ** 2
    normal = gamma @ gg @ gamma.T + np.diag(r_sq)
    return (intersection._solve_certified(float(np.vdot(gamma, gamma)),
                                          float(np.vdot(gens, gens)), r_sq),
            intersection._well_conditioned(normal))


class TestGainCertificate:
    """Wherever the certificate picks the solve, the eigenvalue test it
    replaces picks it too."""

    def test_sound_over_conditioning_range(self, rng):
        certified = uncertified = 0
        for _ in range(3000):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 8))
            # Normal matrices with condition number about 1 to 1e14.
            kappa = 10.0 ** rng.uniform(0.0, 14.0)
            gens = rng.normal(size=(n, int(rng.integers(0, 21))))
            gamma = rng.normal(size=(m, n))
            scale = np.sqrt(kappa / max(1.0, np.vdot(gens, gens)))
            r = rng.uniform(0.5, 1.0, m) * 10.0 ** rng.uniform(-3, 3)
            cert, ok = gain_inputs(scale * r[0] * gens, gamma, r)
            assert ok or not cert
            certified += cert
            uncertified += not cert
        assert certified > 500 and uncertified > 500

    def test_sound_on_degenerate_strips(self, rng):
        cases = 0
        for _ in range(400):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 8))
            gens = rng.normal(size=(n, int(rng.integers(n, 21))))
            base = rng.normal(size=n)
            redundant = np.tile(base, (m, 1))
            near = redundant + 10.0 ** rng.uniform(-14, -6) * rng.normal(
                size=(m, n))
            for gamma in (redundant, near):
                for r_val in (1.0, 1e-3, 1e-8, 1e-150, 1e-155, 1e-160,
                              1e-170):
                    for g_scale in (0.0, 1e-3, 1.0, 1e6, 1e100, 1e150):
                        cert, ok = gain_inputs(g_scale * gens, gamma,
                                               np.full(m, r_val))
                        assert ok or not cert
                        cases += 1
        assert cases > 10_000

    def test_strips_orthogonal_to_a_huge_prior(self, rng):
        # Gamma G cancels: the computed normal matrix is indefinite with a
        # small trace, and only the eigenvalue test catches it. A trace
        # certificate picked the solve in many of these cases.
        uncertified_fallbacks = 0
        for _ in range(2000):
            e, m = int(rng.integers(2, 25)), int(rng.integers(2, 8))
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            s = 10.0 ** rng.uniform(0, 12)
            gens = s * (np.outer(u, rng.normal(size=e)) + 10.0 ** rng.uniform(
                -20, -8) * rng.normal(size=(2, e)))
            gamma = np.outer(rng.normal(size=m), [-u[1], u[0]]) + 10.0 ** (
                rng.uniform(-20, -8)) * rng.normal(size=(m, 2))
            cert, ok = gain_inputs(gens, gamma,
                                   np.full(m, 10.0 ** rng.uniform(-6, 0)))
            assert ok or not cert
            uncertified_fallbacks += not ok
        assert uncertified_fallbacks > 100

    def test_point_prior_and_tiny_r(self):
        gamma = np.array([[1.0, 0.0], [0.5, 2.0]])
        point = np.zeros((2, 0))
        # r^2 normal: certified; subnormal or underflowing to 0: not.
        for r_val, expected in ((1e-150, True), (1e-155, False),
                                (1e-170, False)):
            cert, ok = gain_inputs(point, gamma, np.full(2, r_val))
            assert cert is expected
            assert ok or not cert
        # One r much smaller than the other: cond(diag(r^2)) > 1e8.
        assert gain_inputs(point, gamma, np.array([1.0, 1e-5])) == (False,
                                                                    True)

    def test_certified_gain_equals_eigenvalue_path(self, rng, monkeypatch):
        # Where both tests pick the solve the gain is the same bits.
        cases = []
        for _ in range(50):
            z, strips, _ = random_instance(rng, int(rng.integers(1, 4)))
            gamma = np.array([s.h for s in strips])
            r = np.array([s.r for s in strips])
            front = rng.normal(size=(z.dim, z.dim))
            cases += [(z.generators, gamma, r, None),
                      (z.generators, gamma, r, front)]
        fast = [frobenius_optimal_gain(*case) for case in cases]
        monkeypatch.setattr(intersection, "_solve_certified",
                            lambda *args: False)
        slow = [frobenius_optimal_gain(*case) for case in cases]
        for (lam_f, fb_f), (lam_s, fb_s) in zip(fast, slow):
            assert fb_f == fb_s
            assert lam_f.tobytes() == lam_s.tobytes()


@pytest.mark.filterwarnings("error")
class TestGainScaling:
    """The gain is invariant under a joint scaling of ``G`` and ``r``, and
    a joint scaling of ``Gamma`` and ``r`` divides it by the scale."""

    GAMMA = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])

    def test_hand_case_at_extreme_scales(self):
        want = np.array([[1 / 3, 0.0, 1 / 3], [0.0, 0.5, 0.0]])
        for s in (1.0, 1e-10, 1e100, 1.2e154, 1e200, 1e-160, 1e-200):
            lam, fallback = frobenius_optimal_gain(s * np.eye(2), self.GAMMA,
                                                   np.full(3, s))
            assert not fallback
            assert np.allclose(lam, want, rtol=1e-14, atol=1e-15)

    def test_power_of_two_scales_give_the_same_bits(self, rng):
        cases = [(np.eye(2), self.GAMMA, np.ones(3), None)]
        for _ in range(40):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 8))
            gens = rng.normal(size=(n, int(rng.integers(0, 25))))
            gamma = rng.normal(size=(m, n))
            r = rng.uniform(0.01, 10.0, m)
            if m > 1 and rng.random() < 0.3:
                # Redundant, narrow strips: the pseudo-inverse path.
                gamma[1] = gamma[0]
                r *= 1e-6
            front = rng.normal(size=(n, n)) if rng.random() < 0.5 else None
            cases.append((gens, gamma, r, front))
        fallbacks = 0
        for gens, gamma, r, front in cases:
            want, fallback = frobenius_optimal_gain(gens, gamma, r, front)
            fallbacks += fallback
            for p in range(-600, 601, 50):
                s = 2.0 ** p
                lam, fb = frobenius_optimal_gain(s * gens, gamma, s * r,
                                                 front)
                assert fb == fallback
                assert np.array_equal(lam, want)
        assert fallbacks > 0

    def test_strip_scale_hand_case(self):
        # Strips at 1e200 used to square to inf, and at 1e-200 to 0; both
        # gave an all-zero gain.
        want = np.array([[1 / 3, 0.0, 1 / 3], [0.0, 0.5, 0.0]])
        for s in (1e-200, 1e-100, 1e-5, 1e5, 1e100, 1e200):
            lam, fallback = frobenius_optimal_gain(np.eye(2), s * self.GAMMA,
                                                   np.full(3, s))
            assert not fallback
            assert np.allclose(s * lam, want, rtol=1e-14, atol=1e-15)

    def test_strip_power_of_two_scales_give_the_same_bits(self, rng):
        cases = [(np.eye(2), self.GAMMA, np.ones(3), None, 1)]
        for _ in range(40):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 8))
            gamma = rng.normal(size=(m, n))
            r = rng.uniform(0.01, 10.0, m)
            front = rng.normal(size=(n, n)) if rng.random() < 0.5 else None
            cases.append((rng.normal(size=(n, 20)), gamma, r, front, 25))
        for gens, gamma, r, front, stride in cases:
            want, fallback = frobenius_optimal_gain(gens, gamma, r, front)
            for p in range(-1000, 1001, stride):
                s = 2.0 ** p
                lam, fb = frobenius_optimal_gain(gens, s * gamma, s * r,
                                                 front)
                assert fb == fallback
                assert np.array_equal(s * lam, want)


class TestLuenbergerGainForm:
    def test_scalar_case(self):
        # 1-D with F = 1 reduces to the strip-gain formula.
        lam, fallback = frobenius_optimal_gain(
            np.array([[2.0]]), np.array([[1.0]]), np.array([1.0]),
            front=np.array([[1.0]]))
        assert not fallback
        assert lam[0, 0] == pytest.approx(0.8)

    def test_gradient_zero_with_state_matrix(self, rng):
        f_mat = np.array([[0.992, -0.1247], [0.1247, 0.992]])
        for _ in range(10):
            z, strips, _ = random_instance(rng, 2)
            gamma = np.vstack([s.h for s in strips])
            r = np.array([s.r for s in strips])
            lam, _ = frobenius_optimal_gain(z.generators, gamma, r, front=f_mat)

            def cost(flat):
                ll = flat.reshape(lam.shape)
                gens = np.hstack([(f_mat - ll @ gamma) @ z.generators,
                                  -ll * r[None, :]])
                return float(np.sum(gens ** 2))

            f0 = cost(lam.ravel())
            eps = 1e-6
            grad = np.zeros(lam.size)
            for i in range(lam.size):
                d = np.zeros(lam.size)
                d[i] = eps
                grad[i] = (cost(lam.ravel() + d) - cost(lam.ravel() - d)) / (2 * eps)
            assert np.abs(grad).max() < 1e-5 * (1.0 + f0)


class TestIntersectZonotopes:
    def test_single_input_identity(self, rng):
        z = random_zonotope(rng, 2, 4)
        out = intersect_zonotopes([z], [1.0])
        assert np.array_equal(out.center, z.center)
        assert np.array_equal(out.generators, z.generators)

    def test_identical_copies_keep_membership(self, rng):
        z = random_zonotope(rng, 2, 4)
        out = intersect_zonotopes([z, z, z], [1, 1, 1])
        assert np.allclose(out.center, z.center)
        for p in sample_members(rng, z, 25):
            assert contains_point(out, p, 1e-7)

    def test_disjoint_center_boxes(self, rng):
        a = Zonotope([0.0, 0.0], np.eye(2))
        b = Zonotope([1.0, 0.0], np.eye(2))
        out = intersect_zonotopes([a, b], [0.5, 0.5])
        assert np.allclose(out.center, [0.5, 0.0])
        pts = sample_members(rng, a, 4000)
        true_members = [p for p in pts if contains_point(b, p, 0.0)][:40]
        assert true_members
        for p in true_members:
            assert contains_point(out, p, 1e-7)

    def test_weight_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            intersect_zonotopes([random_zonotope(rng, 2, 2)],
                                [0.5, 0.5])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_soundness_random_weights(self, rng, dim):
        for _ in range(40):
            m = int(rng.integers(2, 5))
            anchor = rng.normal(size=dim)
            zs = []
            for _ in range(m):
                gens = rng.normal(size=(dim, int(rng.integers(dim, dim + 3))))
                beta = rng.uniform(-0.8, 0.8, gens.shape[1])
                zs.append(Zonotope(anchor - gens @ beta, gens))
            w = rng.normal(size=m)
            while abs(w.sum()) < 0.3:
                w = rng.normal(size=m)
            out = intersect_zonotopes(zs, w)
            pts = sample_members(rng, zs[0], 300)
            keep = [p for p in pts
                    if all(certified_member(z, p) for z in zs[1:])][:6]
            keep.append(anchor)
            for p in keep:
                assert contains_point(out, p, 1e-7)


class TestOptimalDiffusionWeights:
    def test_beta_one_three(self):
        zs = [Zonotope([0.0], [[1.0]]), Zonotope([0.0], [[np.sqrt(3.0)]])]
        w = optimal_diffusion_weights(zs)
        assert np.allclose(w, [0.75, 0.25])
        # Grid-search oracle over w1.
        beta = np.array([1.0, 3.0])
        grid = np.linspace(0.01, 0.99, 9801)
        costs = beta[0] * grid ** 2 + beta[1] * (1 - grid) ** 2
        assert abs(grid[np.argmin(costs)] - w[0]) < 1e-3

    def test_equal_betas_uniform(self, rng):
        g = rng.normal(size=(2, 3))
        zs = [Zonotope(rng.normal(size=2), g) for _ in range(4)]
        assert np.allclose(optimal_diffusion_weights(zs), 0.25)

    def test_beta_one_one_two(self):
        zs = [Zonotope([0.0], [[1.0]]), Zonotope([0.0], [[1.0]]),
              Zonotope([0.0], [[np.sqrt(2.0)]])]
        assert np.allclose(optimal_diffusion_weights(zs), [0.4, 0.4, 0.2])

    def test_point_sets_pin_the_weights(self, rng):
        zs = [random_zonotope(rng, 2, 3), Zonotope.point([1.0, 2.0]),
              Zonotope.point([3.0, 4.0])]
        w = optimal_diffusion_weights(zs)
        assert np.allclose(w, [0.0, 0.5, 0.5])

    @pytest.mark.filterwarnings("error")
    def test_tiny_sets_count_as_points(self):
        # Generators of 1e-156 give a subnormal beta whose inverse
        # overflows: such a member is weighted like a point set.
        tiny = Zonotope([0.0, 0.0], 1e-156 * np.eye(2))
        wide = Zonotope([1.0, 1.0], np.eye(2))
        point = Zonotope.point([2.0, 2.0])
        assert optimal_diffusion_weights([tiny, wide]).tolist() == [1.0, 0.0]
        assert optimal_diffusion_weights(
            [wide, tiny, point]).tolist() == [0.0, 0.5, 0.5]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_of_inverses(self):
        # Each 1/beta of the first row is finite but their sum overflows:
        # that row is rescaled, and the second row, whose sum is finite,
        # keeps the plain formula bit for bit.
        beta = np.array([[1e-308] * 6, [1.0, 3.0, 7.0, 2.0, 5.0, 11.0]])
        w = diffusion_weights(beta)
        assert w[0].tolist() == [1.0 / 6.0] * 6
        inv = 1.0 / beta[1]
        assert np.array_equal(w[1], inv / inv.sum())
        mixed = diffusion_weights(np.array([1e-308, 1e-308, 2e-308]))
        assert np.allclose(mixed, [0.4, 0.4, 0.2], rtol=1e-15, atol=0)

    def test_beats_random_simplex_weights(self, rng):
        zs = [random_zonotope(rng, 2, int(rng.integers(1, 5)))
              for _ in range(3)]
        w_star = optimal_diffusion_weights(zs)
        best = f_radius(intersect_zonotopes(zs, w_star))
        for _ in range(200):
            raw = rng.uniform(0.01, 1.0, 3)
            w = raw / raw.sum()
            assert best <= f_radius(intersect_zonotopes(zs, w)) + 1e-12

    def test_closed_form_identity(self, rng):
        # ||G(w*)||_F^2 equals 1 / sum(1/beta), hence <= min beta.
        for _ in range(50):
            zs = [random_zonotope(rng, 2, int(rng.integers(1, 6)))
                  for _ in range(int(rng.integers(2, 5)))]
            beta = np.array([f_radius(z) ** 2 for z in zs])
            out = intersect_zonotopes(zs, optimal_diffusion_weights(zs))
            expected = 1.0 / np.sum(1.0 / beta)
            assert f_radius(out) ** 2 == pytest.approx(expected, rel=1e-9)
            assert f_radius(out) ** 2 <= beta.min() + 1e-12
