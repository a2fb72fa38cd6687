import numpy as np
import pytest

from zonodiff import (
    NodeState,
    ObserverConfig,
    ObserverKind,
    Strip,
    Topology,
    Zonotope,
    contains_point,
    f_radius,
    intersect_zonotopes,
    iv_luenberger_update,
    optimal_diffusion_weights,
    reduce,
    run_round,
    sm_diffusion_update,
    sm_measurement_update,
    sm_time_update,
)
from zonodiff import network, observers
from zonodiff.intersection import stack_strips
from zonodiff.observers import fuse_update, local_update
from conftest import certified_member, random_zonotope, sample_members

F_ROT = np.array([[0.992, -0.1247], [0.1247, 0.992]])
NO_NOISE = np.zeros((2, 0))
SINGLE = Topology(1, ((0,),))


def consistent_instance(rng, dim=2, n_strips=3):
    z = random_zonotope(rng, dim, rng.integers(dim, dim + 4))
    anchor = z.center + z.generators @ rng.uniform(-0.8, 0.8, z.n_generators)
    strips = []
    for _ in range(n_strips):
        h = rng.normal(size=dim)
        while not np.any(h):
            h = rng.normal(size=dim)
        r = rng.uniform(0.2, 1.0)
        strips.append(Strip(h, float(h @ anchor) + r * rng.uniform(-0.4, 0.4), r))
    return z, strips, anchor


class TestConfig:
    def test_kind_coercion(self):
        cfg = ObserverConfig(kind="iv")
        assert cfg.kind is ObserverKind.INTERVAL_BASED

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            ObserverConfig(q=0)


class TestSmMeasurementUpdate:
    def test_requires_strips(self, rng):
        state = NodeState(0, random_zonotope(rng, 2, 3))
        with pytest.raises(ValueError):
            sm_measurement_update(state, [])

    def test_point_prior_unchanged(self):
        state = NodeState(0, Zonotope.point([1.0, 2.0]))
        out = sm_measurement_update(state, [Strip([1.0, 0.0], 5.0, 1.0)])
        assert np.array_equal(out.center, [1.0, 2.0])
        assert np.all(out.generators == 0.0)

    def test_one_dimensional_worked_case(self):
        # g = 2, strip (h=1, y=0, r=1): lambda = 0.8, so the corrected set is
        # <0, [0.4, 0.8]> with F-radius sqrt(0.8).
        state = NodeState(0, Zonotope([0.0], [[2.0]]))
        out = sm_measurement_update(state, [Strip([1.0], 0.0, 1.0)])
        assert np.allclose(out.center, [0.0])
        assert np.allclose(np.sort(np.abs(out.generators).ravel()), [0.4, 0.8])
        assert f_radius(out) == pytest.approx(np.sqrt(0.8))

    def test_consistent_point_stays_inside(self, rng):
        for _ in range(30):
            z, strips, anchor = consistent_instance(rng)
            out = sm_measurement_update(NodeState(0, z), strips)
            assert contains_point(out, anchor, 1e-7)


class TestSmDiffusionUpdate:
    def test_single_input_is_reduce(self, rng):
        # One set gets weight 1.0 exactly, so it is only reduced: one with
        # at most q generators comes back unchanged. At 1.2e154 its squared
        # F-radius overflows to infinity.
        for z in (random_zonotope(rng, 2, 8), random_zonotope(rng, 2, 3),
                  Zonotope([0.0, 0.0], 1.2e154 * np.eye(2))):
            with np.errstate(over="ignore"):
                out = sm_diffusion_update([z], 4)
            want = reduce(z, 4) if z.n_generators > 4 else z
            assert np.array_equal(out.center, z.center)
            assert np.array_equal(out.generators, want.generators)

    def test_identical_inputs_keep_center(self, rng):
        z = random_zonotope(rng, 2, 4)
        out = sm_diffusion_update([z, z], 20)
        assert np.allclose(out.center, z.center)
        for p in sample_members(rng, z, 20):
            assert contains_point(out, p, 1e-7)

    def test_common_points_stay_members(self, rng):
        for _ in range(20):
            anchor = rng.normal(size=2)
            zs = []
            for _ in range(3):
                gens = rng.normal(size=(2, 4))
                beta = rng.uniform(-0.7, 0.7, 4)
                zs.append(Zonotope(anchor - gens @ beta, gens))
            out = sm_diffusion_update(zs, 6)
            pts = [p for p in sample_members(rng, zs[0], 200)
                   if all(certified_member(z, p) for z in zs[1:])][:5]
            pts.append(anchor)
            for p in pts:
                assert contains_point(out, p, 1e-7)

    def test_tiny_set_pins_the_result(self):
        # A member whose 1/beta overflows (generators of 1e-156) takes all
        # the weight, as a point set would.
        tiny = Zonotope([0.5, -0.5], 1e-156 * np.eye(2))
        out = sm_diffusion_update([Zonotope([1.0, 1.0], np.eye(2)), tiny], 20)
        assert np.array_equal(out.center, tiny.center)
        assert f_radius(out) == f_radius(tiny)

    def test_overflowing_weight_sum_stays_finite(self):
        # beta = 2e-308 per member: every 1/beta is finite but the six of
        # them sum past the largest double. The weights stay uniform.
        centers = np.arange(12.0).reshape(6, 2)
        gens = 1e-154 * np.eye(2)
        out = sm_diffusion_update([Zonotope(c, gens) for c in centers], 20)
        assert np.allclose(out.center, centers.mean(axis=0), rtol=1e-15,
                           atol=0)
        assert np.allclose(out.generators, np.hstack([gens / 6.0] * 6),
                           rtol=1e-15, atol=0)

    def test_matches_public_primitives(self, rng):
        # The diffusion kernel must stay in step with the public weight and
        # combination functions, point sets and mixed widths included.
        for widths in ((4, 4, 4), (3, 0, 6), (5, 2)):
            zs = [random_zonotope(rng, 2, e) if e else
                  Zonotope.point(rng.normal(size=2)) for e in widths]
            want = reduce(intersect_zonotopes(zs, optimal_diffusion_weights(zs)),
                          6)
            out = sm_diffusion_update(zs, 6)
            assert np.array_equal(out.center, want.center)
            assert np.array_equal(out.generators, want.generators)


class TestSmTimeUpdate:
    def test_identity_no_noise(self, rng):
        z = random_zonotope(rng, 2, 3)
        out = sm_time_update(z, np.eye(2), NO_NOISE)
        assert np.array_equal(out.center, z.center)
        assert np.array_equal(out.generators, z.generators)

    def test_noise_columns_appended(self, rng):
        z = random_zonotope(rng, 2, 3)
        out = sm_time_update(z, np.eye(2), 0.1 * np.eye(2))
        assert out.n_generators == 5
        assert np.array_equal(out.generators[:, 3:], 0.1 * np.eye(2))

    def test_rotation_maps_vertices(self):
        from zonodiff import vertices_2d
        z = Zonotope([0.0, 0.0], np.eye(2))
        out = sm_time_update(z, F_ROT, NO_NOISE)
        got = sorted(map(tuple, np.round(vertices_2d(out), 12)))
        exp = sorted(map(tuple, np.round((F_ROT @ vertices_2d(z).T).T, 12)))
        assert np.allclose(got, exp)


class TestLuenbergerUpdate:
    def test_point_prior_pure_propagation(self):
        state = NodeState(0, Zonotope.point([1.0, 0.0]))
        q_gens = 0.1 * np.eye(2)
        out = iv_luenberger_update(state, [Strip([1.0, 0.0], 5.0, 1.0)],
                                   F_ROT, q_gens, 20)
        assert np.allclose(out.center, F_ROT @ np.array([1.0, 0.0]))
        nonzero = out.generators[:, np.any(out.generators != 0.0, axis=0)]
        assert np.allclose(nonzero, q_gens)

    def test_one_dimensional_worked_case(self):
        # F = 1 reduces to the measurement-update numbers.
        state = NodeState(0, Zonotope([0.0], [[2.0]]))
        out = iv_luenberger_update(state, [Strip([1.0], 0.0, 1.0)],
                                   np.eye(1), np.zeros((1, 0)), 20)
        assert f_radius(out) == pytest.approx(np.sqrt(0.8))

    def test_one_step_containment(self, rng):
        # F x + n stays inside for consistent x and admissible noise n.
        q_gens = 0.05 * np.eye(2)
        for _ in range(30):
            z, strips, anchor = consistent_instance(rng)
            out = iv_luenberger_update(NodeState(0, z), strips, F_ROT,
                                       q_gens, 20)
            noise = q_gens @ rng.uniform(-1, 1, 2)
            assert contains_point(out, F_ROT @ anchor + noise, 1e-7)

    def test_zero_gain_matches_time_update(self, rng):
        # A point prior forces the gain to zero, so the output equals the
        # open-loop propagated set.
        state = NodeState(0, Zonotope.point([2.0, -1.0]))
        q_gens = 0.2 * np.eye(2)
        out = iv_luenberger_update(state, [Strip([0.0, 1.0], 0.0, 1.0)],
                                   F_ROT, q_gens, 20)
        ref = sm_time_update(state.estimate, F_ROT, q_gens)
        assert np.allclose(out.center, ref.center)
        got = out.generators[:, np.any(out.generators != 0.0, axis=0)]
        exp = ref.generators[:, np.any(ref.generators != 0.0, axis=0)]
        assert np.allclose(got, exp)

    def test_reduces_to_q(self, rng):
        z = random_zonotope(rng, 2, 30)
        out = iv_luenberger_update(NodeState(0, z),
                                   [Strip([1.0, 0.0], 0.0, 1.0)], F_ROT,
                                   0.1 * np.eye(2), 20)
        assert out.n_generators <= 20


class TestStep:
    """Full rounds: the local update on the delivered strips, then fusion
    with the delivered corrected sets."""

    def test_static_exact_measurement_shrinks(self, rng):
        # Static plant, no process noise: the F-radius can only shrink.
        cfg = ObserverConfig(kind="sm", q=20, diffusion_enabled=False)
        state = NodeState(0, Zonotope([0.0, 0.0], np.diag([5.0, 5.0])))
        truth = np.array([0.7, -0.3])
        radii = []
        for k in range(10):
            h = np.array([1.0, 0.0]) if k % 2 == 0 else np.array([0.0, 1.0])
            strip = Strip(h, float(h @ truth), 0.05)
            [state], _ = run_round(SINGLE, [state], [strip], cfg, np.eye(2),
                                   NO_NOISE)
            radii.append(f_radius(state.estimate))
            assert contains_point(state.estimate, truth, 1e-7)
        assert all(radii[i + 1] <= radii[i] + 1e-12 for i in range(len(radii) - 1))

    def test_identical_nodes_produce_identical_states(self, rng):
        z = random_zonotope(rng, 2, 4)
        strips = [Strip([1.0, 0.0], 0.4, 0.5), Strip([0.0, 1.0], -0.2, 0.5)]
        cfg = ObserverConfig(kind="sm", q=20, diffusion_enabled=True)
        states = [NodeState(i, z) for i in range(3)]
        # Every node's neighborhood lists all three nodes in the same order.
        complete = Topology(3, ((0, 1, 2),) * 3)
        outs, _ = run_round(complete, states, [strips[0], strips[1], strips[0]],
                            cfg, F_ROT, NO_NOISE)
        for other in outs[1:]:
            assert np.allclose(other.estimate.center, outs[0].estimate.center)
            assert np.allclose(other.estimate.generators,
                               outs[0].estimate.generators)

    def test_diffusion_disabled_keeps_own_set(self, rng):
        z = random_zonotope(rng, 2, 4)
        strips = [Strip([1.0, 0.0], 0.1, 0.5)]
        other = random_zonotope(rng, 2, 4)
        cfg_off = ObserverConfig(kind="sm", q=20, diffusion_enabled=False)
        state = NodeState(0, z)
        own = sm_measurement_update(state, strips)
        _, fused = fuse_update(state, own, [(0, own), (1, other)], cfg_off,
                               F_ROT, NO_NOISE)
        assert np.allclose(fused.center, own.center)

    def test_missing_own_entry_rejected(self, rng):
        z = random_zonotope(rng, 2, 4)
        cfg = ObserverConfig(kind="sm", q=20, diffusion_enabled=True)
        own = sm_measurement_update(NodeState(0, z), [Strip([1.0, 0.0], 0.0, 1.0)])
        with pytest.raises(ValueError):
            fuse_update(NodeState(0, z), own, [(1, z)], cfg, F_ROT, NO_NOISE)


# F values every entry point that takes the dynamics rejects.
BAD_F = {"1-d": np.ones(2), "2x3": np.ones((2, 3)), "0-d": np.array(1.0),
         "nan": np.array([[np.nan, 0.0], [0.0, 1.0]])}


class TestRoundInputChecks:
    """run_round checks its inputs once, before phase 1: no local update
    runs on malformed dynamics, mixed dimensions or a short budget."""

    @staticmethod
    def rejected_before_phase_1(monkeypatch, kind, states, f_matrix=F_ROT,
                                q=20):
        calls = []
        monkeypatch.setattr(network, "local_update",
                            lambda *args: calls.append(args))
        strips = [Strip([1.0, 0.0], 0.0, 1.0)] * len(states)
        topology = Topology(2, ((0, 1), (1, 0)))
        with pytest.raises(ValueError):
            run_round(topology, states, strips, ObserverConfig(kind=kind, q=q),
                      f_matrix, NO_NOISE)
        assert calls == []

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    @pytest.mark.parametrize("f_matrix", BAD_F.values(), ids=BAD_F.keys())
    def test_malformed_f(self, monkeypatch, kind, f_matrix):
        states = [NodeState(i, Zonotope([0.0, 0.0], np.eye(2)))
                  for i in range(2)]
        self.rejected_before_phase_1(monkeypatch, kind, states, f_matrix)

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    def test_mixed_dimensions(self, monkeypatch, kind):
        states = [NodeState(0, Zonotope([0.0, 0.0], np.eye(2))),
                  NodeState(1, Zonotope([0.0, 0.0, 0.0], np.eye(3)))]
        self.rejected_before_phase_1(monkeypatch, kind, states)

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    def test_q_below_dimension_rejected(self, monkeypatch, kind, rng):
        states = [NodeState(i, random_zonotope(rng, 2, 3)) for i in range(2)]
        self.rejected_before_phase_1(monkeypatch, kind, states, q=1)

    @pytest.mark.parametrize("f_matrix", BAD_F.values(), ids=BAD_F.keys())
    def test_per_node_updates_reject_malformed_f(self, f_matrix):
        z = Zonotope([0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError):
            sm_time_update(z, f_matrix, NO_NOISE)
        with pytest.raises(ValueError):
            iv_luenberger_update(NodeState(0, z), [Strip([1.0, 0.0], 0.0, 1.0)],
                                 f_matrix, NO_NOISE, 20)


class TestLocalUpdateChecks:
    """Phase 1 checks each corrected set once for finiteness and hands out
    read-only arrays, whether or not the Luenberger step reduces; a set the
    Luenberger step reduces is checked before ``reduce`` too."""

    @pytest.mark.parametrize("kind, q", [("sm", 20), ("iv", 40), ("iv", 4)])
    def test_sets_are_read_only(self, kind, q, rng):
        z, strips, _ = consistent_instance(rng)
        cfg = ObserverConfig(kind=kind, q=q)
        out = local_update(NodeState(0, z), stack_strips(strips, 2), cfg,
                           F_ROT, 0.1 * np.eye(2))
        reduced = kind == "iv" and out.n_generators < z.n_generators + 5
        assert reduced == (q == 4)
        for arr in (out.center, out.generators):
            assert not arr.flags.writeable and np.isfinite(arr).all()

    @pytest.mark.parametrize("kind, q", [("sm", 20), ("iv", 40), ("iv", 4)])
    def test_non_finite_set_rejected(self, kind, q, rng, monkeypatch):
        # One generator made infinite after the correction: every corrected
        # set is checked before it is returned or reduced.
        z, strips, _ = consistent_instance(rng)
        correct = observers.correct

        def broken(*args):
            center, gens = correct(*args)
            gens[0, 0] = np.inf
            return center, gens

        monkeypatch.setattr(observers, "correct", broken)
        cfg = ObserverConfig(kind=kind, q=q)
        with pytest.raises(ValueError, match="generators must contain only"):
            local_update(NodeState(0, z), stack_strips(strips, 2), cfg,
                         F_ROT, 0.1 * np.eye(2))

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    def test_overflowing_center_rejected(self, kind, rng):
        z, strips, _ = consistent_instance(rng)
        cfg = ObserverConfig(kind=kind, q=4)
        state = NodeState(0, Zonotope(1e308 * z.center, z.generators))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="center must contain only"):
                local_update(state, stack_strips(strips, 2), cfg,
                             8.0 * F_ROT, NO_NOISE)

    def test_non_finite_noise_rejected_once_per_round(self):
        states = [NodeState(i, Zonotope([0.0, 0.0], np.eye(2)))
                  for i in range(2)]
        strips = [Strip([1.0, 0.0], 0.0, 1.0)] * 2
        for kind in ("sm", "iv"):
            with pytest.raises(ValueError, match="process-noise generators"):
                run_round(Topology(2, ((0, 1), (1, 0))), states, strips,
                          ObserverConfig(kind=kind), F_ROT,
                          np.diag([np.nan, 1.0]))


class TestGuaranteedContainment:
    @pytest.mark.parametrize("kind", ["sm", "iv"])
    @pytest.mark.parametrize("diffusion", [True, False])
    def test_tracking_run(self, rng, kind, diffusion):
        # Single-node closed loop against a noisy plant: the truth must
        # never escape, and the estimate must track it.
        q_gens = 0.1 * np.eye(2)
        cfg = ObserverConfig(kind=kind, q=12, diffusion_enabled=diffusion)
        truth = np.array([3.0, -2.0])
        state = NodeState(0, Zonotope([0.0, 0.0], np.diag([10.0, 10.0])))
        assert contains_point(state.estimate, truth, 1e-7)
        for k in range(40):
            h = np.array([1.0, 0.0]) if k % 2 == 0 else np.array([0.0, 1.0])
            r = 0.5
            y = float(h @ truth) + r * rng.uniform(-1, 1)
            strip = Strip(h, y, r)
            if kind == "sm":
                # Estimate of the current state before propagating.
                corrected = sm_measurement_update(state, [strip])
                assert contains_point(corrected, truth, 1e-7)
            [state], _ = run_round(SINGLE, [state], [strip], cfg, F_ROT,
                                   q_gens)
            truth = F_ROT @ truth + q_gens @ rng.uniform(-1, 1, 2)
            if kind == "iv":
                assert contains_point(state.estimate, truth, 1e-7)

    def test_reduction_order_monotonicity_one_shot(self, rng):
        # For a single reduction, a larger budget gives a subset with a
        # smaller or equal F-radius.
        from zonodiff import interval_hull, reduce
        for _ in range(50):
            z = random_zonotope(rng, 2, int(rng.integers(10, 30)))
            prev = None
            for q in (2, 4, 8, 16):
                out = reduce(z, q)
                if prev is not None:
                    assert f_radius(out) <= f_radius(prev) + 1e-12
                    lo_p, up_p = interval_hull(prev)
                    lo_o, up_o = interval_hull(out)
                    assert np.all(lo_o >= lo_p - 1e-12)
                    assert np.all(up_o <= up_p + 1e-12)
                prev = out

    def test_reduction_order_monotonicity_run_mean(self, rng):
        # Along a full closed loop the ordering holds for the run-mean
        # F-radius (individual steps diverge once the gains differ).
        from zonodiff import paper_scenario, run_simulation, simulate
        model, presets = paper_scenario()
        traj = simulate(model, 40, seed=3)
        means = []
        for q in (8, 20, 40):
            cfg = ObserverConfig(kind="sm", q=q, diffusion_enabled=True)
            res = run_simulation(model, presets[4], cfg, traj)
            means.append(np.mean([[f_radius(z) for z in row]
                                  for row in res.estimates[5:]]))
        assert means[1] <= means[0] + 1e-9
        assert means[2] <= means[1] + 1e-9
