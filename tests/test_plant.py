import numpy as np
import pytest

from zonodiff import (
    SystemModel,
    Zonotope,
    contains_point,
    paper_scenario,
    sample_in_zonotope,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
)
from zonodiff.plant import Trajectory, alternating_schedule


class TestSampleInZonotope:
    def test_point_set(self, rng):
        z = Zonotope.point([1.0, -2.0])
        for _ in range(5):
            assert np.array_equal(sample_in_zonotope(z, rng), [1.0, -2.0])

    def test_unit_box_statistics(self, rng):
        z = Zonotope([0.0, 0.0], np.eye(2))
        pts = np.array([sample_in_zonotope(z, rng) for _ in range(100_000)])
        assert np.all(pts.max(axis=0) > 0.99)
        assert np.all(pts.min(axis=0) < -0.99)
        assert np.all(np.abs(pts) <= 1.0)

    def test_samples_are_members(self, rng):
        z = Zonotope(rng.normal(size=2), rng.normal(size=(2, 5)))
        for _ in range(100):
            assert contains_point(z, sample_in_zonotope(z, rng), 1e-9)


def make_model(f_matrix=None, q_generators=None, true_initial_state=None):
    return SystemModel(
        f_matrix=np.eye(2) if f_matrix is None else f_matrix,
        q_generators=np.eye(2) if q_generators is None else q_generators,
        schedule=alternating_schedule(1.0),
        initial_set=Zonotope([0.0, 0.0], np.eye(2)),
        true_initial_state=(np.zeros(2) if true_initial_state is None
                            else true_initial_state),
        n_nodes=4,
    )


class TestSystemModel:
    def test_copies_caller_arrays(self):
        f, q, x0 = np.eye(2), np.eye(2), np.zeros(2)
        model = make_model(f, q, x0)
        f[0, 0] = q[0, 0] = x0[0] = 0.5
        assert model.f_matrix[0, 0] == model.q_generators[0, 0] == 1.0
        assert model.true_initial_state[0] == 0.0
        with pytest.raises(ValueError):
            model.f_matrix[0, 0] = 0.5

    @pytest.mark.parametrize("q_generators", [
        np.ones(2), np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.array([[np.inf], [0.0]])], ids=["1-d", "nan", "inf"])
    def test_rejects_bad_process_noise(self, q_generators):
        with pytest.raises(ValueError):
            make_model(q_generators=q_generators)

    def test_rejects_initial_state_outside_set(self):
        with pytest.raises(ValueError):
            SystemModel(
                f_matrix=np.eye(2),
                q_generators=np.zeros((2, 0)),
                schedule=alternating_schedule(1.0),
                initial_set=Zonotope([0.0, 0.0], np.eye(2)),
                true_initial_state=[5.0, 0.0],
                n_nodes=4,
            )

    def test_strip_for(self):
        model, _ = paper_scenario()
        strip = model.strip_for(0, 0, 3.5)
        assert strip.y == 3.5
        assert strip.r == 8.0


class TestSimulate:
    def test_single_step_has_one_transition(self):
        model, _ = paper_scenario()
        traj = simulate(model, 1, seed=0)
        assert traj.states.shape == (2, 2)
        assert traj.measurements.shape == (1, 8)

    def test_noise_free_rotation_norm_ratio(self):
        model, _ = paper_scenario(process_noise=0.0, measurement_noise=1.0,
                                  true_initial_state=[60.0, 20.0])
        traj = simulate(model, 50, seed=0)
        # Spectral radius of the rotation: sqrt(0.992^2 + 0.1247^2).
        rho = np.sqrt(0.992 ** 2 + 0.1247 ** 2)
        norms = np.linalg.norm(traj.states, axis=1)
        ratios = norms[1:] / norms[:-1]
        assert np.allclose(ratios, rho, atol=1e-12)

    def test_schedule_alternates_per_node(self):
        model, _ = paper_scenario()
        for node in range(8):
            h0, _ = model.schedule(node, 0)
            h1, _ = model.schedule(node, 1)
            h2, _ = model.schedule(node, 2)
            assert not np.array_equal(h0, h1)
            assert np.array_equal(h0, h2)
            assert {tuple(h0), tuple(h1)} == {(1.0, 0.0), (0.0, 1.0)}

    def test_trajectory_invariants(self):
        # Postconditions hold independently of the sampler internals.
        model, _ = paper_scenario()
        traj = simulate(model, 60, seed=4)
        hull_spread = np.abs(model.q_generators).sum(axis=1)
        for k in range(60):
            step_noise = traj.states[k + 1] - model.f_matrix @ traj.states[k]
            assert np.all(np.abs(step_noise) <= hull_spread + 1e-12)
            for i in range(8):
                h, r = model.schedule(i, k)
                assert abs(h @ traj.states[k] - traj.measurements[k, i]) <= r + 1e-12

    def test_determinism_per_seed(self):
        model, _ = paper_scenario()
        a = simulate(model, 20, seed=7)
        b = simulate(model, 20, seed=7)
        c = simulate(model, 20, seed=8)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.measurements, b.measurements)
        assert not np.array_equal(a.states, c.states)


class TestPaperScenario:
    def test_initial_set_spans_160m(self):
        model, _ = paper_scenario()
        from zonodiff import interval_hull
        lower, upper = interval_hull(model.initial_set)
        assert np.allclose(upper - lower, [160.0, 160.0])

    def test_state_matrix(self):
        model, _ = paper_scenario()
        assert np.array_equal(model.f_matrix,
                              [[0.992, -0.1247], [0.1247, 0.992]])

    def test_initial_state_in_set(self):
        model, _ = paper_scenario()
        assert contains_point(model.initial_set, model.true_initial_state, 1e-9)

    def test_presets(self):
        _, presets = paper_scenario()
        assert sorted(presets) == [2, 4, 6]
        assert all(p.n_nodes == 8 for p in presets.values())


class TestTrajectoryCsv:
    def test_round_trip_lossless(self):
        model, _ = paper_scenario()
        traj = simulate(model, 15, seed=11)
        back = trajectory_from_csv(trajectory_to_csv(traj))
        assert np.array_equal(back.states, traj.states)
        assert np.array_equal(back.measurements, traj.measurements)

    def test_copies_caller_arrays(self):
        states, measurements = np.zeros((3, 2)), np.zeros((2, 4))
        traj = Trajectory(states, measurements)
        states[0, 0] = measurements[0, 0] = 1.0
        assert traj.states[0, 0] == traj.measurements[0, 0] == 0.0
        with pytest.raises(ValueError):
            traj.states[0, 0] = 1.0

    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 2)), np.zeros((3, 4)))
