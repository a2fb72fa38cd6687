import numpy as np
import pytest

from zonodiff import (
    ObserverConfig,
    SimRecord,
    SimulationResult,
    Trajectory,
    Zonotope,
    bench_observer_updates,
    build_records,
    f_radius,
    hausdorff_2d,
    interval_hull,
    paper_scenario,
    run_simulation,
    simulate,
    summarize,
    time_op,
    vertices_2d,
)
from zonodiff.metrics import half_diagonal
from conftest import random_zonotope


def brute_force_hausdorff(va, vb):
    def directed(xs, ys):
        worst = 0.0
        for x in xs:
            best = min(float(np.linalg.norm(x - y)) for y in ys)
            worst = max(worst, best)
        return worst
    return max(directed(va, vb), directed(vb, va))


class TestRadius:
    def test_initial_box_frobenius(self):
        z = Zonotope([0.0, 0.0], np.diag([80.0, 80.0]))
        assert f_radius(z) == pytest.approx(np.sqrt(2) * 80.0)
        assert f_radius(z) == pytest.approx(113.137, abs=1e-3)

    def test_point(self):
        assert f_radius(Zonotope.point([1.0, 1.0])) == 0.0

    def test_matches_f_radius(self, rng):
        # The records carry the F-radius.
        z = random_zonotope(rng, 2, 7)
        traj = Trajectory(np.zeros((2, 2)), np.zeros((1, 1)))
        [rec] = build_records(SimulationResult([[z]], [[0.0]]), traj)
        assert rec.radius == f_radius(z)

    def test_half_diagonal(self):
        z = Zonotope([0.0, 0.0], np.diag([3.0, 4.0]))
        assert half_diagonal(*interval_hull(z)) == pytest.approx(5.0)


class TestHausdorff:
    def test_identical_sets(self, rng):
        z = random_zonotope(rng, 2, 4)
        assert hausdorff_2d(z, z) == 0.0

    def test_offset_boxes(self):
        a = Zonotope([0.0, 0.0], np.eye(2))
        b = Zonotope([0.7, 0.0], np.eye(2))
        assert hausdorff_2d(a, b) == pytest.approx(0.7)

    def test_symmetry_and_triangle(self, rng):
        zs = [random_zonotope(rng, 2, 4) for _ in range(3)]
        d01 = hausdorff_2d(zs[0], zs[1])
        d10 = hausdorff_2d(zs[1], zs[0])
        assert d01 == pytest.approx(d10)
        d02 = hausdorff_2d(zs[0], zs[2])
        d12 = hausdorff_2d(zs[1], zs[2])
        assert d02 <= d01 + d12 + 1e-12

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            a = random_zonotope(rng, 2, int(rng.integers(1, 6)))
            b = random_zonotope(rng, 2, int(rng.integers(1, 6)))
            expected = brute_force_hausdorff(vertices_2d(a), vertices_2d(b))
            assert hausdorff_2d(a, b) == pytest.approx(expected, abs=1e-12)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ValueError):
            hausdorff_2d(random_zonotope(rng, 3, 3), random_zonotope(rng, 3, 3))


class TestRecordsAndSummaries:
    def make_run(self, steps=20, kind="sm"):
        model, presets = paper_scenario()
        traj = simulate(model, steps, seed=5)
        cfg = ObserverConfig(kind=kind, q=20, diffusion_enabled=True)
        res = run_simulation(model, presets[4], cfg, traj)
        return res, traj

    def test_record_fields(self):
        res, traj = self.make_run()
        records = build_records(res, traj)
        assert len(records) == 20 * 8
        for rec in records[:20]:
            assert rec.radius >= 0.0
            assert rec.center_error >= 0.0
            assert np.all(rec.lower <= rec.upper)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            SimRecord(0, 0, -1.0, 0.0, np.zeros(2), np.ones(2), 0.0)
        with pytest.raises(ValueError):
            SimRecord(0, 0, 1.0, 0.0, np.ones(2), np.zeros(2), 0.0)

    def test_summarize_constant_records_zero_std(self):
        records = [SimRecord(s, n, 2.0, 1.0, np.zeros(2), np.ones(2), 0.0)
                   for s in range(8) for n in range(3)]
        steps, run = summarize(records, burn_in=2)
        assert all(s.radius_std == 0.0 for s in steps)
        assert run.radius_mean == 2.0 and run.radius_std == 0.0
        assert run.hausdorff_mean is None

    def test_two_record_hand_stats(self):
        # Textbook population mean/std of {1, 3}: mean 2, std 1.
        records = [SimRecord(0, 0, 1.0, 1.0, np.zeros(2), np.ones(2), 0.0),
                   SimRecord(0, 1, 3.0, 3.0, np.zeros(2), np.ones(2), 0.0)]
        steps, run = summarize(records, burn_in=0)
        assert steps[0].radius_mean == 2.0
        assert steps[0].radius_std == 1.0
        assert run.center_error_mean == 2.0

    def test_half_diagonal_hand_stats(self):
        # Boxes with half diagonals 1 and 3: mean 2, std 1; the burn-in step
        # (half diagonal 5) is left out.
        records = [SimRecord(s, 0, 1.0, 1.0, np.zeros(2), np.array(up), 0.0)
                   for s, up in [(0, [6.0, 8.0]), (1, [2.0, 0.0]),
                                 (2, [0.0, 6.0])]]
        _, run = summarize(records, burn_in=1)
        assert run.half_diagonal_mean == 2.0
        assert run.half_diagonal_std == 1.0

    def test_single_node_hausdorff_undefined(self):
        records = [SimRecord(s, 0, 1.0, 1.0, np.zeros(2), np.ones(2), 0.0)
                   for s in range(6)]
        estimates = [[Zonotope([0.0, 0.0], np.eye(2))] for _ in range(6)]
        steps, run = summarize(records, estimates, burn_in=0)
        assert all(s.hausdorff_mean is None for s in steps)
        assert run.hausdorff_mean is None

    def test_summarize_with_estimates(self):
        res, traj = self.make_run()
        records = build_records(res, traj)
        steps, run = summarize(records, res.estimates, burn_in=5)
        assert len(steps) == 20
        assert run.hausdorff_mean is not None and run.hausdorff_mean >= 0.0
        assert run.burn_in == 5

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_node_permutation_invariance(self):
        res, traj = self.make_run()
        records = build_records(res, traj)
        _, run = summarize(records, res.estimates, burn_in=5)
        perm = np.random.default_rng(0).permutation(8)
        shuffled = [SimRecord(r.step, int(perm[r.node_id]), r.radius,
                              r.center_error, r.lower, r.upper, r.step_time_us)
                    for r in records]
        est_perm = [[row[j] for j in np.argsort(perm)] for row in res.estimates]
        _, run2 = summarize(shuffled, est_perm, burn_in=5)
        assert run2.radius_mean == pytest.approx(run.radius_mean)
        assert run2.hausdorff_mean == pytest.approx(run.hausdorff_mean)


class TestTiming:
    def test_single_repetition_positive(self):
        out = time_op(lambda x: x + 1, [(1,)], 1)
        assert np.isfinite(out) and out > 0.0

    def test_repetition_validation(self):
        with pytest.raises(ValueError):
            time_op(lambda: None, [()], 0)

    def test_bench_table_shape(self):
        table = bench_observer_updates(repetitions=30, k_values=(2, 4), seed=1)
        assert sorted(table) == ["diffusion", "luenberger", "measurement",
                                 "time"]
        for per_k in table.values():
            assert sorted(per_k) == [2, 4]
            assert all(v > 0.0 and np.isfinite(v) for v in per_k.values())
