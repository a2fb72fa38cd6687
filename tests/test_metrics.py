import numpy as np
import pytest

from collections import Counter
from itertools import combinations

from zonodiff import (
    ObserverConfig,
    Records,
    SimulationResult,
    SystemModel,
    Topology,
    Trajectory,
    Zonotope,
    bench_observer_updates,
    build_records,
    f_radius,
    hausdorff_2d,
    interval_hull,
    paper_scenario,
    ring_topology,
    run_simulation,
    simulate,
    summarize,
    time_op,
    vertices_2d,
)
from zonodiff import metrics
from zonodiff.metrics import half_diagonal
from conftest import random_zonotope


def make_records(radius, center_error, lower, upper):
    """Records from hand-written ``(steps, nodes)`` and ``(steps, nodes, n)``
    values, with zero step times."""
    radius = np.asarray(radius, dtype=float)
    return Records(radius, np.asarray(center_error, dtype=float),
                   np.asarray(lower, dtype=float),
                   np.asarray(upper, dtype=float), np.zeros_like(radius))


def constant_records(steps, nodes, radius, center_error):
    return make_records(np.full((steps, nodes), radius),
                        np.full((steps, nodes), center_error),
                        np.zeros((steps, nodes, 2)), np.ones((steps, nodes, 2)))


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
        records = build_records(SimulationResult([[z]], [[0.0]]), traj)
        assert records.radius.shape == (1, 1)
        assert records.radius[0, 0] == f_radius(z)

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

    def test_step_reduction_matches_per_pair(self, rng):
        # Vertex counts from 1 (a point) to 40 differ across the pairs, so
        # every matrix is padded in rows or columns or both; each value
        # equals its pair reduced alone.
        for _ in range(10):
            zs = [random_zonotope(rng, 2, int(e))
                  for e in rng.integers(0, 21, size=8)]
            verts = [vertices_2d(z) for z in zs]
            assert len({len(v) for v in verts}) > 2
            pairs = list(combinations(range(8), 2))
            got = metrics._pairs_hausdorff(verts, pairs)
            want = [hausdorff_2d(zs[a], zs[b]) for a, b in pairs]
            assert got.tolist() == want


class TestLeanNorm:
    def test_matches_numpy_norm(self, rng):
        # Bit for bit on C-ordered, Fortran-ordered, strided and empty
        # arrays, and through the metrics that use it.
        base = rng.normal(size=(6, 9)) * np.exp(rng.normal(size=(6, 9)) * 5)
        for x in (base, np.asfortranarray(base), base[::2, 1::3], base.T,
                  base[0], base[:, 4], np.zeros((2, 0))):
            assert metrics._norm(x) == np.linalg.norm(x)
        z = Zonotope([0.0, 0.0], np.asfortranarray(base[:2]))
        assert f_radius(z) == float(np.linalg.norm(z.generators))
        lower, upper = interval_hull(z)
        assert half_diagonal(lower, upper) == 0.5 * float(
            np.linalg.norm(upper - lower))


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
        assert records.radius.shape == records.center_error.shape == (20, 8)
        assert records.lower.shape == records.upper.shape == (20, 8, 2)
        assert records.step_time_us.shape == (20, 8)
        assert np.all(records.radius >= 0.0)
        assert np.all(records.center_error >= 0.0)
        assert np.all(records.lower <= records.upper)

    def test_summarize_constant_records_zero_std(self):
        steps, run = summarize(constant_records(8, 3, 2.0, 1.0), burn_in=2)
        assert np.all(steps.radius_std == 0.0)
        assert run.radius_mean == 2.0 and run.radius_std == 0.0
        assert run.hausdorff_mean is None

    def test_two_record_hand_stats(self):
        # Textbook population mean/std of {1, 3}: mean 2, std 1.
        records = make_records([[1.0, 3.0]], [[1.0, 3.0]], np.zeros((1, 2, 2)),
                               np.ones((1, 2, 2)))
        steps, run = summarize(records, burn_in=0)
        assert steps.radius_mean[0] == 2.0
        assert steps.radius_std[0] == 1.0
        assert run.center_error_mean == 2.0

    def test_half_diagonal_hand_stats(self):
        # Boxes with half diagonals 1 and 3: mean 2, std 1; the burn-in step
        # (half diagonal 5) is left out.
        upper = [[[6.0, 8.0]], [[2.0, 0.0]], [[0.0, 6.0]]]
        records = make_records(np.ones((3, 1)), np.ones((3, 1)),
                               np.zeros((3, 1, 2)), upper)
        _, run = summarize(records, burn_in=1)
        assert run.half_diagonal_mean == 2.0
        assert run.half_diagonal_std == 1.0

    def test_single_node_hausdorff_undefined(self):
        estimates = [[Zonotope([0.0, 0.0], np.eye(2))] for _ in range(6)]
        steps, run = summarize(constant_records(6, 1, 1.0, 1.0), estimates,
                               burn_in=0)
        assert steps.hausdorff_mean is None and steps.hausdorff_std is None
        assert run.hausdorff_mean is None

    def test_summarize_with_estimates(self):
        res, traj = self.make_run()
        records = build_records(res, traj)
        steps, run = summarize(records, res.estimates, burn_in=5)
        assert steps.radius_mean.shape == steps.hausdorff_mean.shape == (20,)
        assert run.hausdorff_mean is not None and run.hausdorff_mean >= 0.0
        assert run.burn_in == 5

    def test_build_records_rejects_empty_result(self):
        traj = Trajectory(np.zeros((1, 2)), np.zeros((0, 1)))
        with pytest.raises(ValueError, match="no records to summarize"):
            build_records(SimulationResult([], []), traj)

    def test_summarize_enumerates_vertices_in_one_pass(self, monkeypatch):
        # One stacked vertex pass over all node-steps, no per-set call, and
        # one distance matrix per node pair per step.
        res, traj = self.make_run(steps=40)
        records = build_records(res, traj)
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("_vertices_stack", "cdist"):
            monkeypatch.setattr(metrics, name,
                                counted(name, getattr(metrics, name)))
        summarize(records, res.estimates, burn_in=5)
        assert calls == {"_vertices_stack": 1, "cdist": 40 * 28}

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            summarize(constant_records(0, 3, 1.0, 1.0))

    def test_burn_in_covering_every_step_rejected(self):
        with pytest.raises(ValueError, match="burn-in"):
            summarize(constant_records(5, 3, 1.0, 1.0), burn_in=5)

    def test_node_permutation_invariance(self):
        res, traj = self.make_run()
        records = build_records(res, traj)
        _, run = summarize(records, res.estimates, burn_in=5)
        perm = np.random.default_rng(0).permutation(8)
        inverse = np.argsort(perm)  # column perm[i] holds node i
        shuffled = Records(records.radius[:, inverse],
                           records.center_error[:, inverse],
                           records.lower[:, inverse], records.upper[:, inverse],
                           records.step_time_us[:, inverse])
        est_perm = [[row[j] for j in inverse] for row in res.estimates]
        _, run2 = summarize(shuffled, est_perm, burn_in=5)
        assert run2.radius_mean == pytest.approx(run.radius_mean)
        assert run2.hausdorff_mean == pytest.approx(run.hausdorff_mean)


IRREGULAR = ((0, 1, 2, 3), (1, 0), (2, 0, 3), (3, 0, 2, 4), (4, 3, 5),
             (5, 4, 6, 7), (6, 5), (7, 5))


def irregular_2d_run():
    # Neighborhoods of 2 to 4 nodes and q = 40 keep the nodes' generator
    # counts apart for several steps.
    model, _ = paper_scenario()
    return model, Topology(8, IRREGULAR), 40


def ring_4d_run():
    # Constant-velocity target: the nodes measure the two position axes.
    rows = (np.eye(4)[0], np.eye(4)[1])
    model = SystemModel(
        f_matrix=[[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                  [0.0, 0.0, 0.98, 0.0], [0.0, 0.0, 0.0, 0.98]],
        q_generators=np.diag([0.5, 0.5, 0.3, 0.3]),
        schedule=lambda node, step: (rows[(node + step) % 2], 8.0),
        initial_set=Zonotope(np.zeros(4), np.diag([80.0, 80.0, 10.0, 10.0])),
        true_initial_state=[5.0, -3.0, 1.0, 0.5], n_nodes=8)
    return model, ring_topology(8, 4), 20


@pytest.mark.parametrize("kind", ["sm", "iv"])
@pytest.mark.parametrize("case", [irregular_2d_run, ring_4d_run],
                         ids=["irregular-2d", "ring-4d"])
def test_records_and_steps_match_per_estimate_metrics(case, kind):
    model, topology, q = case()
    traj = simulate(model, 12, seed=4)
    res = run_simulation(model, topology,
                         ObserverConfig(kind=kind, q=q, diffusion_enabled=True),
                         traj)
    ests = res.estimates
    records = build_records(res, traj)
    hulls = [[interval_hull(z) for z in row] for row in ests]
    assert np.array_equal(records.radius,
                          [[f_radius(z) for z in row] for row in ests])
    assert np.array_equal(records.center_error,
                          [[np.linalg.norm(z.center - traj.states[k])
                            for z in row] for k, row in enumerate(ests)])
    assert np.array_equal(records.lower, [[lo for lo, _ in row] for row in hulls])
    assert np.array_equal(records.upper, [[up for _, up in row] for row in hulls])
    assert np.array_equal(records.step_time_us, res.times_us)
    if model.f_matrix.shape[0] == 2:
        counts = {z.n_generators for row in ests[1:4] for z in row}
        assert len(counts) > 1  # the case does mix generator counts

    steps, run = summarize(records, ests, burn_in=2)
    for name in ("radius", "center_error"):
        values = getattr(records, name)
        assert np.array_equal(getattr(steps, f"{name}_mean"),
                              [np.mean(row) for row in values])
        assert np.array_equal(getattr(steps, f"{name}_std"),
                              [np.std(row) for row in values])
    if model.f_matrix.shape[0] == 2:
        pairs = [[hausdorff_2d(a, b) for a, b in combinations(row, 2)]
                 for row in ests]
        assert np.array_equal(steps.hausdorff_mean, [np.mean(p) for p in pairs])
        assert np.array_equal(steps.hausdorff_std, [np.std(p) for p in pairs])
        assert run.hausdorff_mean == np.mean(pairs[2:])
    else:
        assert steps.hausdorff_mean is None and steps.hausdorff_std is None
        assert run.hausdorff_mean is None and run.hausdorff_std is None
    assert run.radius_mean == np.mean(records.radius[2:])
    assert run.center_error_std == np.std(records.center_error[2:])


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
