"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion. The criteria are property-based (guaranteed containment,
soundness, closed-form optimality) plus directional trend reproduction of
the evaluation tables; exact table values depend on unpublished noise
data and are out of scope.
"""

import time

import numpy as np
import pytest
from scipy.optimize import minimize

from zonodiff import (
    ObserverConfig,
    Strip,
    Zonotope,
    bench_observer_updates,
    build_records,
    contains_point,
    f_radius,
    intersect_strips,
    intersect_zonotopes,
    interval_hull,
    optimal_diffusion_weights,
    paper_scenario,
    run_simulation,
    simulate,
    summarize,
)
from zonodiff.cli import main
from zonodiff.intersection import frobenius_optimal_gain
from zonodiff.bench import BENCH_OPS
from zonodiff.metrics import half_diagonal
from conftest import certified_member

CONTAINMENT_TOL = 1e-7
TOPOLOGY_KS = (2, 4, 6)
ALGORITHMS = ("sm", "iv")
TREND_SEEDS = (0, 1, 2, 3, 4)
TREND_STEPS = 200


def _passed(line):
    print(f"\n[PASS] {line}")


# ---------------------------------------------------------------------------
# Shared 5-seed experiment grid for the trend criteria (5 and 6).
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trend_grid():
    model, presets = paper_scenario()
    trajectories = {seed: simulate(model, TREND_STEPS, seed=seed)
                    for seed in TREND_SEEDS}
    grid = {}
    for alg in ALGORITHMS:
        for k in TOPOLOGY_KS:
            for diffusion in (True, False):
                hs, ces, rads = [], [], []
                for seed in TREND_SEEDS:
                    cfg = ObserverConfig(kind=alg, q=20,
                                         diffusion_enabled=diffusion)
                    res = run_simulation(model, presets[k], cfg,
                                         trajectories[seed])
                    records = build_records(res, trajectories[seed])
                    _, run = summarize(records, res.estimates, burn_in=5)
                    hs.append(run.hausdorff_mean)
                    ces.append(run.center_error_mean)
                    tail = [z for s, row in enumerate(res.estimates)
                            if s >= 5 for z in row]
                    rads.append(np.mean([half_diagonal(*interval_hull(z))
                                         for z in tail]))
                grid[(alg, k, diffusion)] = {
                    "hausdorff": float(np.mean(hs)),
                    "center_err": float(np.mean(ces)),
                    "radius": float(np.mean(rads)),
                }
    return grid


# ---------------------------------------------------------------------------
# Criterion 1: guaranteed containment.
# ---------------------------------------------------------------------------

def test_criterion_1_containment_guarantee():
    """>= 20 seeded runs x 8 nodes x 200 steps, both algorithms, all three
    topologies: the true state is in every estimate at tol 1e-7. < 1 min."""
    model, presets = paper_scenario()
    seeds = (10, 11, 12, 13)
    start = time.perf_counter()
    runs = 0
    violations = 0
    for seed in seeds:
        traj = simulate(model, 200, seed=seed)
        for alg in ALGORITHMS:
            for k in TOPOLOGY_KS:
                cfg = ObserverConfig(kind=alg, q=20, diffusion_enabled=True)
                res = run_simulation(model, presets[k], cfg, traj)
                runs += 1
                for s, row in enumerate(res.estimates):
                    for est in row:
                        if not contains_point(est, traj.states[s],
                                              CONTAINMENT_TOL):
                            violations += 1
    elapsed = time.perf_counter() - start
    assert runs >= 20
    assert violations == 0
    assert elapsed < 60.0
    _passed(f"criterion 1: containment held in {runs} runs x 200 steps x 8 "
            f"nodes, 0 violations at tol {CONTAINMENT_TOL}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 2: intersection soundness.
# ---------------------------------------------------------------------------

def _random_strip_instance(rng, dim):
    gens = rng.normal(size=(dim, int(rng.integers(dim, dim + 4))))
    center = rng.normal(size=dim)
    z = Zonotope(center, gens)
    anchor = center + gens @ rng.uniform(-0.8, 0.8, gens.shape[1])
    strips = []
    for _ in range(int(rng.integers(1, 4))):
        h = rng.normal(size=dim)
        while not np.any(h):
            h = rng.normal(size=dim)
        r = rng.uniform(0.1, 1.5)
        strips.append(Strip(h, float(h @ anchor) + r * rng.uniform(-0.5, 0.5),
                            r))
    return z, strips, anchor


def test_criterion_2_intersection_soundness():
    """10^3 randomized instances each for the strip and the zonotope
    intersections; every rejection-sampled true-intersection point is a
    member. Zero failures."""
    rng = np.random.default_rng(2024)
    checked_strip = 0
    for i in range(1000):
        dim = 1 + i % 3
        z, strips, anchor = _random_strip_instance(rng, dim)
        lam, _ = frobenius_optimal_gain(z.generators,
                                        np.vstack([s.h for s in strips]),
                                        np.array([s.r for s in strips]))
        out = intersect_strips(z, strips, lam)
        betas = rng.uniform(-1, 1, (200, z.n_generators))
        pts = z.center + betas @ z.generators.T
        kept = [p for p in pts if all(s.contains(p) for s in strips)][:6]
        kept.append(anchor)
        for p in kept:
            assert contains_point(out, p, CONTAINMENT_TOL), \
                f"strip instance {i}: member escaped"
            checked_strip += 1

    checked_diff = 0
    for i in range(1000):
        dim = 1 + i % 3
        m = int(rng.integers(2, 5))
        anchor = rng.normal(size=dim)
        zs = []
        for _ in range(m):
            gens = rng.normal(size=(dim, int(rng.integers(dim, dim + 3))))
            beta = rng.uniform(-0.8, 0.8, gens.shape[1])
            zs.append(Zonotope(anchor - gens @ beta, gens))
        out = intersect_zonotopes(zs, optimal_diffusion_weights(zs))
        betas = rng.uniform(-1, 1, (200, zs[0].n_generators))
        pts = zs[0].center + betas @ zs[0].generators.T
        kept = [p for p in pts
                if all(certified_member(z, p) for z in zs[1:])][:6]
        kept.append(anchor)
        for p in kept:
            assert contains_point(out, p, CONTAINMENT_TOL), \
                f"diffusion instance {i}: member escaped"
            checked_diff += 1
    _passed(f"criterion 2: soundness on 1000 + 1000 instances "
            f"({checked_strip} + {checked_diff} member points), 0 failures")


# ---------------------------------------------------------------------------
# Criterion 3: closed-form optimality.
# ---------------------------------------------------------------------------

def _gain_objective(z, strips, front):
    gamma = np.vstack([s.h for s in strips])
    r = np.array([s.r for s in strips])
    gens = z.generators

    def cost(lam):
        cols = np.hstack([(front - lam @ gamma) @ gens, lam * r[None, :]])
        return float(np.sum(cols ** 2))

    return cost


def _check_gain_solver(rng, front_factory, n_instances):
    draw_wins = 0
    for _ in range(n_instances):
        dim = int(rng.integers(1, 4))
        z, strips, _ = _random_strip_instance(rng, dim)
        front = front_factory(dim)
        gamma = np.vstack([s.h for s in strips])
        r = np.array([s.r for s in strips])
        lam, _ = frobenius_optimal_gain(z.generators, gamma, r, front=front)
        cost = _gain_objective(z, strips, front)
        f_cf = cost(lam)

        # 200 random parameter draws never beat the closed form.
        scale = 1.0 + np.abs(lam).max()
        ok = all(f_cf <= cost(lam + rng.normal(size=lam.shape) * scale) + 1e-12
                 for _ in range(200))
        if ok:
            draw_wins += 1

        # Independent numerical minimizer agrees within 1e-6 relative.
        flat_cost = lambda v: cost(v.reshape(lam.shape))
        best = None
        for x0 in (np.zeros(lam.size), rng.normal(size=lam.size)):
            res = minimize(flat_cost, x0, method="L-BFGS-B",
                           options={"gtol": 1e-12, "ftol": 1e-16,
                                    "maxiter": 2000})
            best = res.fun if best is None else min(best, res.fun)
        assert abs(f_cf - best) <= 1e-6 * (1.0 + best)

        # Finite-difference gradient vanishes at the closed form.
        eps = 1e-6
        grad = np.zeros(lam.size)
        flat = lam.ravel()
        for j in range(lam.size):
            d = np.zeros(lam.size)
            d[j] = eps
            grad[j] = (flat_cost(flat + d) - flat_cost(flat - d)) / (2 * eps)
        assert np.abs(grad).max() < 1e-5 * (1.0 + f_cf)
    return draw_wins


def test_criterion_3_closed_form_optimality():
    """Both gain solvers and the diffusion weights beat or tie 200 random
    draws in 100% of 500 instances, match a numerical minimizer within 1e-6
    relative, and have vanishing finite-difference gradients."""
    rng = np.random.default_rng(77)
    rot = np.array([[0.992, -0.1247], [0.1247, 0.992]])

    def identity_front(dim):
        return np.eye(dim)

    def dynamic_front(dim):
        if dim == 2:
            return rot
        return np.eye(dim) + 0.2 * rng.normal(size=(dim, dim))

    wins_strip = _check_gain_solver(rng, identity_front, 500)
    assert wins_strip == 500
    wins_luen = _check_gain_solver(rng, dynamic_front, 500)
    assert wins_luen == 500

    wins_w = 0
    for _ in range(500):
        m = int(rng.integers(2, 6))
        zs = [Zonotope(rng.normal(size=2),
                       rng.normal(size=(2, int(rng.integers(1, 6)))))
              for _ in range(m)]
        beta = np.array([f_radius(z) ** 2 for z in zs])
        w_star = optimal_diffusion_weights(zs)
        f_cf = float(np.sum(beta * w_star ** 2))

        ok = True
        for _ in range(200):
            raw = rng.uniform(0.01, 1.0, m)
            w = raw / raw.sum()
            if f_cf > float(np.sum(beta * w ** 2)) + 1e-12:
                ok = False
                break
        wins_w += ok

        def free_cost(v):
            w = np.append(v, 1.0 - v.sum())
            return float(np.sum(beta * w ** 2))

        res = minimize(free_cost, np.full(m - 1, 1.0 / m), method="L-BFGS-B",
                       options={"gtol": 1e-12, "ftol": 1e-16})
        assert abs(f_cf - res.fun) <= 1e-6 * (1.0 + res.fun)

        # Projected finite-difference gradient on the simplex constraint.
        eps = 1e-7
        grad = np.zeros(m)
        for j in range(m):
            d = np.zeros(m)
            d[j] = eps
            grad[j] = (np.sum(beta * (w_star + d) ** 2)
                       - np.sum(beta * (w_star - d) ** 2)) / (2 * eps)
        grad -= grad.mean()
        assert np.abs(grad).max() < 1e-5 * (1.0 + f_cf)
    assert wins_w == 500
    _passed("criterion 3: closed forms beat/tie 200 draws in 500/500 "
            "instances per solver and match numerical minimizers to 1e-6")


# ---------------------------------------------------------------------------
# Criterion 4: diffusion weight identity.
# ---------------------------------------------------------------------------

def test_criterion_4_weight_identity():
    """||G(w*)||_F^2 equals 1/(sum_r 1/beta_r) within 1e-9 relative, and is
    therefore never above the tightest input."""
    rng = np.random.default_rng(4)
    for _ in range(300):
        m = int(rng.integers(2, 6))
        zs = [Zonotope(rng.normal(size=2),
                       rng.normal(size=(2, int(rng.integers(1, 7)))))
              for _ in range(m)]
        beta = np.array([f_radius(z) ** 2 for z in zs])
        out = intersect_zonotopes(zs, optimal_diffusion_weights(zs))
        expected = 1.0 / np.sum(1.0 / beta)
        got = f_radius(out) ** 2
        assert abs(got - expected) <= 1e-9 * expected
        assert got <= beta.min() * (1.0 + 1e-12)
    _passed("criterion 4: ||G(w*)||_F^2 = 1/(sum 1/beta) to 1e-9 relative "
            "on 300 instances; diffusion never exceeds the tightest input")


# ---------------------------------------------------------------------------
# Criteria 5 and 6: trend reproduction.
# ---------------------------------------------------------------------------

def test_criterion_5_diffusion_trend(trend_grid):
    """Diffusion beats the ablation on run-mean Hausdorff and center error
    in >= 10 of 12 comparisons over 5 seeds; the center-estimate effect is
    largest on the 2-neighbor network."""
    wins = 0
    for alg in ALGORITHMS:
        for k in TOPOLOGY_KS:
            on = trend_grid[(alg, k, True)]
            off = trend_grid[(alg, k, False)]
            wins += int(on["hausdorff"] < off["hausdorff"])
            wins += int(on["center_err"] < off["center_err"])
    assert wins >= 10, f"diffusion won only {wins}/12 comparisons"

    improvement = {}
    for k in TOPOLOGY_KS:
        improvement[k] = float(np.mean([
            trend_grid[(alg, k, False)]["center_err"]
            - trend_grid[(alg, k, True)]["center_err"]
            for alg in ALGORITHMS]))
    assert improvement[2] >= improvement[4]
    assert improvement[2] >= improvement[6]
    _passed(f"criterion 5: diffusion won {wins}/12 comparisons; center-error "
            f"improvement by neighbors {improvement} is largest at k=2")


def test_criterion_6_connectivity_radius_trend(trend_grid):
    """With diffusion, the 5-seed mean set radius is non-increasing as the
    neighbor count grows 2 -> 4 -> 6, for each algorithm."""
    for alg in ALGORITHMS:
        rads = [trend_grid[(alg, k, True)]["radius"] for k in TOPOLOGY_KS]
        assert rads[1] <= rads[0], f"{alg}: radius grew from k=2 to k=4"
        assert rads[2] <= rads[1], f"{alg}: radius grew from k=4 to k=6"
    _passed("criterion 6: mean radius non-increasing over 2 -> 4 -> 6 "
            "neighbors for both algorithms")


# ---------------------------------------------------------------------------
# Criterion 7: timing shape.
# ---------------------------------------------------------------------------

def test_criterion_7_timing_shape():
    """Time update independent of the neighbor count (+-30%); measurement,
    Luenberger and diffusion updates non-decreasing in it; 10^5 repetitions
    per cell complete in under 5 minutes each."""
    reps = 100_000
    start = time.perf_counter()
    table = bench_observer_updates(repetitions=reps, seed=5)
    elapsed = time.perf_counter() - start
    per_cell = elapsed / (len(BENCH_OPS) * len(TOPOLOGY_KS))
    assert per_cell < 300.0

    t = table["time"]
    assert max(t.values()) <= 1.3 * min(t.values()), f"time update varies: {t}"
    for name in ("measurement", "diffusion", "luenberger"):
        cells = table[name]
        assert cells[2] <= cells[4] <= cells[6], f"{name} not monotone: {cells}"
    pretty = {name: {k: round(v, 1) for k, v in per_k.items()}
              for name, per_k in table.items()}
    _passed(f"criterion 7: timing table (us) {pretty}; "
            f"{reps} reps/cell in {per_cell:.1f}s each")


# ---------------------------------------------------------------------------
# Criterion 8: determinism.
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV outputs."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = main(["run", "--alg", "sm", "--neighbors", "4", "--steps", "60",
                   "--seed", "21", "--out", str(out)])
        assert rc == 0
        outs.append(out)
    for fname in ("records.csv", "summary.csv", "trajectory.csv",
                  "snapshots.json"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    _passed("criterion 8: repeated runs byte-identical across all outputs")
