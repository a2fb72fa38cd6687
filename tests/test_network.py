import functools
import json
import logging
import math

import numpy as np
import pytest

from zonodiff import (
    NodeState,
    ObserverConfig,
    Strip,
    Topology,
    Zonotope,
    contains_point,
    f_radius,
    ring_topology,
    run_round,
    run_simulation,
    topology_from_json,
    topology_to_json,
)
from zonodiff.intersection import frobenius_optimal_gain, stack_strips
from zonodiff.observers import fuse_update, local_update
from zonodiff.plant import paper_scenario, simulate

from conftest import paper_run

F_ROT = np.array([[0.992, -0.1247], [0.1247, 0.992]])
NO_NOISE = np.zeros((2, 0))


IRREGULAR = ((0, 1, 2, 3), (1, 0), (2, 0, 3), (3, 0, 2, 4), (4, 3, 5),
             (5, 4, 6, 7), (6, 5), (7, 5))
F_CV4 = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                  [0.0, 0.0, 0.98, 0.0], [0.0, 0.0, 0.0, 0.98]])
ENGINE_CASES = ["ring-k0", "ring-k2", "ring-k4", "ring-k6", "irregular",
                "point-prior", "near-parallel", "no-noise", "diffusion-off",
                "irregular-off", "near-parallel-off", "n4"]


def engine_case(name, kind, rng):
    """One round's inputs: topology, priors and strips around a true state,
    plus the observer settings. Every prior contains the truth and every
    strip is consistent with it. A name ending in "-off" is the case before
    it with diffusion off ("diffusion-off" is the default ring-k4 case)."""
    diffusion = not name.endswith("-off")
    name = name.removesuffix("-off")
    dim = 4 if name == "n4" else 2
    truth = rng.normal(size=dim) * 5.0
    topo = Topology(8, IRREGULAR) if name == "irregular" else ring_topology(
        8, int(name[-1]) if name.startswith("ring") else 4)
    counts = [3] * 8
    if name == "irregular":
        counts = [2, 3, 4, 25, 5, 9, 2, 25]  # mixed, some above q
    priors = []
    for i in range(8):
        gens = rng.normal(size=(dim, counts[i])) * 4.0
        if name == "irregular" and i in (2, 7):
            gens[:, 1] = 0.0  # zero columns dropped only when reducing
        priors.append(Zonotope(
            truth - gens @ rng.uniform(-0.8, 0.8, counts[i]), gens))
    if name == "point-prior":
        # Pins the fused sets of nodes 0 to 4 (beta = 0), not of 5 to 7.
        priors[2] = Zonotope.point(truth)
    rows = np.eye(dim)[:2]
    hs = [rows[i % 2] for i in range(8)]
    rs = [0.5] * 8
    if name == "near-parallel":
        # Strips of nodes 0 and 1 are nearly parallel and very narrow: the
        # normal matrix of every neighborhood holding both is singular to
        # working precision.
        hs[0], hs[1] = np.array([1.0, 0.0]), np.array([1.0, 1e-9])
        rs[0] = rs[1] = 1e-7
    strips = [Strip(h, float(h @ truth) + r * rng.uniform(-1, 1), r)
              for h, r in zip(hs, rs)]
    f_matrix = F_CV4 if dim == 4 else F_ROT
    q_gens = np.zeros((dim, 0)) if name == "no-noise" else 0.3 * np.eye(dim)
    cfg = ObserverConfig(kind=kind, q=6 if name == "irregular" else 20,
                         diffusion_enabled=diffusion)
    return topo, priors, strips, cfg, f_matrix, q_gens, truth


def make_strips(truth, n, r=0.5, rng=None):
    rows = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    out = []
    for i in range(n):
        h = rows[i % 2]
        noise = 0.0 if rng is None else r * rng.uniform(-1, 1)
        out.append(Strip(h, float(h @ truth) + noise, r))
    return out


def round_against_reference(topo, priors, strips, cfg, f_mat, q_gens):
    """One ``run_round`` from ``priors``, checked node by node to equal
    ``local_update`` on the node's strips followed by ``fuse_update`` on its
    neighborhood's sets. Returns each node's ``(next state, fused set)``."""
    states = [NodeState(i, z) for i, z in enumerate(priors)]
    new_states, trace = run_round(topo, states, strips, cfg, f_mat, q_gens)
    own = [local_update(states[i],
                        stack_strips([strips[j] for j in nbrs], priors[i].dim),
                        cfg, f_mat, q_gens)
           for i, nbrs in enumerate(topo.neighbors)]
    out = []
    for i, nbrs in enumerate(topo.neighbors):
        nxt, fused = fuse_update(states[i], own[i],
                                 [(j, own[j]) for j in nbrs], cfg, f_mat,
                                 q_gens)
        got_own = dict(trace.sets_delivered[i])[i]
        for got, want in [(got_own, own[i]),
                          (trace.round_estimates[i], fused),
                          (new_states[i].estimate, nxt.estimate)]:
            assert np.array_equal(got.center, want.center)
            assert np.array_equal(got.generators, want.generators)
        assert new_states[i].node_id == i
        out.append((nxt, fused))
    return out


class TestTopology:
    def test_ring_sizes(self):
        for k in (2, 6):
            topo = ring_topology(8, k)
            assert all(len(nb) == k + 1 for nb in topo.neighbors)

    def test_isolated(self):
        topo = ring_topology(8, 0)
        assert topo.neighbors == tuple((i,) for i in range(8))

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            ring_topology(8, 3)

    def test_rejects_k_too_large(self):
        with pytest.raises(ValueError):
            ring_topology(8, 8)

    def test_requires_self_inclusion(self):
        with pytest.raises(ValueError):
            Topology(2, ((1,), (0, 1)))

    def test_requires_symmetry(self):
        with pytest.raises(ValueError):
            Topology(3, ((0, 1), (1,), (2,)))

    def test_json_round_trip(self):
        topo = ring_topology(8, 4)
        back = topology_from_json(json.loads(json.dumps(topology_to_json(topo))))
        assert back == topo


class TestRunRound:
    def setup_method(self):
        self.cfg = ObserverConfig(kind="sm", q=20, diffusion_enabled=True)

    def initial_states(self, n):
        z = Zonotope([0.0, 0.0], np.diag([10.0, 10.0]))
        return [NodeState(i, z) for i in range(n)]

    def test_isolated_equals_standalone(self, rng):
        # k = 0 must match running each node alone without diffusion.
        truth = np.array([1.0, -2.0])
        strips = make_strips(truth, 8, rng=rng)
        topo = ring_topology(8, 0)
        states = self.initial_states(8)
        new_states, trace = run_round(topo, states, strips, self.cfg, F_ROT,
                                      NO_NOISE)
        cfg_solo = ObserverConfig(kind="sm", q=20, diffusion_enabled=False)
        for i in range(8):
            own = local_update(states[i], stack_strips([strips[i]], 2), cfg_solo,
                               F_ROT, NO_NOISE)
            from zonodiff.observers import fuse_update
            solo, _ = fuse_update(states[i], own, [(i, own)], cfg_solo, F_ROT,
                                  NO_NOISE)
            assert np.allclose(new_states[i].estimate.center, solo.estimate.center)
            assert np.allclose(new_states[i].estimate.generators,
                               solo.estimate.generators)

    def test_fully_connected_pair_agrees(self, rng):
        truth = np.array([0.5, 0.5])
        strips = make_strips(truth, 2, rng=rng)
        topo = Topology(2, ((0, 1), (1, 0)))
        states = self.initial_states(2)
        new_states, _ = run_round(topo, states, strips, self.cfg, F_ROT,
                                  NO_NOISE)
        # Same strip multiset and same prior: centers agree to round-off.
        assert np.allclose(new_states[0].estimate.center,
                           new_states[1].estimate.center, atol=1e-9)

    def test_relabeling_equivariance(self, rng):
        # Rotating all node ids by one rotates the estimates identically.
        truth = np.array([2.0, 1.0])
        n = 8
        strips = make_strips(truth, n, rng=rng)
        topo = ring_topology(n, 4)
        states = self.initial_states(n)
        base, _ = run_round(topo, states, strips, self.cfg, F_ROT, NO_NOISE)
        shift = 3
        strips_rot = [strips[(i - shift) % n] for i in range(n)]
        rot, _ = run_round(topo, states, strips_rot, self.cfg, F_ROT, NO_NOISE)
        for i in range(n):
            j = (i + shift) % n
            assert np.array_equal(rot[j].estimate.center, base[i].estimate.center)
            assert np.array_equal(rot[j].estimate.generators,
                                  base[i].estimate.generators)

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    @pytest.mark.parametrize("case", ENGINE_CASES)
    def test_batched_round_matches_per_node_updates(self, case, kind, rng):
        # Every node's result of one batched round equals the per-node
        # functions run on that node's neighborhood alone, and contains the
        # truth.
        topo, priors, strips, cfg, f_mat, q_gens, truth = engine_case(
            case, kind, rng)
        if case.startswith("near-parallel"):
            fallback = [frobenius_optimal_gain(
                            z.generators, np.array([strips[j].h for j in nbrs]),
                            np.array([strips[j].r for j in nbrs]))[1]
                        for z, nbrs in zip(priors, topo.neighbors)]
            assert any(fallback) and not all(fallback)
        noise = q_gens @ rng.uniform(-1, 1, q_gens.shape[1])
        for nxt, fused in round_against_reference(topo, priors, strips, cfg,
                                                  f_mat, q_gens):
            assert contains_point(nxt.estimate, f_mat @ truth + noise, 1e-7)
            if kind == "sm":
                assert contains_point(fused, truth, 1e-7)

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    def test_huge_prior_round(self, kind):
        # ||G||_F^2 of a 1.2e154 prior overflows to infinity; the gain is
        # solved on scaled inputs. Rounds with diffusion on and off both
        # give finite sets equal to the per-node reference, and the strips
        # shrink every node's phase-1 set below the uncorrected prior.
        prior = Zonotope([0.0, 0.0], 1.2e154 * np.eye(2))
        strips = make_strips(np.zeros(2), 4, r=1e154)
        topo = ring_topology(4, 2)
        front = F_ROT if kind == "iv" else np.eye(2)
        uncorrected = math.hypot(*(front @ prior.generators).ravel())
        for diffusion in (True, False):
            cfg = ObserverConfig(kind=kind, q=20, diffusion_enabled=diffusion)
            round_against_reference(topo, [prior] * 4, strips, cfg, F_ROT,
                                    0.3 * np.eye(2))
            for i, nbrs in enumerate(topo.neighbors):
                own = local_update(NodeState(i, prior), stack_strips(
                    [strips[j] for j in nbrs], 2), cfg, F_ROT,
                    0.3 * np.eye(2))
                assert math.hypot(*own.generators.ravel()) < uncorrected

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    def test_pseudo_inverse_fallback_logged(self, kind, rng, caplog):
        # One DEBUG record on the "zonodiff" logger per phase-1 gain solve
        # that fell back to pinv (some nodes of the near-parallel case), and
        # none at Python's default level (WARNING).
        topo, priors, strips, cfg, f_mat, q_gens, _ = engine_case(
            "near-parallel", kind, rng)
        states = [NodeState(i, z) for i, z in enumerate(priors)]
        caplog.set_level(logging.WARNING)
        run_round(topo, states, strips, cfg, f_mat, q_gens)
        assert caplog.records == []
        caplog.set_level(logging.DEBUG, logger="zonodiff")
        for i, nbrs in enumerate(topo.neighbors):
            caplog.clear()
            local_update(states[i],
                         stack_strips([strips[j] for j in nbrs], priors[i].dim),
                         cfg, f_mat, q_gens)
            fallback = frobenius_optimal_gain(
                priors[i].generators, np.array([strips[j].h for j in nbrs]),
                np.array([strips[j].r for j in nbrs]))[1]
            assert [(r.name, r.levelno) for r in caplog.records] == (
                [("zonodiff", logging.DEBUG)] if fallback else [])

    def test_tiny_prior_round(self, rng):
        # Corrected sets of a 1e-156 prior have a subnormal beta whose
        # inverse overflows; the round must still give finite sets that
        # contain the truth.
        truth = np.zeros(2)
        prior = Zonotope(truth, 1e-156 * np.eye(2))
        states = [NodeState(i, prior) for i in range(8)]
        q_gens = 0.3 * np.eye(2)
        new_states, trace = run_round(ring_topology(8, 4), states,
                                      make_strips(truth, 8, rng=rng), self.cfg,
                                      F_ROT, q_gens)
        for fused, nxt in zip(trace.round_estimates, new_states):
            assert contains_point(fused, truth, 1e-7)
            assert contains_point(nxt.estimate, F_ROT @ truth, 1e-7)

    def test_trace_payload_counts(self, rng):
        truth = np.array([0.0, 0.0])
        strips = make_strips(truth, 8, rng=rng)
        topo = ring_topology(8, 4)
        _, trace = run_round(topo, self.initial_states(8), strips, self.cfg,
                             F_ROT, NO_NOISE)
        for i in range(8):
            assert len(trace.strips_delivered[i]) == 5
            assert len(trace.sets_delivered[i]) == 5
        assert len(trace.round_estimates) == 8

    def test_input_length_validation(self, rng):
        topo = ring_topology(4, 2)
        with pytest.raises(ValueError):
            run_round(topo, self.initial_states(3),
                      make_strips(np.zeros(2), 4), self.cfg, F_ROT, NO_NOISE)
        with pytest.raises(ValueError):
            run_round(topo, self.initial_states(4),
                      make_strips(np.zeros(2), 3), self.cfg, F_ROT, NO_NOISE)

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    def test_strip_of_wrong_dimension_rejected(self, kind):
        # The round stacks its strips once and checks their dimension
        # there; one 3-D strip among 2-D ones, or all 3-D, is rejected.
        cfg = ObserverConfig(kind=kind, q=20, diffusion_enabled=True)
        strips = make_strips(np.zeros(2), 4)
        for bad in ([*strips[:3], Strip([1.0, 0.0, 0.0], 0.0, 1.0)],
                    [Strip([1.0, 0.0, 0.0], 0.0, 1.0)] * 4):
            with pytest.raises(ValueError):
                run_round(ring_topology(4, 2), self.initial_states(4), bad,
                          cfg, F_ROT, NO_NOISE)


class TestRunSimulation:
    def test_shapes_and_determinism(self):
        model, presets = paper_scenario()
        traj = simulate(model, 30, seed=9)
        cfg = ObserverConfig(kind="sm", q=20, diffusion_enabled=True)
        a = run_simulation(model, presets[2], cfg, traj)
        b = run_simulation(model, presets[2], cfg, traj)
        assert len(a.estimates) == 30
        assert all(len(row) == 8 for row in a.estimates)
        for ra, rb in zip(a.estimates, b.estimates):
            for za, zb in zip(ra, rb):
                assert np.array_equal(za.center, zb.center)
                assert np.array_equal(za.generators, zb.generators)

    def test_interval_based_first_step_is_initial_set(self):
        model, presets = paper_scenario()
        traj = simulate(model, 10, seed=1)
        cfg = ObserverConfig(kind="iv", q=20, diffusion_enabled=True)
        res = run_simulation(model, presets[4], cfg, traj)
        assert len(res.estimates) == 10
        for z in res.estimates[0]:
            assert np.array_equal(z.center, model.initial_set.center)

    def test_estimates_shrink_from_initial_box(self):
        model, presets = paper_scenario()
        traj = simulate(model, 40, seed=2)
        initial = f_radius(model.initial_set)
        for kind in ("sm", "iv"):
            cfg = ObserverConfig(kind=kind, q=20, diffusion_enabled=True)
            res = run_simulation(model, presets[4], cfg, traj)
            final = np.mean([f_radius(z) for z in res.estimates[-1]])
            assert final < 0.3 * initial


WHOLE_RUNS = [(kind, diffusion) for kind in ("sm", "iv")
              for diffusion in (True, False)]


@functools.cache
def unscaled_run(kind, diffusion, topology):
    return paper_run(kind, diffusion, topology)


def scaled_set(a, b, k=0):
    """True if the set ``b`` is the set ``a`` scaled by ``2^k``, bit for
    bit."""
    return (np.array_equal(np.ldexp(a.center, k), b.center)
            and np.array_equal(np.ldexp(a.generators, k), b.generators))


class TestWholeRunInvariants:
    """Invariants of whole 200-step paper runs, bit for bit. The engine is
    linear and homogeneous, so no threshold or branch may see the scale of
    the scenario or the node labels."""

    @pytest.mark.parametrize("k", [-1000, -600, -520, -300, 7, 300, 520,
                                   600, 1000])
    @pytest.mark.parametrize("graph", ["ring-k4", "irregular"])
    @pytest.mark.parametrize("kind, diffusion", WHOLE_RUNS)
    def test_power_of_two_scale(self, kind, diffusion, graph, k):
        # Scaling the scenario by 2^k scales every estimate by 2^k.
        topology = (ring_topology(8, 4) if graph == "ring-k4"
                    else Topology(8, IRREGULAR))
        base = unscaled_run(kind, diffusion, topology)
        scaled = paper_run(kind, diffusion, topology, scale=k)
        bad = [(t, i) for t, (row, got) in enumerate(zip(base, scaled))
               for i, (a, b) in enumerate(zip(row, got))
               if not scaled_set(a, b, k)]
        assert bad == []

    @pytest.mark.parametrize("shift", [2, 4])
    @pytest.mark.parametrize("neighbors", [2, 4, 6])
    @pytest.mark.parametrize("kind, diffusion", WHOLE_RUNS)
    def test_relabeling(self, kind, diffusion, neighbors, shift):
        # Rotating the node ids by an even shift permutes every estimate.
        topology = ring_topology(8, neighbors)
        base = unscaled_run(kind, diffusion, topology)
        rotated = paper_run(kind, diffusion, topology, shift=shift)
        bad = [(t, i) for t, (row, got) in enumerate(zip(base, rotated))
               for i, a in enumerate(row)
               if not scaled_set(a, got[(i + shift) % 8])]
        assert bad == []
