import functools
import json
import logging
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from zonodiff import (
    NodeState,
    ObserverConfig,
    Strip,
    Topology,
    Trajectory,
    Zonotope,
    contains_point,
    f_radius,
    ring_topology,
    run_round,
    run_simulation,
    topology_from_json,
    topology_to_json,
)
from zonodiff import network, observers
from zonodiff.intersection import (
    frobenius_optimal_gain,
    stack_strips,
    unit_strips,
)
from zonodiff.observers import fuse_update, local_update
from zonodiff.zonotope import reduce_stack
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
                "irregular-off", "near-parallel-off", "n4", "parity-ring",
                "parity-ring-off", "per-node-strips", "per-node-strips-off",
                "layout", "layout-off", "near-parallel-shared", "complete"]
# Distinct phase-1 keys of the cases built to share them, or to share none.
SHARED_KEYS = {"parity-ring": 2, "per-node-strips": 8, "layout": 8,
               "near-parallel-shared": 2, "complete": 8}
# The complete graph, each list the node and then the others in order:
# every neighborhood holds the same members, in a different order.
COMPLETE = tuple((i, *(j for j in range(8) if j != i)) for i in range(8))


def engine_case(name, kind, rng):
    """One round's inputs: topology, priors and strips around a true state,
    plus the observer settings. Every prior contains the truth and every
    strip is consistent with it. A name ending in "-off" is the case before
    it with diffusion off ("diffusion-off" is the default ring-k4 case).

    In "parity-ring" the priors of one parity share their generators, so
    the nodes of one parity share a phase-1 key; "near-parallel-shared"
    adds nearly parallel, very narrow strips to it. "layout" gives every
    node one generator matrix, node 2 a Fortran-ordered copy of it, and
    node 5 a narrower strip: nodes 0 and 2 differ in layout alone, and
    nodes 0, 4 and 6 in the half-widths alone.
    "per-node-strips" gives the irregular graph's nodes one generator
    matrix and a strip direction each, so that no two share a key.
    "complete" gives the parity ring's priors to the complete graph, whose
    neighborhoods list the same members in different orders."""
    diffusion = not name.endswith("-off")
    name = name.removesuffix("-off")
    dim = 4 if name == "n4" else 2
    truth = rng.normal(size=dim) * 5.0
    irregular = name in ("irregular", "per-node-strips")
    topo = Topology(8, IRREGULAR) if irregular else ring_topology(
        8, int(name[-1]) if name.startswith("ring") else 4)
    if name == "complete":
        topo = Topology(8, COMPLETE)
    counts = [3] * 8
    if name == "irregular":
        counts = [2, 3, 4, 25, 5, 9, 2, 25]  # mixed, some above q
    if name in SHARED_KEYS:
        shared = [rng.normal(size=(dim, 3)) * 4.0 for _ in range(2)]
    priors = []
    for i in range(8):
        gens = rng.normal(size=(dim, counts[i])) * 4.0
        if name == "irregular" and i in (2, 7):
            gens[:, 1] = 0.0  # zero columns dropped only when reducing
        if name in ("parity-ring", "near-parallel-shared", "complete"):
            gens = shared[i % 2]
        elif name in ("layout", "per-node-strips"):
            gens = np.asfortranarray(shared[0]) if (
                name == "layout" and i == 2) else shared[0]
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
    if name == "layout":
        rs[5] = 0.25
    if name == "near-parallel-shared":
        hs = [np.array([1.0, 1e-9 * (i % 2)]) for i in range(8)]
        rs = [1e-7] * 8
    if name == "per-node-strips":
        hs = [np.array([math.cos(0.4 * i), math.sin(0.4 * i)])
              for i in range(8)]
    strips = [Strip(h, float(h @ truth) + r * rng.uniform(-1, 1), r)
              for h, r in zip(hs, rs)]
    f_matrix = F_CV4 if dim == 4 else F_ROT
    q_gens = np.zeros((dim, 0)) if name == "no-noise" else 0.3 * np.eye(dim)
    cfg = ObserverConfig(kind=kind, q=6 if name == "irregular" else 20,
                         diffusion_enabled=diffusion)
    return topo, priors, strips, cfg, f_matrix, q_gens, truth


def distinct_keys(topo, priors, strips):
    """Count of distinct phase-1 inputs that no measurement enters: a
    node's prior generators, with their layout, and its neighborhood's
    strip rows and half-widths."""
    return len({(z.generators.shape, z.generators.strides,
                 z.generators.tobytes(),
                 np.array([strips[j].h for j in nbrs]).tobytes(),
                 np.array([strips[j].r for j in nbrs]).tobytes())
                for z, nbrs in zip(priors, topo.neighbors)})


class GainCounter:
    """Counts the gain solves of phase 1 while installed in
    :mod:`zonodiff.observers`."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return frobenius_optimal_gain(*args)

    def installed(self):
        return mock.patch.object(observers, "frobenius_optimal_gain", self)


class ReduceCounter:
    """Counts the rows that phase 2 reduces, per call, while installed as
    the ``reduce_stack`` of :mod:`zonodiff.observers`."""

    def __init__(self):
        self.rows = []

    def __call__(self, gens, q):
        self.rows.append(len(gens))
        return reduce_stack(gens, q)

    def installed(self):
        return mock.patch.object(observers, "reduce_stack", self)


def distinct_neighbourhoods(trace, diffusion):
    """Count of distinct tuples of corrected generator arrays, in member
    order, over the neighbourhoods of one round (each node alone with
    diffusion off)."""
    return len({tuple(id(z.generators) for j, z in delivered
                      if diffusion or j == i)
                for i, delivered in enumerate(trace.sets_delivered)})


def fallback_nodes(topo, priors, strips):
    """Nodes whose measurement-update gain solve falls back to pinv."""
    return [i for i, (z, nbrs) in enumerate(zip(priors, topo.neighbors))
            if frobenius_optimal_gain(
                z.generators, np.array([strips[j].h for j in nbrs]),
                np.array([strips[j].r for j in nbrs]))[1]]


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
    ``local_update`` without a memo (one gain solve per node) on the node's
    strips followed by ``fuse_update`` on its neighborhood's sets, and
    checked to solve one gain per distinct phase-1 key. Returns each node's
    ``(next state, fused set)``."""
    states = [NodeState(i, z) for i, z in enumerate(priors)]
    solves = GainCounter()
    with solves.installed():
        new_states, trace = run_round(topo, states, strips, cfg, f_mat,
                                      q_gens)
    # One gain solve per distinct key in the round.
    assert solves.calls == distinct_keys(topo, priors, strips)
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
            fallback = fallback_nodes(topo, priors, strips)
            assert fallback and (len(fallback) == 8) == case.endswith(
                "shared")
        base = case.removesuffix("-off")
        if base in SHARED_KEYS:
            assert distinct_keys(topo, priors, strips) == SHARED_KEYS[base]
        noise = q_gens @ rng.uniform(-1, 1, q_gens.shape[1])
        for nxt, fused in round_against_reference(topo, priors, strips, cfg,
                                                  f_mat, q_gens):
            assert contains_point(nxt.estimate, f_mat @ truth + noise, 1e-7)
            if kind == "sm":
                assert contains_point(fused, truth, 1e-7)

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    @pytest.mark.parametrize("case", ["parity-ring", "parity-ring-off",
                                      "per-node-strips",
                                      "per-node-strips-off", "irregular",
                                      "complete"])
    def test_phase_two_reduces_each_distinct_neighbourhood_once(self, case,
                                                                kind, rng):
        # Phase 2 reduces one row per distinct tuple of member arrays: 2 in
        # the parity ring, where the nodes of one parity share their
        # corrected sets, and one per node where no two nodes share a
        # phase-1 key.
        topo, priors, strips, cfg, f_mat, q_gens, _ = engine_case(
            case, kind, rng)
        counter = ReduceCounter()
        with counter.installed():
            _, trace = run_round(topo, [NodeState(i, z) for i, z in
                                        enumerate(priors)],
                                 strips, cfg, f_mat, q_gens)
        want = {"parity-ring": 2, "per-node-strips": 8, "irregular": 8,
                "complete": 8}
        assert sum(counter.rows) == want[case.removesuffix("-off")]
        assert sum(counter.rows) == distinct_neighbourhoods(
            trace, cfg.diffusion_enabled)

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    @pytest.mark.parametrize("case", ["parity-ring", "parity-ring-off",
                                      "irregular", "ring-k6"])
    def test_equal_bits_in_distinct_arrays(self, case, kind, rng):
        # Every corrected set copied into its own arrays: the rows share no
        # array, so phase 2 computes each node apart, and every result is
        # the same, bit for bit, as with the shared arrays.
        topo, priors, strips, cfg, f_mat, q_gens, _ = engine_case(
            case, kind, rng)
        states = [NodeState(i, z) for i, z in enumerate(priors)]

        def copied(*args, **kwargs):
            z = local_update(*args, **kwargs)
            return Zonotope(z.center, z.generators.copy())

        shared, apart = ReduceCounter(), ReduceCounter()
        with shared.installed():
            want_states, want = run_round(topo, states, strips, cfg, f_mat,
                                          q_gens)
        with apart.installed(), mock.patch.object(network, "local_update",
                                                  copied):
            got_states, got = run_round(topo, states, strips, cfg, f_mat,
                                        q_gens)
        assert sum(apart.rows) == 8
        if case.startswith("parity-ring"):
            assert sum(shared.rows) == 2
        for a, b in [*zip(got.round_estimates, want.round_estimates),
                     *((x.estimate, y.estimate)
                       for x, y in zip(got_states, want_states))]:
            assert a.center.tobytes() == b.center.tobytes()
            assert a.generators.shape == b.generators.shape
            assert a.generators.tobytes() == b.generators.tobytes()

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
        # One DEBUG record on the "zonodiff" logger per node whose phase-1
        # gain solve fell back to pinv, and none at Python's default level
        # (WARNING). In the shared case every node falls back and the
        # nodes of one parity share a key, so six of the eight records come
        # from nodes that reuse a solve.
        for case in ("near-parallel", "near-parallel-shared"):
            self.check_fallback_logged(case, kind, rng, caplog)

    @staticmethod
    def check_fallback_logged(case, kind, rng, caplog):
        topo, priors, strips, cfg, f_mat, q_gens, _ = engine_case(
            case, kind, rng)
        states = [NodeState(i, z) for i, z in enumerate(priors)]
        fallback = fallback_nodes(topo, priors, strips)
        caplog.set_level(logging.WARNING)
        caplog.clear()
        run_round(topo, states, strips, cfg, f_mat, q_gens)
        assert caplog.records == []
        caplog.set_level(logging.DEBUG, logger="zonodiff")
        caplog.clear()
        solves = GainCounter()
        with solves.installed():
            run_round(topo, states, strips, cfg, f_mat, q_gens)
        assert [(r.name, r.levelno) for r in caplog.records] == (
            [("zonodiff", logging.DEBUG)] * len(fallback))
        assert (solves.calls < len(fallback)) == (case == "near-parallel-shared")
        for i, nbrs in enumerate(topo.neighbors):
            caplog.clear()
            local_update(states[i],
                         stack_strips([strips[j] for j in nbrs], priors[i].dim),
                         cfg, f_mat, q_gens)
            assert [(r.name, r.levelno) for r in caplog.records] == (
                [("zonodiff", logging.DEBUG)] if i in fallback else [])

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    def test_overflowing_center_on_reused_solve(self, kind):
        # Two isolated nodes share a phase-1 key; node 1's prior center and
        # measurement make its corrected center overflow. Whether node 1
        # reuses node 0's solve or solves first, the round rejects it with
        # the finiteness check of every corrected set.
        g = np.array([[3.0, 1.0, 0.5], [0.0, 2.0, -1.0]])
        priors = [Zonotope([0.0, 0.0], g), Zonotope([1e308, 1e308], g)]
        strips = [Strip([1.0, 0.0], 0.0, 0.5),
                  Strip([1.0, 0.0], -1.7e308, 0.5)]
        cfg = ObserverConfig(kind=kind, q=20)
        for order in ([0, 1], [1, 0]):
            solves = GainCounter()
            with (np.errstate(over="ignore", invalid="ignore"),
                  solves.installed(),
                  pytest.raises(ValueError,
                                match="center must contain only finite")
                  as error):
                run_round(Topology(2, ((0,), (1,))),
                          [NodeState(i, priors[j]) for i, j in enumerate(order)],
                          [strips[j] for j in order], cfg, 8.0 * F_ROT,
                          NO_NOISE)
            # Raised by phase 1, not by phase 2's check of the fused sets.
            assert "local_update" in [entry.name for entry in error.traceback]
            # Node 0's solve only: the overflowing node solves itself only
            # when it comes first.
            assert solves.calls == 1

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

    @pytest.mark.parametrize("case", ["ring-k4", "irregular"])
    def test_trace_payloads_equal_eager_tuples(self, case, rng):
        # The payloads, built when read, equal the tuples of (source,
        # payload) pairs a round built eagerly: by index, slice, length,
        # iteration and as a dict of one neighborhood.
        topo, priors, strips, cfg, f_mat, q_gens, _ = engine_case(
            case, "sm", rng)
        states = [NodeState(i, z) for i, z in enumerate(priors)]
        _, trace = run_round(topo, states, strips, cfg, f_mat, q_gens)
        own = [dict(trace.sets_delivered[i])[i] for i in range(8)]
        for i, nbrs in enumerate(topo.neighbors):
            want = local_update(states[i], stack_strips(
                [strips[j] for j in nbrs], 2), cfg, f_mat, q_gens)
            assert own[i].center.tobytes() == want.center.tobytes()
            assert own[i].generators.tobytes() == want.generators.tobytes()
        eager = {"strips": tuple(tuple((j, strips[j]) for j in row)
                                 for row in topo.neighbors),
                 "sets": tuple(tuple((j, own[j]) for j in row)
                               for row in topo.neighbors)}
        for name, lazy in [("strips", trace.strips_delivered),
                           ("sets", trace.sets_delivered)]:
            assert len(lazy) == len(eager[name]) == 8
            assert tuple(lazy) == eager[name]
            assert lazy[-1] == eager[name][-1] and lazy[2:5] == eager[name][2:5]
            for i in range(8):
                assert lazy[i] == eager[name][i]
                assert len(lazy[i]) == len(topo.neighbors[i])
                assert dict(lazy[i]) == dict(eager[name][i])
            with pytest.raises(IndexError):
                lazy[8]

    def test_phase_one_gathers_per_batch_in_node_order(self, rng):
        # The irregular graph's nodes fall into three batches by
        # neighborhood size; phase 1 still runs in node order, and each
        # node's strip rows have the shape, strides and bits of a gather of
        # its own rows.
        topo, priors, strips, cfg, f_mat, q_gens, _ = engine_case(
            "irregular", "sm", rng)
        assert len(topo._batches) == 3
        calls = []

        def recorded(state, rows, *args, **kwargs):
            calls.append((state.node_id, rows))
            return local_update(state, rows, *args, **kwargs)

        with mock.patch.object(network, "local_update", recorded):
            run_round(topo, [NodeState(i, z) for i, z in enumerate(priors)],
                      strips, cfg, f_mat, q_gens)
        assert [i for i, _ in calls] == list(range(8))
        stacked = unit_strips(*stack_strips(strips, 2))
        for i, rows in calls:
            index = np.array(topo.neighbors[i])
            for got, full in zip(rows, stacked):
                want = full[index]
                assert got.shape == want.shape
                assert got.strides == want.strides
                assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("neighbors", [2, 4, 6])
    @pytest.mark.parametrize("kind, diffusion", [("sm", True), ("sm", False),
                                                 ("iv", True), ("iv", False)])
    def test_paper_ring_solves_two_gains_per_round(self, kind, diffusion,
                                                   neighbors):
        # In every round of the paper's ring the nodes of one parity hold
        # the same prior generators and strip rows, so a round of eight
        # node updates solves two gains.
        model, presets = paper_scenario()
        traj = simulate(model, 30, seed=4)
        cfg = ObserverConfig(kind=kind, diffusion_enabled=diffusion)
        solves = GainCounter()
        with solves.installed():
            run_simulation(model, presets[neighbors], cfg, traj)
        assert solves.calls == 2 * (30 if kind == "sm" else 29)

    @pytest.mark.parametrize("neighbors", [2, 4, 6])
    @pytest.mark.parametrize("kind, diffusion", [("sm", True), ("sm", False),
                                                 ("iv", True), ("iv", False)])
    def test_paper_ring_reduces_two_rows_per_round(self, kind, diffusion,
                                                   neighbors):
        # The nodes of one parity share their corrected sets, so every
        # round's neighbourhoods are two distinct tuples of arrays, and
        # phase 2 weights, reduces and propagates two rows, not eight.
        model, presets = paper_scenario()
        traj = simulate(model, 30, seed=4)
        cfg = ObserverConfig(kind=kind, diffusion_enabled=diffusion)
        counter = ReduceCounter()
        with counter.installed():
            run_simulation(model, presets[neighbors], cfg, traj)
        assert counter.rows == [2] * (30 if kind == "sm" else 29)

    @pytest.mark.parametrize("kind", ["sm", "iv"])
    def test_ring_of_32_reduces_two_rows_per_round(self, kind):
        model, presets = paper_scenario(n_nodes=32)
        traj = simulate(model, 12, seed=4)
        cfg = ObserverConfig(kind=kind)
        counter = ReduceCounter()
        with counter.installed():
            result = run_simulation(model, presets[6], cfg, traj)
        assert counter.rows == [2] * (12 if kind == "sm" else 11)
        # Nodes of one parity report one generator array.
        for row in result.estimates[1:]:
            assert len({id(z.generators) for z in row}) == 2

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


def relabel_mismatches(kind, diffusion, topology, perm):
    """The ``(step, node)`` pairs whose estimate differs, bit for bit, from
    that of node ``perm[node]`` in the run relabelled by ``perm``."""
    base = unscaled_run(kind, diffusion, topology)
    relabelled = paper_run(kind, diffusion, topology, perm=perm)
    return [(t, i) for t, (row, got) in enumerate(zip(base, relabelled))
            for i, a in enumerate(row) if not scaled_set(a, got[perm[i]])]


def strip_scaled_run(kind, diffusion, topology, node, j, steps=200, seed=3):
    """Estimates of :func:`paper_run`'s unscaled run with node ``node``'s
    strip ``(h, y, r)`` replaced by ``2^j (h, y, r)`` at every step."""
    model, _ = paper_scenario()
    trajectory = simulate(model, steps, seed)
    schedule = model.schedule

    def scaled(i, k):
        h, r = schedule(i, k)
        return (np.ldexp(h, j), math.ldexp(r, j)) if i == node else (h, r)

    measurements = trajectory.measurements.copy()
    measurements[:, node] = np.ldexp(measurements[:, node], j)
    cfg = ObserverConfig(kind=kind, diffusion_enabled=diffusion)
    return run_simulation(replace(model, schedule=scaled), topology, cfg,
                          Trajectory(trajectory.states, measurements)
                          ).estimates


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

    @pytest.mark.parametrize("j", [-1000, -600, -300, -1, 1, 300, 600,
                                   1000])
    @pytest.mark.parametrize("graph", ["ring-k4", "irregular"])
    @pytest.mark.parametrize("kind, diffusion", WHOLE_RUNS)
    def test_one_strip_scaled(self, kind, diffusion, graph, j):
        # 2^j (h, y, r) in place of node 3's strip is the same constraint,
        # and the round scales it back to its unit row before any solve, so
        # every estimate is unchanged, bit for bit.
        topology = (ring_topology(8, 4) if graph == "ring-k4"
                    else Topology(8, IRREGULAR))
        base = unscaled_run(kind, diffusion, topology)
        scaled = strip_scaled_run(kind, diffusion, topology, 3, j)
        bad = [(t, i) for t, (row, got) in enumerate(zip(base, scaled))
               for i, (a, b) in enumerate(zip(row, got))
               if not scaled_set(a, b)]
        assert bad == []

    @pytest.mark.parametrize("shift", [2, 4])
    @pytest.mark.parametrize("neighbors", [2, 4, 6])
    @pytest.mark.parametrize("kind, diffusion", WHOLE_RUNS)
    def test_relabeling(self, kind, diffusion, neighbors, shift):
        # Rotating the node ids by an even shift permutes every estimate.
        perm = [(i + shift) % 8 for i in range(8)]
        assert relabel_mismatches(kind, diffusion, ring_topology(8, neighbors),
                                  perm) == []

    @pytest.mark.parametrize("perm", [(0, 3, 2, 1, 4, 7, 6, 5),
                                      (2, 1, 0, 3, 6, 5, 4, 7),
                                      (6, 7, 4, 5, 2, 3, 0, 1)],
                             ids=lambda p: "".join(map(str, p)))
    @pytest.mark.parametrize("kind, diffusion", WHOLE_RUNS)
    def test_relabeling_irregular(self, kind, diffusion, perm):
        # Any parity-keeping relabelling of the irregular graph, whose
        # nodes have one to three neighbors, permutes every estimate.
        assert relabel_mismatches(kind, diffusion, Topology(8, IRREGULAR),
                                  perm) == []
