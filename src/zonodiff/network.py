"""Synchronous-round sensor network simulation.

A round has two lossless exchange phases with a barrier between them:
phase 1 delivers each node the measurement strips of its neighborhood and
every node computes its corrected set; phase 2 delivers the corrected sets
and every node fuses them (diffusion; without it, a node fuses its own set
alone) and, for the set-membership observer, propagates in time. Node
computations within a phase are independent, so iteration order cannot
affect results. Phase 1 runs node
by node through :func:`~zonodiff.observers.local_update` on the rows of
the round's stacked strip arrays, with one memo per round, so that the
gain is solved once per distinct prior generator matrix and strip rows;
phase 2 runs for all nodes at once on stacked arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .intersection import diffusion_weights, squared_f_radius, stack_strips
from .observers import (
    NodeState,
    ObserverConfig,
    ObserverKind,
    check_budget,
    diffusion_stack,
    dynamics,
    local_update,
    time_update_stack,
)
from .zonotope import stack_zonotopes

__all__ = [
    "Topology",
    "ring_topology",
    "topology_from_json",
    "topology_to_json",
    "RoundTrace",
    "run_round",
    "SimulationResult",
    "run_simulation",
]


@dataclass(frozen=True)
class Topology:
    """Undirected neighbor graph with self-inclusive, ordered neighborhoods."""

    n_nodes: int
    neighbors: tuple

    def __post_init__(self):
        n = int(self.n_nodes)
        if n < 1:
            raise ValueError("topology needs at least one node")
        nbrs = tuple(tuple(int(j) for j in row) for row in self.neighbors)
        if len(nbrs) != n:
            raise ValueError("one neighbor list per node is required")
        for i, row in enumerate(nbrs):
            if i not in row:
                raise ValueError(f"node {i} must be in its own neighborhood")
            if len(set(row)) != len(row):
                raise ValueError(f"node {i} has duplicate neighbors")
            for j in row:
                if not 0 <= j < n:
                    raise ValueError(f"node {i} lists invalid neighbor {j}")
                if i not in nbrs[j]:
                    raise ValueError(
                        f"adjacency must be symmetric: {i} lists {j} but not "
                        f"vice versa"
                    )
        object.__setattr__(self, "n_nodes", n)
        object.__setattr__(self, "neighbors", nbrs)

    @cached_property
    def _rows(self) -> tuple:
        """Each node's neighbor list as an index array, for gathering its
        rows of a round's stacked strip arrays."""
        rows = tuple(np.array(row, dtype=np.intp) for row in self.neighbors)
        for row in rows:
            row.flags.writeable = False
        return rows

    @cached_property
    def _batches(self) -> list:
        """Nodes grouped by neighborhood size, as ``(nodes, neighbors)``
        index arrays of shapes ``(B,)`` and ``(B, m)``; neighbor rows keep
        the order of the neighbor lists."""
        sizes = np.array([len(row) for row in self.neighbors])
        out = []
        for m in np.unique(sizes):
            nodes = np.flatnonzero(sizes == m)
            nbrs = np.array([self.neighbors[i] for i in nodes]).reshape(-1, m)
            nodes.flags.writeable = False
            nbrs.flags.writeable = False
            out.append((nodes, nbrs))
        return out


def ring_topology(n: int, k_neighbors: int) -> Topology:
    """Circulant ring: node ``i`` connects to ``i +- 1 .. i +- k/2`` (mod n).

    ``k_neighbors`` must be even and below ``n``; each neighborhood then has
    ``k_neighbors + 1`` members including the node itself. Neighbor lists
    start with the node and alternate +d, -d so that relabeling by rotation
    maps lists exactly.
    """
    n = int(n)
    k = int(k_neighbors)
    if n < 1:
        raise ValueError("n must be at least 1")
    if k < 0 or k >= n:
        raise ValueError("k_neighbors must satisfy 0 <= k < n")
    if k % 2 != 0:
        raise ValueError("k_neighbors must be even")
    neighbors = []
    for i in range(n):
        row = [i]
        for d in range(1, k // 2 + 1):
            row.append((i + d) % n)
            row.append((i - d) % n)
        neighbors.append(row)
    return Topology(n, tuple(tuple(r) for r in neighbors))


def topology_to_json(topology: Topology) -> dict:
    return {"n": topology.n_nodes,
            "neighbors": [list(row) for row in topology.neighbors]}


def topology_from_json(data: dict) -> Topology:
    """Inverse of :func:`topology_to_json`. Raises ``ValueError`` unless
    ``data`` is an object with an integer ``n`` and a list of integer lists
    in ``neighbors``; JSON ``true`` and ``false`` are not integers."""
    rows = data.get("neighbors") if isinstance(data, dict) else None
    if (not isinstance(rows, list) or type(data.get("n")) is not int
            or not all(isinstance(row, list)
                       and all(type(j) is int for j in row)
                       for row in rows)):
        raise ValueError('topology must be an object with an integer "n" and '
                         'a list of integer neighbor lists in "neighbors"')
    return Topology(data["n"], tuple(tuple(row) for row in rows))


@dataclass(frozen=True)
class RoundTrace:
    """Delivered payloads of one round, for tests and export.

    ``strips_delivered[i]`` and ``sets_delivered[i]`` list the
    ``(source, payload)`` pairs node ``i`` received; ``round_estimates[i]``
    is the estimate node ``i`` reported this round (the fused set).
    """

    step: int
    strips_delivered: tuple
    sets_delivered: tuple
    round_estimates: tuple


def run_round(topology: Topology, node_states, measurements,
              cfg: ObserverConfig, f_matrix, q_generators,
              step_index: int = 0) -> tuple[list, RoundTrace]:
    """Execute one synchronous round and return the new node states.

    ``measurements`` holds one :class:`~zonodiff.intersection.Strip` per
    node. Every input is checked once, before phase 1 (``ValueError``):
    the counts, one estimate dimension ``n``, ``cfg.q >= n``, the dynamics
    and, as they are stacked into ``(Gamma, y, r)`` arrays, the strips.
    Phase 1 calls :func:`~zonodiff.observers.local_update` per node with
    its neighborhood's rows, gathered through index arrays cached on the
    topology, and one memo dict for the round: a node whose prior
    generators (with their layout) and strip rows ``(Gamma, r)`` equal an
    earlier node's, bit for bit, reuses that node's gain and generators
    and computes only its center. In the paper's rings the nodes of one
    parity match, so a round solves two gains whatever the ring's size.
    Phase 2 is one diffusion for all nodes at once on stacked
    arrays, one batch per neighborhood size, or with diffusion off one
    batch in which each node fuses its own set alone, with the same
    kernels as the per-node functions of :mod:`zonodiff.observers`. A
    node's result depends only on its own neighborhood, so it is
    independent of the batching and of node order. Callers time around
    this function if needed.
    """
    states = list(node_states)
    n_nodes = topology.n_nodes
    if len(states) != n_nodes:
        raise ValueError("one NodeState per topology node is required")
    measurements = list(measurements)
    if len(measurements) != n_nodes:
        raise ValueError("one measurement strip per node is required")
    dim = states[0].estimate.dim
    if any(state.estimate.dim != dim for state in states):
        raise ValueError("all estimates must share one dimension")
    check_budget(cfg.q, dim)
    f_mat, noise = dynamics(f_matrix, q_generators, dim)
    gamma, y, r = stack_strips(measurements, dim)

    # Phase 1: every node computes its corrected set from the delivered
    # strips. The memo lives for this round only: nodes whose priors and
    # strip rows match to the bit share one gain solve.
    memo: dict = {}
    corrected = [local_update(state, (gamma[row], y[row], r[row]), cfg,
                              f_mat, noise, memo)
                 for state, row in zip(states, topology._rows)]

    # Phase 2 barrier: only now are corrected sets exchanged. Without
    # diffusion each node fuses its own set alone.
    if cfg.diffusion_enabled:
        batches = topology._batches
    else:
        alone = np.arange(n_nodes)
        batches = [(alone, alone[:, None])]
    fused = _diffuse(batches, corrected, cfg.q)
    estimates = _materialize(fused, n_nodes)
    if cfg.kind is ObserverKind.SET_MEMBERSHIP:
        carried = _materialize(
            [(nodes, *time_update_stack(c, g, f_mat, noise))
             for nodes, c, g in fused], n_nodes)
    else:
        carried = estimates
    new_states = [NodeState(i, z) for i, z in enumerate(carried)]
    strips_in = tuple(tuple((j, measurements[j]) for j in row)
                      for row in topology.neighbors)
    sets_in = tuple(tuple((j, corrected[j]) for j in row)
                    for row in topology.neighbors)
    trace = RoundTrace(step_index, strips_in, sets_in, tuple(estimates))
    return new_states, trace


def _materialize(groups, n_nodes: int) -> list:
    """Per-node zonotopes, in node order, from ``(nodes, centers, gens)``
    groups that cover every node once."""
    out = [None] * n_nodes
    for nodes, c, g in groups:
        for i, z in zip(nodes.tolist(), stack_zonotopes(c, g)):
            out[i] = z
    return out


def _diffuse(batches, corrected, q: int) -> list:
    """Diffusion of the corrected sets over ``(nodes, neighbors)`` batches,
    split by total generator count: each row's members are gathered from
    one side-by-side store of all corrected generators."""
    centers = np.stack([z.center for z in corrected])
    beta, k = squared_f_radius([z.generators for z in corrected])
    widths = np.array([z.n_generators for z in corrected])
    store = np.concatenate([z.generators for z in corrected], axis=1)
    starts = np.cumsum(widths) - widths
    fused = []
    for nodes, nbrs in batches:
        total = widths[nbrs].sum(axis=1)
        for w in np.unique(total):
            part, members = nodes[total == w], nbrs[total == w]
            member_widths = widths[members]
            cols = _member_columns(starts[members], member_widths)
            gens = np.ascontiguousarray(store[:, cols].transpose(1, 0, 2))
            w = diffusion_weights(beta[members], k[members])
            groups = diffusion_stack(w, centers[members], member_widths,
                                     gens, q)
            fused += [(part[rows], c, g) for rows, c, g in groups]
    return fused


def _member_columns(starts, widths) -> np.ndarray:
    """Store columns of each row's members, side by side in member order:
    row ``b`` lists ``starts[b, j] .. starts[b, j] + widths[b, j] - 1`` for
    each member ``j``."""
    flat = widths.ravel()
    shift = np.repeat(starts.ravel() - (np.cumsum(flat) - flat), flat)
    return (shift + np.arange(flat.sum())).reshape(len(widths), -1)


@dataclass
class SimulationResult:
    """Per-step, per-node outputs of a full simulated run.

    ``estimates[k][i]`` is node ``i``'s estimate of the true state at step
    ``k``; ``times_us[k][i]`` is the producing round's wall time averaged
    over nodes, in microseconds (zero when timing is disabled or the
    estimate is the initial set).
    """

    estimates: list
    times_us: list


def run_simulation(model, topology: Topology, cfg: ObserverConfig,
                   trajectory, collect_timing: bool = False) -> SimulationResult:
    """Run one observer over a generated trajectory.

    Step ``k`` of the result estimates the true state ``x_k``. The
    set-membership observer's step-``k`` estimate incorporates the step-``k``
    measurements; the interval-based observer's is the carried set produced
    from measurements up to step ``k - 1`` (its combined update folds the
    propagation in, so the round consuming ``y_k`` outputs the estimate for
    step ``k + 1``).
    """
    n = topology.n_nodes
    states = [NodeState(i, model.initial_set) for i in range(n)]
    # The interval-based estimate for step k comes from round k - 1, so its
    # first row is the initial set.
    estimates: list = ([] if cfg.kind is ObserverKind.SET_MEMBERSHIP
                       else [[s.estimate for s in states]])
    times: list = [[0.0] * n for _ in estimates]
    for k in range(trajectory.n_steps - len(estimates)):
        strips = [model.strip_for(i, k, trajectory.measurements[k, i])
                  for i in range(n)]
        t0 = time.perf_counter() if collect_timing else 0.0
        states, trace = run_round(topology, states, strips, cfg,
                                  model.f_matrix, model.q_generators,
                                  step_index=k)
        elapsed = (time.perf_counter() - t0) if collect_timing else 0.0
        estimates.append(list(trace.round_estimates))
        times.append([elapsed / n * 1e6] * n)
    return SimulationResult(estimates, times)
