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
phase 2 runs on stacked arrays and diffuses, reduces and propagates each
distinct neighbourhood once per round: only the centers are per node.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .intersection import (
    combined_center,
    diffusion_weights,
    squared_f_radius,
    stack_strips,
    unit_strips,
)
from .observers import (
    NodeState,
    ObserverConfig,
    ObserverKind,
    check_budget,
    diffusion_generators,
    dynamics,
    local_update,
    time_update_centers,
    time_update_generators,
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
    def _batches(self) -> list:
        """Nodes grouped by neighborhood size, as ``(nodes, neighbors)``
        index arrays of shapes ``(B,)`` and ``(B, m)``; neighbor rows keep
        the order of the neighbor lists. A round gathers its strip rows
        and diffuses once per batch."""
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

    ``strips_delivered[i]`` and ``sets_delivered[i]`` are tuples of the
    ``(source, payload)`` pairs node ``i`` received, in the order of its
    neighbor list; ``round_estimates[i]`` is the estimate node ``i``
    reported this round (the fused set). :func:`run_round` fills the two
    payload fields with read-only sequences that build node ``i``'s tuple
    when it is read, so a round whose trace is not read pays nothing for
    it; they support indexing, ``len`` and iteration like the tuple of
    those tuples, which the fields also accept.
    """

    step: int
    strips_delivered: Sequence
    sets_delivered: Sequence
    round_estimates: tuple


class _Delivered(Sequence):
    """Per node, the ``(source, payloads[source])`` pairs of its neighbor
    list, as a tuple built on each read."""

    def __init__(self, neighbors: tuple, payloads):
        self._neighbors = neighbors
        self._payloads = payloads

    def __len__(self) -> int:
        return len(self._neighbors)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        return tuple((j, self._payloads[j]) for j in self._neighbors[i])


def run_round(topology: Topology, node_states, measurements,
              cfg: ObserverConfig, f_matrix, q_generators,
              step_index: int = 0) -> tuple[list, RoundTrace]:
    """Execute one synchronous round and return the new node states.

    ``measurements`` holds one :class:`~zonodiff.intersection.Strip` per
    node. Every input is checked once, before phase 1 (``ValueError``):
    the counts, one estimate dimension ``n``, ``cfg.q >= n``, the dynamics
    and, as they are stacked into ``(Gamma, y, r)`` arrays, the strips,
    each then scaled to a unit row, the same constraint
    (:func:`~zonodiff.intersection.unit_strips`): no gain solve of the
    round scales it again. Phase 1 gathers the strip rows once per batch
    of equal-size neighborhoods and calls
    :func:`~zonodiff.observers.local_update` per node, in node order, with
    views of its batch row (the layout and bits of a gather of its own
    rows), and one memo dict for the round: a node whose prior
    generators (with their layout) and strip rows ``(Gamma, r)`` equal an
    earlier node's, bit for bit, reuses that node's gain and generators
    and computes only its center. In the paper's rings the nodes of one
    parity match, so a round solves two gains whatever the ring's size.
    Phase 2 is one diffusion on stacked arrays, one batch per
    neighborhood size, or with diffusion off one batch in which each node
    fuses its own set alone, with the same kernels as the per-node
    functions of :mod:`zonodiff.observers`. It diffuses, reduces and
    (set-membership) propagates each distinct neighbourhood once per
    round: nodes whose members hold the same corrected generator arrays
    share the weights and generators and compute only their centers, so
    a paper ring has two distinct neighbourhoods per round at any size. A
    node's result depends only on its own neighborhood, so it is
    independent of the batching, of the sharing and of node order.
    The trace's delivered payloads are built when read
    (:class:`RoundTrace`). Callers time around this function if needed.
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
    # Each strip at unit scale, once for the round: the gain solves skip it.
    gamma, y, r = unit_strips(*stack_strips(measurements, dim))

    # Phase 1: every node computes its corrected set from the delivered
    # strips, gathered once per batch; each node reads views of its batch
    # row, laid out as a gather of its own rows would be. The memo lives
    # for this round only: nodes whose priors and strip rows match to the
    # bit share one gain solve.
    delivered = [None] * n_nodes
    for nodes, nbrs in topology._batches:
        for i, rows in zip(nodes.tolist(),
                           zip(gamma[nbrs], y[nbrs], r[nbrs])):
            delivered[i] = rows
    memo: dict = {}
    corrected = [local_update(state, rows, cfg, f_mat, noise, memo,
                              unit_rows=True)
                 for state, rows in zip(states, delivered)]

    # Phase 2 barrier: only now are corrected sets exchanged. Without
    # diffusion each node fuses its own set alone.
    if cfg.diffusion_enabled:
        batches = topology._batches
    else:
        alone = np.arange(n_nodes)
        batches = [(alone, alone[:, None])]
    centers, stacks, where = _diffuse(batches, corrected, cfg.q)
    estimates = stack_zonotopes(centers, stacks, where)
    if cfg.kind is ObserverKind.SET_MEMBERSHIP:
        carried = stack_zonotopes(
            time_update_centers(centers, f_mat),
            [time_update_generators(g, f_mat, noise) for g in stacks], where)
    else:
        carried = estimates
    new_states = [NodeState(i, z) for i, z in enumerate(carried)]
    trace = RoundTrace(step_index,
                       _Delivered(topology.neighbors, measurements),
                       _Delivered(topology.neighbors, corrected),
                       tuple(estimates))
    return new_states, trace


def _diffuse(batches, corrected, q: int) -> tuple:
    """Diffusion of the corrected sets over ``(nodes, neighbors)`` batches:
    the fused centers ``(N, n)``, in node order, and the fused generators
    as :func:`~zonodiff.zonotope.stack_zonotopes` takes them, a list of
    reduced stacks and per node its ``(stack, row)``.

    The weights and generators never read data, and nodes that share a
    phase-1 solve share one generator array, so each distinct tuple of
    member arrays (by identity, in member order) is weighted, combined and
    reduced once, gathered from one store of the distinct arrays and split
    by total generator count; each node combines its own members' centers
    at its tuple's weights. Equal bits in distinct arrays are computed
    apart, to the same result.
    """
    arrays = {id(z.generators): z.generators for z in corrected}
    slot = dict(zip(arrays, range(len(arrays))))
    member = np.array([slot[id(z.generators)] for z in corrected])
    mats = list(arrays.values())
    beta, k = squared_f_radius(mats)
    widths = np.array([g.shape[1] for g in mats])
    store = np.concatenate(mats, axis=1)
    starts = np.cumsum(widths) - widths
    centers = np.array([z.center for z in corrected])
    fused = np.empty_like(centers)
    stacks, where = [], [None] * len(corrected)
    for nodes, nbrs in batches:
        # Row b holds distinct tuple row_of[b], the row distinct[row_of[b]]
        # of member slots; place[d] is where tuple d's generators land.
        tuples = {}
        row_of = [tuples.setdefault(key, len(tuples))
                  for key in map(tuple, member[nbrs].tolist())]
        distinct = np.array(list(tuples))
        w = diffusion_weights(beta[distinct], k[distinct])
        fused[nodes] = combined_center(w[row_of], centers[nbrs])
        total = widths[distinct].sum(axis=1)
        place = [None] * len(tuples)
        for width in sorted(set(total.tolist())):
            part = np.flatnonzero(total == width)
            members = distinct[part]
            member_widths = widths[members]
            cols = _member_columns(starts[members], member_widths)
            gens = np.ascontiguousarray(store[:, cols].transpose(1, 0, 2))
            for rows, reduced in diffusion_generators(w[part], member_widths,
                                                      gens, q):
                for j, d in enumerate(part[rows].tolist()):
                    place[d] = (len(stacks), j)
                stacks.append(reduced)
        for i, d in zip(nodes.tolist(), row_of):
            where[i] = place[d]
    return fused, stacks, where


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
