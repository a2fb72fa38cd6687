"""Per-node estimation state machines for the two distributed observers.

Both observers carry one zonotope per node between rounds. Within a round:

* set-membership: measurement update (intersect the prior with the
  neighborhood strips), diffusion update (combine the neighborhood's
  corrected sets, then reduce to ``q`` generators), time update
  (propagate through the dynamics and add process noise);
* interval-based: one combined Luenberger update (gain-corrected
  propagation through the dynamics, reduced to ``q`` generators), then the
  same diffusion combination without a separate time update.

The functions here are pure; the network module enforces the round
barriers and delivers neighborhood inputs. The network round runs the
local update node by node and the fusion and time update as stack kernels
that update many nodes at once, each split into a generator half that
reads no data and a center half; the per-node fusion and time update run
the same kernels on stacks of one, so a node gets the same result alone as
in a network round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .intersection import (
    combined_center,
    combined_generators,
    correct,
    corrected_center,
    frobenius_optimal_gain,
    optimal_diffusion_weights,
    stack_strips,
    unit_strips,
)
from .zonotope import (
    Zonotope,
    _check_finite,
    checked_zonotope,
    recentered,
    reduce,
    reduce_stack,
)

__all__ = [
    "ObserverKind",
    "ObserverConfig",
    "NodeState",
    "sm_measurement_update",
    "sm_diffusion_update",
    "sm_time_update",
    "iv_luenberger_update",
    "local_update",
    "fuse_update",
]

_log = logging.getLogger("zonodiff")


class ObserverKind(str, Enum):
    SET_MEMBERSHIP = "sm"
    INTERVAL_BASED = "iv"


@dataclass(frozen=True)
class ObserverConfig:
    """Observer selection plus the knobs shared by both algorithms.

    ``q`` is the generator budget for the reduction operator and must be at
    least the state dimension; ``diffusion_enabled = False`` runs the
    ablation where each node keeps its own corrected set.
    """

    kind: ObserverKind = ObserverKind.SET_MEMBERSHIP
    q: int = 20
    diffusion_enabled: bool = True

    def __post_init__(self):
        if int(self.q) < 1:
            raise ValueError("q must be a positive integer")
        object.__setattr__(self, "kind", ObserverKind(self.kind))
        object.__setattr__(self, "q", int(self.q))


@dataclass(frozen=True)
class NodeState:
    """Identity plus the zonotope estimate carried between rounds."""

    node_id: int
    estimate: Zonotope


# Stack kernels of phase 2. Each runs one step for a stack of B rows at
# once, every row alone: a row gets the same bits in any stack. The
# generators never read data, so the network round runs the generator
# kernels once per distinct row and the center kernels per node. The
# per-node fusion and time update below run the same kernels on stacks of
# one.

def diffusion_generators(w, widths, gens, q) -> list:
    """Generators of the diffusion of gathered neighborhoods at weights
    ``w``: the weighted combination's generators, reduced to ``q``, as
    :func:`~zonodiff.zonotope.reduce_stack`'s ``(rows, reduced)`` groups.
    The centers are :func:`~zonodiff.intersection.combined_center` at the
    same weights.

    Per member ``j`` of row ``b``: ``w[b, j]`` its weight and
    ``widths[b, j]`` its generator count; ``gens[b]`` holds the members'
    generators side by side in member order.
    """
    col_weights = np.repeat(w.ravel(), widths.ravel()).reshape(len(w), -1)
    return reduce_stack(combined_generators(w, gens, col_weights), q)


def time_update_centers(centers, f_matrix):
    """``F c`` row by row, the centers of the time update."""
    return (f_matrix @ centers[:, :, None])[:, :, 0]


def time_update_generators(gens, f_matrix, noise):
    """``[F G, Q]`` row by row, the generators of the time update."""
    return np.concatenate(
        [f_matrix @ gens, np.repeat(noise[None], len(gens), axis=0)], axis=2)


def dynamics(f_matrix, q_generators, n: int) -> tuple:
    """The state matrix as a finite ``n x n`` float array and the
    process-noise generators as a finite ``n x p`` one (``p = 0``
    allowed); ``ValueError`` otherwise. Every entry point that takes the
    dynamics checks them here, once."""
    f_mat = np.asarray(f_matrix, dtype=float)
    if f_mat.shape != (n, n):
        raise ValueError(f"F must have shape ({n}, {n}), not {f_mat.shape}")
    _check_finite(f_mat, "F")
    noise = np.asarray(q_generators, dtype=float)
    if noise.size == 0:
        noise = noise.reshape(n, 0)
    if noise.ndim != 2 or noise.shape[0] != n:
        raise ValueError("process-noise generators do not match the state")
    _check_finite(noise, "process-noise generators")
    return f_mat, noise


def check_budget(q: int, dim: int) -> None:
    if q < dim:
        raise ValueError("q must be at least the state dimension")


def _corrected(z: Zonotope, gamma, y, r, front=None, noise=None, q=None,
               memo=None, unit_rows=False) -> Zonotope:
    """``z`` corrected by the strips ``(gamma, y, r)`` at the
    F-radius-optimal gain, with front matrix ``front`` (identity if None)
    and the generator block ``noise`` appended, then reduced to ``q``
    generators unless ``q`` is None: the phase-1 body of both observers.
    The corrected set is checked for finiteness before it is reduced.

    Only the center reads ``y`` and the prior center; the gain, its
    fallback flag and the generators depend on ``G``, ``gamma`` and ``r``
    alone; ``unit_rows`` is that of :func:`frobenius_optimal_gain`.
    ``memo``, a dict shared by calls with one ``front``, ``noise`` and
    ``q``, stores them under the exact input of that data-free step
    (:func:`_shape_key`), and a call that finds its key computes only the
    center, with the expression of :func:`correct`, and checks only that:
    it returns the stored generator array itself, checked when stored.
    """
    if memo is not None:
        key = _shape_key(z.generators, gamma, r)
        if key in memo:
            lam, fallback, gens = memo[key]
            _note_fallback(fallback, len(r))
            return recentered(
                corrected_center(z.center, gamma, y, lam, front), gens)
    lam, fallback = frobenius_optimal_gain(z.generators, gamma, r, front,
                                           unit_rows)
    _note_fallback(fallback, len(r))
    out = checked_zonotope(*correct(z.center, z.generators, gamma, y, r, lam,
                                    front, noise))
    if q is not None:
        out = reduce(out, q)
    if memo is not None:
        memo[key] = lam, fallback, out.generators
    return out


def _shape_key(gens: np.ndarray, gamma: np.ndarray, r: np.ndarray) -> tuple:
    # The bytes of G, Gamma and r, with the shapes and strides of the two
    # matrices: a product over a Fortran-ordered matrix can round
    # differently from one over the same values C-ordered.
    return (gens.shape, gens.strides, gens.tobytes(), gamma.shape,
            gamma.strides, gamma.tobytes(), r.tobytes())


def _note_fallback(fallback: bool, n_strips: int) -> None:
    if fallback:
        _log.debug("gain solve fell back to a pseudo-inverse: the normal "
                   "matrix of %d strips is near-singular", n_strips)


def sm_measurement_update(state: NodeState, strips) -> Zonotope:
    """Corrected set: prior intersected with all strips at the optimal gain."""
    z = state.estimate
    return _corrected(z, *unit_strips(*stack_strips(strips, z.dim)),
                      unit_rows=True)


def sm_diffusion_update(shared, q: int) -> Zonotope:
    """Combine shared corrected sets at optimal weights, then reduce to ``q``."""
    shared = list(shared)
    if not shared:
        raise ValueError("diffusion update requires at least one shared set")
    dim = shared[0].dim
    if any(z.dim != dim for z in shared):
        raise ValueError("all zonotopes must share one dimension")
    check_budget(q, dim)
    gens = [z.generators for z in shared]
    w = optimal_diffusion_weights(shared)[None]
    [(_, out)] = diffusion_generators(
        w, np.array([g.shape[1] for g in gens])[None], np.hstack(gens)[None],
        q)
    center = combined_center(w, np.stack([z.center for z in shared])[None])
    return checked_zonotope(center[0], out[0])


def sm_time_update(z: Zonotope, f_matrix, q_generators) -> Zonotope:
    """Propagate through the dynamics and add the process-noise zonotope."""
    f_mat, noise = dynamics(f_matrix, q_generators, z.dim)
    return checked_zonotope(
        time_update_centers(z.center[None], f_mat)[0],
        time_update_generators(z.generators[None], f_mat, noise)[0])


def iv_luenberger_update(state: NodeState, strips, f_matrix, q_generators,
                         q: int) -> Zonotope:
    """One combined correct-and-propagate step of the interval-based observer.

    Output center ``F c + Lam (y - Gamma c)`` and generators
    ``[(F - Lam Gamma) G, lam_1 r_1, ..., lam_m r_m, Q]``, reduced to
    ``q`` generators, with the gain minimizing the F-radius of that matrix
    (the noise block does not depend on it). Contains ``F x + n`` for every
    prior member ``x`` consistent with the strips and every process noise
    ``n`` bounded by the ``Q`` generators.
    """
    z = state.estimate
    f_mat, noise = dynamics(f_matrix, q_generators, z.dim)
    return _corrected(z, *unit_strips(*stack_strips(strips, z.dim)), f_mat,
                      noise, q, unit_rows=True)


def local_update(state: NodeState, strips, cfg: ObserverConfig, f_matrix,
                 q_generators, memo=None, unit_rows=False) -> Zonotope:
    """Phase-1 computation: the set this node shares with its neighbors.

    ``strips`` holds the node's rows ``(Gamma, y, r)`` of the round's
    stacked strip arrays, shapes ``(m, n)``, ``(m,)`` and ``(m,)``;
    ``f_matrix`` and ``q_generators`` are as :func:`dynamics` returns
    them. :func:`~zonodiff.network.run_round` checks these inputs once per
    round and scales each strip to a unit row
    (:func:`~zonodiff.intersection.unit_strips`), which ``unit_rows`` tells
    the gain solve; here only the corrected set is checked, for
    finiteness. Returns it for the set-membership observer, or reduced to
    ``cfg.q`` generators for the interval-based one (the Luenberger
    step).

    ``memo`` is a dict that ``run_round`` creates for one round and passes
    to every node's call; every call sharing it must pass the same
    ``cfg``, ``f_matrix`` and ``q_generators``. The gain solve and the
    generators (reduced, for the interval-based observer) never read a
    measurement, so they are computed once per distinct prior generator
    matrix, with its layout, and strip rows ``(Gamma, r)``, bit for bit;
    each further node with that key computes only its center and returns
    the stored generator array itself. In the paper's rings the nodes of
    one parity share a key: 30 of the 32 node calls of a 32-node ring
    round, and 6 of 8 in an 8-node one, reuse a solve. Nodes that share
    the arrays let phase 2 diffuse, reduce and propagate each distinct
    neighbourhood once per round. Without ``memo`` every call solves.
    """
    if cfg.kind is ObserverKind.SET_MEMBERSHIP:
        return _corrected(state.estimate, *strips, memo=memo,
                          unit_rows=unit_rows)
    return _corrected(state.estimate, *strips, f_matrix, q_generators, cfg.q,
                      memo, unit_rows)


def fuse_update(state: NodeState, own_corrected: Zonotope, shared_sets,
                cfg: ObserverConfig, f_matrix, q_generators
                ) -> tuple[NodeState, Zonotope]:
    """Phase-2 computation: diffusion (without it, fusion of the node's own
    set alone) plus, for the set-membership observer, the time update.

    ``shared_sets`` are ``(source_id, Zonotope)`` pairs including this
    node's own entry, which is replaced by ``own_corrected`` so that the
    node always fuses its freshly computed set. Returns the next carried
    state and the round's reported estimate.
    """
    if cfg.diffusion_enabled:
        ids = [nid for nid, _ in shared_sets]
        if state.node_id not in ids:
            raise ValueError("shared sets must include the node's own entry")
        sets = [own_corrected if nid == state.node_id else z
                for nid, z in shared_sets]
    else:
        sets = [own_corrected]
    # Both observers reduce the combined set to q generators. The weighted
    # concatenation spreads the Frobenius mass over many near-parallel
    # columns; carrying it unreduced both grows without bound and starves
    # the next round's gain. Without diffusion the node fuses its own set
    # alone: weight 1.0, so the set is only reduced.
    fused = sm_diffusion_update(sets, cfg.q)
    if cfg.kind is ObserverKind.SET_MEMBERSHIP:
        nxt = sm_time_update(fused, f_matrix, q_generators)
    else:
        nxt = fused
    return NodeState(state.node_id, nxt), fused
