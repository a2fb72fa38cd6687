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
that update many nodes at once; the per-node fusion and time update run
the same kernels on stacks of one, so a node gets the same result alone as
in a network round.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .intersection import (
    combine,
    correct,
    diffusion_weights,
    frobenius_optimal_gain,
    squared_f_radius,
    stack_strips,
)
from .zonotope import (
    Zonotope,
    _check_finite,
    checked_zonotope,
    reduce,
    reduce_stack,
    stack_zonotopes,
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


# Stack kernels of phase 2. Each runs one step for a stack of B nodes at
# once and returns the new sets as a list of (rows, centers, generators)
# groups, one per output generator count, rows indexing the input stack.
# The per-node fusion and time update below run the same kernels on stacks
# of one.

def diffusion_stack(beta, centers, widths, gens, q) -> list:
    """Diffusion of gathered neighborhoods: optimal weights, weighted
    combination, reduction to ``q``.

    Per member ``j`` of row ``b``: ``beta[b, j]`` its squared F-radius,
    ``centers[b, j]`` its center and ``widths[b, j]`` its generator count;
    ``gens[b]`` holds the members' generators side by side in member order.
    """
    w = diffusion_weights(beta)
    col_weights = np.repeat(w.ravel(), widths.ravel()).reshape(len(w), -1)
    center, out = combine(w, centers, gens, col_weights)
    return [(rows, center[rows], g) for rows, g in reduce_stack(out, q)]


def time_update_stack(centers, gens, f_matrix, noise):
    """``<F c, [F G, Q]>`` row by row; returns ``(centers, gens)``."""
    return ((f_matrix @ centers[:, :, None])[:, :, 0],
            np.concatenate([f_matrix @ gens, _stacked(noise, len(gens))],
                           axis=2))


def _stacked(noise: np.ndarray, batch: int) -> np.ndarray:
    return np.repeat(noise[None], batch, axis=0)


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


def _corrected(z: Zonotope, gamma, y, r, front=None, noise=None) -> Zonotope:
    """``z`` corrected by the strips ``(gamma, y, r)`` at the
    F-radius-optimal gain, with front matrix ``front`` (identity if None)
    and the generator block ``noise`` appended: the phase-1 body of both
    observers. The result is checked for finiteness."""
    lam, fallback = frobenius_optimal_gain(z.generators, gamma, r, front)
    if fallback:
        _log.debug("gain solve fell back to a pseudo-inverse: the normal "
                   "matrix of %d strips is near-singular", len(r))
    return checked_zonotope(*correct(z.center, z.generators, gamma, y, r, lam,
                                     front, noise))


def sm_measurement_update(state: NodeState, strips) -> Zonotope:
    """Corrected set: prior intersected with all strips at the optimal gain."""
    z = state.estimate
    return _corrected(z, *stack_strips(strips, z.dim))


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
    [(_, center, out)] = diffusion_stack(
        squared_f_radius(gens)[None],
        np.stack([z.center for z in shared])[None],
        np.array([g.shape[1] for g in gens])[None],
        np.hstack(gens)[None], q)
    return stack_zonotopes(center, out)[0]


def sm_time_update(z: Zonotope, f_matrix, q_generators) -> Zonotope:
    """Propagate through the dynamics and add the process-noise zonotope."""
    center, gens = time_update_stack(z.center[None], z.generators[None],
                                     *dynamics(f_matrix, q_generators, z.dim))
    return stack_zonotopes(center, gens)[0]


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
    return reduce(_corrected(z, *stack_strips(strips, z.dim), f_mat, noise), q)


def local_update(state: NodeState, strips, cfg: ObserverConfig, f_matrix,
                 q_generators) -> Zonotope:
    """Phase-1 computation: the set this node shares with its neighbors.

    ``strips`` holds the node's rows ``(Gamma, y, r)`` of the round's
    stacked strip arrays, shapes ``(m, n)``, ``(m,)`` and ``(m,)``;
    ``f_matrix`` and ``q_generators`` are as :func:`dynamics` returns
    them. :func:`~zonodiff.network.run_round` checks these inputs once per
    round; here only the corrected set is checked, for finiteness. Returns
    it for the set-membership observer, or reduced to ``cfg.q`` generators
    for the interval-based one (the Luenberger step).
    """
    if cfg.kind is ObserverKind.SET_MEMBERSHIP:
        return _corrected(state.estimate, *strips)
    return reduce(_corrected(state.estimate, *strips, f_matrix, q_generators),
                  cfg.q)


def fuse_update(state: NodeState, own_corrected: Zonotope, shared_sets,
                cfg: ObserverConfig, f_matrix, q_generators
                ) -> tuple[NodeState, Zonotope]:
    """Phase-2 computation: diffusion (or the no-diffusion identity) plus,
    for the set-membership observer, the time update.

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
        # Both observers reduce the combined set to q generators. The
        # weighted concatenation spreads the Frobenius mass over many
        # near-parallel columns; carrying it unreduced both grows without
        # bound and starves the next round's gain.
        fused = sm_diffusion_update(sets, cfg.q)
    else:
        if cfg.kind is ObserverKind.SET_MEMBERSHIP:
            fused = reduce(own_corrected, cfg.q)
        else:
            fused = own_corrected  # already reduced by the Luenberger step
    if cfg.kind is ObserverKind.SET_MEMBERSHIP:
        nxt = sm_time_update(fused, f_matrix, q_generators)
    else:
        nxt = fused
    return NodeState(state.node_id, nxt), fused
