from dataclasses import replace

import numpy as np
import pytest

from zonodiff import (ObserverConfig, Topology, Trajectory, Zonotope,
                      alternating_schedule, paper_scenario, run_simulation,
                      simulate)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_zonotope(rng, dim, n_gens, scale=1.0):
    return Zonotope(rng.normal(size=dim) * scale,
                    rng.normal(size=(dim, n_gens)) * scale)


def sample_members(rng, z, count):
    """Uniform-beta member points of ``z``, shape (count, dim)."""
    betas = rng.uniform(-1.0, 1.0, (count, z.n_generators))
    return z.center + betas @ z.generators.T


def sample_vertices(rng, z, count):
    """Member points at random sign combinations (extreme points)."""
    signs = rng.choice([-1.0, 1.0], (count, z.n_generators))
    return z.center + signs @ z.generators.T


def certified_member(z, x):
    """Cheap sufficient membership test via a least-squares certificate.

    Returns True only when a coefficient vector with infinity norm <= 1
    is exhibited; may return False for boundary members, which makes it
    safe for filtering candidate points without consulting the
    implementation under test.
    """
    if z.n_generators == 0:
        return bool(np.allclose(x, z.center, atol=1e-12))
    beta, residual, *_ = np.linalg.lstsq(z.generators, np.asarray(x) - z.center,
                                         rcond=None)
    fit = z.center + z.generators @ beta
    if not np.allclose(fit, x, atol=1e-9):
        return False
    return bool(np.abs(beta).max() <= 1.0)


def paper_run(kind, diffusion, topology, scale=0, perm=None, steps=200,
              seed=3):
    """Estimates ``[step][node]`` of a paper-scenario run on ``topology``
    (8 nodes), with the scenario scaled by ``2^scale`` and its node ids
    relabelled by the permutation ``perm``.

    Scaling multiplies the initial set, the process noise, the strip
    half-width, the true states and the measurements by ``2^scale``.
    Relabelling gives node ``perm[i]`` node ``i``'s measurements and
    neighbors. ``perm`` must keep the parity of every node, as a node's
    measurement row alternates with its parity.
    """
    model, _ = paper_scenario()
    trajectory = simulate(model, steps, seed)
    n = model.n_nodes
    perm = np.arange(n) if perm is None else np.asarray(perm)
    assert sorted(perm) == list(range(n))
    assert (perm % 2 == np.arange(n) % 2).all(), "perm must keep parity"

    def up(a):
        return np.ldexp(np.asarray(a, dtype=float), scale)

    z = model.initial_set
    model = replace(model, initial_set=Zonotope(up(z.center), up(z.generators)),
                    q_generators=up(model.q_generators),
                    schedule=alternating_schedule(
                        float(up(model.schedule(0, 0)[1]))),
                    true_initial_state=up(model.true_initial_state))
    old = np.argsort(perm)  # node old[j] is relabelled j
    trajectory = Trajectory(up(trajectory.states),
                            up(trajectory.measurements)[:, old])
    topology = Topology(n, tuple(
        tuple(int(perm[j]) for j in topology.neighbors[i]) for i in old))
    cfg = ObserverConfig(kind=kind, diffusion_enabled=diffusion)
    return run_simulation(model, topology, cfg, trajectory).estimates
