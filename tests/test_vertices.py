"""The stacked zonogon vertex enumeration against a per-set oracle.

``oracle_vertices`` is the per-set algorithm the stacked kernel replaced:
drop zero generators, flip into the upper half-plane, stable sort by angle,
merge neighbors left to right, walk the boundary. Merging needs a positive
dot product as well as a relative cross product of at most 1e-14, so
near-anti-parallel generators at the wrap of the half-plane are kept apart.
The kernel must return the oracle's arrays bit for bit.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonodiff import (Zonotope, interval_hull, paper_scenario, simulate,
                      vertices_2d)
from zonodiff import zonotope
from zonodiff.cli import RunConfig, execute_run, grid_cells


def oracle_vertices(z):
    gens = z.generators[:, np.any(z.generators != 0.0, axis=0)]
    if gens.shape[1] == 0:
        return z.center.reshape(1, 2).copy()
    flip = (gens[1] < 0) | ((gens[1] == 0) & (gens[0] < 0))
    gens = gens * np.where(flip, -1.0, 1.0)
    order = np.argsort(np.arctan2(gens[1], gens[0]), kind="stable")
    gens = gens[:, order]
    merged = [gens[:, 0].copy()]
    for j in range(1, gens.shape[1]):
        g = gens[:, j]
        last = merged[-1]
        cross = last[0] * g[1] - last[1] * g[0]
        if (last[0] * g[0] + last[1] * g[1] > 0 and abs(cross)
                <= 1e-14 * np.linalg.norm(last) * np.linalg.norm(g)):
            merged[-1] = last + g
        else:
            merged.append(g.copy())
    gens = np.column_stack(merged)
    m = gens.shape[1]
    walk = np.cumsum(np.vstack([z.center - gens.sum(axis=1), 2.0 * gens.T]),
                     axis=0)
    return np.vstack([walk, 2.0 * z.center - walk[1:m]])


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def mismatches(zs, got):
    return [i for i, (z, v) in enumerate(zip(zs, got))
            if not same_bits(v, oracle_vertices(z))]


SCREEN = zonotope._merge_screen


def uncertified(gens):
    # The screen's merge with no set certified: every set takes the
    # sequential fallback.
    sums, join, certain = SCREEN(gens)
    return sums, join, np.zeros_like(certain)


def forced_fallback(zs):
    with mock.patch.object(zonotope, "_merge_screen", uncertified):
        return zonotope._vertices_stack(zs)


@pytest.fixture(scope="module")
def grid_cells_40():
    """Every node-step estimate of each cell of ``zonodiff grid --steps 40
    --seed 0``, one list per cell."""
    cfg = RunConfig(steps=40, seed=0).validate()
    model, _ = paper_scenario(cfg.process_noise, cfg.measurement_noise)
    trajectory = simulate(model, cfg.steps, cfg.seed)
    cells = []
    for alg, diff, k in grid_cells():
        cell = replace(cfg, algorithm=alg, diffusion=diff,
                       neighbors=k).validate()
        _, estimates, _, _ = execute_run(cell, trajectory)
        cells.append([z for row in estimates for z in row])
    return cells


def test_grid_cells_match_oracle(grid_cells_40):
    calls = []
    sequential = zonotope._merge_collinear

    def counted(gens):
        calls.append(1)
        return sequential(gens)

    total = 0
    with mock.patch.object(zonotope, "_merge_collinear", counted):
        for zs in grid_cells_40:
            assert mismatches(zs, zonotope._vertices_stack(zs)) == []
            total += len(zs)
    assert total == 12 * 40 * 8
    # The screen certifies most sets, so the stacked merge is what is tested.
    assert 0 < len(calls) < total // 10


def test_grid_cells_fallback_matches_oracle(grid_cells_40):
    for zs in grid_cells_40:
        assert mismatches(zs, forced_fallback(zs)) == []


TINY = st.floats(1e-16, 1e-13) | st.floats(1e-20, 1e-16)
SIGNS = st.sampled_from([-1.0, 1.0])


def unit(angle):
    return np.array([np.cos(angle), np.sin(angle)])


@st.composite
def zonogons(draw):
    """2-D zonotopes whose generators are exactly parallel (power-of-two
    multiples), parallel to a relative cross of 1e-20 to 1e-13, nearly
    anti-parallel across the wrap at angle 0 = pi, zero, or free."""
    center = np.array(draw(st.lists(st.floats(-100, 100), min_size=2,
                                    max_size=2)))
    scale = 10.0 ** draw(st.integers(-3, 3))
    angles = st.floats(0.0, 2 * np.pi, exclude_max=True)
    bases = [scale * unit(draw(angles))
             for _ in range(draw(st.integers(1, 3)))]
    bases.append(np.array([scale, 0.0]))
    kinds = ["exact", "near", "wrap", "zero", "free"]
    if draw(st.booleans()):
        kinds, bases = ["exact", "near"], bases[:1]  # rank 1 up to rounding
    cols = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        u = bases[draw(st.integers(0, len(bases) - 1))]
        sign = draw(SIGNS)
        length = sign * draw(st.floats(0.1, 10.0))
        if kind == "exact":
            col = sign * 2.0 ** draw(st.integers(-4, 4)) * u
        elif kind == "near":
            normal = np.array([-u[1], u[0]])
            col = length * (u + draw(SIGNS) * draw(TINY) * normal)
        elif kind == "wrap":
            col = length * scale * np.array([1.0, draw(SIGNS) * draw(TINY)])
        elif kind == "zero":
            col = np.zeros(2)
        else:
            col = length * scale * unit(draw(angles))
        cols.append(col)
    return Zonotope(center, np.array(cols).T.reshape(2, len(cols)))


@given(st.lists(zonogons(), min_size=1, max_size=12))
@settings(max_examples=150, deadline=None)
def test_stacks_match_oracle(zs):
    assert mismatches(zs, zonotope._vertices_stack(zs)) == []
    assert mismatches(zs, forced_fallback(zs)) == []


@pytest.mark.parametrize("scale", [1e-170, 1e-130, 1e130, 1e150])
def test_extreme_scales_match_oracle(rng, scale):
    # Norms outside 2^-400..2^400 are not screened; those sets take the
    # sequential merge.
    base = rng.normal(size=(2, 3))
    gens = np.hstack([base, 2.0 * base[:, :1], base[:, 1:2] * (1 + 1e-15)])
    zs = [Zonotope(np.zeros(2), scale * gens), Zonotope(np.ones(2), gens)]
    assert mismatches(zs, zonotope._vertices_stack(zs)) == []


def assert_hull(z, verts):
    lower, upper = interval_hull(z)
    tol = 1e-12 * (np.abs(z.center) + 0.5 * (upper - lower))
    assert np.all(np.abs(verts.min(axis=0) - lower) <= tol)
    assert np.all(np.abs(verts.max(axis=0) - upper) <= tol)


@given(zonogons())
@settings(max_examples=150, deadline=None)
def test_vertices_span_the_interval_hull(z):
    assert_hull(z, vertices_2d(z))


@pytest.mark.parametrize("gens, x_range", [
    ([[1.0, -1.0], [0.0, 1e-20]], 2.0),
    ([[1.0, 0.5, -1.0], [0.0, 1e-20, 1e-20]], 2.5),
])
def test_near_anti_parallel_generators_not_merged(gens, x_range):
    # After the flip, a generator at angle pi - 1e-20 is anti-parallel to
    # one at angle 0; adding them would cancel the set's x extent.
    z = Zonotope([0.0, 0.0], gens)
    verts = vertices_2d(z)
    assert verts[:, 0].min() == -x_range and verts[:, 0].max() == x_range
    assert_hull(z, verts)


def test_stack_rejects_non_2d():
    with pytest.raises(ValueError, match="dimension 2"):
        zonotope._vertices_stack([Zonotope.point([0.0, 0.0]),
                                  Zonotope.point([0.0, 0.0, 0.0])])
