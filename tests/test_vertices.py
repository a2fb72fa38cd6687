"""The stacked zonogon vertex enumeration against a per-set oracle.

``oracle_vertices`` is the per-set algorithm the stacked kernel replaced:
drop zero generators, flip into the upper half-plane, stable sort by angle,
merge neighbors left to right, walk the boundary. Merging needs a positive
dot product as well as a relative cross product of at most 1e-14, so
near-anti-parallel generators at the wrap of the half-plane are kept apart.
The test is made on the set scaled by the power of two of its largest
entry, and the merged sums are scaled back.
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
    k = np.frexp(np.abs(gens).max())[1]
    gens = np.ldexp(gens[:, order], -k)
    merged = [gens[:, 0].copy()]
    for j in range(1, gens.shape[1]):
        g = gens[:, j]
        last = merged[-1]
        if same_direction(last, g):
            merged[-1] = last + g
        else:
            merged.append(g.copy())
    gens = np.ldexp(np.column_stack(merged), k)
    m = gens.shape[1]
    walk = np.cumsum(np.vstack([z.center - gens.sum(axis=1), 2.0 * gens.T]),
                     axis=0)
    return np.vstack([walk, 2.0 * z.center - walk[1:m]])


def same_direction(a, b):
    # a . b > 0 and |a x b| <= 1e-14 |a| |b|.
    dot = a[0] * b[0] + a[1] * b[1]
    cross = a[0] * b[1] - a[1] * b[0]
    bound = 1e-14 * np.linalg.norm(a) * np.linalg.norm(b)
    return dot > 0 and abs(cross) <= bound


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def mismatches(zs, got):
    return [i for i, (z, v) in enumerate(zip(zs, got))
            if not same_bits(v, oracle_vertices(z))]


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
    walks = []
    walk = zonotope._walk

    def counted(centers, gens):
        walks.append(len(centers))
        return walk(centers, gens)

    total = 0
    for zs in grid_cells_40:
        walks.clear()
        with mock.patch.object(zonotope, "_walk", counted):
            assert mismatches(zs, zonotope._vertices_stack(zs)) == []
        # One walk per (generator count, nonzero count, merged count)
        # group: no set takes a path of its own.
        groups = {(z.n_generators, np.count_nonzero(z.generators.any(axis=0)),
                   len(oracle_vertices(z)) // 2) for z in zs}
        groups = {g for g in groups if g[1] > 0}
        assert len(walks) == len(groups)
        assert sum(walks) == sum(z.generators.any() for z in zs)
        total += len(zs)
    assert total == 12 * 40 * 8


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
    for _ in range(draw(st.integers(0, 40))):
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


@pytest.mark.parametrize("scale",
                         [1e-170, 1e-130, 1e130, 1e150, 1e160, 1e300])
def test_extreme_scales_match_oracle(rng, scale):
    # Unscaled, the products of the merge test underflow below norms of
    # about 1e-162 and overflow above about 1e154; the stack mixes such
    # rows with unit-scale ones.
    base = rng.normal(size=(2, 3))
    gens = np.hstack([base, 2.0 * base[:, :1], base[:, 1:2] * (1 + 1e-15)])
    zs = [Zonotope(np.zeros(2), scale * gens), Zonotope(np.ones(2), gens)]
    assert mismatches(zs, zonotope._vertices_stack(zs)) == []


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [-1000, -565, -520, 520, 900])
def test_vertices_are_homogeneous(j):
    # Random zonogons with exactly parallel and near-parallel generator
    # pairs: scaled by 2^j, each set's vertices are its vertices scaled by
    # 2^j, bit for bit. Unscaled, the merge test's products would underflow
    # at 2^-565 and keep parallel pairs apart.
    rng = np.random.default_rng(565)
    zs = []
    for _ in range(300):
        base = rng.normal(size=(2, 4))
        tilt = 1e-15 * rng.normal(size=(2, 2)) * np.abs(base[:, 2:]).max()
        gens = np.hstack([base, 2.0 * base[:, :2], base[:, 2:] + tilt])
        zs.append(Zonotope(rng.normal(size=2),
                           gens[:, rng.permutation(gens.shape[1])]))
    want = zonotope._vertices_stack(zs)
    got = zonotope._vertices_stack(
        [Zonotope(np.ldexp(z.center, j), np.ldexp(z.generators, j))
         for z in zs])
    assert all(same_bits(np.ldexp(v, j), g) for v, g in zip(want, got))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("center, gens, want", [
    ([0.0, 0.0], [[1e308, 0.0], [0.0, 1e308]],
     [[-1e308, -1e308], [1e308, -1e308], [1e308, 1e308], [-1e308, 1e308]]),
    ([0.0, 0.0], [[1.5e308, 1.5e308], [0.0, 1e300]],
     [[-np.inf, -1e300], [0.0, -1e300], [np.inf, 1e300], [0.0, 1e300]]),
    ([1.7e308, -1.7e308], [[1.0, 0.0], [0.0, 1.0]], [[1.7e308, -1.7e308]] * 4),
], ids=["square", "beyond-range", "far-center"])
def test_vertices_near_the_double_range(center, gens, want):
    # Unscaled, the walk would overflow: it doubles each generator, starts
    # at c - sum_j g_j and reflects through 2c. It is taken on the set
    # scaled down by a power of two instead; a vertex beyond the double
    # range comes back infinite, without a warning.
    assert np.array_equal(vertices_2d(Zonotope(center, gens)), want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("j", [1000, 1016, 1019, 1021])
def test_vertices_scale_to_the_double_range(j):
    # Sets scaled by 2^j up to the top of the double range: each set's
    # vertices are its vertices at scale 1 scaled by 2^j, bit for bit, or
    # infinite where that passes the range.
    rng = np.random.default_rng(1019)
    zs = []
    for _ in range(300):
        base = rng.normal(size=(2, 4))
        gens = np.hstack([base, 2.0 * base[:, :2]])
        zs.append(Zonotope(rng.normal(size=2),
                           gens[:, rng.permutation(gens.shape[1])]))
    want = zonotope._vertices_stack(zs)
    got = zonotope._vertices_stack(
        [Zonotope(np.ldexp(z.center, j), np.ldexp(z.generators, j))
         for z in zs])
    with np.errstate(over="ignore"):
        assert all(same_bits(np.ldexp(v, j), g) for v, g in zip(want, got))
    assert any(np.isinf(g).any() for g in got) == (j == 1021)


def test_norms_match_linalg_norm():
    # Rows whose entries differ by at most 10^4 in magnitude, where
    # sqrt(x * x + y * y) rounds differently from np.linalg.norm.
    rng = np.random.default_rng(7)
    count = 100_000
    rows = rng.normal(size=(count, 2)) * 10.0 ** (
        rng.integers(-150, 151, size=(count, 1))
        + rng.integers(-2, 3, size=(count, 2)))
    want = np.array([np.linalg.norm(v) for v in rows])
    assert same_bits(zonotope._norms(rows), want)


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


@pytest.mark.parametrize("gens, count", [
    ([[1e160, 1e100], [1e100, 1e160]], 4),  # a parallelogram
    ([[1e160, 2e160], [1e100, 2e100]], 2),  # parallel: a segment
])
def test_huge_generators_merge_only_when_parallel(gens, count):
    # Above norms of about 1e154 the products of the merge test would
    # overflow; it is made on the set scaled by a power of two.
    z = Zonotope([0.0, 0.0], gens)
    verts = vertices_2d(z)
    assert len(verts) == count
    assert_hull(z, verts)


def test_stack_rejects_non_2d():
    with pytest.raises(ValueError, match="dimension 2"):
        zonotope._vertices_stack([Zonotope.point([0.0, 0.0]),
                                  Zonotope.point([0.0, 0.0, 0.0])])
