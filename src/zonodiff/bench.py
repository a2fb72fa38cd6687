"""Micro-benchmark of the per-node observer sub-steps (``zonodiff bench``
and acceptance criterion 7)."""

from __future__ import annotations

import time

import numpy as np

from .intersection import Strip
from .observers import (
    NodeState,
    iv_luenberger_update,
    sm_diffusion_update,
    sm_measurement_update,
    sm_time_update,
)
from .zonotope import Zonotope

__all__ = ["time_op", "bench_observer_updates", "BENCH_OPS"]


def time_op(op, inputs, repetitions: int) -> float:
    """Mean wall-clock microseconds of ``op(*args)`` over ``repetitions``
    calls, cycling through the pre-built ``inputs`` argument tuples."""
    repetitions = int(repetitions)
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    inputs = list(inputs)
    n = len(inputs)
    start = time.perf_counter()
    for i in range(repetitions):
        op(*inputs[i % n])
    return (time.perf_counter() - start) / repetitions * 1e6


BENCH_OPS = ("measurement", "diffusion", "time", "luenberger")


def _bench_inputs(op: str, m: int, rng: np.random.Generator, q: int):
    f_matrix = np.array([[0.992, -0.1247], [0.1247, 0.992]])
    q_gens = 0.02 * np.eye(2)
    rows = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def rand_zono():
        return Zonotope(rng.uniform(-10, 10, 2),
                        rng.uniform(-1.0, 1.0, (2, 20)))

    def rand_strips():
        return [Strip(rows[j % 2], rng.uniform(-10, 10), 0.2)
                for j in range(m)]

    out = []
    for _ in range(32):
        if op == "measurement":
            out.append((NodeState(0, rand_zono()), rand_strips()))
        elif op == "diffusion":
            out.append(([rand_zono() for _ in range(m)], q))
        elif op == "time":
            out.append((rand_zono(), f_matrix, q_gens))
        elif op == "luenberger":
            out.append((NodeState(0, rand_zono()), rand_strips(), f_matrix,
                        q_gens, q))
        else:
            raise ValueError(f"unknown bench op {op!r}")
    return out


def bench_observer_updates(repetitions: int, k_values=(2, 4, 6), seed=0,
                           q: int = 20) -> dict:
    """Table-shaped timing of the four observer sub-steps.

    Returns ``{op: {k: us}}`` for ``op`` in :data:`BENCH_OPS`, timed on a
    pool of 32 randomly generated inputs per cell: zonotopes with 20
    generators and ``k + 1``-member neighborhoods. With at least 1000
    repetitions the neighbor counts are timed in ten interleaved passes, and
    a cell reports the median of its per-pass means, so one burst of host
    load in one pass cannot reorder the cells.
    """
    ops = {
        "measurement": lambda s, strips: sm_measurement_update(s, strips),
        "diffusion": lambda sets, qq: sm_diffusion_update(sets, qq),
        "time": lambda z, f, qg: sm_time_update(z, f, qg),
        "luenberger": lambda s, strips, f, qg, qq:
            iv_luenberger_update(s, strips, f, qg, qq),
    }
    table: dict = {name: {} for name in BENCH_OPS}
    k_values = tuple(k_values)
    passes = 10 if repetitions >= 1000 else 1
    chunk = max(1, repetitions // passes)
    for op_index, name in enumerate(BENCH_OPS):
        per_k_inputs = {}
        for k in k_values:
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, op_index, k)))
            per_k_inputs[k] = _bench_inputs(name, k + 1, rng, q)
            # Warm caches and CPU clocks before the measured runs.
            time_op(ops[name], per_k_inputs[k], min(200, repetitions))
        # Interleave the neighbor counts in round-robin passes so slow
        # clock drift biases every cell equally.
        pass_means = {k: [] for k in k_values}
        counts = {k: 0 for k in k_values}
        while min(counts.values()) < repetitions:
            for k in k_values:
                n = min(chunk, repetitions - counts[k])
                if n > 0:
                    pass_means[k].append(time_op(ops[name], per_k_inputs[k], n))
                    counts[k] += n
        for k in k_values:
            table[name][k] = float(np.median(pass_means[k]))
    return table
