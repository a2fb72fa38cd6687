"""Micro-benchmark of the per-node observer sub-steps (``zonodiff bench``
and acceptance criterion 7)."""

from __future__ import annotations

import gc
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
    calls, cycling through the pre-built ``inputs`` argument tuples.

    The cyclic garbage collector is off while timing (as in ``timeit``):
    its cost grows with everything else alive in the process, not with
    the operation.
    """
    repetitions = int(repetitions)
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    inputs = list(inputs)
    n = len(inputs)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(repetitions):
            op(*inputs[i % n])
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed / repetitions * 1e6


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
    generators and ``k + 1``-member neighborhoods. Every cell runs
    ``repetitions`` calls, split into paired passes (up to 200, of at least
    100 calls per cell) that time the neighbor counts back to back, in
    alternating order. A cell reports the median over passes of its share
    of the pass mean, times the median pass mean, so host load that
    changes between passes scales a whole pass and drops out of the
    comparison between neighbor counts.
    """
    ops = {"measurement": sm_measurement_update,
           "diffusion": sm_diffusion_update,
           "time": sm_time_update,
           "luenberger": iv_luenberger_update}
    table: dict = {name: {} for name in BENCH_OPS}
    k_values = tuple(k_values)
    passes = max(1, min(200, repetitions // 100))
    sizes = [repetitions // passes + (p < repetitions % passes)
             for p in range(passes)]
    for op_index, name in enumerate(BENCH_OPS):
        per_k_inputs = []
        for k in k_values:
            rng = np.random.default_rng(
                np.random.SeedSequence((seed, op_index, k)))
            per_k_inputs.append(_bench_inputs(name, k + 1, rng, q))
            # Warm caches and CPU clocks before the measured runs.
            time_op(ops[name], per_k_inputs[-1], min(200, repetitions))
        times = np.empty((passes, len(k_values)))
        order = list(range(len(k_values)))
        for p, n in enumerate(sizes):
            for j in (order if p % 2 == 0 else order[::-1]):
                times[p, j] = time_op(ops[name], per_k_inputs[j], n)
        pass_means = times.mean(axis=1, keepdims=True)
        cells = np.median(times / pass_means, axis=0) * np.median(pass_means)
        for k, us in zip(k_values, cells):
            table[name][k] = float(us)
    return table
