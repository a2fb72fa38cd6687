"""The benchmark's three workloads: set-up, warm-up and one timed pass each.

Every call into zonodiff goes through a module attribute (``zonodiff.x``,
``network.run_round``, ``cli.main``) at call time, so the round timer and
the tracer see each call wherever they are installed.

* ``paper-grid``: ``zonodiff grid`` run in-process through ``cli.main``:
  sm/iv x diffusion on/off x k = 2/4/6 on the paper's 8-node ring, q = 20,
  one shared trajectory. The paper's experiment and the command users run;
  observers and the metrics layer (records, pairwise Hausdorff) dominate.
* ``ring32-online``: a 32-node ring with k = 6, sm then iv, rounds driven
  one at a time through ``network.run_round`` with containment checked
  after each round. No records, summaries or writes: per-node observer
  cost dominates and the metrics layer does no work.
* ``cv4-track``: a 4-state constant-velocity target tracked by an 8-node
  ring with k = 4, sm then iv, rounds driven one at a time, followed by
  ``build_records`` and ``summarize``. Containment in 4-D takes the LP path
  and the gain solve and ``reduce`` run with n = 4.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import zonodiff
from zonodiff import cli, network

BURN_IN = 5
CONTAINMENT_TOL = 1e-7
Q = 20
ALGORITHMS = ("sm", "iv")

# Steps per pass: long enough for steady-state sets after the burn-in,
# short enough for several passes in one measured run.
STEPS = {"paper-grid": 40, "ring32-online": 50, "cv4-track": 50}


@dataclass
class Outcome:
    """One pass: its timed seconds and, per group (an algorithm or a grid
    cell), ``[node_steps, failed]``. ``summary`` maps ``group:metric`` to the
    post-burn-in mean checked against the reference."""

    seconds: float
    groups: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    @property
    def node_steps(self) -> int:
        return sum(n for n, _ in self.groups.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.groups.values())

    @property
    def radius(self) -> float:
        # Every group has the same node-step count, so the mean of the group
        # means is the mean over all node-steps.
        radii = [v for k, v in self.summary.items() if k.endswith(":radius_m")]
        return float(np.mean(radii)) if radii else 0.0


@dataclass
class Inputs:
    name: str
    seed: int
    steps: int
    model: object
    topology: object
    trajectory: object
    out_dir: str


def cv4_model(seed: int, n_nodes: int = 8):
    """Constant-velocity target: position and velocity on two axes, the
    nodes measuring the two position axes alternately."""
    f_matrix = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0],
                         [0.0, 0.0, 0.98, 0.0], [0.0, 0.0, 0.0, 0.98]])
    initial_set = zonodiff.Zonotope(np.zeros(4), np.diag([80.0, 80.0, 10.0, 10.0]))
    x0 = zonodiff.sample_in_zonotope(initial_set, np.random.default_rng(seed))
    rows = (np.eye(4)[0], np.eye(4)[1])

    def schedule(node: int, step: int):
        return rows[(node + step) % 2], 8.0

    return zonodiff.SystemModel(
        f_matrix=f_matrix, q_generators=np.diag([0.5, 0.5, 0.3, 0.3]),
        schedule=schedule, initial_set=initial_set, true_initial_state=x0,
        n_nodes=n_nodes)


def setup(name: str, seed: int, steps: int | None = None,
          out_dir: str = ".") -> Inputs:
    """Build the model, topology and trajectory, then warm the lazy paths."""
    steps = STEPS[name] if steps is None else steps
    if name == "paper-grid":
        model, presets = zonodiff.paper_scenario()
        topology = presets[6]
    elif name == "ring32-online":
        model, presets = zonodiff.paper_scenario(n_nodes=32)
        topology = presets[6]
    elif name == "cv4-track":
        model = cv4_model(seed)
        topology = zonodiff.ring_topology(8, 4)
    else:
        raise ValueError(f"unknown workload {name!r}")
    trajectory = zonodiff.simulate(model, steps, seed)
    inputs = Inputs(name, seed, steps, model, topology, trajectory, out_dir)
    _warm_up(inputs)
    return inputs


def _warm_up(inputs: Inputs) -> None:
    # First calls of the gain solve, the membership test (HiGHS in 4-D) and,
    # for the grid's Hausdorff metric, cdist load their lazy parts.
    for kind in ALGORITHMS:
        drive_rounds(inputs, kind, rounds=2)
    if inputs.name == "paper-grid":
        zonodiff.hausdorff_2d(inputs.model.initial_set, inputs.model.initial_set)


def drive_rounds(inputs: Inputs, kind: str, rounds: int | None = None):
    """Online estimation: one ``network.run_round`` call per step, with the
    containment of every node's estimate checked after each round.

    Returns ``(estimates, failed)``; ``estimates[k][i]`` estimates the true
    state at step ``k`` with the semantics of ``run_simulation``.
    """
    model, topology, trajectory = inputs.model, inputs.topology, inputs.trajectory
    cfg = zonodiff.ObserverConfig(kind=kind, q=Q, diffusion_enabled=True)
    n = topology.n_nodes
    states = [zonodiff.NodeState(i, model.initial_set) for i in range(n)]
    estimates = []
    failed = 0
    if kind == "iv":
        # The interval-based estimate for step k comes from round k - 1.
        estimates.append([s.estimate for s in states])
        failed += count_escapes(estimates[0], trajectory.states[0])
    total = trajectory.n_steps - len(estimates)
    for k in range(total if rounds is None else min(rounds, total)):
        strips = [model.strip_for(i, k, trajectory.measurements[k, i])
                  for i in range(n)]
        states, trace = network.run_round(topology, states, strips, cfg,
                                          model.f_matrix, model.q_generators,
                                          step_index=k)
        row = list(trace.round_estimates)
        failed += count_escapes(row, trajectory.states[len(estimates)])
        estimates.append(row)
    return estimates, failed


def count_escapes(estimates, truth, tol: float = CONTAINMENT_TOL) -> int:
    """Number of estimates that do not contain the true state."""
    return sum(not zonodiff.contains_point(est, truth, tol) for est in estimates)


def run_pass(inputs: Inputs) -> Outcome:
    if inputs.name == "paper-grid":
        return _grid_pass(inputs)
    if inputs.name == "ring32-online":
        return _online_pass(inputs, _ring_estimate)
    return _online_pass(inputs, _track_estimate)


def _grid_pass(inputs: Inputs) -> Outcome:
    argv = ["grid", "--steps", str(inputs.steps), "--seed", str(inputs.seed),
            "--q", str(Q), "--out", inputs.out_dir]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    out = Outcome(time.perf_counter() - start)
    node_steps = inputs.steps * inputs.model.n_nodes
    cells = [f"{alg}/{'on' if diff else 'off'}/{k}"
             for alg, diff, k in cli.grid_cells()]
    # The grid stops at the first failing cell, so a nonzero exit code
    # (3: containment violation, 2: runtime error) leaves every cell
    # unverified.
    out.groups = {cell: [node_steps, node_steps if code else 0] for cell in cells}
    if code == 0:
        path = os.path.join(inputs.out_dir, "grid_summary.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        names = {"radius_frobenius_m": "radius_m", "center_err_m": "center_err_m",
                 "hausdorff_m": "hausdorff_m"}
        for row in rows:
            if row["metric"] in names:
                cell = f"{row['algorithm']}/{row['diffusion']}/{row['k_neighbors']}"
                out.summary[f"{cell}:{names[row['metric']]}"] = float(row["mean"])
    return out


def _online_pass(inputs: Inputs, estimate) -> Outcome:
    """Time ``estimate(inputs, kind)`` for both algorithms. It returns the
    run's failed node-steps and its post-burn-in radius and centre-error
    means. A run in which the program raises fails all its node-steps."""
    start = time.perf_counter()
    runs = {}
    for kind in ALGORITHMS:
        try:
            runs[kind] = estimate(inputs, kind)
        except Exception:  # noqa: BLE001 - counted as failed, not fatal
            traceback.print_exc()
            runs[kind] = None
    out = Outcome(time.perf_counter() - start)
    node_steps = inputs.steps * inputs.topology.n_nodes
    for kind, run in runs.items():
        if run is None:
            out.groups[kind] = [node_steps, node_steps]
            continue
        failed, radius, error = run
        out.groups[kind] = [node_steps, failed]
        out.summary[f"{kind}:radius_m"] = radius
        out.summary[f"{kind}:center_err_m"] = error
    return out


def _ring_estimate(inputs: Inputs, kind: str):
    estimates, failed = drive_rounds(inputs, kind)
    tail = [(est, inputs.trajectory.states[k])
            for k, row in enumerate(estimates) if k >= BURN_IN for est in row]
    radius = np.mean([zonodiff.f_radius(est) for est, _ in tail])
    error = np.mean([np.linalg.norm(est.center - truth) for est, truth in tail])
    return failed, float(radius), float(error)


def _track_estimate(inputs: Inputs, kind: str):
    estimates, failed = drive_rounds(inputs, kind)
    times = [[0.0] * inputs.topology.n_nodes for _ in estimates]
    result = zonodiff.SimulationResult(estimates, times)
    records = zonodiff.build_records(result, inputs.trajectory)
    _, run = zonodiff.summarize(records, estimates, burn_in=BURN_IN)
    return failed, run.radius_mean, run.center_error_mean
