"""Ground-truth plant simulation and the rotating-target demo scenario.

The plant is the discrete-time linear system ``x_{k+1} = F x_k + n_k`` with
per-node scalar measurements ``y_k^i = h_k^i x_k + v_k^i``; both noises are
bounded (process noise by a zonotope, measurement noise by the strip
half-width). Randomness is drawn from named, seeded streams: one for the
process noise and one per node for measurement noise, so trajectories are
reproducible and independent of loop order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .intersection import Strip
from .network import ring_topology
from .observers import dynamics
from .zonotope import Zonotope, contains_point

__all__ = [
    "SystemModel",
    "Trajectory",
    "sample_in_zonotope",
    "simulate",
    "alternating_schedule",
    "paper_scenario",
    "trajectory_to_csv",
    "trajectory_from_csv",
]


@dataclass(frozen=True)
class SystemModel:
    """Plant description shared by the simulator and the observers.

    ``schedule(node, step)`` returns the measurement template
    ``(h_row, r_bound)`` that node uses at that step. ``q_generators`` is
    the process-noise zonotope's generator matrix (zero columns allowed for
    a noise-free plant). The arrays are copied, and the copies frozen.
    """

    f_matrix: np.ndarray
    q_generators: np.ndarray
    schedule: Callable[[int, int], tuple[np.ndarray, float]]
    initial_set: Zonotope
    true_initial_state: np.ndarray
    n_nodes: int

    def __post_init__(self):
        f = np.atleast_2d(np.array(self.f_matrix, dtype=float))
        f, qg = dynamics(f, np.array(self.q_generators, dtype=float), len(f))
        x0 = np.array(self.true_initial_state, dtype=float).reshape(-1)
        if x0.shape[0] != f.shape[0]:
            raise ValueError("true initial state does not match the state")
        if not contains_point(self.initial_set, x0, 1e-9):
            raise ValueError("true initial state must lie in the initial set")
        if int(self.n_nodes) < 1:
            raise ValueError("at least one node is required")
        f.flags.writeable = False
        qg.flags.writeable = False
        x0.flags.writeable = False
        object.__setattr__(self, "f_matrix", f)
        object.__setattr__(self, "q_generators", qg)
        object.__setattr__(self, "true_initial_state", x0)
        object.__setattr__(self, "n_nodes", int(self.n_nodes))

    @property
    def dim(self) -> int:
        return self.f_matrix.shape[0]

    def strip_for(self, node: int, step: int, y: float) -> Strip:
        """Strip for an observed value under the node's scheduled template."""
        h, r = self.schedule(node, step)
        return Strip(h, float(y), r)


@dataclass(frozen=True)
class Trajectory:
    """True states plus per-node measurements.

    ``states`` has ``steps + 1`` rows (the transition after the last
    measured step is included); ``measurements[k, i]`` is node ``i``'s
    observation of ``states[k]``. The arrays are copied, and the copies
    frozen.
    """

    states: np.ndarray
    measurements: np.ndarray

    def __post_init__(self):
        st = np.atleast_2d(np.array(self.states, dtype=float))
        ms = np.atleast_2d(np.array(self.measurements, dtype=float))
        if st.shape[0] != ms.shape[0] + 1:
            raise ValueError("states must have exactly one more row than "
                             "measurements")
        if not (np.isfinite(st).all() and np.isfinite(ms).all()):
            raise ValueError("states and measurements must be finite")
        st.flags.writeable = False
        ms.flags.writeable = False
        object.__setattr__(self, "states", st)
        object.__setattr__(self, "measurements", ms)

    @property
    def n_steps(self) -> int:
        return self.measurements.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.measurements.shape[1]


def sample_in_zonotope(z: Zonotope, rng: np.random.Generator) -> np.ndarray:
    """Random member ``c + G b`` with ``b`` uniform on ``[-1, 1]^e``."""
    beta = rng.uniform(-1.0, 1.0, z.n_generators)
    return z.center + z.generators @ beta


def _streams(seed, n_nodes: int):
    children = np.random.SeedSequence(seed).spawn(n_nodes + 1)
    process = np.random.default_rng(children[0])
    nodes = [np.random.default_rng(c) for c in children[1:]]
    return process, nodes


def simulate(model: SystemModel, steps: int, seed) -> Trajectory:
    """Generate a trajectory of ``steps`` measured states (plus one final
    transition) with noises drawn inside their bounds."""
    steps = int(steps)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    process_rng, node_rngs = _streams(seed, model.n_nodes)
    noise_set = Zonotope(np.zeros(model.dim), model.q_generators)
    # Per-node measurement noise is drawn stream-major so results do not
    # depend on the simulation loop structure.
    meas_noise = np.column_stack([
        rng.uniform(-1.0, 1.0, steps) for rng in node_rngs
    ])
    states = np.empty((steps + 1, model.dim))
    measurements = np.empty((steps, model.n_nodes))
    x = model.true_initial_state.copy()
    for k in range(steps):
        states[k] = x
        for i in range(model.n_nodes):
            h, r = model.schedule(i, k)
            measurements[k, i] = float(np.asarray(h) @ x) + r * meas_noise[k, i]
        x = model.f_matrix @ x + sample_in_zonotope(noise_set, process_rng)
    states[steps] = x
    return Trajectory(states, measurements)


def alternating_schedule(r_bound: float
                         ) -> Callable[[int, int], tuple[np.ndarray, float]]:
    """Measurement templates alternating between the two position axes.

    Every node alternates axes from one step to the next; node ids are
    staggered so adjacent nodes measure complementary axes within a step.
    """
    rows = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))

    def schedule(node: int, step: int) -> tuple[np.ndarray, float]:
        return rows[(node + step) % 2], r_bound

    return schedule


def paper_scenario(process_noise: float = 2.4, measurement_noise: float = 8.0,
                   n_nodes: int = 8, true_initial_state=None):
    """Rotating-target localization demo: the 8-node model plus ring presets.

    The initial set is the axis-aligned 160 x 160 m box centered at the
    origin, the state matrix the slowly decaying rotation
    ``[[0.992, -0.1247], [0.1247, 0.992]]``, and measurements alternate
    between the two axes. Noise magnitudes are configurable since only
    trends, not table values, are reproducible; the defaults put the
    steady-state set sizes in the low-tens-of-meters range. Returns the
    model and ring topology presets for 2, 4 and 6 neighbors.
    """
    f_matrix = np.array([[0.992, -0.1247], [0.1247, 0.992]])
    initial_set = Zonotope(np.zeros(2), np.diag([80.0, 80.0]))
    if true_initial_state is None:
        true_initial_state = initial_set.center
    q_gens = float(process_noise) * np.eye(2) if process_noise > 0 \
        else np.zeros((2, 0))
    model = SystemModel(
        f_matrix=f_matrix,
        q_generators=q_gens,
        schedule=alternating_schedule(float(measurement_noise)),
        initial_set=initial_set,
        true_initial_state=true_initial_state,
        n_nodes=n_nodes,
    )
    presets = {k: ring_topology(n_nodes, k) for k in (2, 4, 6)
               if k < n_nodes}
    return model, presets


def trajectory_to_csv(trajectory: Trajectory) -> str:
    """CSV text: ``step, x1, x2, ..., y0, y1, ...``; the final row holds the
    trailing state with empty measurement cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    dim = trajectory.states.shape[1]
    n_nodes = trajectory.n_nodes
    header = (["step"] + [f"x{j + 1}" for j in range(dim)]
              + [f"y{i}" for i in range(n_nodes)])
    writer.writerow(header)
    for k in range(trajectory.n_steps):
        row = [k] + [repr(float(v)) for v in trajectory.states[k]]
        row += [repr(float(v)) for v in trajectory.measurements[k]]
        writer.writerow(row)
    writer.writerow([trajectory.n_steps]
                    + [repr(float(v)) for v in trajectory.states[-1]]
                    + [""] * n_nodes)
    return buf.getvalue()


def trajectory_from_csv(text: str) -> Trajectory:
    """Inverse of :func:`trajectory_to_csv` (lossless round-trip)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    dim = sum(1 for name in header if name.startswith("x"))
    states = []
    measurements = []
    for row in reader:
        if not row:
            continue
        states.append([float(v) for v in row[1:1 + dim]])
        ys = row[1 + dim:]
        if any(cell != "" for cell in ys):
            measurements.append([float(v) for v in ys])
    return Trajectory(np.array(states), np.array(measurements))
