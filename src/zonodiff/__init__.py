"""Distributed set-based state estimation with zonotopes.

Two observers over a simulated sensor network: a set-membership observer
(strip intersection + diffusion + time update) and an interval-based
Luenberger observer (combined gain update + diffusion), both with
guaranteed containment of the true state under bounded noise.
"""

from .bench import bench_observer_updates, time_op
from .intersection import (
    Strip,
    intersect_strips,
    intersect_zonotopes,
    optimal_diffusion_weights,
)
from .metrics import (
    RADIUS_FROBENIUS,
    RADIUS_HALF_DIAGONAL,
    SimRecord,
    StepSummary,
    RunSummary,
    build_records,
    hausdorff_2d,
    radius,
    summarize,
)
from .network import (
    RoundTrace,
    SimulationResult,
    Topology,
    ring_topology,
    run_round,
    run_simulation,
    topology_from_json,
    topology_to_json,
)
from .observers import (
    NodeState,
    ObserverConfig,
    ObserverKind,
    iv_luenberger_update,
    sm_diffusion_update,
    sm_measurement_update,
    sm_time_update,
)
from .plant import (
    SystemModel,
    Trajectory,
    alternating_schedule,
    paper_scenario,
    sample_in_zonotope,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .zonotope import (
    Zonotope,
    contains_point,
    f_radius,
    interval_hull,
    reduce,
    vertices_2d,
)

__version__ = "0.1.0"
