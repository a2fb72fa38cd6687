"""Size of the public API: every exported name resolves, and the top-level
``zonodiff`` names are pinned, so any growth of the API is a change to this
test."""

import importlib
import inspect
import pkgutil

import pytest

import zonodiff

MODULES = sorted(m.name for m in pkgutil.iter_modules(zonodiff.__path__))

TOP_LEVEL = {
    # observers
    "NodeState", "ObserverConfig", "ObserverKind", "iv_luenberger_update",
    "sm_diffusion_update", "sm_measurement_update", "sm_time_update",
    # intersection
    "Strip", "intersect_strips", "intersect_zonotopes",
    "optimal_diffusion_weights",
    # zonotope
    "Zonotope", "contains_point", "f_radius", "interval_hull", "reduce",
    "vertices_2d",
    # network
    "RoundTrace", "SimulationResult", "Topology", "ring_topology", "run_round",
    "run_simulation", "topology_from_json", "topology_to_json",
    # plant
    "SystemModel", "Trajectory", "alternating_schedule", "paper_scenario",
    "sample_in_zonotope", "simulate", "trajectory_from_csv",
    "trajectory_to_csv",
    # metrics
    "RADIUS_FROBENIUS", "RADIUS_HALF_DIAGONAL", "RunSummary", "SimRecord",
    "StepSummary", "build_records", "hausdorff_2d", "radius", "summarize",
    # bench
    "bench_observer_updates", "time_op",
}


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"zonodiff.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_top_level_names_are_pinned():
    names = {n for n, v in vars(zonodiff).items()
             if not n.startswith("_") and not inspect.ismodule(v)}
    assert names == TOP_LEVEL
