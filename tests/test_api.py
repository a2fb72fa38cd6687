"""Size of the public API: every exported name resolves, and the top-level
``zonodiff`` names, the run options and each command's flags are pinned,
so any growth of the API is a change to this test."""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import zonodiff
from zonodiff.cli import RunConfig, build_parser

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
    "Records", "RunSummary", "StepSummary", "build_records", "hausdorff_2d",
    "summarize",
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


RUN_OPTIONS = {
    "algorithm", "diffusion", "neighbors", "topology_file", "steps", "seed",
    "q", "process_noise", "measurement_noise", "out_dir", "snapshot_every",
    "burn_in", "timing",
}


def test_run_options_are_pinned():
    assert {f.name for f in dataclasses.fields(RunConfig)} == RUN_OPTIONS


RUN_FLAGS = {
    "--config", "--alg", "--diffusion", "--neighbors", "--topology-file",
    "--steps", "--seed", "--q", "--process-noise", "--measurement-noise",
    "--out", "--snapshot-every", "--burn-in", "--timing",
}
COMMAND_FLAGS = {
    "run": RUN_FLAGS,
    "replay": RUN_FLAGS | {"--trajectory"},
    "grid": {"--config", "--steps", "--seed", "--q", "--process-noise",
             "--measurement-noise", "--burn-in", "--out"},
    "bench": {"--config", "--seed", "--q", "--out", "--repetitions"},
}


def test_command_flags_are_pinned():
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {s for a in p._actions for s in a.option_strings} - {
        "-h", "--help"} for name, p in commands.choices.items()}
    assert flags == COMMAND_FLAGS
