"""Start-up footprint: importing zonodiff and running the observers loads
only numpy; scipy's distance kernel loads with the first 2-D Hausdorff
summary and its LP solver with the first membership query above 2 000
facet subsets.

The checks run in a fresh interpreter, as this one has loaded scipy for
other tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import json
import sys

import numpy as np

import zonodiff
import zonodiff.cli
from zonodiff import (NodeState, ObserverConfig, Zonotope, build_records,
                      contains_point, paper_scenario, run_round,
                      run_simulation, simulate, summarize)


def stage(name):
    print(json.dumps([name, sorted(m for m in sys.modules
                                   if m.split(".")[0] == "scipy")]))


rng = np.random.default_rng(0)
model, presets = paper_scenario()
topology = presets[6]
trajectory = simulate(model, 10, 0)
n = model.n_nodes
for kind in ("sm", "iv"):
    for diffusion in (True, False):
        cfg = ObserverConfig(kind=kind, diffusion_enabled=diffusion)
        states = [NodeState(i, model.initial_set) for i in range(n)]
        for k in range(2):
            strips = [model.strip_for(i, k, trajectory.measurements[k, i])
                      for i in range(n)]
            states, _ = run_round(topology, states, strips, cfg,
                                  model.f_matrix, model.q_generators,
                                  step_index=k)
# 2-D, and 4-D with C(20, 3) = 1 140 facet subsets: inside and outside.
for dim, gens in ((2, 6), (4, 20)):
    z = Zonotope(rng.normal(size=dim), rng.normal(size=(dim, gens)))
    assert contains_point(z, z.center)
    assert not contains_point(z, z.center + np.abs(z.generators).sum(axis=1)
                              + 1.0)
stage("rounds")

result = run_simulation(model, topology, ObserverConfig(), trajectory)
_, run = summarize(build_records(result, trajectory), result.estimates)
assert run.hausdorff_mean is not None
stage("summary")

# C(64, 2) = 2 016 facet subsets: the LP decides a point outside.
many = Zonotope(rng.normal(size=3), rng.normal(size=(3, 64)))
assert not contains_point(many, many.center
                          + np.abs(many.generators).sum(axis=1) + 1.0)
stage("lp")
"""


def loaded_by_stage() -> dict[str, list[str]]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env=env, check=True)
    return dict(json.loads(line) for line in proc.stdout.splitlines())


def test_scipy_loads_only_where_used():
    stages = loaded_by_stage()
    assert stages["rounds"] == []
    assert "scipy.spatial" in stages["summary"]
    assert "scipy.optimize" not in stages["summary"]
    assert "scipy.optimize" in stages["lp"]
