"""Tests of the benchmark itself: tiny runs pass the gate, and the gate
catches an escaped true state and a reference value out of tolerance."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import zonodiff  # noqa: E402
from zonodiff import network  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = list(workloads.STEPS)


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_passes_gate(name, tmp_path):
    inputs = workloads.setup(name, seed=3, steps=7, out_dir=str(tmp_path))
    outcome = workloads.run_pass(inputs)
    assert outcome.node_steps == 7 * inputs.topology.n_nodes * len(outcome.groups)
    assert outcome.failed == 0
    assert outcome.seconds > 0 and outcome.radius > 0


def _shrink(states, trace):
    """Shrink the reported estimates to a thousandth about their centers."""
    small = tuple(zonodiff.Zonotope(z.center, z.generators * 1e-3)
                  for z in trace.round_estimates)
    return states, network.RoundTrace(trace.step, trace.strips_delivered,
                                      trace.sets_delivered, small)


def _fail(states, trace):
    raise FloatingPointError("injected program error")


@pytest.mark.parametrize("change", [_shrink, _fail])
@pytest.mark.parametrize("name", ["paper-grid", "ring32-online"])
def test_gate_catches_bad_rounds(name, change, tmp_path):
    inputs = workloads.setup(name, seed=3, steps=7, out_dir=str(tmp_path))
    run_round = network.run_round
    undo = tracer.patch_everywhere(
        run_round, lambda *args, **kwargs: change(*run_round(*args, **kwargs)))
    try:
        outcome = workloads.run_pass(inputs)
    finally:
        tracer.undo_patches(undo)
    assert outcome.failed > 0
    # A grid that exits nonzero, or a run that raises, fails every node-step.
    if name == "paper-grid" or change is _fail:
        assert outcome.failed == outcome.node_steps


@pytest.mark.parametrize("name", NAMES)
def test_reference_gate(name, tmp_path):
    inputs = workloads.setup(name, gate.REFERENCE_SEED, out_dir=str(tmp_path))
    outcome = workloads.run_pass(inputs)
    expected = gate.load_reference()[name]
    assert gate.apply_reference(outcome, expected) == []
    assert outcome.failed == 0

    key = sorted(k for k in expected if k.endswith(":radius_m"))[0]
    rtol = gate.RTOL[key.split(":", 1)[1]]
    within = dict(expected, **{key: expected[key] * (1 + rtol / 2)})
    assert gate.apply_reference(outcome, within) == []
    beyond = dict(expected, **{key: expected[key] * (1 + 2 * rtol)})
    assert gate.apply_reference(outcome, beyond) == [key]
    group = outcome.groups[key.split(":", 1)[0]]
    assert outcome.failed == group[0] > 0


def test_tracer_counts_repeat_and_uninstall_restores(tmp_path):
    before = dict(tracer.SPAN_TARGETS)
    post_init = zonodiff.Zonotope.__post_init__
    tr = tracer.Tracer()
    tr.install()
    try:
        inputs = workloads.setup("paper-grid", seed=3, steps=7,
                                 out_dir=str(tmp_path))
        setup = tr.take()
        passes = []
        for _ in range(2):
            workloads.run_pass(inputs)
            passes.append(tr.take())
    finally:
        tr.uninstall()
    layer = tracer.layer_metrics(setup, passes)  # raises if counts differ
    # Warm-up: two rounds of each observer; a pass: 12 cells of 7 steps, iv
    # cells using one round less.
    assert setup["observers.local_update.calls"] == 4 * 8
    assert passes[0]["observers.local_update.calls"] == 12 * 7 * 8 - 6 * 8
    assert layer["observers.local_update.calls"] == 4 * 8 + 12 * 7 * 8 - 6 * 8
    assert layer["cli.execute_run.calls"] == 12
    assert layer["metrics.hausdorff_pairs"] == 1 + 12 * 7 * 28
    assert layer["zonotope.contains_point.lp_frac"] == 0.0
    assert 0.0 < layer["zonotope.reduce.reduced_frac"] <= 1.0
    assert zonodiff.Zonotope.__post_init__ is post_init
    assert zonodiff.run_round is before["network.run_round"]
    assert zonodiff.observers.reduce is before["zonotope.reduce"]
