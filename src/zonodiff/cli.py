"""Command-line front end: single runs, the full experiment grid, the
timing benchmark, and trajectory replay.

Exit codes: 0 success, 1 configuration error, 2 runtime error, 3
containment violation (the true state left some node's estimated set,
which falsifies the guarantee and is treated as a hard failure).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from . import bench
from . import metrics as met
from .network import (
    Topology,
    ring_topology,
    run_simulation,
    topology_from_json,
)
from .observers import ObserverConfig, ObserverKind
from .plant import (
    Trajectory,
    paper_scenario,
    simulate,
    trajectory_from_csv,
    trajectory_to_csv,
)
from .zonotope import contains_point

__all__ = ["main", "RunConfig", "ConfigError", "ContainmentViolationError"]

ENV_OUT_DIR = "ZONODIFF_OUTDIR"
PAPER_NODES = 8  # ring size of the neighbor presets
CONTAINMENT_TOL = 1e-7

RECORD_COLUMNS = ["step", "node", "algorithm", "diffusion", "k_neighbors",
                  "radius_m", "center_err_m", "lb_x", "ub_x", "lb_y", "ub_y",
                  "step_time_us"]
SUMMARY_COLUMNS = ["algorithm", "diffusion", "k_neighbors", "metric", "mean",
                   "std"]
SUMMARY_METRICS = ["radius_frobenius_m", "radius_half_diag_m", "center_err_m",
                   "hausdorff_m"]


class ConfigError(ValueError):
    """Invalid configuration (bad flag value, malformed config file, ...)."""


class ContainmentViolationError(RuntimeError):
    """The true state escaped an estimated set during a run."""


@dataclass(frozen=True)
class RunConfig:
    """One run's parameters. Config-file values are overridden by flags."""

    algorithm: str = "sm"
    diffusion: bool = True
    neighbors: int = 4
    topology_file: str | None = None
    steps: int = 200
    seed: int = 0
    q: int = 20
    process_noise: float = 2.4
    measurement_noise: float = 8.0
    out_dir: str = "."
    radius_metric: str = met.RADIUS_FROBENIUS
    snapshot_every: int = 10
    burn_in: int = 5
    timing: bool = False

    def validate(self) -> "RunConfig":
        if self.algorithm not in ("sm", "iv"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.topology_file is None and self.neighbors not in (2, 4, 6):
            raise ConfigError("neighbors preset must be one of 2, 4, 6")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.q < 2:
            raise ConfigError("q must be at least the state dimension (2)")
        if self.radius_metric not in (met.RADIUS_FROBENIUS,
                                      met.RADIUS_HALF_DIAGONAL):
            raise ConfigError(f"unknown radius metric {self.radius_metric!r}")
        if self.process_noise < 0 or self.measurement_noise <= 0:
            raise ConfigError("noise scales must be positive "
                              "(process noise may be zero)")
        if self.snapshot_every < 1 or self.burn_in < 0:
            raise ConfigError("snapshot cadence / burn-in out of range")
        return self


_CONFIG_KEYS = set(RunConfig.__dataclass_fields__)


def load_config(path: str | None, overrides: dict) -> RunConfig:
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        unknown = set(data) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(data)
    values.update({k: v for k, v in overrides.items() if v is not None})
    if "out_dir" not in values or values["out_dir"] is None:
        values["out_dir"] = os.environ.get(ENV_OUT_DIR, ".")
    try:
        return RunConfig(**values).validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _topology_for(cfg: RunConfig) -> Topology:
    if cfg.topology_file is not None:
        try:
            with open(cfg.topology_file, "r", encoding="utf-8") as fh:
                return topology_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, ValueError) as exc:
            raise ConfigError(
                f"cannot load topology {cfg.topology_file}: {exc}") from exc
    return ring_topology(PAPER_NODES, cfg.neighbors)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value: float) -> str:
    return repr(float(value))


def execute_run(cfg: RunConfig, trajectory: Trajectory | None = None):
    """Simulate (or replay) one configuration.

    Returns ``(records, estimates, trajectory, run_summary_rows)`` where the
    summary rows follow the summary CSV schema. Raises
    :class:`ContainmentViolationError` if the true state escapes any
    estimate at tolerance 1e-7.
    """
    topology = _topology_for(cfg)
    model, _ = paper_scenario(cfg.process_noise, cfg.measurement_noise,
                              n_nodes=topology.n_nodes)
    if trajectory is None:
        trajectory = simulate(model, cfg.steps, cfg.seed)
    if trajectory.n_nodes != topology.n_nodes:
        raise ConfigError("trajectory node count does not match topology")
    obs_cfg = ObserverConfig(kind=ObserverKind(cfg.algorithm), q=cfg.q,
                             diffusion_enabled=cfg.diffusion)
    result = run_simulation(model, topology, obs_cfg, trajectory,
                            collect_timing=cfg.timing)
    for k, row in enumerate(result.estimates):
        for i, est in enumerate(row):
            if not contains_point(est, trajectory.states[k], CONTAINMENT_TOL):
                raise ContainmentViolationError(
                    f"true state escaped node {i}'s estimate at step {k}")
    records = met.build_records(result, trajectory, cfg.radius_metric)
    summary_rows = _summary_rows(cfg, records, result.estimates)
    return records, result.estimates, trajectory, summary_rows


def _summary_rows(cfg: RunConfig, records, estimates) -> list[list]:
    _, run_sel = met.summarize(records, estimates, burn_in=cfg.burn_in)
    tail = [(rec, estimates[rec.step][rec.node_id]) for rec in records
            if rec.step >= cfg.burn_in]
    # The records carry the configured radius; only the other one is new.
    if cfg.radius_metric == met.RADIUS_FROBENIUS:
        frob = [rec.radius for rec, _ in tail]
        half = [met.half_diagonal(rec.lower, rec.upper) for rec, _ in tail]
    else:
        frob = [met.radius(z, met.RADIUS_FROBENIUS) for _, z in tail]
        half = [rec.radius for rec, _ in tail]
    k_label = "custom" if cfg.topology_file else cfg.neighbors
    diff_label = "on" if cfg.diffusion else "off"

    def row(metric: str, mean: float | None, std: float | None) -> list:
        if mean is None:
            return [cfg.algorithm, diff_label, k_label, metric, "", ""]
        return [cfg.algorithm, diff_label, k_label, metric, _fmt(mean),
                _fmt(std)]

    return [
        row("radius_frobenius_m", float(np.mean(frob)), float(np.std(frob))),
        row("radius_half_diag_m", float(np.mean(half)), float(np.std(half))),
        row("center_err_m", run_sel.center_error_mean,
            run_sel.center_error_std),
        row("hausdorff_m", run_sel.hausdorff_mean, run_sel.hausdorff_std),
    ]


def _records_csv(cfg: RunConfig, records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    diff_label = "on" if cfg.diffusion else "off"
    k_label = "custom" if cfg.topology_file else cfg.neighbors
    for rec in records:
        writer.writerow([
            rec.step, rec.node_id, cfg.algorithm, diff_label, k_label,
            _fmt(rec.radius), _fmt(rec.center_error),
            _fmt(rec.lower[0]), _fmt(rec.upper[0]),
            _fmt(rec.lower[1]), _fmt(rec.upper[1]),
            _fmt(rec.step_time_us),
        ])
    return buf.getvalue()


def _summary_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def _snapshots_json(cfg: RunConfig, estimates, trajectory) -> str:
    snaps = []
    for k in range(0, len(estimates), cfg.snapshot_every):
        snaps.append({
            "step": k,
            "true_state": [float(v) for v in trajectory.states[k]],
            "nodes": [
                {"node": i, **est.to_json_dict()}
                for i, est in enumerate(estimates[k])
            ],
        })
    return json.dumps({"algorithm": cfg.algorithm,
                       "diffusion": cfg.diffusion,
                       "seed": cfg.seed,
                       "snapshots": snaps}, sort_keys=True, indent=1)


def cmd_run(cfg: RunConfig, trajectory: Trajectory | None = None) -> int:
    records, estimates, trajectory, summary_rows = execute_run(cfg, trajectory)
    out = cfg.out_dir
    _atomic_write(os.path.join(out, "records.csv"), _records_csv(cfg, records))
    _atomic_write(os.path.join(out, "summary.csv"), _summary_csv(summary_rows))
    _atomic_write(os.path.join(out, "trajectory.csv"),
                  trajectory_to_csv(trajectory))
    _atomic_write(os.path.join(out, "snapshots.json"),
                  _snapshots_json(cfg, estimates, trajectory))
    print(f"wrote records/summary/trajectory/snapshots to {out}")
    return 0


def grid_cells() -> list[tuple[str, bool, int]]:
    return [(alg, diff, k)
            for alg in ("sm", "iv")
            for diff in (True, False)
            for k in (2, 4, 6)]


def cmd_grid(cfg: RunConfig) -> int:
    """Run the 2 algorithms x {diffusion on, off} x {2, 4, 6 neighbors} grid
    on one shared trajectory and emit a combined summary CSV."""
    model, _ = paper_scenario(cfg.process_noise, cfg.measurement_noise)
    trajectory = simulate(model, cfg.steps, cfg.seed)
    rows = []
    for alg, diff, k in grid_cells():
        cell = replace(cfg, algorithm=alg, diffusion=diff, neighbors=k,
                       topology_file=None).validate()
        _, _, _, summary_rows = execute_run(cell, trajectory)
        rows.extend(summary_rows)
    _atomic_write(os.path.join(cfg.out_dir, "grid_summary.csv"),
                  _summary_csv(rows))
    _atomic_write(os.path.join(cfg.out_dir, "trajectory.csv"),
                  trajectory_to_csv(trajectory))
    print(f"wrote grid summary for 12 cells to {cfg.out_dir}")
    return 0


def cmd_bench(cfg: RunConfig, repetitions: int) -> int:
    if repetitions < 100:
        raise ConfigError("bench needs at least 100 repetitions")
    table = bench.bench_observer_updates(repetitions, seed=cfg.seed, q=cfg.q)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["step", "k2_us", "k4_us", "k6_us"])
    for name in bench.BENCH_OPS:
        writer.writerow([name] + [f"{table[name][k]:.3f}" for k in (2, 4, 6)])
    text = buf.getvalue()
    _atomic_write(os.path.join(cfg.out_dir, "bench.csv"), text)
    print(text, end="")
    return 0


def cmd_replay(cfg: RunConfig, trajectory_path: str) -> int:
    try:
        with open(trajectory_path, "r", encoding="utf-8") as fh:
            trajectory = trajectory_from_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(
            f"cannot load trajectory {trajectory_path}: {exc}") from exc
    cfg = replace(cfg, steps=trajectory.n_steps)
    return cmd_run(cfg, trajectory)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonodiff",
        description="Distributed set-based observers over a simulated "
                    "sensor network.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (flags override)")
        p.add_argument("--alg", choices=["sm", "iv"], dest="algorithm")
        p.add_argument("--diffusion", choices=["on", "off"])
        p.add_argument("--neighbors", type=int, choices=[2, 4, 6])
        p.add_argument("--topology-file")
        p.add_argument("--steps", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--process-noise", type=float)
        p.add_argument("--measurement-noise", type=float)
        p.add_argument("--out", dest="out_dir",
                       help=f"output directory (default ${ENV_OUT_DIR} or .)")
        p.add_argument("--radius-metric",
                       choices=[met.RADIUS_FROBENIUS, met.RADIUS_HALF_DIAGONAL])
        p.add_argument("--snapshot-every", type=int)
        p.add_argument("--burn-in", type=int)
        p.add_argument("--timing", action="store_true", default=None,
                       help="record wall-clock step times (makes records.csv "
                            "non-reproducible)")

    add_common(sub.add_parser("run", help="run one configuration"))
    add_common(sub.add_parser("grid", help="run the 2x2x3 experiment grid"))
    bench = sub.add_parser("bench", help="micro-benchmark the update steps")
    add_common(bench)
    bench.add_argument("--repetitions", type=int, default=100_000)
    rep = sub.add_parser("replay", help="re-run observers on an exported "
                                        "trajectory CSV")
    add_common(rep)
    rep.add_argument("--trajectory", required=True)
    return parser


def _overrides_from(args: argparse.Namespace) -> dict:
    keys = ["algorithm", "neighbors", "topology_file", "steps", "seed", "q",
            "process_noise", "measurement_noise", "out_dir", "radius_metric",
            "snapshot_every", "burn_in", "timing"]
    out = {k: getattr(args, k, None) for k in keys}
    if args.diffusion is not None:
        out["diffusion"] = args.diffusion == "on"
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = load_config(args.config, _overrides_from(args))
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "grid":
            return cmd_grid(cfg)
        if args.command == "bench":
            return cmd_bench(cfg, args.repetitions)
        if args.command == "replay":
            return cmd_replay(cfg, args.trajectory)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ContainmentViolationError as exc:
        print(f"containment violation: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
