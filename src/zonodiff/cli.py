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
import math
import os
import sys
from dataclasses import dataclass, fields, replace

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
from .zonotope import contains_stack

__all__ = ["main", "RunConfig", "ConfigError", "ContainmentViolationError"]

ENV_OUT_DIR = "ZONODIFF_OUTDIR"
PAPER_NODES = 8  # ring size of the neighbor presets
CONTAINMENT_TOL = 1e-7

RECORD_COLUMNS = ["step", "node", "algorithm", "diffusion", "k_neighbors",
                  "radius_m", "center_err_m", "lb_x", "ub_x", "lb_y", "ub_y",
                  "step_time_us"]
SUMMARY_COLUMNS = ["algorithm", "diffusion", "k_neighbors", "metric", "mean",
                   "std"]


class ConfigError(ValueError):
    """Invalid configuration (bad flag value, malformed config file, ...)."""


class ContainmentViolationError(RuntimeError):
    """The true state escaped an estimated set during a run."""


# Accepted types by the annotation of a RunConfig field (annotations are
# strings here); config-file values can be any JSON type.
_FIELD_TYPES = {"str": str, "str | None": (str, type(None)), "bool": bool,
                "int": int, "float": (int, float)}


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
    snapshot_every: int = 10
    burn_in: int = 5
    timing: bool = False

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _FIELD_TYPES[f.type])
                    or isinstance(value, bool) and f.type != "bool"):
                raise ConfigError(f"{f.name} must be {f.type}, not {value!r}")
        if self.algorithm not in ("sm", "iv"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.topology_file is None and self.neighbors not in (2, 4, 6):
            raise ConfigError("neighbors preset must be one of 2, 4, 6")
        if self.steps < 1:
            raise ConfigError("steps must be at least 1")
        if self.q < 2:
            raise ConfigError("q must be at least the state dimension (2)")
        if not (0 <= self.process_noise < math.inf
                and 0 < self.measurement_noise < math.inf):
            raise ConfigError("noise scales must be finite and positive "
                              "(process noise may be zero)")
        if self.snapshot_every < 1 or self.burn_in < 0:
            raise ConfigError("snapshot cadence / burn-in out of range")
        if self.burn_in >= self.steps:
            raise ConfigError(f"burn-in ({self.burn_in}) leaves none of the "
                              f"{self.steps} steps to aggregate")
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
    # Created as open(path, "w") creates a file, with mode 0o666 less the
    # umask; O_EXCL never opens a file that is already there.
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    _check_containment(result.estimates, trajectory.states)
    records = met.build_records(result, trajectory)
    summary_rows = _summary_rows(cfg, records, result.estimates)
    return records, result.estimates, trajectory, summary_rows


def _check_containment(estimates, states) -> None:
    """Raise :class:`ContainmentViolationError` for the first step, then
    node, whose estimate does not contain the true state at tolerance
    1e-7. All node-steps of the run are tested in one stacked call."""
    nodes = len(estimates[0])
    inside = contains_stack([z for row in estimates for z in row],
                            np.repeat(states[:len(estimates)], nodes, axis=0),
                            CONTAINMENT_TOL)
    if not inside.all():
        k, i = divmod(int(np.argmin(inside)), nodes)
        raise ContainmentViolationError(
            f"true state escaped node {i}'s estimate at step {k}")


def _summary_rows(cfg: RunConfig, records, estimates) -> list[list]:
    _, run = met.summarize(records, estimates, burn_in=cfg.burn_in)
    k_label = "custom" if cfg.topology_file else cfg.neighbors
    diff_label = "on" if cfg.diffusion else "off"

    def row(metric: str, mean: float | None, std: float | None) -> list:
        if mean is None:
            return [cfg.algorithm, diff_label, k_label, metric, "", ""]
        return [cfg.algorithm, diff_label, k_label, metric, _fmt(mean),
                _fmt(std)]

    return [
        row("radius_frobenius_m", run.radius_mean, run.radius_std),
        row("radius_half_diag_m", run.half_diagonal_mean,
            run.half_diagonal_std),
        row("center_err_m", run.center_error_mean, run.center_error_std),
        row("hausdorff_m", run.hausdorff_mean, run.hausdorff_std),
    ]


def _records_csv(cfg: RunConfig, records: met.Records) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    diff_label = "on" if cfg.diffusion else "off"
    k_label = "custom" if cfg.topology_file else cfg.neighbors
    values = np.stack([records.radius, records.center_error,
                       records.lower[..., 0], records.upper[..., 0],
                       records.lower[..., 1], records.upper[..., 1],
                       records.step_time_us], axis=-1)
    for (step, node), row in zip(np.ndindex(records.radius.shape),
                                 values.reshape(records.radius.size, -1)):
        writer.writerow([step, node, cfg.algorithm, diff_label, k_label,
                         *map(_fmt, row)])
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
    if cfg.topology_file is not None:
        raise ConfigError("grid runs the ring presets and takes no "
                          "topology_file")
    model, _ = paper_scenario(cfg.process_noise, cfg.measurement_noise)
    trajectory = simulate(model, cfg.steps, cfg.seed)
    rows = []
    for alg, diff, k in grid_cells():
        cell = replace(cfg, algorithm=alg, diffusion=diff,
                       neighbors=k).validate()
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
    cfg = replace(cfg, steps=trajectory.n_steps).validate()
    return cmd_run(cfg, trajectory)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonodiff",
        description="Distributed set-based observers over a simulated "
                    "sensor network.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, only=None):
        def add(flag, **kwargs):
            if only is None or flag in only:
                p.add_argument(flag, **kwargs)

        add("--config", help="JSON config file (flags override)")
        add("--alg", choices=["sm", "iv"], dest="algorithm")
        add("--diffusion", choices=["on", "off"])
        add("--neighbors", type=int, choices=[2, 4, 6])
        add("--topology-file")
        add("--steps", type=int)
        add("--seed", type=int)
        add("--q", type=int)
        add("--process-noise", type=float)
        add("--measurement-noise", type=float)
        add("--out", dest="out_dir",
            help=f"output directory (default ${ENV_OUT_DIR} or .)")
        add("--snapshot-every", type=int)
        add("--burn-in", type=int)
        add("--timing", action="store_true", default=None,
            help="record wall-clock step times (makes records.csv "
                 "non-reproducible)")

    add_common(sub.add_parser("run", help="run one configuration"))
    # grid and bench take only the flags they read.
    add_common(sub.add_parser("grid", help="run the 2x2x3 experiment grid"),
               {"--config", "--steps", "--seed", "--q", "--process-noise",
                "--measurement-noise", "--burn-in", "--out"})
    bench = sub.add_parser("bench", help="micro-benchmark the update steps")
    add_common(bench, {"--config", "--seed", "--q", "--out"})
    bench.add_argument("--repetitions", type=int, default=100_000)
    rep = sub.add_parser("replay", help="re-run observers on an exported "
                                        "trajectory CSV")
    add_common(rep)
    rep.add_argument("--trajectory", required=True)
    return parser


def _overrides_from(args: argparse.Namespace) -> dict:
    out = {k: getattr(args, k, None) for k in _CONFIG_KEYS - {"diffusion"}}
    if getattr(args, "diffusion", None) is not None:
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
