"""zonodiff benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json:
set-up time over several fresh interpreters (``probe.py``), then repeated
timed passes of the workload for ``--seconds`` in this process, with every
call to ``network.run_round`` timed. With ``--trace 1`` it reports the
per-layer metrics instead: the tracer wraps the layers' functions, and
traced passes alternate with untraced ones so that the tracing overhead is
measured in the same run. Every pass is checked (containment on every
node-step; reference values at the reference seed). The last line of
standard output is the JSON result; the exit code is 1 if any node-step
failed.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads; the set-up probes
# inherit this environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("paper-grid", "ring32-online", "cv4-track")
PROBES = 5  # fresh-interpreter set-ups per run; setup_s is their median
MIN_ROUNDS = 200  # round-latency samples a run collects at least


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def probe_setups(workload: str, seed: int) -> tuple[list, list]:
    """Wall seconds of ``PROBES`` cold set-ups, and their import times."""
    wall, imports = [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), "--workload",
             workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        wall.append(time.perf_counter() - start)
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return wall, imports


def run_passes(inputs, seconds: float, enough) -> list:
    """Timed passes until ``seconds`` have passed and ``enough()`` holds."""
    import workloads
    outcomes = []
    deadline = time.perf_counter() + seconds
    while not outcomes or time.perf_counter() < deadline or not enough():
        outcomes.append(workloads.run_pass(inputs))
    return outcomes


def end_to_end(inputs, seconds: float, setup_wall: list) -> tuple[dict, list, dict]:
    import numpy as np
    import tracer
    from zonodiff import network

    latencies = []
    run_round = network.run_round

    def timed_round(*args, **kwargs):
        start = time.perf_counter()
        result = run_round(*args, **kwargs)
        latencies.append(time.perf_counter() - start)
        return result

    undo = tracer.patch_everywhere(run_round, timed_round)
    try:
        outcomes = run_passes(inputs, seconds,
                              lambda: len(latencies) >= MIN_ROUNDS)
    finally:
        tracer.undo_patches(undo)
    p50, p95 = np.percentile(latencies, [50, 95]) * 1e3
    metrics = {
        "setup_s": statistics.median(setup_wall),
        "node_steps_per_s": statistics.median(
            o.node_steps / o.seconds for o in outcomes),
        "round_p50_ms": float(p50),
        "round_p95_ms": float(p95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "radius_m": outcomes[0].radius,
    }
    return metrics, outcomes, {"round_samples": len(latencies)}


def per_layer(name: str, seed: int, seconds: float, import_s: list
              ) -> tuple[dict, list, dict]:
    import tracer
    import workloads

    tr = tracer.Tracer()
    tr.recording = True
    tr.install()
    inputs = workloads.setup(name, seed, out_dir=str(OUT_DIR / name))
    tr.uninstall()
    setup_stats = tr.take()
    outcomes, traced, rates = [], [], {False: [], True: []}
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for on in (False, True):
            if on:
                tr.install()
            outcome = workloads.run_pass(inputs)
            if on:
                tr.uninstall()
                traced.append(tr.take())
                tr.recording = False
            rates[on].append(outcome.node_steps / outcome.seconds)
            outcomes.append(outcome)
    tr.write_spans(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    metrics = tracer.layer_metrics(setup_stats, traced)
    metrics["package.import_s"] = statistics.median(import_s)
    metrics["trace.overhead_frac"] = (
        1.0 - statistics.median(rates[True]) / statistics.median(rates[False]))
    return metrics, outcomes, {"traced_passes": len(traced),
                               "spans_written": len(tr.spans)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zonodiff" / "__init__.py").is_file():
        print(f"error: no zonodiff sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup_wall, import_s = probe_setups(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import gate
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, outcomes, extra = per_layer(args.workload, args.seed,
                                             args.seconds, import_s)
    else:
        inputs = workloads.setup(args.workload, args.seed,
                                 out_dir=str(OUT_DIR / args.workload))
        metrics, outcomes, extra = end_to_end(inputs, args.seconds, setup_wall)

    mismatched = []
    if args.seed == gate.REFERENCE_SEED:
        expected = gate.load_reference()[args.workload]
        for outcome in outcomes:
            mismatched += gate.apply_reference(outcome, expected)
    attempted = sum(o.node_steps for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "passes": len(outcomes),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "reference_mismatches": sorted(set(mismatched)),
        "setup_wall_s": setup_wall, **extra,
        "pass_node_steps_per_s": [o.node_steps / o.seconds for o in outcomes],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: record[k] for k in ("environment", "passes",
                                              "failed_frac", *extra)}))
    for name, value in record["metrics"].items():
        print(f"{name:48s} {value['value']:.6g} {value['unit']}")
    if mismatched:
        print(f"reference mismatches: {record['reference_mismatches']}",
              file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
