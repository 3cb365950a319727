"""thinpart benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload graph_large --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh single-threaded process (BLAS/OpenMP pinned
to one thread) that imports thinpart from this checkout's ``src``.  With
``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics (wall_s, setup_s, peak_rss_mb); with ``--trace 1`` it
carries the per-layer metrics of a traced run.  ``--workload all`` runs
every workload in turn and prefixes metric names with the workload.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibration import REFERENCE_S
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("graph_large", "graph_small", "geometry_scan")
SETUP_PROCESSES = 7      # set-up is the median over this many fresh processes
CHILD_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def start_worker(args: list[str], timeout: float) -> tuple[float, dict]:
    """Run worker.py to completion; return its start time and result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(started: float, result: dict) -> float:
    """Process start to inputs ready, in reference seconds."""
    return (result["ready"] - started) * REFERENCE_S / result["setup_calibration_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
        setups = []
        for _ in range(SETUP_PROCESSES - 1):
            started, probe = start_worker(common + ["--setup-only"], 60.0)
            setups.append(setup_seconds(started, probe))
        started, result = start_worker(
            common + ["--seconds", str(seconds), "--trace", str(int(trace))],
            CHILD_TIMEOUT_S,
        )
        setups.append(setup_seconds(started, result))
        result["setup_s"] = statistics.median(setups)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def metric_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def print_contrasts(name: str, m: dict) -> None:
    """The shares the workloads were chosen for (README.md, "Predictions")."""
    if m["minimal_graph.solve_s"] > 0:
        share = m["minimal_graph.factor_s"] / m["minimal_graph.solve_s"]
        print(f"{name:14s} contrast factor_s / solve_s = {share:.3f} "
              "(predicted >= 0.6 on graph_large, < 0.5 on graph_small)")
    print(f"{name:14s} contrast minimal_graph spans = {m['minimal_graph.calls']} "
          "(predicted 0 on geometry_scan)")
    # Both sides are medians over traced passes; the layers' self times
    # add up to the time spent inside thinpart.
    layers = sum(m["cli.self_s" if layer == "cli" else f"{layer}.s"] for layer in LAYERS)
    geometry = m["warped_metric.s"] + m["flat_torus.s"] + m["sweepout.s"]
    print(f"{name:14s} contrast (warped_metric + flat_torus + sweepout) / all layers = "
          f"{geometry / layers:.3f} (predicted > 0.5 on geometry_scan)")


def report(name: str, result: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the metrics with units."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"context {json.dumps(result['context'])}")
    for failure in result["failures"]:
        print(f"{name} FAILED {failure}")
    print(f"{name:14s} calibration round {result['calibration_s']:.6g} s "
          f"(reference {REFERENCE_S:g} s)")
    for case, (best, median, ref) in result["case_s"].items():
        print(f"{name:14s} case {case:30s} best {best:.6g} s, median {median:.6g} s, "
              f"median {ref:.6g} reference s")
    if trace:
        metrics = {k: {"value": v, "unit": metric_unit(k)}
                   for k, v in sorted(result["per_layer"].items())}
        for k, m in metrics.items():
            print(f"{name:14s} {k:36s} {m['value']:.6g} {m['unit']}")
        print(f"{name:14s} spans written to {result['spans_file']}")
        print_contrasts(name, result["per_layer"])
    else:
        metrics = {
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        for k, m in metrics.items():
            print(f"{name:14s} {k:12s} {m['value']:.6g} {m['unit']}")
        print(f"{name:14s} {'wall_raw':12s} {result['wall_raw_s']:.6g} s (not normalized)")
    print(f"{name:14s} {'error_rate':12s} {failed / attempted:.6g} "
          f"({failed} failed / {attempted} attempted, {result['passes']} passes)")
    return metrics


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "thinpart", "__init__.py")):
        print(f"no thinpart sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        for k, m in report(name, result, bool(args.trace)).items():
            metrics[prefix + k] = m
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
