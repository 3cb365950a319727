"""One workload in one fresh process; started by run.py.

With ``--setup-only`` it imports thinpart, builds the inputs, reports the
moment they are ready and exits: run.py starts several of these to take
the median set-up time.  Otherwise it goes on to compute the references
(untimed), runs passes over the cases until ``--seconds`` have elapsed,
checks every output, and prints one JSON line with the results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import thinpart

import calibration
import tracer as tracing
import workloads

ROOT = workloads.ROOT
SETUP_ROUNDS = 5           # calibration rounds after set-up


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_case(case, corrupt=None):
    """Time one call; return (seconds, failure message or None)."""
    start = time.perf_counter()
    try:
        out = case.run()
    except Exception as exc:  # a raising case is a failed case
        return time.perf_counter() - start, f"{case.name}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if corrupt is not None:
        out = corrupt(case.name, out)
    try:
        case.check(out)
    except workloads.CaseFailure as exc:
        return elapsed, f"{case.name}: {exc}"
    except Exception as exc:
        return elapsed, f"{case.name}: check raised {type(exc).__name__}: {exc}"
    return elapsed, None


def measure(cases, seconds: float, traced: bool, corrupt=None) -> dict:
    """Passes over the cases until `seconds` have elapsed.  With `traced`,
    untraced and traced passes alternate, so both see the same conditions.
    A calibration round runs before every case and after the last one; each
    case's time is also kept in reference seconds (calibration.py)."""
    cal = calibration.Calibration()
    cal.round()  # warm-up
    raw = {"plain": {c.name: [] for c in cases}, "traced": {c.name: [] for c in cases}}
    ref = {"plain": {c.name: [] for c in cases}, "traced": {c.name: [] for c in cases}}
    rounds = []
    layers, spans = [], []
    attempted, failures = 0, []
    start = time.perf_counter()
    passes = 0
    while passes < (2 if traced else 1) or time.perf_counter() - start < seconds:
        kind = "traced" if traced and passes % 2 else "plain"
        tracer = tracing.Tracer() if kind == "traced" else None
        before = cal.round()
        rounds.append(before)
        for case in cases:
            if tracer is not None:
                tracer.install()
            try:
                elapsed, failure = run_case(case, corrupt)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            after = cal.round()
            rounds.append(after)
            raw[kind][case.name].append(elapsed)
            speed = 0.5 * (before + after) / calibration.REFERENCE_S
            ref[kind][case.name].append(elapsed / speed)
            before = after
            attempted += 1
            if failure is not None:
                failures.append(failure)
        if tracer is not None:
            layers.append(tracing.layer_metrics(tracer.spans))
            spans.append(tracer.records())
        passes += 1

    # Seconds per pass: the sum over cases of each case's median time.
    # `wall_s` is in reference seconds, which the machine's drift moves far
    # less than the raw seconds next to it (README.md, "Steadiness").
    def wall(times, kind):
        return sum(statistics.median(t) for t in times[kind].values() if t)

    result = {"passes": passes, "attempted": attempted, "failed": len(failures),
              "failures": failures[:10], "wall_s": wall(ref, "plain"),
              "wall_raw_s": wall(raw, "plain"),
              "calibration_s": statistics.median(rounds),
              "case_s": {k: (min(v), statistics.median(v), statistics.median(ref["plain"][k]))
                         for k, v in raw["plain"].items() if v}}
    if traced:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        per_layer["trace.wall_s"] = wall(ref, "traced")
        per_layer["trace_overhead_s"] = wall(ref, "traced") - wall(ref, "plain")
        result["per_layer"] = per_layer
        result["spans"] = spans
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(thinpart.__file__).startswith(src + os.sep):
        print(f"thinpart imported from {thinpart.__file__}, not {src}", file=sys.stderr)
        return 2

    cases = workloads.WORKLOADS[args.workload](args.seed, args.workdir, False)
    ready = time.monotonic()
    # The machine's speed just after set-up, to put set-up in reference seconds.
    cal = calibration.Calibration()
    cal.round()  # warm-up
    setup_calibration_s = cal.rounds(SETUP_ROUNDS)
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_calibration_s": setup_calibration_s}))
        return 0

    for case in cases:
        if case.prepare is not None:
            case.prepare()
    result = measure(cases, args.seconds, bool(args.trace))
    spans = result.pop("spans", None)
    if spans is not None:
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(path, "w") as fh:
            for n, records in enumerate(spans):
                for rec in records:
                    fh.write(json.dumps({"pass": n, **rec}) + "\n")
        result["spans_file"] = os.path.relpath(path, ROOT)
    result.update(
        ready=ready,
        setup_calibration_s=setup_calibration_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        context={
            "workload": args.workload,
            "seed": args.seed,
            "nproc": os.cpu_count(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "thinpart": thinpart.__version__,
            "commit": git_commit(),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cases": {c.name: c.params for c in cases},
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
