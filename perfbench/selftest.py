"""Self-test of the benchmark: every workload at reduced size, untraced and
traced, must run with error_rate 0, and a deliberately corrupted output
must be counted as a failure.

    python3 perfbench/selftest.py

Exits 0 when every check holds.  Takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402

SECONDS = 1.0


def nudge_csv_interior(path: str) -> None:
    """Shift one sampled interior node of a graph CSV by 1e-3."""
    with open(path) as fh:
        header = [next(fh) for _ in range(2)]
    u = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    i, j = (u.shape[0] // 4) * 2, (u.shape[1] // 4) * 2
    u[i, j] += 1e-3
    with open(path, "w") as fh:
        fh.writelines(header)
        for row in u:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def corrupt_graph_large(name, out):
    if name.startswith("tube_4c"):
        nudge_csv_interior(json.loads(out.out)["out"])
    return out


def corrupt_eval(name, out):
    if name.startswith("eval_flat"):
        area, res, fv, H = out
        return area, res, fv * (1.0 + 1e-9), H
    return out


def corrupt_diameter(name, out):
    if name == "lattice_diameter":
        return [out[0] * 1.001] + out[1:]
    return out


CORRUPTIONS = {
    "graph_large": ("tube_4c_33", corrupt_graph_large),
    "graph_small": ("eval_flat_33", corrupt_eval),
    "geometry_scan": ("lattice_diameter", corrupt_diameter),
}


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def main() -> int:
    for name, build in workloads.WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=os.path.dirname(HERE))
        try:
            cases = build(0, workdir, True)
            for case in cases:
                if case.prepare is not None:
                    case.prepare()
            for traced in (False, True):
                res = worker.measure(cases, SECONDS, traced)
                if res["failed"]:
                    fail(f"{name} (traced={traced}): {res['failures']}")
                print(f"ok {name} traced={traced}: {res['attempted']} attempted, 0 failed")
            if name == "geometry_scan" and res["per_layer"]["minimal_graph.calls"]:
                fail("geometry_scan recorded minimal_graph spans")

            target, corrupt = CORRUPTIONS[name]
            res = worker.measure(cases, SECONDS, False, corrupt=corrupt)
            bad = [f for f in res["failures"] if f.startswith(target + ":")]
            if res["failed"] != res["passes"] or len(bad) != len(res["failures"]):
                fail(f"{name}: corrupted {target} gave {res['failed']} failures "
                     f"in {res['passes']} passes: {res['failures'][:2]}")
            print(f"ok {name}: corrupted {target} counted as failed "
                  f"({res['failed']}/{res['attempted']})")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
