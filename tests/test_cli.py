import io
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from thinpart import cli, minimal_graph
from thinpart.cli import (
    CSV_HEADER,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    _write_csv,
    build_parser,
    fmt,
    run,
)
from thinpart.flat_torus import FlatTorusLattice, diameter, reduce_basis, systole
from thinpart.minimal_graph import _CG_MAX_ITER, _MG_MAX_ITER
from thinpart.tube_geometry import TubeParams, boundary_lattice, meyerhoff_radius


def run_json(capsys, argv):
    code = run(["--json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_meyerhoff_command(capsys):
    code, data = run_json(capsys, ["meyerhoff", "--length", "0.01"])
    assert code == EXIT_OK
    assert data["radius"] == pytest.approx(1.9827241630705441, rel=1e-12)


def test_meyerhoff_domain_error(capsys):
    assert run(["meyerhoff", "--length", "0.5"]) == EXIT_DOMAIN
    assert "domain error" in capsys.readouterr().err


def test_unknown_flag_usage_exit(capsys):
    assert run(["meyerhoff", "--bogus", "1"]) == EXIT_USAGE
    assert run(["nonsense"]) == EXIT_USAGE


def test_tube_command_round_trip(capsys):
    code, data = run_json(
        capsys, ["tube", "--length", "0.01", "--twist", "0.0"]
    )
    assert code == EXIT_OK
    R = meyerhoff_radius(0.01)
    assert data["radius"] == pytest.approx(R, rel=1e-12)
    assert data["boundary_v1"][0] == pytest.approx(
        2 * math.pi * math.sinh(R), rel=1e-12
    )
    assert data["slice_area"] == pytest.approx(0.8282015940681025, rel=1e-9)
    # Round trip: recomputing from the emitted inputs reproduces the
    # emitted outputs bit-for-bit.
    code2, data2 = run_json(
        capsys,
        ["tube", "--length", str(data["length"]), "--twist", str(data["twist"]),
         "--radius", repr(data["radius"])],
    )
    assert code2 == EXIT_OK
    assert data2 == data


def test_lattice_command(capsys):
    code, data = run_json(capsys, ["lattice", "--lattice", "1,0.9,0.1"])
    assert code == EXIT_OK
    assert data["systole"] == pytest.approx(math.sqrt(0.02), rel=1e-12)
    assert data["area"] == pytest.approx(0.1, rel=1e-12)
    assert run(["lattice", "--lattice", "1,2"]) == EXIT_DOMAIN


def test_lattice_json_carries_no_negative_zero(capsys):
    # (2, 0), (0, 1) reduces by swapping its generators; the rotation
    # that puts (0, 1) on the x-axis used to leave a2 = -0.0.
    assert run(["--json", "lattice", "--lattice", "2,0,1"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "-0.0" not in text
    assert json.loads(text)["reduced"] == {"v1": [1.0, 0.0], "v2": [0.0, 2.0]}


def test_shared_parser_prints_what_a_fresh_parser_prints(tmp_path, monkeypatch, capsys):
    # run() parses every call with one parser; a sequence of calls prints
    # the same text and exit codes as the same calls each made with a
    # fresh parser, and a flag given in one call is unset in the next.
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps({
        "kind": "cusp",
        "lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
        "interval": [0.0, 3.0],
    }))
    bc = tmp_path / "bc.json"
    bc.write_text(json.dumps({"kind": "affine", "coeffs": [0.5, 0.5, -0.2]}))
    graph = ["graph", "solve", "--metric", str(metric), "--grid", "17x17",
             "--bc", str(bc), "--out", str(tmp_path / "u.csv")]
    calls = [
        ["--json", "lattice", "--lattice", "1,0.9,0.1"],
        ["meyerhoff", "--bogus", "1"],
        ["meyerhoff", "--length", "0.5"],
        ["tube", "--length", "0.01", "--twist", "0.3"],
        ["--json", "--tol", "1e-3"] + graph,
        ["--json"] + graph,
    ]

    def outcomes():
        seen = []
        for argv in calls:
            code = run(argv)
            seen.append((code, *capsys.readouterr()))
        return seen

    assert cli._shared_parser() is cli._shared_parser()
    shared = outcomes()
    monkeypatch.setattr(cli, "_shared_parser", build_parser)
    assert outcomes() == shared
    assert [code for code, _, _ in shared] == [EXIT_OK, EXIT_USAGE, EXIT_DOMAIN,
                                               EXIT_OK, EXIT_OK, EXIT_OK]
    loose, default = (json.loads(out) for _, out, _ in shared[4:])
    assert loose["iterations"] < default["iterations"]


# Run in a fresh interpreter: the commands without a solve must not load
# scipy.sparse, which the solver's first use does.
_IMPORT_SET_SCRIPT = """
import json, sys
import thinpart.cli
from thinpart import cli
loaded = {"import": "scipy.sparse" in sys.modules}
code = cli.run(["--json", "lattice", "--lattice", "2,0,1"])
loaded["lattice"] = "scipy.sparse" in sys.modules
from thinpart import solve
loaded["solve"] = "scipy.sparse" in sys.modules
import thinpart
from thinpart import minimal_graph
same = all(getattr(thinpart, name) is getattr(minimal_graph, name)
           for name in ("DiscreteGraph", "GraphBoundsParams", "area", "el_residual",
                        "first_variation", "graph_mean_curvature", "rescale_graph",
                        "solve"))
exported = all(hasattr(thinpart, name) for name in thinpart.__all__)
print(json.dumps({"code": code, "loaded": loaded, "same": same, "exported": exported}))
"""


def test_scipy_sparse_loads_with_the_first_solver_name():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SET_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": EXIT_OK,
                      "loaded": {"import": False, "lattice": False, "solve": True},
                      "same": True, "exported": True}


def test_lattice_and_tube_print_what_the_library_returns(capsys):
    # One reduction per command; the values are still exactly those of
    # reduce_basis, systole and diameter.
    lat = FlatTorusLattice(22.3835, 11.1918, 0.0370)
    code, data = run_json(capsys, ["lattice", "--lattice", "22.3835,11.1918,0.0370"])
    assert code == EXIT_OK
    assert data["reduced"] == reduce_basis(lat).to_json_dict()
    assert (data["systole"], data["diameter"]) == (systole(lat), diameter(lat))
    code, data = run_json(capsys, ["tube", "--length", "0.01", "--twist", "3.14159"])
    assert code == EXIT_OK
    R = meyerhoff_radius(0.01)
    lat = boundary_lattice(TubeParams(0.01, 3.14159, R), R)
    assert (data["systole"], data["diameter"]) == (systole(lat), diameter(lat))


def test_bounds_commands(capsys):
    code, data = run_json(capsys, ["bounds", "disk", "--R", "0"])
    assert code == EXIT_OK and data["area"] == 0.0
    code, data = run_json(
        capsys,
        ["bounds", "band", "--rho1", "3", "--rho2", "4", "--sys", "1", "--RL", "10"],
    )
    assert code == EXIT_OK
    assert data["intermediate"] == pytest.approx(1.5682990150322249e-3, rel=1e-10)
    code, data = run_json(
        capsys,
        ["bounds", "crossing", "--R", "5", "--RL", "10", "--sys", "1"],
    )
    assert code == EXIT_OK
    assert data["chain"] == pytest.approx(2.5622258012358252e-3, rel=1e-10)
    code, data = run_json(capsys, ["bounds", "margulis", "--eps", "0.104"])
    assert code == EXIT_OK
    assert data["area"] == pytest.approx(0.03401010401083358, rel=1e-10)


def test_filler_build_rejects_small_depth(tmp_path):
    out = tmp_path / "f.json"
    assert run(["filler", "build", "--L", "5", "--lattice", "1,0,1",
                "--out", str(out)]) == EXIT_DOMAIN


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_filler_build_rejects_nonfinite_depth(tmp_path, capsys, value):
    out = tmp_path / "f.json"
    assert run(["filler", "build", "--L", value, "--lattice", "1,0,1",
                "--out", str(out)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert "filler depth must be finite" in captured.err
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_filler_build_verify_cycle(tmp_path, capsys):
    out = tmp_path / "f.json"
    code = run(["filler", "build", "--L", "20", "--lattice", "1,0,1",
                "--out", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    code, data = run_json(capsys, ["filler", "verify", str(out), "--grid", "120"])
    assert code == EXIT_OK
    assert data["passed"] is True
    assert data["area_lower_bound"] == pytest.approx(0.35237214067988453, rel=1e-9)
    # Custom monotonicity constant propagates.
    code, data = run_json(
        capsys, ["filler", "verify", str(out), "--grid", "120", "--c", "1.0"]
    )
    assert data["area_lower_bound"] == pytest.approx(
        0.35237214067988453 / math.pi, rel=1e-9
    )


@pytest.mark.parametrize("depth,code", [
    ("562949953421312", EXIT_OK),             # 2^49
    ("1125899906842623.9", EXIT_OK),          # the float below 2^50
    ("1125899906842624", EXIT_DOMAIN),        # 2^50
    ("1e16", EXIT_DOMAIN),
    ("1e300", EXIT_DOMAIN),
])
def test_filler_verify_from_2_to_the_50_exits_domain(tmp_path, capsys, depth, code):
    # From 2^50 on L + 0.9 rounds to L + 1, so the collar [L, L + 1]
    # cannot be sampled, and the message names the filler depth.
    path = tmp_path / "f.json"
    assert run(["filler", "build", "--L", depth, "--lattice", "1,0,1",
                "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert run(["filler", "verify", str(path)]) == code
    err = capsys.readouterr().err
    if code == EXIT_DOMAIN:
        assert err.startswith("domain error: filler depth ")
        assert err.endswith("the collar [L, L + 1] cannot be sampled\n")
    else:
        assert err == ""


def _strict_json(text):
    """The JSON document in ``text``; NaN and Infinity are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command,flags,message", [
    ("graph", ["--grid", "1x8"], "grid 1x8 needs at least 4 points per axis"),
    ("graph", ["--grid", "0x8"], "grid 0x8 needs at least 4 points per axis"),
    ("filler", ["--grid", "-5"], "verify needs a grid of at least 2 depths, got -5"),
    ("filler", ["--grid", "0"], "verify needs a grid of at least 2 depths, got 0"),
    ("filler", ["--grid", "1"], "verify needs a grid of at least 2 depths, got 1"),
    ("filler", ["--c", "nan"], "monotonicity_constant must be finite, got nan"),
    ("filler", ["--c", "inf"], "monotonicity_constant must be finite, got inf"),
    ("graph", ["--max-iter", "0"], "max_iter must be at least 1, got 0"),
], ids=["grid_1x8", "grid_0x8", "filler_grid_-5", "filler_grid_0", "filler_grid_1",
        "c_nan", "c_inf", "max_iter_0"])
def test_hostile_grid_iteration_and_constant_inputs_exit_domain(
        tmp_path, capsys, command, flags, message):
    if command == "graph":
        (tmp_path / "metric.json").write_text(json.dumps(FLAT_METRIC))
        (tmp_path / "bc.json").write_text(json.dumps({"kind": "constant", "value": 0.5}))
        argv = ["graph", "solve", "--metric", str(tmp_path / "metric.json"),
                "--bc", str(tmp_path / "bc.json"), "--out", str(tmp_path / "u.csv")]
        if "--grid" not in flags:
            argv += ["--grid", "8x8"]
    else:
        spec = tmp_path / "f.json"
        assert run(["filler", "build", "--L", "14", "--lattice", "1,0,1",
                    "--out", str(spec)]) == EXIT_OK
        capsys.readouterr()
        argv = ["filler", "verify", str(spec)]
    # run() returning at all means no exception escaped it.
    assert run(["--json"] + argv + flags) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err == f"domain error: {message}\n"
    assert captured.out == "" or _strict_json(captured.out)
    assert not (tmp_path / "u.csv").exists()


def test_a_tube_metric_with_a_string_normalized_exits_domain(tmp_path, capsys):
    metric = tmp_path / "metric.json"
    metric.write_text(json.dumps({"kind": "tube", "length": 0.01, "normalized": "false"}))
    (tmp_path / "bc.json").write_text(json.dumps({"kind": "constant", "value": 0.5}))
    assert run(["graph", "solve", "--metric", str(metric), "--bc", str(tmp_path / "bc.json"),
                "--grid", "8x8", "--out", str(tmp_path / "u.csv")]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err == (f"domain error: {metric}: normalized must be true or false, "
                            "got 'false'\n")
    assert not (tmp_path / "u.csv").exists()


def _set_slope(data):
    data["collapse"]["slope"] *= 1.0 + 1e-12


# Each edit spoils a built filler file in place.
FILLER_FILE_EDITS = {
    "depth3": lambda data: data.update(depth=3.0),
    "depth_nan": lambda data: data.update(depth=math.nan),
    "depth_abc": lambda data: data.update(depth="abc"),
    "slope": _set_slope,
    "ramp_scale": lambda data: data.update(ramp_scale=0.5),
}


@pytest.mark.parametrize("edit", sorted(FILLER_FILE_EDITS))
def test_filler_verify_rejects_tampered_file(tmp_path, capsys, edit):
    path = tmp_path / f"{edit}.json"
    assert run(["filler", "build", "--L", "14", "--lattice", "1,0,1",
                "--out", str(path)]) == EXIT_OK
    data = json.loads(path.read_text())
    FILLER_FILE_EDITS[edit](data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    # run() returning at all means no exception escaped it.
    assert run(["filler", "verify", str(path)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: ") and str(path) in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("document", [[1, 2], "x"], ids=["list", "string"])
@pytest.mark.parametrize("field", ["metric", "bc", "manifold", "family", "filler"])
def test_a_json_file_that_is_not_an_object_exits_domain(tmp_path, capsys, field, document):
    # Every documented input file holds a JSON object.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    files = {"metric": tmp_path / "metric.json", "bc": tmp_path / "bc.json"}
    files["metric"].write_text(json.dumps(FLAT_METRIC))
    files["bc"].write_text(json.dumps({"kind": "constant", "value": 0.5}))
    files[field] = bad
    graph = ["graph", "solve", "--metric", str(files["metric"]), "--bc", str(files["bc"]),
             "--grid", "8x8", "--out", str(tmp_path / "u.csv")]
    argv = {"metric": graph, "bc": graph,
            "manifold": ["sweepout", "profile", "--manifold", str(bad)],
            "family": ["sweepout", "fineness", "--family", str(bad)],
            "filler": ["filler", "verify", str(bad)]}[field]
    # Each reader's json_fields names the object the document should be.
    name = {"metric": "metric descriptor", "bc": "boundary data", "manifold": "manifold",
            "family": "family", "filler": "filler"}[field]
    # run() returning at all means no exception escaped it.
    assert run(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"domain error: {bad}: bad field value: {name} must be a JSON "
                            f"object, got {document!r}\n")
    assert not (tmp_path / "u.csv").exists()


def test_filler_verify_non_json_file_exits_domain(capsys):
    assert run(["filler", "verify", os.devnull]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith(f"domain error: {os.devnull}: malformed JSON")


def test_sweepout_profile_rejects_infinite_cusp_depth(tmp_path, capsys):
    manifold = tmp_path / "m.json"
    manifold.write_text(json.dumps({
        "cusps": [{"lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
                   "t0": 0.0, "t1": math.inf}],
    }))
    argv = ["sweepout", "profile", "--manifold", str(manifold), "--emit", "json"]
    assert run(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("domain error: ") and "t1 must be finite" in captured.err


def test_graph_solve_flat_affine(tmp_path, capsys):
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps({
        "kind": "flat",
        "lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
        "interval": [-5.0, 5.0],
    }))
    bc = tmp_path / "bc.json"
    bc.write_text(json.dumps({"kind": "affine", "coeffs": [0.1, 0.5, -0.2]}))
    out = tmp_path / "u.csv"
    code, data = run_json(capsys, [
        "graph", "solve", "--metric", str(metric), "--domain", "rect",
        "--grid", "9x9", "--bc", str(bc), "--out", str(out),
    ])
    assert code == EXIT_OK
    assert data["final_residual"] <= 1e-8
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "# thinpart-csv v1"
    assert lines[1].startswith("# columns:")
    # Row-major grid: one line per x1 row.
    assert len(lines) == 2 + 9
    grid = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert grid.shape == (9, 9)
    # Affine data solves the flat equation exactly.
    x, y = 4 / 8, 2 / 8
    assert grid[4, 2] == pytest.approx(0.1 + 0.5 * x - 0.2 * y, abs=1e-9)


def test_graph_solve_reports_the_linear_solves(tmp_path, capsys):
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps({
        "kind": "cusp",
        "lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
        "interval": [0.0, 3.0],
    }))
    bc = tmp_path / "bc.json"
    bc.write_text(json.dumps({"kind": "affine", "coeffs": [0.5, 0.5, -0.2]}))
    code, data = run_json(capsys, [
        "graph", "solve", "--metric", str(metric), "--domain", "rect",
        "--grid", "17x17", "--bc", str(bc), "--out", str(tmp_path / "u.csv"),
    ])
    assert code == EXIT_OK and data["iterations"] > 1
    steps, solvers = data["linear_iterations"], data["linear_solvers"]
    assert len(steps) == len(solvers) == data["iterations"]
    # A 17^2 grid's Hessian is a band, refactored on every step.
    assert solvers == ["lu"] * data["iterations"] and steps == [0] * data["iterations"]
    # Each "lu" or "pinned" step made one fine-grid factorization.
    assert data["factorizations"] == sum(s in ("lu", "pinned") for s in solvers)
    assert data["coarse_grids"] == []


def test_graph_solve_reports_the_coarser_grids(tmp_path, capsys):
    # A 65^2 Dirichlet grid starts from one Newton step on each of its
    # 17^2 and 33^2 grids.  The V-cycle those grids carry up, their
    # Hessians and the 17^2 grid's factor under its finest level,
    # preconditions both its steps.
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps(
        {"kind": "tube", "length": 1e-5, "twist": 0.3, "radius": 5.0}))
    bc = tmp_path / "bc.json"
    bc.write_text(json.dumps({"kind": "constant", "value": 3.8}))
    code, data = run_json(capsys, [
        "--tol", "1e-9", "graph", "solve", "--metric", str(metric),
        "--grid", "65x65", "--extent", "0.35x0.35", "--bc", str(bc),
        "--out", str(tmp_path / "u.csv"),
    ])
    assert code == EXIT_OK and data["linear_solvers"] == ["lagged", "lagged"]
    assert data["linear_iterations"] == [7, 7] and data["factorizations"] == 0
    coarsest, coarser = data["coarse_grids"]
    assert coarsest["shape"] == [17, 17] and coarser["shape"] == [33, 33]
    for record in (coarsest, coarser):
        assert record["iterations"] == 1 and record["error"] is None
        assert 0.0 < record["residual"] < math.inf


def test_graph_solve_reports_discarded_cg_runs(tmp_path, capsys):
    # The criterion-4(c) tube at 129^2 on cells four times as tall as
    # wide, which point Jacobi smooths poorly.  Its first step's CG run
    # with the V-cycle its coarser grids carry up is cut at its cap, so is
    # the fresh V-cycle's at its own, both are discarded, and H is
    # factored; the second step lags the factor.
    metric = tmp_path / "m.json"
    metric.write_text(json.dumps(
        {"kind": "tube", "length": 1e-5, "twist": 0.3, "radius": 5.0}))
    bc = tmp_path / "bc.json"
    bc.write_text(json.dumps({"kind": "constant", "value": 3.8}))
    code, data = run_json(capsys, [
        "graph", "solve", "--metric", str(metric), "--grid", "129x129",
        "--extent", "0.35x1.4", "--bc", str(bc), "--out", str(tmp_path / "u.csv"),
    ])
    assert code == EXIT_OK and data["linear_solvers"] == ["lu", "lagged"]
    assert data["linear_iterations"] == [_CG_MAX_ITER + _MG_MAX_ITER, 3]
    assert data["factorizations"] == 1 and len(data["coarse_grids"]) == 3


def test_write_csv_matches_fmt_bytes(tmp_path):
    values = [[0.1, -0.0, 1e-300, 1e20, 12345678901234.5, 2.0 / 3.0, math.pi,
               -1.5e-7, 1.0, float("inf"), float("nan")]]
    rows = [[0.25, "cusp", 1.0 / 3.0], [1.5, "tube", 2.0e-12]]
    for name, columns, table in (("grid", ["a"] * 11, values),
                                 ("profile", ["t", "segment", "area"], rows)):
        path = tmp_path / f"{name}.csv"
        _write_csv(path, columns, table)
        expected = "".join(
            ",".join(fmt(x) if isinstance(x, float) else str(x) for x in row) + "\n"
            for row in table)
        assert path.read_text() == (
            f"{CSV_HEADER}\n# columns: {','.join(columns)}\n" + expected)


def test_sweepout_profile_json_file_matches_stdout(tmp_path, capsys):
    manifold = tmp_path / "m.json"
    manifold.write_text(json.dumps({
        "cusps": [{"lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
                   "t0": 0.0, "t1": 1.0}],
        "tubes": [{"length": 0.01, "twist": 0.0, "radius": "meyerhoff"}],
        "fillers": [{"L": 12.0, "attach": 0}],
    }))
    argv = ["sweepout", "profile", "--manifold", str(manifold),
            "--samples", "200", "--emit", "json"]
    assert run(argv) == EXIT_OK
    printed = capsys.readouterr().out
    out = tmp_path / "prof.json"
    assert run(argv + ["--out", str(out)]) == EXIT_OK
    written = out.read_bytes()
    # The same bytes json.dump writes, and those printed without --out.
    assert written == printed.rstrip("\n").encode()
    streamed = io.StringIO()
    json.dump(json.loads(written), streamed)
    assert written == streamed.getvalue().encode()


@pytest.mark.parametrize("cusps,attach", [
    ([], 0),
    ([{"lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]}, "t0": 0.0, "t1": 1.0}], -1),
    ([{"lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]}, "t0": 0.0, "t1": 1.0}], 0.7),
    ([{"lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]}, "t0": 0.0, "t1": 1.0}], True),
], ids=["no_cusps", "negative", "fractional", "boolean"])
def test_sweepout_profile_rejects_a_bad_attach_index(tmp_path, capsys, cusps, attach):
    manifold = tmp_path / "m.json"
    manifold.write_text(json.dumps({
        "cusps": cusps, "fillers": [{"L": 12.0, "attach": attach}],
    }))
    code = run(["sweepout", "profile", "--manifold", str(manifold),
                "--out", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_DOMAIN
    assert err.startswith("domain error: ") and "fillers[0].attach" in err
    assert "Traceback" not in err


def test_sweepout_profile_and_fineness(tmp_path, capsys):
    manifold = tmp_path / "m.json"
    manifold.write_text(json.dumps({
        "cusps": [{"lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
                   "t0": 0.0, "t1": 1.0}],
        "tubes": [{"length": 0.01, "twist": 0.0, "radius": "meyerhoff"}],
        "fillers": [{"L": 12.0, "attach": 0}],
    }))
    out = tmp_path / "prof.csv"
    code, data = run_json(capsys, [
        "sweepout", "profile", "--manifold", str(manifold),
        "--samples", "50", "--emit", "csv", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert data["width_upper_bound"] == pytest.approx(1.0, rel=1e-9)
    text = out.read_text().splitlines()
    assert text[0] == "# thinpart-csv v1"

    family = tmp_path / "fam.json"
    family.write_text(json.dumps({
        "level": 0,
        "currents": [
            [{"patch": "A", "multiplicity": 1, "area": 2.0}],
            [{"patch": "B", "multiplicity": 1, "area": 1.0}],
        ],
    }))
    code, data = run_json(capsys, ["sweepout", "fineness", "--family", str(family)])
    assert code == EXIT_OK
    assert data["fineness"] == pytest.approx(3.0)
    assert data["max_mass"] == pytest.approx(2.0)


def _family(level=0, multiplicity=1, area=2.0):
    return {"level": level, "currents": [
        [{"patch": "A", "multiplicity": multiplicity, "area": area}],
        [{"patch": "B", "multiplicity": 1, "area": 1.0}],
    ]}


@pytest.mark.parametrize("family,field", [
    (_family(level=1.5), "level"),
    (_family(level=True), "level"),
    (_family(level="0"), "level"),
    (_family(multiplicity=2.7), "currents[0][0].multiplicity"),
    (_family(multiplicity=False), "currents[0][0].multiplicity"),
    (_family(multiplicity="1"), "currents[0][0].multiplicity"),
    (_family(area="2.0"), "currents[0][0].area"),
], ids=["level_fraction", "level_bool", "level_string", "multiplicity_fraction",
        "multiplicity_bool", "multiplicity_string", "area_string"])
def test_sweepout_fineness_rejects_a_non_integral_or_non_numeric_field(
        tmp_path, capsys, family, field):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(family))
    assert run(["sweepout", "fineness", "--family", str(path)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"domain error: {path}: {field} must be")


def test_sweepout_fineness_rejects_a_negative_level(tmp_path, capsys):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(_family(level=-1)))
    assert run(["sweepout", "fineness", "--family", str(path)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        f"domain error: {path}: family level must be nonnegative, got -1\n")


def test_sweepout_fineness_reads_integral_numbers_written_as_floats(tmp_path, capsys):
    fineness = []
    for family in (_family(multiplicity=2), _family(level=0.0, multiplicity=2.0)):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(family))
        code, data = run_json(capsys, ["sweepout", "fineness", "--family", str(path)])
        assert code == EXIT_OK and data["level"] == 0
        fineness.append(data["fineness"])
    assert fineness[0] == fineness[1] == pytest.approx(5.0)


def _manifold(cusp=None, tube=None, filler=None):
    """A cusp, a tube and a filler attached to the cusp, with some
    entries' fields replaced."""
    return {
        "cusps": [{"lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
                   "t0": 0.0, "t1": 1.0, **(cusp or {})}],
        "tubes": [{"length": 0.01, "twist": 0.0, "radius": "meyerhoff", **(tube or {})}],
        "fillers": [{"L": 12.0, "attach": 0, **(filler or {})}],
    }


@pytest.mark.parametrize("manifold,message", [
    (_manifold(cusp={"t0": "0"}), "cusps[0].t0 must be a number"),
    (_manifold(cusp={"t1": [1.0]}), "cusps[0].t1 must be a number"),
    (_manifold(tube={"length": "0.01"}), "tubes[0]: length must be a number"),
    (_manifold(tube={"twist": "0"}), "tubes[0]: twist must be a number"),
    (_manifold(tube={"radius": None}), "tubes[0]: radius must be a number"),
    (_manifold(filler={"L": "12"}), "fillers[0].L must be a number"),
], ids=["t0", "t1", "length", "twist", "radius", "L"])
def test_sweepout_profile_rejects_a_non_numeric_field(tmp_path, capsys, manifold, message):
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(manifold))
    code = run(["sweepout", "profile", "--manifold", str(path),
                "--out", str(tmp_path / "p.csv")])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err.startswith(f"domain error: {path}: {message}"), captured.err
    assert not (tmp_path / "p.csv").exists()


def test_sweepout_profile_reads_a_filler_given_by_its_lattice(tmp_path, capsys):
    # A filler that is not attached carries its own boundary lattice: the
    # profile's filler segment starts at that lattice's area, 0.9.
    manifold = _manifold(filler={"lattice": {"v1": [1.0, 0.0], "v2": [0.3, 0.9]}})
    del manifold["fillers"][0]["attach"]
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(manifold))
    code, data = run_json(capsys, ["sweepout", "profile", "--manifold", str(path),
                                   "--samples", "20", "--emit", "json"])
    assert code == EXIT_OK
    filler_areas = [a for _, label, a in data["samples"] if label == "filler[0]"]
    assert len(filler_areas) == 20 and filler_areas[0] == pytest.approx(0.9, rel=1e-12)
    assert data["width_upper_bound"] == pytest.approx(1.0, rel=1e-9)


def test_sweepout_profile_names_a_field_of_the_wrong_type(tmp_path, capsys):
    # "cusps" must be a list of cusp entries; a number is a bad field value.
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps({**_manifold(), "cusps": 5}))
    code = run(["sweepout", "profile", "--manifold", str(path), "--out", str(tmp_path / "p.csv")])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err.startswith(f"domain error: {path}: bad field value: "), captured.err
    assert "Traceback" not in captured.err and not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("bc,message", [
    ({"kind": "affine", "coeffs": ["0.1", 0.5, -0.2]}, "coeffs must be a list of numbers"),
    ({"kind": "affine", "coeffs": [0.1, 0.5]}, "coeffs must be a list of 3 numbers"),
    ({"kind": "affine", "coeffs": [0.1, 0.5, -0.2, 1.0]}, "coeffs must be a list of 3 numbers"),
    ({"kind": "affine", "coeffs": [0.1, math.inf, -0.2]}, "coeffs must be finite"),
    ({"kind": "constant", "value": "1.5"}, "value must be a number"),
    ({"kind": "constant", "value": math.nan}, "value must be finite"),
], ids=["coeff_string", "two_coeffs", "four_coeffs", "coeff_inf", "value_string",
        "value_nan"])
def test_graph_solve_rejects_bad_boundary_data(tmp_path, capsys, bc, message):
    (tmp_path / "metric.json").write_text(json.dumps(FLAT_METRIC))
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(bc))
    out = tmp_path / "u.csv"
    code = run(["graph", "solve", "--metric", str(tmp_path / "metric.json"),
                "--grid", "8x8", "--bc", str(path), "--out", str(out)])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.err.startswith(f"domain error: {path}: {message}"), captured.err
    assert not out.exists()


@pytest.mark.parametrize("tol,extent,message", [
    ("nan", "1.0x1.0", "tolerance must be finite, got nan"),
    ("inf", "1.0x1.0", "tolerance must be finite, got inf"),
    ("1e-8", "nanx1.0", "extent must be finite, got nan at (0,)"),
    ("1e-8", "1.0xinf", "extent must be finite, got inf at (1,)"),
], ids=["tol_nan", "tol_inf", "extent_nan", "extent_inf"])
def test_graph_solve_rejects_a_nonfinite_number(tmp_path, capsys, tol, extent, message):
    (tmp_path / "metric.json").write_text(json.dumps(FLAT_METRIC))
    (tmp_path / "bc.json").write_text(json.dumps({"kind": "constant", "value": 0.5}))
    out = tmp_path / "u.csv"
    code = run(["--tol", tol, "graph", "solve", "--metric", str(tmp_path / "metric.json"),
                "--grid", "8x8", "--extent", extent, "--bc", str(tmp_path / "bc.json"),
                "--out", str(out)])
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err == f"domain error: {message}\n"
    assert not out.exists()


def test_twelve_significant_digits(capsys):
    assert run(["bounds", "disk", "--R", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "17.3553873818" in out


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bounds_reject_nonfinite(capsys, value):
    commands = [
        ["bounds", "disk", "--R", value],
        ["bounds", "band", "--rho1", "0", "--rho2", value, "--sys", "1", "--RL", value],
        ["bounds", "band", "--rho1", value, "--rho2", "4", "--sys", "1", "--RL", "10"],
        ["bounds", "crossing", "--R", value, "--RL", value, "--sys", "1"],
        ["bounds", "crossing", "--R", "5", "--RL", "10", "--sys", "1", "--kpp", value],
        ["bounds", "margulis", "--eps", value],
    ]
    for argv in commands:
        assert run(["--json"] + argv) == EXIT_DOMAIN, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain error" in captured.err


@pytest.mark.parametrize("flag", ["--twist", "--radius"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_tube_rejects_nonfinite(capsys, flag, value):
    assert run(["--json", "tube", "--length", "0.1", flag, value]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"tube {flag[2:]} must be finite" in captured.err


FLAT_METRIC = {
    "kind": "flat",
    "lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
    "interval": [-5.0, 5.0],
}


def _malformed_input_commands(tmp_path):
    """(argv, name of the malformed file) for each JSON-reading command."""
    files = {
        "truncated.json": "{bad",
        "family.json": json.dumps(
            {"level": 0, "currents": [[{"patch": "A", "multiplicity": 1}], []]}
        ),
        "bc.json": json.dumps({"kind": "affine"}),
        "good_bc.json": json.dumps({"kind": "constant", "value": 0.0}),
        "metric.json": json.dumps(FLAT_METRIC),
        "manifold.json": json.dumps({"tubes": [{"twist": 0.0}]}),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    p = {name: str(tmp_path / name) for name in files}
    out = str(tmp_path / "u.csv")
    graph = ["graph", "solve", "--grid", "8x8", "--out", out]
    return [
        (["sweepout", "fineness", "--family", p["family.json"]], "family.json"),
        (["sweepout", "fineness", "--family", p["truncated.json"]], "truncated.json"),
        (graph + ["--metric", p["metric.json"], "--bc", p["bc.json"]], "bc.json"),
        (graph + ["--metric", p["truncated.json"], "--bc", p["good_bc.json"]],
         "truncated.json"),
        (graph + ["--metric", p["metric.json"], "--bc", p["truncated.json"]],
         "truncated.json"),
        (["sweepout", "profile", "--manifold", p["truncated.json"]], "truncated.json"),
        (["sweepout", "profile", "--manifold", p["manifold.json"]], "manifold.json"),
    ]


def test_malformed_input_json_exits_domain(tmp_path, capsys):
    for argv, name in _malformed_input_commands(tmp_path):
        # run() returning at all means no exception escaped it.
        assert run(argv) == EXIT_DOMAIN, argv
        err = capsys.readouterr().err
        assert err.startswith("domain error: ") and name in err, (argv, err)
        assert "Traceback" not in err


def test_directory_as_input_or_output_path_exits_domain(tmp_path, capsys):
    (tmp_path / "metric.json").write_text(json.dumps(FLAT_METRIC))
    (tmp_path / "bc.json").write_text(json.dumps({"kind": "constant", "value": 0.0}))
    folder = tmp_path / "folder"
    folder.mkdir()
    graph = ["graph", "solve", "--grid", "8x8"]
    cases = [
        graph + ["--metric", str(folder), "--bc", str(tmp_path / "bc.json"),
                 "--out", str(tmp_path / "u.csv")],
        graph + ["--metric", str(tmp_path / "metric.json"),
                 "--bc", str(tmp_path / "bc.json"), "--out", str(folder)],
    ]
    for argv in cases:
        assert run(argv) == EXIT_DOMAIN, argv
        err = capsys.readouterr().err
        assert err.startswith("file error: ") and str(folder) in err, (argv, err)
        assert "Traceback" not in err


def test_malformed_input_json_no_traceback_from_the_console(tmp_path):
    family = tmp_path / "family.json"
    family.write_text(json.dumps(
        {"level": 0, "currents": [[{"patch": "A", "multiplicity": 1}], []]}
    ))
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "thinpart.cli", "sweepout", "fineness",
         "--family", str(family)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_DOMAIN
    assert proc.stderr.startswith("domain error: ")
    assert "missing field 'area'" in proc.stderr
    assert "Traceback" not in proc.stderr


def _readme():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        return fh.read()


def _readme_command_lines():
    """argv of every ``thinpart`` line of the README; "[--flag value]"
    marks an optional flag, which is passed as given."""
    text = _readme().replace("\\\n", " ")
    lines = [line.strip() for line in text.splitlines()]
    return [shlex.split(re.sub(r"[\[\]]", "", line), comments=True)[1:]
            for line in lines if line.startswith("thinpart ")]


# Input files the README's command lines name; filler.json is written by
# the README's own `filler build` line before `filler verify` reads it.
README_INPUTS = {
    "metric.json": {"kind": "cusp", "lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
                    "interval": [0.0, 3.0]},
    "bc.json": {"kind": "affine", "coeffs": [0.5, 0.5, -0.2]},
    "manifold.json": _manifold(),
    "fam.json": _family(),
}


def test_readme_command_lines_parse(tmp_path, monkeypatch, capsys):
    # Each line parses, and runs to exit 0 on the input files it names.
    lines = _readme_command_lines()
    assert len(lines) >= 12
    for name, data in README_INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        build_parser().parse_args(argv)
        assert run(argv) == EXIT_OK, (argv, capsys.readouterr().err)


def test_readme_library_example_runs():
    # The README's one Python block, run as written.
    blocks = re.findall(r"^```python\n(.*?)^```", _readme(), re.M | re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["info"].converged


def test_graph_solve_on_the_flat_torus(tmp_path, capsys):
    # The flat 32^2 torus of the console-script CI step: its Hessian
    # annihilates the constants, so each step is a "pinned" factor.
    (tmp_path / "flat.json").write_text(json.dumps(
        {"kind": "flat", "lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.2]},
         "interval": [-5.0, 5.0]}))
    (tmp_path / "bc.json").write_text(json.dumps({"kind": "affine", "coeffs": [0.2, 0.05, 0.0]}))
    out = tmp_path / "torus.csv"
    code, data = run_json(capsys, ["graph", "solve", "--metric", str(tmp_path / "flat.json"),
                                   "--domain", "torus", "--grid", "32x32",
                                   "--bc", str(tmp_path / "bc.json"), "--out", str(out)])
    assert code == EXIT_OK
    assert data["linear_solvers"] == ["pinned"] * 5 and data["pinned_mean"]
    assert data["final_residual"] <= 1e-8 and data["grid"] == "32x32"
    assert len(out.read_text().splitlines()) == 2 + 32


def test_graph_solve_that_does_not_converge_exits_verify(tmp_path, capsys):
    # A SolveError: one Newton step on the README's cusp cannot reach 1e-14.
    (tmp_path / "metric.json").write_text(json.dumps(
        {"kind": "cusp", "lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
         "interval": [0.0, 3.0]}))
    (tmp_path / "bc.json").write_text(json.dumps({"kind": "affine", "coeffs": [0.5, 0.5, -0.2]}))
    out = tmp_path / "u.csv"
    code = run(["--tol", "1e-14", "graph", "solve", "--metric", str(tmp_path / "metric.json"),
                "--grid", "17x17", "--bc", str(tmp_path / "bc.json"), "--out", str(out),
                "--max-iter", "1"])
    assert code == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.err.startswith("solve failed: no convergence after 1 iterations")
    assert "Traceback" not in captured.err and captured.out == ""
    assert not out.exists()


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def _standstill(H, rhs, levels, periodic, kept=None):
    return np.zeros_like(rhs), None, "lu", 0


@pytest.mark.parametrize("kind,domain,patch,message", [
    ("flat", "torus", ("_factor", _raise_runtime_error), "singular Jacobian"),
    ("cusp", "rect", ("_linear_solve", _standstill), "line search stalled at residual"),
], ids=["pinned_factor_raises", "line_search_stalls"])
def test_a_solver_failure_exits_verify(tmp_path, capsys, monkeypatch, kind, domain, patch,
                                       message):
    # The SolveError of a pinned step whose factor raises (the flat
    # torus), and of a line search that accepts no step (a cusp graph off
    # its solution), exit 3.
    monkeypatch.setattr(minimal_graph, *patch)
    (tmp_path / "metric.json").write_text(json.dumps(
        {"kind": kind, "lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
         "interval": [0.0, 3.0]}))
    (tmp_path / "bc.json").write_text(json.dumps({"kind": "affine", "coeffs": [0.5, 0.5, -0.2]}))
    out = tmp_path / "u.csv"
    code = run(["graph", "solve", "--metric", str(tmp_path / "metric.json"), "--domain", domain,
                "--grid", "17x17", "--bc", str(tmp_path / "bc.json"), "--out", str(out)])
    assert code == EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.err.startswith(f"solve failed: {message}")
    assert "Traceback" not in captured.err and not out.exists()


@pytest.mark.parametrize("case,message", [
    ("grid", "grid must look like 64x64, got '9by9'"),
    ("extent", "extent must look like 1.0x1.0, got '1x'"),
    ("lattice", "bad lattice literal '1,x,1'"),
    ("bc_kind", "unsupported boundary data kind 'quadratic'"),
    ("filler", "filler entry needs 'lattice' or 'attach'"),
])
def test_malformed_documented_inputs_exit_domain(tmp_path, capsys, case, message):
    (tmp_path / "metric.json").write_text(json.dumps(FLAT_METRIC))
    (tmp_path / "bc.json").write_text(json.dumps(
        {"kind": "quadratic"} if case == "bc_kind" else {"kind": "constant", "value": 0.5}))
    (tmp_path / "manifold.json").write_text(json.dumps({"fillers": [{"L": 12.0}]}))
    graph = ["graph", "solve", "--metric", str(tmp_path / "metric.json"),
             "--bc", str(tmp_path / "bc.json"), "--out", str(tmp_path / "u.csv")]
    argv = {
        "grid": graph + ["--grid", "9by9"],
        "extent": graph + ["--grid", "9x9", "--extent", "1x"],
        "lattice": ["lattice", "--lattice", "1,x,1"],
        "bc_kind": graph + ["--grid", "9x9"],
        "filler": ["sweepout", "profile", "--manifold", str(tmp_path / "manifold.json"),
                   "--out", str(tmp_path / "p.csv")],
    }[case]
    assert run(argv) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and message in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "u.csv").exists() and not (tmp_path / "p.csv").exists()


def _strict_json(text: str):
    """``json.loads`` that rejects NaN and the infinities."""
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv, message", [
    (["bounds", "disk", "--R", "1e300"], "R = 1e+300 overflows the disk area"),
    (["--json", "bounds", "disk", "--R", "710.5"], "R = 710.5 overflows the disk area"),
    (["bounds", "margulis", "--eps", "1e300"], "eps = 1e+300 overflows the disk area"),
    (["--json", "bounds", "margulis", "--eps", "710.5"], "eps = 710.5 overflows the disk area"),
    (["bounds", "band", "--rho1", "1", "--rho2", "2", "--sys", "1", "--RL", "710.5"],
     "tube_radius = 710.5 overflows the band bound"),
    (["bounds", "crossing", "--R", "3", "--RL", "710.5", "--sys", "1"],
     "tube_radius = 710.5 overflows cosh RL"),
    (["--json", "bounds", "crossing", "--R", "5", "--RL", "10", "--sys", "1", "--kpp", "5e-324"],
     "kappa2 = 5e-324 overflows the crossing chain"),
    (["--json", "meyerhoff", "--length", "5e-324"],
     "geodesic length = 5e-324 overflows sinh^2 R"),
], ids=["disk", "disk-json", "margulis", "margulis-json", "band", "crossing", "kpp", "meyerhoff"])
def test_an_overflowing_bound_exits_domain_naming_its_argument(capsys, argv, message):
    assert run(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"domain error: {message}\n"


def test_close_band_radii_and_the_threshold_length_print_finite_json(capsys):
    # The band bound no longer checks itself against a second, cancelling
    # form, and the radius at ELL_MAX is +0.0, not -0.0.
    code = run(["--json", "bounds", "band", "--rho1", "3", "--rho2", "3.0000001",
                "--sys", "1", "--RL", "30"])
    data = _strict_json(capsys.readouterr().out)
    assert code == EXIT_OK and data["bound"] == data["intermediate"] > 0.0
    code = run(["--json", "meyerhoff", "--length", "0.10707074542167834"])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "-0.0" not in out
    assert _strict_json(out)["radius"] == 0.0


def test_a_grid_spacing_whose_square_underflows_exits_domain(tmp_path, capsys):
    (tmp_path / "metric.json").write_text(json.dumps(FLAT_METRIC))
    (tmp_path / "bc.json").write_text(json.dumps({"kind": "constant", "value": 0.5}))
    out = tmp_path / "u.csv"
    code = run(["graph", "solve", "--metric", str(tmp_path / "metric.json"), "--grid", "9x9",
                "--extent", "1e-300x1", "--bc", str(tmp_path / "bc.json"), "--out", str(out)])
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "domain error: spacing must square to a normal float, got (1.25e-301, 0.125)\n")
    assert not out.exists()


@pytest.mark.parametrize("manifold, message", [
    (_manifold(cusp={"t0": 1.0}), "cusps[0]: cusp depth range requires t0 < t1"),
    (_manifold(filler={"L": -12.0}), "fillers[0]: filler depth must exceed 10"),
    (_manifold(cusp={"lattice": {"v1": [1.0, 0.0], "v2": [2.0, 0.0]}}),
     "cusps[0].lattice: degenerate lattice"),
    (_manifold(filler={"attach": 3}), "fillers[0].attach must lie in [0, 1), got 3"),
], ids=["cusp-depths", "filler-depth", "cusp-lattice", "attach"])
def test_a_manifold_entry_is_named_once_in_its_message(tmp_path, capsys, manifold, message):
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(manifold))
    assert run(["sweepout", "profile", "--manifold", str(path)]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith(f"domain error: {path}: {message}"), err
