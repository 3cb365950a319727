import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from thinpart.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, build_parser, run
from thinpart.tube_geometry import meyerhoff_radius


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


def _readme_command_lines():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        text = fh.read().replace("\\\n", " ")
    lines = [line.strip() for line in text.splitlines()]
    return [line for line in lines if line.startswith("thinpart ")]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 12
    for line in lines:
        # "[--flag value]" marks an optional flag; parse it as given.
        argv = shlex.split(re.sub(r"[\[\]]", "", line), comments=True)[1:]
        build_parser().parse_args(argv)
