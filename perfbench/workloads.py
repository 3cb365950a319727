"""The three workloads: seeded inputs, the timed cases, and their checks.

Every case is a callable the harness times plus a check that compares its
output against a reference the benchmark computes itself, outside the
timed region.  Cases go through ``thinpart.cli.run`` in-process wherever
the CLI can express them; the rest call the public library.  Functions
are looked up on their modules at call time, so the tracer's wrappers see
every call.

Sizes follow README.md in this directory; ``small=True`` shrinks them for
the self-test.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import thinpart
from thinpart import cli, flat_torus, minimal_graph, sweepout, warped_metric
from thinpart import area_bounds, tube_geometry

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GRAPH_TOL = 1e-8          # above the ~1e-9 roundoff floor of the 257^2 tube
TUBE_4C = {"kind": "tube", "length": 1e-5, "twist": 0.3, "radius": 5.0}
README_TUBE = {"kind": "tube", "length": 0.01, "twist": 0.0,
               "radius": "meyerhoff", "normalized": True}
EXTENT = 0.35
SHEAR = np.array([[1.0, 0.3], [0.3, 1.0]])


class CaseFailure(Exception):
    """A case's output disagrees with its reference."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CaseFailure(message)


def close(value, reference, rtol: float, what: str) -> None:
    value, reference = float(value), float(reference)
    expect(math.isfinite(value) and abs(value - reference) <= rtol * max(abs(reference), 1e-300),
           f"{what}: {value!r} != {reference!r} (rtol {rtol:g})")


@dataclass
class Case:
    name: str
    run: Callable[[], object]            # the timed call
    check: Callable[[object], None]      # raises CaseFailure
    params: dict = field(default_factory=dict)
    prepare: Callable[[], None] | None = None   # untimed reference work


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(*argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([str(a) for a in argv])
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_json(res: CliResult) -> dict:
    expect(res.code == 0, f"exit code {res.code}: {res.err.strip()}")
    return json.loads(res.out)


def write_json(path: str, data) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def read_grid(path: str) -> np.ndarray:
    u = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    expect(np.all(np.isfinite(u)), f"{path}: non-finite values")
    return u


# ------------------------------------------------------------ references


def gauss_reduce(a1: float, a2: float, b2: float):
    """Lagrange-Gauss reduction of (a1, 0), (a2, b2); returns u, w with
    |u| <= |w|, |<u, w>| <= |u|^2 / 2 and <u, w> >= 0."""
    u, w = np.array([a1, 0.0]), np.array([a2, b2])
    if u @ u > w @ w:
        u, w = w, u
    while True:
        w = w - round(float(u @ w) / float(u @ u)) * u
        if w @ w >= u @ u:
            break
        u, w = w, u
    return (u, w) if u @ w >= 0 else (u, -w)


def covering_radius(a1: float, a2: float, b2: float) -> float:
    """Circumradius of the Delaunay triangle (0, u, w) of a reduced basis
    with <u, w> >= 0; the triangle is non-obtuse, so its circumcenter is
    the deepest hole."""
    u, w = gauss_reduce(a1, a2, b2)
    det = abs(u[0] * w[1] - u[1] * w[0])
    return float(np.linalg.norm(u) * np.linalg.norm(w) * np.linalg.norm(w - u) / (2.0 * det))


def meyerhoff(length: float) -> float:
    """sinh^2 R = ((1 - 2k)^(1/2) / k - 1) / 2, k = cosh(sqrt(4 pi l / sqrt 3)) - 1."""
    y = math.sqrt(4.0 * math.pi * length / math.sqrt(3.0))
    k = 2.0 * math.sinh(0.5 * y) ** 2
    return math.asinh(math.sqrt(0.5 * (math.sqrt(1.0 - 2.0 * k) / k - 1.0)))


def load_oracles():
    """The ODE oracle module of the repository's tests."""
    spec = importlib.util.spec_from_file_location(
        "thinpart_test_oracles", os.path.join(ROOT, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def convergence_order(coarse, mid, fine) -> float:
    """Observed order of three grids refined by 2."""
    e1 = np.max(np.abs(coarse - mid[::2, ::2]))
    e2 = np.max(np.abs(mid - fine[::2, ::2]))
    return math.log2(e1 / e2)


# ------------------------------------------------------------ graph solves


def boundary_function(bc: dict):
    if bc["kind"] == "affine":
        c0, c1, c2 = bc["coeffs"]
        return lambda x, y: c0 + c1 * x + c2 * y
    return lambda x, y: bc["value"] + 0.0 * x + 0.0 * y


class GraphSolve:
    """One ``thinpart graph solve`` call and its output checks."""

    def __init__(self, workdir, name, metric, bc, grid, extent, domain="rect"):
        self.name, self.grid, self.extent, self.domain = name, grid, extent, domain
        self.bc = bc
        self.metric_path = write_json(os.path.join(workdir, f"{name}.metric.json"), metric)
        self.bc_path = write_json(os.path.join(workdir, f"{name}.bc.json"), bc)
        self.out_path = os.path.join(workdir, f"{name}.csv")
        self.params = {"grid": f"{grid[0]}x{grid[1]}", "tol": GRAPH_TOL,
                       "extent": f"{extent[0]!r}x{extent[1]!r}", "domain": domain}

    def __call__(self) -> CliResult:
        # `thinpart --tol X graph solve ...`: the README's trailing
        # `graph solve ... --tol X` is a usage error (exit 64).
        return run_cli(
            "--json", "--tol", repr(GRAPH_TOL), "graph", "solve",
            "--metric", self.metric_path, "--domain", self.domain,
            "--grid", self.params["grid"], "--extent", self.params["extent"],
            "--bc", self.bc_path, "--out", self.out_path,
        )

    def grid_values(self, res: CliResult) -> np.ndarray:
        """Check the run converged on the given data; return u."""
        payload = cli_json(res)
        expect(payload["final_residual"] <= GRAPH_TOL,
               f"residual {payload['final_residual']!r} above tol")
        u = read_grid(self.out_path)
        expect(u.shape == tuple(self.grid), f"grid shape {u.shape}")
        if self.domain == "rect":
            x1 = np.linspace(0.0, self.extent[0], self.grid[0])
            x2 = np.linspace(0.0, self.extent[1], self.grid[1])
            X1, X2 = np.meshgrid(x1, x2, indexing="ij")
            data = boundary_function(self.bc)(X1, X2)
            ring = np.ones(u.shape, dtype=bool)
            ring[1:-1, 1:-1] = False
            err = float(np.max(np.abs(u[ring] - data[ring])))
            expect(err <= 1e-11 * max(1.0, float(np.max(np.abs(data)))),
                   f"boundary ring off the data by {err:.3g}")
        return u


def library_solution(metric: dict, bc: dict, n: int) -> np.ndarray:
    spec = warped_metric.spec_from_json(metric)
    init = minimal_graph.DiscreteGraph.on_rectangle(
        (EXTENT, EXTENT), (n, n), boundary_function(bc))
    out, _ = minimal_graph.solve(spec, init, tol=GRAPH_TOL)
    return out.values


def graph_large(seed: int, workdir: str, small: bool) -> list[Case]:
    """Two Dirichlet tube solves at 257^2.  The problems are fixed (a
    seeded change would change Newton iteration counts, i.e. the work);
    their references are the 65^2 and 129^2 solves of the same problems."""
    n = 33 if small else 257
    problems = [
        ("readme_tube", README_TUBE, {"kind": "affine", "coeffs": [1.2, 0.05, 0.0]}, False),
        ("tube_4c", TUBE_4C, {"kind": "constant", "value": 3.8}, True),
    ]
    cases = []
    for name, metric, bc, symmetric in problems:
        solve = GraphSolve(workdir, f"{name}_{n}", metric, bc, (n, n), (EXTENT, EXTENT))
        refs = []

        def prepare(metric=metric, bc=bc, refs=refs):
            refs[:] = [library_solution(metric, bc, (n - 1) // k + 1) for k in (4, 2)]

        def check(res, solve=solve, refs=refs, symmetric=symmetric):
            u = solve.grid_values(res)
            order = convergence_order(refs[0], refs[1], u)
            expect(order >= 1.9, f"convergence order {order:.3f} < 1.9")
            if symmetric:
                # Constant data: the point reflection maps the split-cell
                # triangulation onto itself, so the solution is symmetric.
                asym = float(np.max(np.abs(u - u[::-1, ::-1])))
                expect(asym <= 1e-8, f"asymmetry {asym:.3g}")

        params = dict(solve.params, reference_grids=[(n - 1) // 4 + 1, (n - 1) // 2 + 1])
        cases.append(Case(solve.name, solve, check, params, prepare))
    return cases


# ------------------------------------------------------------ graph_small


def random_graph(rng, spec, n: int, modes: int = 3):
    """Smooth seeded graph on the unit square inside the spec's range,
    and a smooth variation vanishing on the boundary ring."""
    lo, hi = spec.x3_min, spec.x3_max
    mid, amp = 0.5 * (lo + hi), 0.1 * (hi - lo)
    x = np.linspace(0.0, 1.0, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    k = np.arange(1, modes + 1)
    SX, SY = np.sin(np.pi * k[:, None, None] * X), np.sin(np.pi * k[:, None, None] * Y)

    def bump(c):
        return np.einsum("kl,kij,lij->ij", c, SX, SY) / np.sum(np.abs(c))

    slope = rng.uniform(-1.0, 1.0, 2)
    u = mid + amp * (0.5 * (slope[0] * (X - 0.5) + slope[1] * (Y - 0.5))
                     + 0.5 * bump(rng.standard_normal((modes, modes))))
    v = bump(rng.standard_normal((modes, modes)))
    return minimal_graph.DiscreteGraph(u, (x[1], x[1])), v


def eval_case(rng, kind: str, n: int) -> Case:
    unit = flat_torus.FlatTorusLattice.unit_square()
    if kind == "flat":
        spec = warped_metric.WarpedMetricSpec.flat(unit, -5.0, 5.0)
        a1a2 = lambda u: np.ones_like(u)
    elif kind == "cusp":
        spec = tube_geometry.cusp_as_warped(tube_geometry.CuspParams(unit, 0.0, 3.0))
        a1a2 = lambda u: np.exp(-2.0 * u)
    else:
        spec = warped_metric.spec_from_json(TUBE_4C)
        a1a2 = lambda u: np.sinh(5.0 - u) * np.cosh(5.0 - u)
    g, v = random_graph(rng, spec, n)
    eps = 1e-4
    ref = {}

    def run():
        return (minimal_graph.area(spec, g), minimal_graph.el_residual(spec, g),
                minimal_graph.first_variation(spec, g, v),
                minimal_graph.graph_mean_curvature(spec, g))

    def prepare():
        plus, minus = g.copy(), g.copy()
        plus.values = g.values + eps * v
        minus.values = g.values - eps * v
        ref["fd"] = (minimal_graph.area(spec, plus) - minimal_graph.area(spec, minus)) / (2 * eps)

    def check(out):
        area, res, fv, H = out
        cell = g.spacing[0] * g.spacing[1]
        pairing = -float(np.sum(res * v[1:-1, 1:-1])) * cell
        expect(abs(fv - pairing) <= 1e-11 * (1.0 + abs(fv)),
               f"first variation {fv!r} != pairing {pairing!r}")
        expect(abs(fv - ref["fd"]) <= 1e-6 * (1.0 + abs(fv)),
               f"first variation {fv!r} != area difference {ref['fd']!r}")
        expect(math.isfinite(area) and area > 0.0, f"area {area!r}")
        # The residual is the discrete 2 H a1 a2 (mean curvature times
        # <N, d3> dA); the two discretizations agree to O(h^2), measured
        # at up to 140 h^2 on these graphs for n = 33 to 257.
        rel = np.max(np.abs(res - 2.0 * H * a1a2(g.values[1:-1, 1:-1]))) / np.max(np.abs(res))
        expect(rel <= 400.0 * g.spacing[0] ** 2,
               f"residual vs 2 H a1 a2 off by {rel:.3g}")

    return Case(f"eval_{kind}_{n}", run, check, {"grid": f"{n}x{n}", "spec": kind}, prepare)


def graph_small(seed: int, workdir: str, small: bool) -> list[Case]:
    """Many small solves (the criterion-4(c) ladder, the cusp stripe, a
    pinned-mean flat torus) plus solve-free evaluation at 257^2."""
    rng = np.random.default_rng(seed)
    cases = []

    ladder = [GraphSolve(workdir, f"ladder_{n}", TUBE_4C, {"kind": "constant", "value": 3.8},
                         (n, n), (EXTENT, EXTENT))
              for n in ((9, 17, 33) if small else (33, 65, 129))]

    def check_ladder(results):
        u = [solve.grid_values(res) for solve, res in zip(ladder, results)]
        order = convergence_order(*u)
        expect(order >= 1.9, f"convergence order {order:.3f} < 1.9")

    cases.append(Case("tube_ladder", lambda: [solve() for solve in ladder], check_ladder,
                      {"grids": [s.params["grid"] for s in ladder], "tol": GRAPH_TOL}))

    n2, va, vb = 2049, 0.15, 0.55
    h2 = 1.0 / (n2 - 1)
    cusp_metric = {"kind": "cusp", "lattice": {"v1": [1.0, 0.0], "v2": [0.0, 1.0]},
                   "interval": [0.0, 3.0]}
    stripe = GraphSolve(workdir, "stripe", cusp_metric,
                        {"kind": "affine", "coeffs": [va, 0.0, vb - va]},
                        (4, n2), (4 * h2, 1.0), domain="stripe")
    oracle = {}

    def prepare_stripe():
        spec = warped_metric.spec_from_json(cusp_metric)
        x2 = np.arange(n2)[::8] * h2
        oracle["u"] = load_oracles().solve_stripe_ode(spec, va, vb, x2)

    def check_stripe(res):
        u = stripe.grid_values(res)
        err = float(np.max(np.abs(u[:, ::8] - oracle["u"])))
        expect(err <= 1e-6, f"off the ODE oracle by {err:.3g}")

    cases.append(Case("cusp_stripe", stripe, check_stripe,
                      dict(stripe.params, oracle_tol=1e-6), prepare_stripe))

    lat = flat_torus.FlatTorusLattice(1.0, 0.0, 1.2)
    flat = warped_metric.WarpedMetricSpec.flat(lat, -5.0, 5.0)
    torus_init = minimal_graph.DiscreteGraph.on_torus(
        lat, (32, 32),
        lambda x, y: 0.2 + 0.06 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y / 1.2)
        + 0.03 * np.cos(4 * np.pi * x + 1.0))
    mean0 = float(np.mean(torus_init.values))

    def check_torus(out):
        g, report = out
        expect(report.converged and report.pinned_mean,
               f"converged={report.converged} pinned={report.pinned_mean}")
        dev = float(np.max(np.abs(g.values - mean0)))
        expect(dev <= 1e-9, f"solution off the initial mean by {dev:.3g}")

    cases.append(Case("flat_torus_32", lambda: minimal_graph.solve(flat, torus_init, tol=GRAPH_TOL),
                      check_torus, {"grid": "32x32", "tol": GRAPH_TOL, "domain": "torus"}))

    n = 33 if small else 257
    cases += [eval_case(rng, kind, n) for kind in ("flat", "cusp", "tube")]
    return cases


# ------------------------------------------------------------ geometry_scan


def sheared_cusp(t1: float):
    """Cusp with the constant sheared horizontal block exp(-2 x3) SHEAR."""

    def coefficients(x1, x2, x3, axes):
        out = np.zeros((3, 3))
        if any(a != 3 for a in axes):
            return out
        out[:2, :2] = (-2.0) ** len(axes) * math.exp(-2.0 * x3) * SHEAR
        out[2, 2] = 1.0 if not axes else 0.0
        return out

    return warped_metric.WarpedMetricSpec(
        flat_torus.FlatTorusLattice.unit_square(), 0.0, t1, thinpart.Field1D.exp_decay(),
        kind="sheared-cusp", coefficients=warped_metric.CallableCoefficients(coefficients))


def near_unit_lattice(rng):
    """Fillers on these lattices with 12 <= L <= 16 pass verification;
    deeper ones can fail it (README.md, "Sizes, and why")."""
    return (float(rng.uniform(0.85, 1.15)), float(rng.uniform(-0.15, 0.15)),
            float(rng.uniform(0.85, 1.15)))


def lattice_literal(lat) -> str:
    return ",".join(repr(x) for x in lat)


def random_lattices(rng, count: int):
    out = []
    for scale in 10.0 ** rng.uniform(-1.5, 1.5, count):
        a1, a2, b2 = scale * rng.uniform([0.2, -3.0, 0.2], [3.0, 3.0, 3.0])
        out.append(flat_torus.FlatTorusLattice(float(a1), float(a2), float(b2)))
    return out


def geometry_scan(seed: int, workdir: str, small: bool) -> list[Case]:
    """No Newton solve: comparison constants, blow-ups, lattice routines,
    fillers, sweep-out profiles and patch interpolation."""
    rng = np.random.default_rng(seed)
    grid = 8 if small else 16
    cases = []

    t1 = float(rng.uniform(2.0, 4.0))
    sheared = sheared_cusp(t1)

    def check_sheared(rep):
        close(rep.a_h1, 1.0 / math.sqrt(0.7), 1e-12, "sheared a_h1")
        for got, want in zip(rep.h3_ratios, (1.0, 2.0, 4.0, 8.0)):
            close(got, want, 1e-12, "sheared h3 ratio")
        for got in rep.h2_ratios:
            close(got, 1.0, 1e-12, "sheared h2 ratio")
        expect(rep.npoints == grid**3 and rep.h_monotone and rep.mean_convex,
               f"sheared report flags/points: {rep}")

    cases.append(Case("check_hypotheses_sheared",
                      lambda: warped_metric.check_hypotheses(sheared, grid=grid),
                      check_sheared, {"grid": grid, "t1": t1}))

    cusp_lat = near_unit_lattice(rng)
    cusp = tube_geometry.cusp_as_warped(tube_geometry.CuspParams(
        flat_torus.FlatTorusLattice(*cusp_lat), 0.0, t1))
    tube_params = tube_geometry.TubeParams(1e-5, 0.3, 5.0)
    margin = 0.5
    tube = tube_geometry.tube_as_warped(tube_params, margin=margin)

    def check_diagonal(reps):
        rc, rt = reps
        close(rc.a_h1, 1.0, 1e-12, "cusp a_h1")
        for got, want in zip(rc.h3_ratios, (1.0, 2.0, 4.0, 8.0)):
            close(got, want, 1e-12, "cusp h3 ratio")
        coth = 1.0 / math.tanh(margin)
        close(rt.a_h1, math.sinh(5.0) * coth, 1e-12, "tube a_h1")
        for got, want in zip(rt.h2_ratios, (coth, 1.0, coth)):
            close(got, want, 1e-12, "tube h2 ratio")

    cases.append(Case("check_hypotheses_diagonal",
                      lambda: (warped_metric.check_hypotheses(cusp, grid=grid),
                               warped_metric.check_hypotheses(tube, grid=grid)),
                      check_diagonal, {"grid": grid}))

    s, lam = float(rng.uniform(0.5, 0.9 * t1)), float(rng.uniform(0.5, 4.0))
    ys = lam * (np.linspace(0.0, t1, 5) - s)

    def blowup():
        out = []
        for spec in (sheared, cusp):
            b = warped_metric.blowup_rescale(spec, s, lam)
            out.append(((b.x3_min, b.x3_max),
                        [b.coefficient_matrix(0.1, 0.2, float(y)) for y in ys],
                        [float(b.warping(float(y))) for y in ys]))
        out.append(warped_metric.check_hypotheses(
            warped_metric.blowup_rescale(cusp, s, lam), grid=grid))
        return out

    def check_blowup(out):
        *specs, rep = out
        for block, (interval, mats, warps) in zip((SHEAR, np.eye(2)), specs):
            close(interval[0], -lam * s, 1e-12, "blow-up x3_min")
            close(interval[1], lam * (t1 - s), 1e-12, "blow-up x3_max")
            for y, M, h in zip(ys, mats, warps):
                want = np.zeros((3, 3))
                want[:2, :2] = lam**2 * math.exp(-2.0 * (y / lam + s)) * block
                want[2, 2] = 1.0
                err = float(np.max(np.abs(M - want)))
                expect(err <= 1e-12 * max(1.0, float(np.max(np.abs(want)))),
                       f"blow-up coefficients off by {err:.3g} at y={y!r}")
                close(h, math.exp(-y / lam), 1e-12, "blow-up warping")
        q = lam * math.exp(-s)
        close(rep.a_h1, max(q, 1.0 / q, 1.0), 1e-12, "blow-up a_h1")

    cases.append(Case("blowup_rescale", blowup, check_blowup, {"s": s, "lambda": lam}))

    lattices = random_lattices(rng, 100 if small else 3000)
    lat_ref = {}

    def prepare_lattices():
        lat_ref["bases"] = [gauss_reduce(l.a1, l.a2, l.b2) for l in lattices]
        lat_ref["radii"] = [covering_radius(l.a1, l.a2, l.b2) for l in lattices]

    def check_reduce(out):
        for lat, red, (u, w) in zip(lattices, out, lat_ref["bases"]):
            close(red.norm1, np.linalg.norm(u), 1e-9, "reduced |v1|")
            close(red.norm2, np.linalg.norm(w), 1e-9, "reduced |v2|")
            close(red.area, lat.area, 1e-9, "reduced area")

    def check_systole(out):
        for value, (u, _) in zip(out, lat_ref["bases"]):
            close(value, np.linalg.norm(u), 1e-10, "systole")

    def check_diameter(out):
        for value, radius in zip(out, lat_ref["radii"]):
            close(value, radius, 1e-9, "covering radius")

    for fn, check, prepare in (("reduce_basis", check_reduce, prepare_lattices),
                               ("systole", check_systole, None),
                               ("diameter", check_diameter, None)):
        cases.append(Case(f"lattice_{fn}",
                          lambda fn=fn: [getattr(flat_torus, fn)(l) for l in lattices],
                          check, {"lattices": len(lattices)}, prepare))

    fil_lat = near_unit_lattice(rng)
    depth = float(rng.integers(12, 17))
    fil_path = os.path.join(workdir, "filler.json")
    fgrid = 200

    def check_build(res):
        payload = cli_json(res)
        close(payload["depth"], depth, 0.0, "filler depth")
        expect(os.path.exists(fil_path), "filler JSON not written")

    def check_verify(res):
        payload = cli_json(res)
        expect(payload["passed"] is True, f"filler verification failed: {payload}")
        u, _ = gauss_reduce(*fil_lat)
        rho0 = min(1.0, 0.5 * float(np.linalg.norm(u)))
        n0 = math.floor((depth - 2.0) / (2.0 * math.exp(-3.0)))
        close(payload["area_lower_bound"], (n0 + 1) * math.pi * math.exp(-6.0) * rho0**2,
              1e-12, "filler area lower bound")

    cases.append(Case("filler_build",
                      lambda: run_cli("--json", "filler", "build", "--L", repr(depth),
                                      "--lattice", lattice_literal(fil_lat), "--out", fil_path),
                      check_build, {"L": depth, "lattice": fil_lat}))
    cases.append(Case("filler_verify",
                      lambda: run_cli("--json", "filler", "verify", fil_path, "--grid", fgrid),
                      check_verify, {"grid": fgrid}))

    ell = float(rng.uniform(0.005, 0.05))
    radius = 0.95 * meyerhoff(ell)
    c_lat, c_t0, c_t1 = near_unit_lattice(rng), float(rng.uniform(0.1, 0.5)), float(rng.uniform(2.0, 3.5))
    manifold = {
        "cusps": [{"lattice": {"v1": [c_lat[0], 0.0], "v2": [c_lat[1], c_lat[2]]},
                   "t0": c_t0, "t1": c_t1}],
        "tubes": [{"length": ell, "twist": float(rng.uniform(0.0, 1.0)), "radius": radius}],
        "fillers": [{"L": float(rng.integers(12, 17)), "attach": 0}],
    }
    man_path = write_json(os.path.join(workdir, "manifold.json"), manifold)
    prof_path = os.path.join(workdir, "profile.json")
    samples = 200 if small else 2000

    def check_profile(res):
        payload = cli_json(res)
        with open(prof_path) as fh:
            data = json.load(fh)
        expect(len(data["samples"]) == 3 * samples, "profile sample count")
        peaks = {}
        for _, label, a in data["samples"]:
            peaks[label] = max(peaks.get(label, 0.0), a)
        area = c_lat[0] * c_lat[2]
        close(peaks["cusp[0]"], math.exp(-2.0 * c_t0) * area, 1e-12, "cusp slice peak")
        close(peaks["tube[0]"], math.pi * ell * math.sinh(2.0 * radius), 1e-12, "tube slice peak")
        close(peaks["filler[0]"], math.exp(-2.0 * c_t1) * area, 1e-9, "filler slice peak")
        close(payload["width_upper_bound"], max(peaks.values()), 1e-15, "width upper bound")

    cases.append(Case("sweepout_profile",
                      lambda: run_cli("--json", "sweepout", "profile", "--manifold", man_path,
                                      "--samples", samples, "--emit", "json", "--out", prof_path),
                      check_profile, {"samples": samples}))

    npatch, k = (5, 20) if small else (30, 200)
    areas = rng.uniform(0.1, 2.0, npatch)
    # Half of each current's patches are present: the family's size, and
    # so the work, depends on those counts only, not on the seed.
    half = np.arange(npatch) < npatch // 2
    mult_a, mult_b = rng.permutation(half).astype(int), rng.permutation(half).astype(int)
    if np.array_equal(mult_a, mult_b):
        mult_b = mult_b[::-1].copy()
    cur_a = sweepout.FormalCurrent(tuple((f"S{i}", int(m), float(x)) for i, (m, x) in enumerate(zip(mult_a, areas))))
    cur_b = sweepout.FormalCurrent(tuple((f"S{i}", int(m), float(x)) for i, (m, x) in enumerate(zip(mult_b, areas))))

    def interpolate():
        fam = sweepout.interpolate_patches(cur_a, cur_b, k)
        return (fam.level, len(fam.currents), fam.currents[0].mass,
                fam.currents[-1].mass, sweepout.fineness(fam))

    def check_interpolate(out):
        level, count, mass_a, mass_b, fine = out
        expect(3 ** level >= k > 3 ** (level - 1) and count == 3 ** level + 1,
               f"family level {level} with {count} currents for k={k}")
        close(mass_a, float(np.sum(np.abs(mult_a) * areas)), 1e-12, "start mass")
        close(mass_b, float(np.sum(np.abs(mult_b) * areas)), 1e-12, "end mass")
        # Step masses telescope: every step moves 1/k of each patch.
        close(fine, float(np.sum(np.abs(mult_a - mult_b) * areas)) / k, 1e-12, "fineness")

    cases.append(Case("interpolate_fineness", interpolate, check_interpolate,
                      {"patches": npatch, "k": k}))

    b_ell, twist = float(rng.uniform(0.001, 0.05)), float(rng.uniform(0.0, 1.0))
    R = float(rng.uniform(0.5, 5.0))
    RL = float(rng.uniform(6.0, 12.0))
    rho1 = float(rng.uniform(0.0, 0.5 * RL))
    rho2 = float(rng.uniform(rho1 + 0.1, RL))
    s0 = float(rng.uniform(0.05, 1.0))
    Rc = float(rng.uniform(3.0, RL))
    eps = float(rng.uniform(0.05, 0.5))
    r_grid = np.linspace(0.05, 3.0, 50)

    def bounds():
        return (
            run_cli("--json", "meyerhoff", "--length", repr(b_ell)),
            run_cli("--json", "tube", "--length", repr(b_ell), "--twist", repr(twist)),
            run_cli("--json", "bounds", "disk", "--R", repr(R)),
            run_cli("--json", "bounds", "band", "--rho1", repr(rho1), "--rho2", repr(rho2),
                    "--sys", repr(s0), "--RL", repr(RL)),
            run_cli("--json", "bounds", "crossing", "--R", repr(Rc), "--RL", repr(RL),
                    "--sys", repr(s0)),
            run_cli("--json", "bounds", "margulis", "--eps", repr(eps)),
            area_bounds.projection_contraction_check(b_ell, r_grid),
        )

    def check_bounds(out):
        mey, tub, disk, band, cross, marg = (cli_json(r) for r in out[:6])
        Rm = meyerhoff(b_ell)
        close(mey["radius"], Rm, 1e-12, "meyerhoff radius")
        close(tub["slice_area"], math.pi * b_ell * math.sinh(2.0 * Rm), 1e-12, "tube slice area")
        close(tub["mean_curvature"], 0.5 * (math.tanh(Rm) + 1.0 / math.tanh(Rm)), 1e-12,
              "tube mean curvature")
        bl = (2.0 * math.pi * math.sinh(Rm), twist * math.sinh(Rm), b_ell * math.cosh(Rm))
        close(tub["systole"], np.linalg.norm(gauss_reduce(*bl)[0]), 1e-10, "tube systole")
        close(tub["diameter"], covering_radius(*bl), 1e-9, "tube diameter")
        close(disk["area"], 2.0 * math.pi * (math.cosh(R) - 1.0), 1e-12, "disk area")
        close(band["bound"], band["intermediate"], 1e-12, "band identity")
        close(cross["chain"], math.pi / 8.0 * s0 / math.cosh(RL) * (math.cosh(Rc) - math.cosh(1.5)),
              1e-12, "crossing chain")
        expect(cross["chain"] >= cross["simplified"], "crossing chain below its simplified form")
        close(marg["area"], 2.0 * math.pi * (math.cosh(eps) - 1.0), 1e-12, "margulis bound")
        expect(out[6].max_singular_value <= 1.0 + 1e-12, "projection is not a contraction")

    cases.append(Case("tube_and_bounds", bounds, check_bounds,
                      {"length": b_ell, "R": R, "RL": RL, "r_grid": len(r_grid)}))
    return cases


WORKLOADS = {
    "graph_large": graph_large,
    "graph_small": graph_small,
    "geometry_scan": geometry_scan,
}
