"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with ``pytest -s tests/test_acceptance.py`` to see
the lines as they pass)."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from thinpart.area_bounds import (
    BandEstimate,
    annulus_band_bound,
    parallel_disk_area,
    projection_contraction_check,
)
from thinpart.filler import area_lower_bound, build, metric_at, verify
from thinpart.flat_torus import FlatTorusLattice, diameter, reduce_basis, systole
from thinpart.minimal_graph import (
    DiscreteGraph,
    area,
    el_residual,
    first_variation,
    graph_mean_curvature,
    solve,
)
from thinpart.fields import Field1D
from thinpart.sweepout import (
    FormalCurrent,
    GridVertex,
    fineness,
    grid_distance,
    interpolate_patches,
    profile,
    project_vertex,
)
from thinpart.tube_geometry import (
    ELL_MAX,
    CuspParams,
    TubeParams,
    cusp_as_warped,
    meyerhoff_radius,
    slice_area,
    slice_mean_curvature,
    tube_as_warped,
)
from thinpart.warped_metric import WarpedMetricSpec

from oracles import (
    fineness_exhaustive,
    random_lattice,
    shortest_vector_brute,
    solve_stripe_ode,
)

UNIT = FlatTorusLattice.unit_square()


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: "
                f"{elapsed:.1f}s >= {self.seconds}s"
            )
            print(f"[ACCEPTANCE] {self.name}: PASS ({elapsed:.2f}s)")
        else:
            print(f"[ACCEPTANCE] {self.name}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_meyerhoff_anchor():
    with Budget("criterion 1 (Meyerhoff anchor)", 1.0):
        target = math.sqrt(3.0) / (4.0 * math.pi)
        value = 1e-5 * math.sinh(meyerhoff_radius(1e-5)) ** 2
        assert target * 0.999 <= value <= target * 1.001
        assert abs(meyerhoff_radius(ELL_MAX)) <= 1e-9


def test_criterion_2_boundary_area_anchor():
    with Budget("criterion 2 (boundary-area anchor)", 1.0):
        limit = math.sqrt(3.0) / 2.0
        a4 = slice_area(1e-4, meyerhoff_radius(1e-4))
        assert abs(a4 - limit) <= 0.05 * limit
        a6 = slice_area(1e-6, meyerhoff_radius(1e-6))
        assert abs(a6 - limit) <= 2e-4 * limit


def _random_triple(kind, rng):
    if kind == "flat":
        spec = WarpedMetricSpec.flat(UNIT, -5.0, 5.0)
    elif kind == "cusp":
        spec = cusp_as_warped(CuspParams(UNIT, 0.0, 3.0))
    else:
        spec = tube_as_warped(TubeParams(1e-5, 0.3, 5.0))
    lo, hi = spec.x3_min, spec.x3_max
    mid, amp = 0.5 * (lo + hi), 0.1 * (hi - lo)
    periodic = bool(rng.randint(2)) and kind != "tube"
    n = 20
    if periodic:
        lat = FlatTorusLattice(1.0, 0.0, 1.2)
        k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
        phase = rng.uniform(0, 2 * np.pi)
        g = DiscreteGraph.on_torus(
            lat, (n, n),
            lambda x, y: mid + amp * np.sin(2 * np.pi * k1 * x / lat.a1 + phase)
            * np.cos(2 * np.pi * k2 * y / lat.b2),
        )
        v = rng.randn(n, n)
    else:
        k1, k2 = rng.randint(1, 3), rng.randint(1, 4)
        g = DiscreteGraph.on_rectangle(
            (1.0, 1.0), (n, n),
            lambda x, y: mid + amp * np.sin(np.pi * k1 * x) * np.sin(np.pi * k2 * y),
        )
        v = np.zeros((n, n))
        v[1:-1, 1:-1] = rng.randn(n - 2, n - 2)
    v /= np.max(np.abs(v))
    return spec, g, v


def test_criterion_3_variational_consistency():
    with Budget("criterion 3 (variational consistency)", 30.0):
        rng = np.random.RandomState(2024)
        kinds = ["flat", "cusp", "tube"]
        for trial in range(20):
            spec, g, v = _random_triple(kinds[trial % 3], rng)
            fv = first_variation(spec, g, v)
            eps = 1e-4
            gp, gm = g.copy(), g.copy()
            gp.values = g.values + eps * v
            gm.values = g.values - eps * v
            fd = (area(spec, gp) - area(spec, gm)) / (2 * eps)
            assert abs(fv - fd) <= 1e-6 * (1 + abs(fv))
            res = el_residual(spec, g)
            pairing = (
                -float(np.sum(res * v[g.free_slices()]))
                * g.spacing[0] * g.spacing[1]
            )
            assert abs(fv - pairing) <= 1e-11 * (1 + abs(fv))


def test_criterion_4_solver_oracle_equivalence():
    with Budget("criterion 4 (solver vs oracle)", 60.0):
        # (a) 1-d reduction ODE oracle vs 2-d stripe solve, 256-point grid.
        spec = cusp_as_warped(CuspParams(UNIT, 0.0, 3.0))
        va, vb = 0.15, 0.55
        n2 = 2049
        h2 = 1.0 / (n2 - 1)
        init = DiscreteGraph.on_rectangle(
            (4 * h2, 1.0), (4, n2), lambda x, y: va + (vb - va) * y,
            periodic=(True, False),
        )
        out, rep = solve(spec, init, tol=1e-8)
        assert rep.converged
        sub = slice(0, n2, 8)
        oracle = solve_stripe_ode(spec, va, vb, out.x2_coords()[sub])
        assert np.max(np.abs(out.values[0, sub] - oracle)) <= 1e-6

        # (b) flat affine Dirichlet data reproduced to 1e-10.
        flat = WarpedMetricSpec.flat(UNIT, -5.0, 5.0)
        plane = lambda x, y: 0.2 + 0.6 * x - 0.4 * y
        init = DiscreteGraph.on_rectangle((1.0, 1.0), (17, 17), plane)
        rngp = np.random.RandomState(5)
        init.values[1:-1, 1:-1] += 0.05 * rngp.randn(15, 15)
        sol, _ = solve(flat, init, tol=1e-11)
        exact = DiscreteGraph.on_rectangle((1.0, 1.0), (17, 17), plane)
        assert np.max(np.abs(sol.values - exact.values)) <= 1e-10

        # (c) grid-convergence order >= 1.9 on a fixed smooth tube problem.
        tube = tube_as_warped(TubeParams(1e-5, 0.3, 5.0))
        L = 0.35
        data = lambda x, y: 3.8 + 0.1 * np.sin(np.pi * x / L) * np.sin(np.pi * y / L)
        sols = {}
        for n in (33, 65, 129):
            out, rep = solve(
                tube, DiscreteGraph.on_rectangle((L, L), (n, n), data), tol=1e-9
            )
            assert rep.converged
            sols[n] = out.values
        order = math.log2(
            np.max(np.abs(sols[33] - sols[65][::2, ::2]))
            / np.max(np.abs(sols[65] - sols[129][::2, ::2]))
        )
        assert order >= 1.9


def test_criterion_5_mean_curvature_cross_check():
    with Budget("criterion 5 (mean-curvature cross-check)", 5.0):
        a1 = Field1D.from_evaluators(np.cosh, np.sinh, np.cosh, np.sinh)
        a2 = Field1D.from_evaluators(np.sinh, np.cosh, np.sinh, np.cosh)
        spec = WarpedMetricSpec.diagonal(UNIT, 0.2, 6.0, a1, a2, kind="tube-radial")
        for r in (0.5, 1.0, 2.0):
            g = DiscreteGraph.on_torus(UNIT, (8, 8), r)
            H = graph_mean_curvature(spec, g)
            expected = slice_mean_curvature(r)
            assert np.max(np.abs(np.abs(H) - expected)) <= 1e-6


def test_criterion_6_filler_verification():
    with Budget("criterion 6 (filler verification)", 30.0):
        spec = build(20.0, UNIT)
        report = verify(spec, grid=200)
        # (i)-(iii): flat levels, exact collar, continuity at the seam.
        assert report.flat_levels
        assert report.boundary_collar_exact
        assert report.continuous_at_collar
        for t in np.linspace(0.0, 0.99, 12):
            g = metric_at(spec, (0.0, 0.0, float(t)))
            assert g[0] == math.exp(-2 * t) and g[1] == math.exp(-2 * t)
        assert report.diameters_strictly_decreasing  # 200 samples
        # Core-chart smoothness: slope fits within +-0.2 of (3, 1).
        assert abs(report.core_theta_slope - 3.0) <= 0.2
        assert abs(report.core_z_slope - 1.0) <= 0.2
        # Area bound: independent evaluation of the documented chain.
        ab = area_lower_bound(spec)
        rho0 = min(1.0, 0.5 * 1.0)
        n0 = math.floor((20.0 - 2.0) / (2.0 * math.exp(-3.0)))
        expected = (n0 + 1) * math.pi * math.exp(-6.0) * rho0**2
        assert abs(ab.bound - expected) <= 1e-12
        assert abs(ab.bound - 0.35237214067988453) <= 1e-6
        assert report.passed


def test_criterion_7_area_bound_identities():
    with Budget("criterion 7 (area-bound identities)", 10.0):
        rng = np.random.RandomState(11)
        for _ in range(1000):
            RL = rng.uniform(1.0, 12.0)
            rho1 = rng.uniform(0.0, RL - 0.02)
            rho2 = rng.uniform(rho1 + 0.01, RL)
            s0 = rng.uniform(0.05, 1.0)
            b, inter = annulus_band_bound(BandEstimate(rho1, rho2, s0, RL))
            assert abs(b - inter) <= 1e-12 * max(b, inter, 1e-30)
        for R in (0.5, 2.0, 5.0):
            oracle = quad(lambda r: 2 * math.pi * math.sinh(r), 0.0, R,
                          epsabs=1e-13, epsrel=1e-13)[0]
            assert abs(parallel_disk_area(R) - oracle) <= 1e-10 * max(oracle, 1.0)
        rep = projection_contraction_check(0.01, np.linspace(0.05, 3.0, 50))
        assert rep.max_singular_value <= 1.0 + 1e-12


def test_criterion_8_sweepout_combinatorics():
    with Budget("criterion 8 (sweep-out combinatorics)", 30.0):
        # Exhaustive metric and projection-composition checks for j <= 3.
        for j in range(4):
            verts = [GridVertex.from_indices(j, i) for i in range(3**j + 1)]
            for x, y in itertools.product(verts, repeat=2):
                assert grid_distance(x, y) == grid_distance(y, x)
                assert (grid_distance(x, y) == 0) == (x == y)
            for x, y, z in itertools.product(verts, repeat=3):
                assert grid_distance(x, z) <= grid_distance(x, y) + grid_distance(y, z)
            for jj in range(j + 1):
                for x in verts:
                    p = project_vertex(x, jj)
                    assert project_vertex(p, jj) == p  # idempotent
                    best = min(
                        grid_distance(
                            GridVertex(j, (Fraction(i, 3**jj),)),
                            x,
                        )
                        for i in range(3**jj + 1)
                    )
                    lifted = GridVertex(j, p.coords)
                    assert grid_distance(lifted, x) == best

        # Fineness of patch interpolation decays like 1/k.
        a = FormalCurrent.single("TA", 1.7)
        b = FormalCurrent.single("TB", 0.9)
        ks = [4, 8, 16, 32, 64, 128, 256]
        fs = [fineness(interpolate_patches(a, b, k)) for k in ks]
        slope = np.polyfit(np.log(ks), np.log(fs), 1)[0]
        assert -1.2 <= slope <= -0.8
        small = interpolate_patches(a, b, 4)
        assert fineness(small) == pytest.approx(fineness_exhaustive(small), rel=1e-12)

        # Profile maxima match the module-level slice areas.
        ell = 0.01
        R = meyerhoff_radius(ell)
        prof = profile(
            cusps=[CuspParams(UNIT, 0.25, 3.0)],
            tubes=[TubeParams(ell, 0.0, R)],
            fillers=[build(12.0, UNIT)],
            samples=128,
        )
        by_label = {seg.label: seg.max_area for seg in prof.segments}
        assert abs(by_label["tube[0]"] - slice_area(ell, R)) <= 1e-12
        assert abs(by_label["cusp[0]"] - math.exp(-0.5) * UNIT.area) <= 1e-12
        assert abs(by_label["filler[0]"] - UNIT.area) <= 1e-12
        assert prof.width_upper_bound == max(by_label.values())


def test_criterion_9_lattice_remark():
    with Budget("criterion 9 (lattice remark)", 30.0):
        rng = np.random.RandomState(99)
        for _ in range(100):
            lat = random_lattice(rng)
            red = reduce_basis(lat)
            bound = 2.0 * diameter(lat) * (1 + 1e-12)
            assert red.norm1 <= bound
            assert red.norm2 <= bound
            brute = shortest_vector_brute(lat)
            assert abs(systole(lat) - brute) <= 1e-9 * brute
