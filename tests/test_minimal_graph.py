import math

import numpy as np
import pytest

from thinpart import DomainError, SolveError, minimal_graph
from thinpart.fields import Field1D
from thinpart.flat_torus import FlatTorusLattice
from thinpart.minimal_graph import (
    DiscreteGraph,
    GraphBoundsParams,
    area,
    el_residual,
    first_variation,
    graph_mean_curvature,
    rescale_graph,
    solve,
    _gradient,
    _hessian,
)
from thinpart.tube_geometry import (
    CuspParams,
    TubeParams,
    cusp_as_warped,
    slice_mean_curvature,
    tube_as_warped,
)
from thinpart.warped_metric import WarpedMetricSpec

UNIT = FlatTorusLattice.unit_square()


def flat_spec(lo=-5.0, hi=5.0):
    return WarpedMetricSpec.flat(UNIT, lo, hi)


def cusp_spec(hi=3.0):
    return cusp_as_warped(CuspParams(UNIT, 0.0, hi))


def tube_spec():
    return tube_as_warped(TubeParams(1e-5, 0.3, 5.0))  # interval [0, 4.5]


def tube_radial_spec():
    """Tube in radial coordinates: a1 = cosh(r), a2 = sinh(r), x3 = r."""
    a1 = Field1D(np.cosh, np.sinh, np.cosh, np.sinh, "cosh(r)")
    a2 = Field1D(np.sinh, np.cosh, np.sinh, np.cosh, "sinh(r)")
    return WarpedMetricSpec.diagonal(UNIT, 0.2, 6.0, a1, a2, kind="tube-radial")


from oracles import gradient_per_triangle, hessian_per_triangle, solve_stripe_ode

# Every diagonal spec of the tests, on a periodic torus and a Dirichlet square.
SPEC_GRID = [
    (make_spec, periodic)
    for make_spec in (flat_spec, cusp_spec, tube_spec)
    for periodic in (True, False)
]


# ---------------------------------------------------------------- area


def test_area_flat_zero_graph_is_torus_area():
    g = DiscreteGraph.on_torus(UNIT, (16, 16), 0.0)
    assert area(flat_spec(), g) == pytest.approx(1.0, rel=1e-13)


def test_area_tilted_plane():
    g = DiscreteGraph.on_rectangle((1.0, 1.0), (21, 21), lambda x, y: x)
    assert area(flat_spec(), g) == pytest.approx(math.sqrt(2.0), rel=1e-13)


def test_area_cusp_constant_slice():
    for c in (0.0, 1.0, 2.0):
        g = DiscreteGraph.on_torus(UNIT, (12, 12), c)
        assert area(cusp_spec(), g) == pytest.approx(math.exp(-2 * c), rel=1e-13)


def test_area_range_check():
    g = DiscreteGraph.on_torus(UNIT, (8, 8), 7.0)
    with pytest.raises(DomainError):
        area(cusp_spec(), g)


# ---------------------------------------------------------- el_residual


def test_residual_flat_affine_zero():
    g = DiscreteGraph.on_rectangle(
        (1.0, 1.0), (17, 13), lambda x, y: 0.3 + 0.7 * x - 0.2 * y
    )
    res = el_residual(flat_spec(), g)
    assert np.max(np.abs(res)) < 1e-13


def test_residual_cusp_constant():
    c = 0.5
    g = DiscreteGraph.on_torus(UNIT, (10, 10), c)
    res = el_residual(cusp_spec(), g)
    assert res == pytest.approx(
        np.full_like(res, 2.0 * math.exp(-2 * c)), rel=1e-12
    )
    assert float(res[0, 0]) == pytest.approx(0.7357588823428847, rel=1e-12)


def test_residual_tube_constant():
    spec = tube_spec()  # R = 5
    c = 4.0  # R - c = 1
    g = DiscreteGraph.on_torus(
        FlatTorusLattice(2 * math.pi, 0.0, 1e-5), (10, 10), c
    )
    res = el_residual(spec, g)
    assert res == pytest.approx(np.full_like(res, math.cosh(2.0)), rel=1e-12)


def test_constant_graphs_solve_only_the_flat_spec():
    # u = const solves the equation iff (a1 a2)'(c) = 0.
    for c in (-1.0, 0.4):
        g = DiscreteGraph.on_torus(UNIT, (8, 8), c)
        assert np.max(np.abs(el_residual(flat_spec(), g))) < 1e-14
    for spec, c in ((cusp_spec(), 0.7), (tube_spec(), 3.0)):
        g = DiscreteGraph.on_torus(
            FlatTorusLattice(1.0, 0.0, 1.0), (8, 8), c
        )
        assert np.min(np.abs(el_residual(spec, g))) > 1e-2


# ------------------------------------------------------ first_variation


def test_first_variation_flat_affine_is_zero():
    g = DiscreteGraph.on_rectangle(
        (1.0, 1.0), (15, 15), lambda x, y: 0.1 + 0.4 * x + 0.3 * y
    )
    rng = np.random.RandomState(0)
    v = np.zeros(g.shape)
    v[1:-1, 1:-1] = rng.randn(13, 13)
    assert first_variation(flat_spec(), g, v) == pytest.approx(0.0, abs=1e-13)


def test_first_variation_cusp_vertical_translation():
    # v = 1 on the torus: d/dt area(u = c + t) = -2 exp(-2c).
    for c in (0.0, 0.8):
        g = DiscreteGraph.on_torus(UNIT, (12, 12), c)
        fv = first_variation(cusp_spec(), g, np.ones(g.shape))
        assert fv == pytest.approx(-2.0 * math.exp(-2 * c), rel=1e-12)


def test_first_variation_rejects_nonvanishing_boundary_data():
    g = DiscreteGraph.on_rectangle((1.0, 1.0), (8, 8), 0.0)
    with pytest.raises(DomainError):
        first_variation(flat_spec(), g, np.ones(g.shape))


def _random_graph_and_variation(spec, rng, n=24, periodic=True):
    lo = spec.x3_min
    hi = spec.x3_max
    mid = 0.5 * (lo + hi)
    amp = 0.12 * (hi - lo)
    if periodic:
        lat = FlatTorusLattice(1.0, 0.0, 1.3)
        g = DiscreteGraph.on_torus(
            lat,
            (n, n),
            lambda x, y: mid
            + amp * np.sin(2 * np.pi * x / lat.a1) * np.cos(2 * np.pi * y / lat.b2)
            + 0.3 * amp * np.cos(4 * np.pi * y / lat.b2),
        )
        v = rng.randn(*g.shape)
    else:
        g = DiscreteGraph.on_rectangle(
            (1.0, 1.0),
            (n, n),
            lambda x, y: mid + amp * np.sin(np.pi * x) * np.sin(2 * np.pi * y),
        )
        v = np.zeros(g.shape)
        v[1:-1, 1:-1] = rng.randn(n - 2, n - 2)
    v /= np.max(np.abs(v))
    return g, v


@pytest.mark.parametrize("make_spec,periodic", [
    (flat_spec, True),
    (flat_spec, False),
    (cusp_spec, True),
    (cusp_spec, False),
    (tube_spec, False),
])
def test_first_variation_matches_fd_and_pairing(make_spec, periodic):
    spec = make_spec()
    rng = np.random.RandomState(42)
    g, v = _random_graph_and_variation(spec, rng, periodic=periodic)
    fv = first_variation(spec, g, v)

    # Centered finite differences with Richardson confirmation.
    def fd(eps):
        gp = g.copy()
        gm = g.copy()
        gp.values = g.values + eps * v
        gm.values = g.values - eps * v
        return (area(spec, gp) - area(spec, gm)) / (2 * eps)

    d1 = fd(1e-4)
    d2 = fd(5e-5)
    richardson = (4 * d2 - d1) / 3
    assert abs(fv - d1) <= 1e-6 * (1 + abs(fv))
    assert abs(fv - richardson) <= 2e-8 * (1 + abs(fv))

    # Discrete integration-by-parts identity.
    res = el_residual(spec, g)
    pairing = -float(np.sum(res * v[g.free_slices()])) * g.spacing[0] * g.spacing[1]
    assert fv == pytest.approx(pairing, rel=1e-11, abs=1e-13)


def test_sign_convention_area_decreases_into_cusp():
    g = DiscreteGraph.on_torus(UNIT, (8, 8), 0.5)
    assert first_variation(cusp_spec(), g, np.ones(g.shape)) < 0


# ---------------------------------------------------------------- solve


@pytest.mark.parametrize("make_spec,periodic", SPEC_GRID)
def test_kernel_matches_per_triangle_oracle(make_spec, periodic):
    spec = make_spec()
    rng = np.random.RandomState(7)
    g, _ = _random_graph_and_variation(spec, rng, n=24, periodic=periodic)
    grad = _gradient(spec, g)
    ref = gradient_per_triangle(spec, g)
    assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))
    H = _hessian(spec, g)
    H_ref = hessian_per_triangle(spec, g)
    assert H.shape == H_ref.shape
    assert abs(H - H_ref).max() <= 1e-12 * abs(H_ref).max()


@pytest.mark.parametrize("make_spec,periodic", SPEC_GRID)
def test_hessian_exactly_symmetric(make_spec, periodic):
    spec = make_spec()
    rng = np.random.RandomState(8)
    g, _ = _random_graph_and_variation(spec, rng, n=24, periodic=periodic)
    H = _hessian(spec, g)
    assert (H != H.T).nnz == 0


@pytest.mark.parametrize("make_spec,periodic", SPEC_GRID)
def test_hessian_matches_fd_of_gradient(make_spec, periodic):
    spec = make_spec()
    rng = np.random.RandomState(1)
    g, _ = _random_graph_and_variation(spec, rng, n=6, periodic=periodic)
    H = _hessian(spec, g).toarray()
    free = g.free_slices()
    nfree = H.shape[0]
    eps = 1e-6
    for k in range(nfree):
        gp = g.copy()
        gm = g.copy()
        bump = np.zeros(nfree)
        bump[k] = eps
        gp.values[free] = g.values[free] + bump.reshape(g.values[free].shape)
        gm.values[free] = g.values[free] - bump.reshape(g.values[free].shape)
        col = (_gradient(spec, gp)[free] - _gradient(spec, gm)[free]).ravel() / (
            2 * eps
        )
        assert np.allclose(H[:, k], col, rtol=2e-6, atol=1e-9)


def test_solve_flat_affine_dirichlet_reproduces_plane():
    spec = flat_spec()
    plane = lambda x, y: 0.2 + 0.6 * x - 0.4 * y
    init = DiscreteGraph.on_rectangle((1.0, 1.0), (17, 17), plane)
    # Perturb the interior so the solver has work to do.
    rng = np.random.RandomState(3)
    init.values[1:-1, 1:-1] += 0.05 * rng.randn(15, 15)
    out, rep = solve(spec, init, tol=1e-11)
    assert rep.converged
    exact = DiscreteGraph.on_rectangle((1.0, 1.0), (17, 17), plane)
    assert np.max(np.abs(out.values - exact.values)) < 1e-10
    assert np.max(np.abs(el_residual(spec, out))) <= 1e-11


def test_solve_periodic_flat_pins_mean():
    spec = flat_spec()
    init = DiscreteGraph.on_torus(UNIT, (12, 12), 0.0)
    rng = np.random.RandomState(9)
    init.values += 0.1 * rng.randn(12, 12)
    out, rep = solve(spec, init, tol=1e-11)
    assert rep.converged and rep.pinned_mean
    # Converges to a constant graph.
    assert np.ptp(out.values) < 1e-9


def test_solve_cusp_stripe_matches_ode_oracle():
    spec = cusp_spec()
    va, vb = 0.15, 0.55
    n2 = 2049
    h2 = 1.0 / (n2 - 1)
    init = DiscreteGraph.on_rectangle(
        (4 * h2, 1.0), (4, n2), lambda x, y: va + (vb - va) * y,
        periodic=(True, False),
    )
    out, rep = solve(spec, init, tol=1e-8)
    assert rep.converged
    # Compare on a 257-point subgrid against the BVP oracle.
    sub = slice(0, n2, 8)
    x2 = out.x2_coords()[sub]
    oracle = solve_stripe_ode(spec, va, vb, x2)
    assert np.max(np.abs(out.values[0, sub] - oracle)) < 1e-6
    # The 2-d solution is x1-independent.
    assert np.max(np.abs(out.values - out.values[0])) < 1e-8


def test_solve_grid_convergence_order():
    # The domain must be metrically small at the working radius or the
    # film escapes toward the core; 0.35 coordinate units at R - u ~ 1.2
    # is ~0.6 metric units.
    spec = tube_spec()  # R = 5, interval [0, 4.5]
    L = 0.35

    def data(x, y):
        return 3.8 + 0.1 * np.sin(np.pi * x / L) * np.sin(np.pi * y / L)

    sols = {}
    for n in (33, 65, 129):
        init = DiscreteGraph.on_rectangle((L, L), (n, n), data)
        out, rep = solve(spec, init, tol=1e-9)
        assert rep.converged
        sols[n] = out.values
    e_coarse = np.max(np.abs(sols[33] - sols[65][::2, ::2]))
    e_fine = np.max(np.abs(sols[65] - sols[129][::2, ::2]))
    order = math.log2(e_coarse / e_fine)
    assert order >= 1.9


def test_solve_evaluates_the_gradient_once_per_iterate(monkeypatch):
    # Full Newton steps are accepted on this problem, so every iteration
    # evaluates the gradient once, at its one trial point.
    spec = tube_spec()
    L = 0.35
    init = DiscreteGraph.on_rectangle(
        (L, L), (33, 33),
        lambda x, y: 3.8 + 0.1 * np.sin(np.pi * x / L) * np.sin(np.pi * y / L),
    )
    calls = []

    def counting_gradient(spec, g):
        calls.append(1)
        return _gradient(spec, g)

    monkeypatch.setattr(minimal_graph, "_gradient", counting_gradient)
    out, rep = solve(spec, init, tol=1e-9)
    assert rep.converged and rep.iterations == 4
    assert len(calls) == rep.iterations + 1
    # The reported residual is that of the returned graph, bit for bit.
    assert rep.final_residual == float(np.max(np.abs(el_residual(spec, out))))


def test_solve_reports_nonconvergence():
    spec = cusp_spec()
    init = DiscreteGraph.on_rectangle(
        (1.0, 1.0), (9, 9), lambda x, y: 1.0 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y)
    )
    with pytest.raises(SolveError) as err:
        solve(spec, init, tol=1e-12, max_iter=1)
    assert err.value.residual_history


# ------------------------------------------------- graph mean curvature


def test_mean_curvature_flat_affine_zero():
    g = DiscreteGraph.on_rectangle(
        (1.0, 1.0), (12, 12), lambda x, y: 0.2 * x + 0.1 * y
    )
    H = graph_mean_curvature(flat_spec(), g)
    assert np.max(np.abs(H)) < 1e-12


def test_mean_curvature_tube_slices():
    spec = tube_radial_spec()
    for r0 in (0.5, 1.0, 2.0):
        g = DiscreteGraph.on_torus(UNIT, (8, 8), r0)
        H = graph_mean_curvature(spec, g)
        assert np.abs(H) == pytest.approx(
            np.full_like(H, slice_mean_curvature(r0)), rel=1e-9
        )


def test_mean_curvature_of_solver_output_is_small():
    spec = cusp_spec()
    va, vb = 0.2, 0.5
    tol = 1e-6
    init = DiscreteGraph.on_rectangle(
        (8 / 512, 1.0), (8, 513), lambda x, y: va + (vb - va) * y,
        periodic=(True, False),
    )
    out, _ = solve(spec, init, tol=tol)
    H = graph_mean_curvature(spec, out)
    # At tolerances at or above the stencil scale h^2 the curvature of
    # the output is within a small multiple of tol.
    assert np.max(np.abs(H)) <= 10 * tol
    # The sharper weight: analytically H = residual / (2 a1 a2), up to
    # the discretization gap between the residual and curvature stencils.
    out2, _ = solve(spec, init, tol=1e-10)
    H2 = graph_mean_curvature(spec, out2)
    u = out2.values[out2.free_slices()]
    kappa_w = float(np.max(1.0 / (2 * np.asarray(spec.a1(u)) * np.asarray(spec.a2(u)))))
    disc_gap = np.max(out2.spacing) ** 2
    assert np.max(np.abs(H2)) <= kappa_w * 1e-10 + 50 * disc_gap


# --------------------------------------------------------- rescale_graph


def cusp_bounds_params(t_bar=2.0, C=1.5):
    return GraphBoundsParams(
        comparison=1.0,
        intrinsic_radius=1.0,
        curvature_bound=1.0,
        tangency_level=t_bar,
        graph_constant=C,
    )


def _centered_rect(radius, n, fn):
    return DiscreteGraph.on_rectangle(
        (2.2 * radius, 2.2 * radius), (n, n), fn,
        origin=(-1.1 * radius, -1.1 * radius),
    )


def test_rescale_zero_graph_passes():
    spec = cusp_spec()
    params = cusp_bounds_params()
    h_t = float(spec.warping(params.tangency_level))
    radius = math.sqrt(2.0) * params.graph_constant / h_t
    g = _centered_rect(radius, 41, lambda x, y: 0.0)
    rescaled, report = rescale_graph(spec, g, params)
    assert report.ok
    assert rescaled.spacing[0] == pytest.approx(g.spacing[0] * h_t)


def test_rescale_extremal_hessian_ratio_half():
    spec = cusp_spec()
    params = cusp_bounds_params()
    h_t = float(spec.warping(params.tangency_level))
    radius = math.sqrt(2.0) * params.graph_constant / h_t
    coef = h_t**2 / (4.0 * params.graph_constant)
    g = _centered_rect(radius, 61, lambda x, y: coef * (x**2 + y**2))
    _, report = rescale_graph(spec, g, params)
    # Hessian is (h^2/2C) I: spectral norm exactly half the limit.
    assert report["hessian"].ratio == pytest.approx(0.5, rel=1e-9)
    assert report["hessian"].ok
    # ... but the gradient bound fails at the rim of the disk:
    # |grad| = 2 coef |x| reaches h^2 sqrt(2)/(2C) * radius = h(t).
    assert report["gradient"].supremum <= h_t * (1 + 0.1)


def test_rescale_flags_gradient_violation():
    spec = cusp_spec()
    params = cusp_bounds_params()
    h_t = float(spec.warping(params.tangency_level))
    radius = math.sqrt(2.0) * params.graph_constant / h_t
    g = _centered_rect(radius, 41, lambda x, y: 2.0 * h_t * x)
    _, report = rescale_graph(spec, g, params)
    assert not report["gradient"].ok
    assert report["gradient"].supremum == pytest.approx(2.0 * h_t, rel=1e-9)
    assert report["value"].ok is (2.0 * h_t * radius <= 1.0)


def test_rescale_domain_too_small():
    spec = cusp_spec()
    params = cusp_bounds_params()
    g = DiscreteGraph.on_rectangle((1.0, 1.0), (9, 9), 0.0, origin=(-0.5, -0.5))
    with pytest.raises(DomainError):
        rescale_graph(spec, g, params)
