import math
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from thinpart import DomainError, SolveError, minimal_graph
from thinpart.fields import Field1D
from thinpart.flat_torus import FlatTorusLattice
from thinpart.minimal_graph import (
    CoarseSolve,
    DiscreteGraph,
    GraphBoundsParams,
    area,
    el_residual,
    first_variation,
    graph_mean_curvature,
    rescale_graph,
    solve,
    _BLOCK_CELLS,
    _CG_MAX_ITER,
    _LU_ORDERING,
    _MG_MAX_ITER,
    _OUTPUTS,
    _Pattern,
    _Band,
    _VCycle,
    _corrected,
    _element,
    _factor,
    _gradient,
    _hessian,
    _hierarchy,
    _linear_solve,
    _pcg,
    _pinned,
    _prolongation,
    _solves,
)
from thinpart.tube_geometry import (
    CuspParams,
    TubeParams,
    cusp_as_warped,
    meyerhoff_radius,
    slice_mean_curvature,
    tube_as_warped,
)
from thinpart.warped_metric import WarpedMetricSpec, spec_from_json

UNIT = FlatTorusLattice.unit_square()


def flat_spec(lo=-5.0, hi=5.0):
    return WarpedMetricSpec.flat(UNIT, lo, hi)


def cusp_spec(hi=3.0):
    return cusp_as_warped(CuspParams(UNIT, 0.0, hi))


def tube_spec():
    return tube_as_warped(TubeParams(1e-5, 0.3, 5.0))  # interval [0, 4.5]


def tube_radial_spec():
    """Tube in radial coordinates: a1 = cosh(r), a2 = sinh(r), x3 = r."""
    a1 = Field1D.from_evaluators(np.cosh, np.sinh, np.cosh, np.sinh)
    a2 = Field1D.from_evaluators(np.sinh, np.cosh, np.sinh, np.cosh)
    return WarpedMetricSpec.diagonal(UNIT, 0.2, 6.0, a1, a2, kind="tube-radial")


from oracles import (
    CountingNumpy,
    bordered_kkt,
    element_expanded,
    gradient_per_triangle,
    hessian_per_triangle,
    mean_curvature_whole_grid,
    solve_stripe_ode,
)

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


def test_a_graph_owns_its_values():
    # An edit of the caller's array after construction reaches neither the
    # graph nor its copies, so the finite check at construction holds.
    v = np.zeros((8, 8))
    g = DiscreteGraph(v, (1, 1))
    r = DiscreteGraph.on_rectangle((1.0, 1.0), (8, 8), v)
    v[3, 3] = math.nan
    assert np.all(g.values == 0.0) and np.all(r.values == 0.0)
    c = g.copy()
    c.values[0, 0] = 1.0
    assert g.values[0, 0] == 0.0
    assert area(flat_spec(), g) == pytest.approx(1.0 * 49, rel=1e-15)


@pytest.mark.parametrize("spacing,origin,name", [
    ((math.nan, 0.1), (0.0, 0.0), "spacing_h1"),
    ((0.1, math.inf), (0.0, 0.0), "spacing_h2"),
    ((0.1, 0.1), (math.nan, 0.0), "origin_x1"),
    ((0.1, 0.1), (0.0, -math.inf), "origin_x2"),
])
def test_graph_rejects_a_nonfinite_grid(spacing, origin, name):
    # The message names the pair ("spacing", "origin") that holds the entry.
    field = name.split("_")[0]
    with pytest.raises(DomainError, match=f"{field} must be finite"):
        DiscreteGraph(np.zeros((8, 8)), spacing, origin=origin)


@pytest.mark.parametrize("extent,name", [((math.nan, 1.0), "extent_x1"),
                                         ((1.0, math.inf), "extent_x2")])
def test_rectangle_rejects_a_nonfinite_extent(extent, name):
    # The message names the pair, "extent", that holds the entry.
    with pytest.raises(DomainError, match=f"{name.split('_')[0]} must be finite"):
        DiscreteGraph.on_rectangle(extent, (8, 8), lambda x, y: x + y)


@pytest.mark.parametrize("shape,periodic", [((1, 8), (False, False)), ((0, 8), (False, False)),
                                            ((8, 3), (True, True)), ((0, 0), (True, False))])
def test_rectangle_rejects_a_grid_too_small_before_dividing(shape, periodic):
    with pytest.raises(DomainError, match=f"grid {shape[0]}x{shape[1]} needs at least 4"):
        DiscreteGraph.on_rectangle((1.0, 1.0), shape, 0.0, periodic=periodic)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_solve_rejects_max_iter_below_one_even_when_converged(max_iter):
    g = DiscreteGraph.on_rectangle((1.0, 1.0), (8, 8), lambda x, y: 0.1 + 0.5 * x)
    assert solve(flat_spec(), g, max_iter=1)[1].converged
    with pytest.raises(DomainError, match=f"max_iter must be at least 1, got {max_iter}"):
        solve(flat_spec(), g, max_iter=max_iter)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("node", [(4, 3), (0, 3)], ids=["interior", "ring"])
def test_first_variation_rejects_a_nonfinite_variation(bad, node):
    g = DiscreteGraph.on_rectangle((1.0, 1.0), (8, 8), 0.0)
    v = np.zeros(g.shape)
    v[node] = bad
    with pytest.raises(DomainError, match="variation values must be finite"):
        first_variation(flat_spec(), g, v)


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


def readme_tube_spec():
    """The README's tube: length 0.01 at its Meyerhoff radius, normalized."""
    return tube_as_warped(TubeParams(0.01, 0.0, meyerhoff_radius(0.01)), normalized=True)


@pytest.mark.parametrize("make_spec", [cusp_spec, tube_spec, readme_tube_spec,
                                       tube_radial_spec])
def test_element_matches_the_expanded_formulas_at_the_extremes(make_spec):
    # Centroids across the whole range, a tenth of them at its deep end
    # (the cusp's a_i = e^-3, the tube's margin), with each gradient
    # component 0 or of size 1e-3 to 1e3, either sign.
    spec = make_spec()
    rng = np.random.default_rng(11)
    n = 20000
    uc = rng.uniform(spec.x3_min, spec.x3_max, n)
    uc[: n // 10] = spec.x3_max
    ux, uy = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), (2, n))) * rng.choice([-1, 1], (2, n))
    ux[::17] = 0.0
    uy[::13] = 0.0
    W, (Wc, Wx, Wy), d2W = _element(spec, uc, ux, uy, 2, np.empty((_OUTPUTS[2], n)))
    W_ref, dW_ref, d2W_ref = element_expanded(spec, uc, ux, uy)
    (Wcc, Wcx, Wcy), (_, Wxx, Wxy), (_, _, Wyy) = d2W
    assert d2W[1][0] is Wcx and d2W[2][0] is Wcy and d2W[2][1] is Wxy

    def close(value, ref, scale):
        return np.all(np.abs(value - ref) <= 1e-13 * scale)

    # These agree at 1e-13 of their value everywhere (measured: 1.3e-14).
    for value, ref in [(W, W_ref), (Wc, dW_ref["c"]), (Wx, dW_ref["x"]), (Wy, dW_ref["y"]),
                       (Wcc, d2W_ref["c", "c"]), (Wxy, d2W_ref["x", "y"])]:
        assert close(value, ref, np.abs(ref))
    # The other four are a difference P - R over W whose terms cancel:
    # Wcx = (2 e2 ux - Wc Wx) / W and Wcy as |grad u| -> 0, and
    # Wxx = (a2^2 - Wx^2) / W and Wyy as |grad u| -> oo.  Both formulas
    # lose the cancelled digits (Wxx at |grad u| = 1e3 on the cusp differs
    # by 1e-7 of its value, the tube's Wcx by 1e-8 at |grad u| = 1), so they
    # agree at 1e-13 of (|P| + |R|) / W (measured: 6e-16).
    a1, a2 = spec.a1(uc), spec.a2(uc)
    e1, e2 = a1 * spec.a1.d1(uc), a2 * spec.a2.d1(uc)
    Wc, Wx, Wy = dW_ref["c"], dW_ref["x"], dW_ref["y"]
    for value, key, P, R in [(Wcx, ("c", "x"), 2.0 * e2 * ux, Wc * Wx),
                             (Wcy, ("c", "y"), 2.0 * e1 * uy, Wc * Wy),
                             (Wxx, ("x", "x"), a2**2, Wx**2),
                             (Wyy, ("y", "y"), a1**2, Wy**2)]:
        assert close(value, d2W_ref[key], (np.abs(P) + np.abs(R)) / W_ref)


@pytest.mark.parametrize("kind", ["tube", "cusp"])
def test_hessian_evaluates_each_coefficient_function_once_per_triangle_type(
        monkeypatch, kind):
    # The tube's sinh and cosh of R - t, and the cusp's exp(-t), are each
    # called once per triangle type and block: a1 and a2 share them.
    from thinpart import fields, tube_geometry

    counts = Counter(dict.fromkeys(("sinh", "cosh") if kind == "tube" else ("exp",), 0))
    module = tube_geometry if kind == "tube" else fields
    monkeypatch.setattr(module, "np", CountingNumpy(counts))
    spec = tube_spec() if kind == "tube" else cusp_spec()
    g = _random_grid((21, 17), (False, False))
    monkeypatch.setattr(minimal_graph, "_BLOCK_CELLS", 5 * (g.shape[1] - 1))
    pattern = _Pattern(g)
    blocks = len(minimal_graph._row_blocks(g))
    assert blocks > 2
    _hessian(spec, g, pattern)
    assert counts == dict.fromkeys(counts, 2 * blocks)


@pytest.mark.parametrize("make_spec,periodic", SPEC_GRID)
def test_kernel_matches_per_triangle_oracle(make_spec, periodic):
    spec = make_spec()
    rng = np.random.RandomState(7)
    g, _ = _random_graph_and_variation(spec, rng, n=24, periodic=periodic)
    grad = _gradient(spec, g)
    ref = gradient_per_triangle(spec, g)
    assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))
    H = _hessian(spec, g, _Pattern(g))
    H_ref = hessian_per_triangle(spec, g)
    assert H.shape == H_ref.shape and H.nnz == H_ref.nnz
    assert abs(H - H_ref).max() <= 1e-12 * abs(H_ref).max()


@pytest.mark.parametrize("make_spec,periodic", SPEC_GRID)
def test_hessian_exactly_symmetric(make_spec, periodic):
    spec = make_spec()
    rng = np.random.RandomState(8)
    g, _ = _random_graph_and_variation(spec, rng, n=24, periodic=periodic)
    H = _hessian(spec, g, _Pattern(g))
    assert (H != H.T).nnz == 0


# The four periodicities of a grid; a random grid over a free-node shape
# has shape + 2 nodes per axis (at least 4).
_PERIODICITIES = pytest.mark.parametrize(
    "periodic", [(False, False), (True, False), (False, True), (True, True)])


def _random_grid(shape, periodic):
    rng = np.random.default_rng(3)
    grid = (shape[0] + 2, shape[1] + 2)
    return DiscreteGraph.on_rectangle((1.0, 1.3), grid,
                                      2.0 + 0.5 * rng.uniform(-1.0, 1.0, grid),
                                      periodic=periodic)


@pytest.mark.parametrize("make_spec", [flat_spec, cusp_spec, tube_spec])
@_PERIODICITIES
@pytest.mark.parametrize("block_rows", [3, 5])
def test_row_blocks_match_the_oracles_and_one_block(monkeypatch, make_spec,
                                                    periodic, block_rows):
    # 23 x 19 nodes: 22 or 23 cell rows, a multiple of neither block size.
    spec = make_spec()
    g = _random_grid((21, 17), periodic)
    v = np.random.default_rng(4).standard_normal(g.shape)
    v[~g.free_mask()] = 0.0
    pattern = _Pattern(g)

    def evaluate():
        return (area(spec, g), _gradient(spec, g), first_variation(spec, g, v),
                _hessian(spec, g, pattern))

    assert len(minimal_graph._row_blocks(g)) == 1
    one_block = evaluate()
    cells_per_row = g.shape[1] - (not periodic[1])
    monkeypatch.setattr(minimal_graph, "_BLOCK_CELLS", block_rows * cells_per_row)
    blocks = minimal_graph._row_blocks(g)
    assert len(blocks) > 2 and blocks[-1].stop - blocks[-1].start < block_rows
    A, grad, fv, H = evaluate()

    ref = gradient_per_triangle(spec, g)
    assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))
    H_ref = hessian_per_triangle(spec, g)
    assert H.shape == H_ref.shape and H.nnz == H_ref.nnz
    assert abs(H - H_ref).max() <= 1e-12 * abs(H_ref).max()
    assert (H != H.T).nnz == 0

    A1, grad1, fv1, H1 = one_block
    assert abs(A - A1) <= 1e-15 * abs(A1)
    assert np.max(np.abs(grad - grad1)) <= 1e-15 * np.max(np.abs(grad1))
    assert abs(fv - fv1) <= 1e-15 * abs(fv1)
    assert abs(H - H1).max() <= 1e-15 * abs(H1).max()


@pytest.mark.parametrize("make_spec,periodic", SPEC_GRID)
def test_hessian_matches_fd_of_gradient(make_spec, periodic):
    spec = make_spec()
    rng = np.random.RandomState(1)
    g, _ = _random_graph_and_variation(spec, rng, n=6, periodic=periodic)
    H = _hessian(spec, g, _Pattern(g)).toarray()
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


# Free-node shapes on which the Hessian's numbering and pattern are checked.
_FREE_SHAPES = pytest.mark.parametrize(
    "shape", [(2, 2), (4, 4), (5, 6), (7, 7), (8, 8), (4, 33), (33, 4), (5, 64),
              (63, 17)])


@_PERIODICITIES
@_FREE_SHAPES
def test_dissection_order_is_a_permutation(shape, periodic):
    # The name is kept from the nested-dissection numbering the solver
    # once had.  The numbering that replaced it is row-major on every grid
    # shape and periodicity: the Hessian in the solver's numbering is the
    # per-triangle oracle's, which numbers the free nodes row-major, entry
    # for entry.
    g = _random_grid(shape, periodic)
    spec = tube_spec()
    pattern = _Pattern(g)
    nfree = g.values[g.free_slices()].size
    assert pattern.shape == (nfree, nfree)
    H = _hessian(spec, g, pattern)
    H_ref = hessian_per_triangle(spec, g)
    assert H.shape == H_ref.shape and H.nnz == H_ref.nnz
    assert abs(H - H_ref).max() <= 1e-12 * abs(H_ref).max()


@_PERIODICITIES
@_FREE_SHAPES
def test_hessian_pattern_is_canonical_csc(shape, periodic):
    # Every column is sorted and holds each row once, with the oracle's
    # sparsity exactly: the oracle is a CSR matrix, and the Hessian is
    # symmetric, so its CSC arrays are the oracle's CSR arrays.
    g = _random_grid(shape, periodic)
    H = _hessian(tube_spec(), g, _Pattern(g))
    columns = np.split(H.indices, H.indptr[1:-1])
    assert all(np.all(np.diff(column) > 0) for column in columns)
    H_ref = hessian_per_triangle(tube_spec(), g)
    assert np.array_equal(H.indptr, H_ref.indptr)
    assert np.array_equal(H.indices, H_ref.indices)


@pytest.mark.parametrize("periodic", [(False, False), (True, False), (True, True)])
def test_factoring_the_hessian_leaves_its_pattern_alone(periodic):
    # ``splu`` puts its matrix in canonical format in place; the Hessian
    # shares ``indices`` with the pattern every Newton step reuses.
    g = _random_grid((7, 9), periodic)
    pattern = _Pattern(g)
    indices, indptr = pattern.indices.copy(), pattern.indptr.copy()
    spla.splu(_hessian(tube_spec(), g, pattern), permc_spec=_LU_ORDERING)
    assert np.array_equal(pattern.indices, indices)
    assert np.array_equal(pattern.indptr, indptr)


@pytest.mark.parametrize("periodic", [(False, False), (True, True)])
def test_pattern_numbers_every_free_node_once(periodic):
    g = DiscreteGraph.on_rectangle((1.0, 1.0), (9, 12), 0.0, periodic=periodic)
    pattern = _Pattern(g)
    nfree = g.values[g.free_slices()].size
    assert pattern.shape == (nfree, nfree) and pattern.indptr.size == nfree + 1


def _recording_factor(monkeypatch):
    """Record (matrix, factor) for every factorization the solver makes,
    banded or by SuperLU."""
    factors = []
    factor = minimal_graph._factor

    def recording(A, *args):
        lu = factor(A, *args)
        factors.append((A, lu))
        return lu

    monkeypatch.setattr(minimal_graph, "_factor", recording)
    return factors


def _hessian_factor(monkeypatch):
    # The fresh factor _linear_solve makes of the 129^2 tube Hessian.
    H, rhs = _hessian_and_rhs(129)
    factors = _recording_factor(monkeypatch)
    _linear_solve(H, rhs, _one_level((127, 127)), (False, False))
    return factors[0]


def _flat_torus_32():
    # The pinned-mean flat torus of the graph_small benchmark workload.
    lat = FlatTorusLattice(1.0, 0.0, 1.2)
    return WarpedMetricSpec.flat(lat, -5.0, 5.0), DiscreteGraph.on_torus(
        lat, (32, 32),
        lambda x, y: 0.2 + 0.06 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y / 1.2)
        + 0.03 * np.cos(4 * np.pi * x + 1.0))


def _pinned_factor(monkeypatch):
    # The first pinned-mean factor of a flat 32^2 torus solve: its
    # Hessian with the first unknown pinned.
    spec, init = _flat_torus_32()
    factors = _recording_factor(monkeypatch)
    _, rep = solve(spec, init, tol=1e-9)
    assert rep.linear_solvers[0] == "pinned"
    return factors[0]


@pytest.mark.parametrize("factor,ratio", [
    (_hessian_factor, 0.65),
    (_pinned_factor, 1.0),
], ids=["rectangle_129", "torus_32_pinned"])
def test_factor_fill_against_colamd(monkeypatch, factor, ratio):
    # Fill counts of SuperLU: the solver's own factor, in _LU_ORDERING,
    # against COLAMD on the same row-major matrix.
    A, lu = factor(monkeypatch)
    monkeypatch.undo()
    assert lu.nnz <= ratio * spla.splu(sp.csc_matrix(A), permc_spec="COLAMD").nnz


def _stripe_graph(across):
    # The cusp stripe of criterion 4(a), 4 x 2049 nodes and periodic
    # across, with data that varies across it by ``across``.
    h2 = 1.0 / 2048
    return DiscreteGraph.on_rectangle(
        (4 * h2, 1.0), (4, 2049),
        lambda x, y: 0.15 + 0.4 * y + across * np.sin(np.pi * y) * np.cos(np.pi * x / (2 * h2)),
        periodic=(True, False))


def _galerkin_257(monkeypatch):
    # The last level of the 257^2 tube Hessian's V-cycle.
    spec, g = tube_spec(), _tube_4c_graph(257)
    factors = _recording_factor(monkeypatch)
    _VCycle(_hessian(spec, g, _Pattern(g)), _hierarchy((255, 255), (False, False)),
            (False, False))
    monkeypatch.undo()
    return factors[0][0], (15, 15), (False, False)


def _grid_hessian(spec, g):
    return _hessian(spec, g, _Pattern(g)), g.values[g.free_slices()].shape, g.periodic


@pytest.mark.parametrize("matrix,half_width", [
    (lambda monkeypatch: _grid_hessian(tube_spec(), _tube_4c_graph(17)), 15),
    (_galerkin_257, 16),
    # A periodic shorter side of 4 nodes wraps to 2 * 4 - 1.
    (lambda monkeypatch: _grid_hessian(cusp_spec(), _stripe_graph(0.02)), 7),
], ids=["dirichlet_15", "galerkin_257", "stripe_4x2047"])
def test_banded_and_superlu_factors_agree(monkeypatch, matrix, half_width):
    A, free_shape, periodic = matrix(monkeypatch)
    band = _factor(A, free_shape, periodic)
    assert isinstance(band, _Band) and band.kl == band.ku == half_width
    superlu = spla.splu(sp.csc_matrix(A), permc_spec=_LU_ORDERING)
    rng = np.random.default_rng(1)
    for b in rng.standard_normal((2, A.shape[0])):
        x, y = band.solve(b), superlu.solve(b)
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)


def test_a_singular_band_raises_the_error_of_superlu():
    # A 15^2 Dirichlet Hessian with one unknown decoupled and zeroed.
    A, free_shape, periodic = _grid_hessian(tube_spec(), _tube_4c_graph(17))
    keep = sp.diags((np.arange(A.shape[0]) != 100).astype(float))
    with pytest.raises(RuntimeError, match="singular"):
        _factor(keep @ A @ keep, free_shape, periodic)


@pytest.mark.parametrize("problem,solvers", [
    (lambda: (cusp_spec(), _stripe_graph(0.0)), ["lu"]),
    (lambda: (tube_spec(), _tube_4c_graph(129)), ["multigrid", "lagged"]),
], ids=["stripe_4x2049", "multigrid_129"])
def test_narrow_grids_make_no_superlu_factor(monkeypatch, problem, solvers):
    # Every ladder rung, the stripe itself and every V-cycle's last level
    # is a band.
    spec, g = problem()
    calls = []
    monkeypatch.setattr(minimal_graph.spla, "splu", lambda *args, **kw: calls.append(args))
    out, rep = solve(spec, g, tol=1e-8)
    assert rep.converged and rep.linear_solvers == solvers and calls == []


def test_pinned_factor_halves_the_fill_of_the_bordered_system(monkeypatch):
    spec, g = _flat_torus_32()
    H, rhs = _hessian(spec, g, _Pattern(g)), -_gradient(spec, g)[g.free_slices()].ravel()
    bordered, kkt = bordered_kkt(H, rhs, _LU_ORDERING)
    factors = _recording_factor(monkeypatch)
    delta = _pinned(H, rhs)
    [(A, pinned)] = factors
    assert kkt.shape[0] == H.shape[0] + 1 and A.shape[0] == H.shape[0] - 1
    assert pinned.nnz <= 0.6 * kkt.nnz
    # The update of the bordered system: zero sum, H delta = rhs - mean(rhs).
    b = rhs - np.mean(rhs)
    assert abs(delta.sum()) <= 1e-12 * np.abs(delta).sum()
    assert np.linalg.norm(H @ delta - b) <= 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(delta - bordered) <= 1e-10 * np.linalg.norm(bordered)


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


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_solve_rejects_a_nonfinite_tolerance(tol):
    g = DiscreteGraph.on_rectangle((1.0, 1.0), (8, 8), 0.0)
    with pytest.raises(DomainError, match="tolerance must be finite"):
        solve(flat_spec(), g, tol=tol)


@pytest.mark.parametrize("excess", [0.0, 1e-10])
def test_line_search_accepts_data_inside_the_range_slack(excess):
    # The cusp's range is [0, 3], and every graph operation accepts values
    # up to 1e-9 of its width past either end; so must the line search.
    top = 3.0 + excess
    init = DiscreteGraph.on_rectangle((1.0, 1.0), (17, 17),
                                      lambda x, y: 2.0 + (top - 2.0) * x + 0.0 * y)
    out, rep = solve(cusp_spec(), init)
    assert rep.converged and rep.iterations == 3
    assert np.array_equal(out.values[-1], init.values[-1])


def test_solve_periodic_flat_pins_mean():
    spec = flat_spec()
    init = DiscreteGraph.on_torus(UNIT, (12, 12), 0.0)
    rng = np.random.RandomState(9)
    init.values += 0.1 * rng.randn(12, 12)
    out, rep = solve(spec, init, tol=1e-11)
    assert rep.converged and rep.pinned_mean
    # Every step here takes the KKT path: one factorization each, no CG.
    assert rep.linear_iterations == [0] * rep.iterations
    assert rep.factorizations == rep.iterations
    # Converges to a constant graph.
    assert np.ptp(out.values) < 1e-9


def test_solve_cusp_stripe_matches_ode_oracle(monkeypatch):
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
    # The stripe starts from one step on each of its coarser grids, the
    # Dirichlet axis halved down to 15 free nodes, each solved by its
    # own factor; one step on the fine grid is left.
    assert [c.shape for c in rep.coarse_grids] == [(4, 2**k + 1) for k in range(4, 11)]
    assert [c.iterations for c in rep.coarse_grids] == [1] * 7
    assert rep.linear_solvers == ["lu"]
    _cold_start(monkeypatch)
    cold, cold_rep = solve(spec, init, tol=1e-8)
    assert cold_rep.converged and cold_rep.iterations > rep.iterations
    assert np.max(np.abs(out.values - cold.values)) <= 1e-12
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
    # on the 33^2 grid evaluates the gradient once, at its one trial
    # point.  Its 17^2 coarser grid's calls are not counted.
    spec = tube_spec()
    L = 0.35
    init = DiscreteGraph.on_rectangle(
        (L, L), (33, 33),
        lambda x, y: 3.8 + 0.1 * np.sin(np.pi * x / L) * np.sin(np.pi * y / L),
    )
    calls = []

    def counting_gradient(spec, g):
        calls.append(g.shape)
        return _gradient(spec, g)

    monkeypatch.setattr(minimal_graph, "_gradient", counting_gradient)
    out, rep = solve(spec, init, tol=1e-9)
    assert rep.converged and rep.iterations == 3
    assert [c.shape for c in rep.coarse_grids] == [(17, 17)]
    assert calls.count(init.shape) == rep.iterations + 1
    # The reported residual is that of the returned graph, bit for bit.
    assert rep.final_residual == float(np.max(np.abs(el_residual(spec, out))))


def _one_level(free_shape):
    # The hierarchy of a grid that is never coarsened.
    return [(tuple(free_shape), None)]


def _cold_start(monkeypatch):
    # One level, with no transfer, for every grid: no coarser grids and no
    # V-cycle, so the solve starts from its data, and each step is solved
    # by the Hessian's factor or CG preconditioned by a kept one.
    monkeypatch.setattr(minimal_graph, "_hierarchy",
                        lambda free_shape, periodic: _one_level(free_shape))


def _tube_4c_graph(n):
    L = 0.35
    return DiscreteGraph.on_rectangle(
        (L, L), (n, n),
        lambda x, y: 3.8 + 0.1 * np.sin(np.pi * x / L) * np.sin(np.pi * y / L),
    )


def _cusp_problem(shape):
    # The cusp [0, 3] on the unit square, with data that moves off the
    # slices.
    return cusp_spec(), DiscreteGraph.on_rectangle(
        (1.0, 1.0), shape,
        lambda x, y: 1.0 + 0.3 * np.sin(np.pi * x) * np.sin(np.pi * y) + 0.2 * x)


def test_solve_factors_the_hessian_once(monkeypatch):
    # 17^2 is the largest square grid whose multigrid hierarchy has no
    # levels: the steps are solved by the factor and CG preconditioned by
    # it.
    calls = _recording_factor(monkeypatch)
    out, rep = solve(tube_spec(), _tube_4c_graph(17), tol=1e-9)
    assert rep.converged and rep.iterations == 4
    assert rep.final_residual <= 1e-9
    assert len(calls) == 1 and rep.factorizations == 1
    # The first step is solved by the factor; the later ones by CG
    # preconditioned by it.
    assert len(rep.linear_iterations) == rep.iterations
    assert rep.linear_iterations[0] == 0
    assert all(1 <= k <= _CG_MAX_ITER for k in rep.linear_iterations[1:])
    assert rep.linear_solvers == ["lu"] + ["lagged"] * 3


def test_solve_by_multigrid_makes_no_fine_grid_factorization(monkeypatch):
    spec, g = tube_spec(), _tube_4c_graph(129)
    _cold_start(monkeypatch)
    reference, ref_rep = solve(spec, g, tol=1e-9)
    monkeypatch.undo()
    factors = _recording_factor(monkeypatch)
    out, rep = solve(spec, g, tol=1e-9)
    # The 129^2 grid starts from one step on each of its 17^2, 33^2 and
    # 65^2 grids.
    assert ref_rep.iterations == 4
    assert rep.converged and rep.iterations == 2
    assert [(c.shape, c.iterations) for c in rep.coarse_grids] == [
        ((17, 17), 1), ((33, 33), 1), ((65, 65), 1)]
    assert rep.linear_solvers == ["multigrid", "lagged"]
    assert rep.factorizations == 0
    # Only the last level of each V-cycle is factored: the 17^2 step's,
    # which is that level, one 33^2 and one 65^2 step's, and the first
    # 129^2 step's, whose V-cycle the second step lags.
    sizes = [A.shape[0] for A, _ in factors]
    assert len(sizes) == 3 + 1 and max(sizes) <= 15 * 15
    assert all(1 <= k <= _MG_MAX_ITER for k in rep.linear_iterations)
    # The LU path reaches the same graph.
    assert np.max(np.abs(out.values - reference.values)) <= 1e-12


def test_multigrid_iterations_are_grid_independent():
    counts = {}
    for n in (65, 129, 257):
        out, rep = solve(tube_spec(), _tube_4c_graph(n), tol=1e-8)
        # The first step's V-cycle is kept and preconditions the others.
        assert rep.converged
        assert rep.linear_solvers == ["multigrid"] + ["lagged"] * (rep.iterations - 1)
        counts[n] = rep.linear_iterations
    every = [k for steps in counts.values() for k in steps]
    assert max(every) - min(every) <= 2, counts


def test_vcycle_is_symmetric_positive_definite():
    # CG needs a symmetric positive definite preconditioner: the V-cycle
    # smooths as many sweeps before the coarse correction as after.
    spec, g = tube_spec(), _tube_4c_graph(65)
    pattern = _Pattern(g)
    vcycle = _VCycle(_hessian(spec, g, pattern), _hierarchy((63, 63), (False, False)),
                     (False, False))
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, pattern.shape[0]))
    vx, vy = vcycle.solve(x), vcycle.solve(y)
    assert abs(y @ vx - x @ vy) <= 1e-12 * np.linalg.norm(vx) * np.linalg.norm(y)
    assert x @ vx > 0.0 and y @ vy > 0.0


@pytest.mark.parametrize("problem,tol,solvers", [
    # An even free side, so no coarser grids: every step is solved here.
    (lambda: (tube_spec(), _tube_4c_graph(128)), 1e-9,
     ["multigrid", "lagged", "lagged", "lagged"]),
    (lambda: _cusp_problem((66, 66)), 1e-8,
     ["lu", "multigrid", "multigrid", "multigrid", "lagged", "lagged", "lagged"]),
], ids=["tube_128", "cusp_66"])
def test_a_kept_vcycle_solves_the_steps_where_the_iterate_moves_most(problem, tol, solvers):
    # A kept V-cycle lags its coarse levels only, and its finest level
    # smooths with each step's own Hessian, so it also serves the step
    # after the first on the tube and the fifth on the cusp.  No lagged
    # run is cut at _CG_MAX_ITER and redone by a fresh V-cycle, which
    # would count more iterations.
    spec, g = problem()
    out, rep = solve(spec, g, tol=tol)
    assert rep.converged and rep.linear_solvers == solvers
    assert all(k <= _CG_MAX_ITER for k, kind in zip(rep.linear_iterations, solvers)
               if kind == "lagged")


def test_newton_holds_one_fine_hessian_at_a_time(monkeypatch):
    # When a step assembles its Hessian, no earlier step's Hessian is
    # alive: neither the kept V-cycle nor the Newton loop holds it.
    hessian = minimal_graph._hessian
    earlier, alive = [], []

    def recording(spec, g, pattern):
        alive.append(sum(ref() is not None for ref in earlier))
        H = hessian(spec, g, pattern)
        earlier.append(weakref.ref(H.data))
        return H

    monkeypatch.setattr(minimal_graph, "_hessian", recording)
    out, rep = solve(tube_spec(), _tube_4c_graph(128), tol=1e-9)
    assert rep.linear_solvers == ["multigrid", "lagged", "lagged", "lagged"]
    assert alive == [0, 0, 0, 0]


def test_a_kept_vcycle_holds_no_fine_matrix():
    H, rhs = _hessian_and_rhs(65)
    levels = _hierarchy((63, 63), (False, False))
    delta, kept, kind, iterations = _linear_solve(H, rhs, levels, (False, False))
    assert kind == "multigrid" and kept.finest is None
    # Bound to H again, it is the cycle the step ran, bit for bit.
    fresh = _VCycle(H, levels, (False, False))
    r = np.random.default_rng(3).standard_normal(H.shape[0])
    assert np.array_equal(kept.on(H).solve(r), fresh.solve(r))


def test_the_solve_stores_an_int32_pattern_and_each_transfer_once():
    g = _tube_4c_graph(129)
    assert _Pattern(g).data_source.dtype == np.int32
    # R is the transpose view of P: it shares P's arrays, and restricts
    # as the CSR copy of P^T does, bit for bit.
    P, R = _hierarchy((127, 127), (False, False))[0][1]
    assert np.shares_memory(R.data, P.data)
    r = np.random.default_rng(4).standard_normal(P.shape[0])
    assert np.array_equal(R @ r, P.T.tocsr() @ r)
    # The criterion-4(c) tube solve at 129^2 peaks at ~380 traced bytes
    # per free node (one fine Hessian, the int32 pattern, the transfers
    # and the coarse operators, the CG and V-cycle vectors).
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out, rep = solve(tube_spec(), g, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert rep.converged and peak <= 420 * 127**2, peak / 127**2


@pytest.mark.parametrize("free_shape,periodic,shapes", [
    ((255, 255), (False, False), [(255, 255), (127, 127), (63, 63), (31, 31), (15, 15)]),
    ((128, 128), (False, False), [(128, 128), (64, 64), (32, 32), (16, 16), (8, 8)]),
    ((69, 69), (False, False), [(69, 69), (34, 34), (17, 17), (8, 8)]),
    ((63, 127), (False, False), [(63, 127), (31, 63), (15, 31)]),
    ((4, 2047), (True, False), [(4, 2**k - 1) for k in range(11, 3, -1)]),
    ((2047, 4), (True, False), [(2047, 4)]),
    ((32, 32), (True, True), [(32, 32)]),
], ids=["255", "128", "69", "63x127", "stripe_4x2047", "stripe_2047x4", "torus_32"])
def test_hierarchy_levels_in_closed_form(free_shape, periodic, shapes):
    # Each Dirichlet free side is halved, n // 2, while the shortest one
    # is longer than 15; a periodic side is kept.
    levels = _hierarchy(free_shape, periodic)
    assert [shape for shape, _ in levels] == shapes
    # Transfers on a grid with no periodic axis only, from every level to
    # the next.
    assert levels[-1][1] is None
    for (fine, transfer), (coarse, _) in zip(levels, levels[1:]):
        if any(periodic):
            assert transfer is None
        else:
            P, R = transfer
            assert P.shape == (fine[0] * fine[1], coarse[0] * coarse[1])
            assert (R != P.T).nnz == 0


@pytest.mark.parametrize("problem,ladder", [
    (lambda: _graph_large_problem("tube_4c", (71, 71)), [(34, 34)]),
    (lambda: _graph_large_problem("tube_4c", (65, 129)), [(15, 31), (31, 63)]),
    (lambda: (cusp_spec(), _stripe_graph(0.02)), [(4, 2**k - 1) for k in range(4, 11)]),
], ids=["71", "65x129", "stripe_4x2049"])
def test_nested_start_steps_each_grid_on_its_own_levels(monkeypatch, problem, ladder):
    # The ladder walks the levels while every Dirichlet free side is odd:
    # a free side of 69 stops at 34.  Each coarser grid is the injection
    # its level names, and its one Newton step gets the levels from its
    # own down.
    spec, g = problem()
    levels = _hierarchy(g.values[g.free_slices()].shape, g.periodic)
    calls = []
    newton = minimal_graph._newton

    def recording(spec, u, tol, max_iter, levels):
        calls.append((u.values[u.free_slices()].shape, levels))
        return newton(spec, u, tol, max_iter, levels)

    monkeypatch.setattr(minimal_graph, "_newton", recording)
    start, records = minimal_graph._nested_start(spec, g, levels, 1e-8)
    assert [free for free, _ in calls] == ladder
    assert all(own == levels[len(levels) - len(own):] and own[0][0] == free
               for free, own in calls)
    assert len(records) == len(ladder) and start.shape == g.shape


@pytest.mark.parametrize("n", [64, 65])
def test_prolongation_reaches_every_fine_node(n):
    P = _prolongation(n, n // 2).toarray()
    assert P.shape == (n, n // 2)
    assert np.all(P.sum(axis=1) > 0.0)
    # Coarse node j sits at fine node 2 j + 1.
    assert np.array_equal(P[1::2][: n // 2], np.eye(n // 2))


def _negated_vcycle(A, levels, periodic):
    # A V-cycle of -A: negative definite, so CG stops at once.
    return _VCycle(-A, levels, periodic)


def test_multigrid_failure_falls_back_to_a_factor(monkeypatch):
    spec, g = tube_spec(), _tube_4c_graph(65)
    H = _hessian(spec, g, _Pattern(g))
    rhs = -_gradient(spec, g)[g.free_slices()].ravel()
    monkeypatch.setattr(minimal_graph, "_VCycle", _negated_vcycle)
    factors = _recording_factor(monkeypatch)
    delta, kept, kind, iterations = _linear_solve(H, rhs, _hierarchy((63, 63), (False, False)),
                                                  (False, False))
    assert kind == "lu" and iterations == 1 and kept is factors[-1][1]
    # The failed V-cycle's last level, then H.
    assert [A.shape[0] for A, _ in factors] == [15 * 15, H.shape[0]]
    assert _solves_to_1e6(H, delta, rhs)


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("Factor is exactly singular")


def test_a_vcycle_that_fails_to_build_falls_back_to_the_factor(monkeypatch):
    # The V-cycle's last-level factor raises while it is built: no CG
    # runs, and the Hessian's own factor solves the step.
    H, rhs = _hessian_and_rhs(65)
    monkeypatch.setattr(minimal_graph, "_VCycle", _raise_runtime_error)
    factors = _recording_factor(monkeypatch)
    delta, kept, kind, iterations = _linear_solve(H, rhs, _hierarchy((63, 63), (False, False)),
                                                  (False, False))
    assert kind == "lu" and iterations == 0 and kept is factors[-1][1]
    assert _solves_to_1e6(H, delta, rhs)


def test_a_pinned_step_whose_factor_raises_stops_the_solve(monkeypatch):
    spec, init = _flat_torus_32()
    g = init.copy()
    H = _hessian(spec, g, _Pattern(g))
    rhs = -_gradient(spec, g).ravel()
    monkeypatch.setattr(minimal_graph, "_factor", _raise_runtime_error)
    assert _pinned(H, rhs) is None
    assert _linear_solve(H, rhs, _one_level((32, 32)), (True, True)) == (None, None, "pinned", 0)
    with pytest.raises(SolveError, match="^singular Jacobian") as info:
        solve(spec, init, tol=1e-8)
    assert len(info.value.residual_history) == 1


def _standstill(H, rhs, levels, periodic, kept=None):
    # A zero update: no step length lowers the gradient norm.
    return np.zeros_like(rhs), None, "lu", 0


def test_a_line_search_that_stalls_raises(monkeypatch):
    # No step length is accepted: the zero update leaves |F|^2 where it
    # was at every trial, down to alpha = 2^-30.
    spec, g = _cusp_problem((17, 17))
    monkeypatch.setattr(minimal_graph, "_linear_solve", _standstill)
    with pytest.raises(SolveError, match="^line search stalled at residual") as info:
        solve(spec, g, tol=1e-8)
    assert len(info.value.residual_history) == 1


def test_the_tube_at_its_roundoff_floor_stalls_after_three_steps():
    # The criterion-4(c) tube at 129^2 bottoms out near 2.1e-10, above
    # the default tolerance: the line search along the Newton step stalls
    # at the fourth iterate.
    with pytest.raises(SolveError, match="^line search stalled at residual") as info:
        solve(tube_spec(), _tube_4c_graph(129))
    history = info.value.residual_history
    assert len(history) == 4 and 1e-10 < history[-1] < 1e-9


class _NanFactor:
    # A factor whose every solve is NaN.
    def solve(self, b):
        return np.full_like(b, np.nan)


def test_a_factor_that_solves_to_nan_is_a_singular_jacobian(monkeypatch):
    # 17^2 has no coarser levels, so the first step is solved by the
    # factor alone; its NaN update fails _solves on finiteness.
    spec, g = _cusp_problem((17, 17))
    monkeypatch.setattr(minimal_graph, "_factor", lambda *args: _NanFactor())
    H = _hessian(spec, g, _Pattern(g))
    rhs = -_gradient(spec, g)[g.free_slices()].ravel()
    assert not _solves(H, _NanFactor().solve(rhs), rhs)
    with pytest.raises(SolveError, match="^singular Jacobian") as info:
        solve(spec, g, tol=1e-8)
    assert len(info.value.residual_history) == 1


def _out_of_range(fine, coarse, u):
    # A corrected start 10 above every free node: past the tube's
    # interval [0, 4.5] from data near 3.8.
    start = fine.copy()
    start.values[fine.free_slices()] += 10.0
    return start


def test_a_nested_start_that_leaves_the_range_is_not_taken(monkeypatch):
    # Every corrected start of the 65^2 ladder leaves the range, so each
    # grid starts from its injected values: the 65^2 grid from its own
    # data, as a Newton solve without coarser grids does.
    spec, init = tube_spec(), _tube_4c_graph(65)
    monkeypatch.setattr(minimal_graph, "_corrected", _out_of_range)
    out, rep = solve(spec, init, tol=1e-9)
    assert [c.shape for c in rep.coarse_grids] == [(17, 17), (33, 33)]
    direct, direct_rep = minimal_graph._newton(spec, init, 1e-9, 60,
                                               _hierarchy((63, 63), (False, False)))
    assert rep.converged and np.array_equal(out.values, direct.values)
    assert rep.residual_history == direct_rep.residual_history


def test_solve_moves_to_the_factor_after_a_multigrid_failure(monkeypatch):
    monkeypatch.setattr(minimal_graph, "_VCycle", _negated_vcycle)
    out, rep = solve(tube_spec(), _tube_4c_graph(65), tol=1e-9)
    # The 65^2 grid starts from one step on each of its 17^2 and 33^2
    # grids: the 17^2 step is solved by its factor, the 33^2 step by a
    # factor after its V-cycle fails.
    assert [(c.shape, c.iterations) for c in rep.coarse_grids] == [
        ((17, 17), 1), ((33, 33), 1)]
    assert rep.converged and rep.iterations == 2 and rep.factorizations == 1
    assert rep.linear_solvers == ["lu", "lagged"]
    assert rep.linear_iterations[0] == 1


def test_a_factor_is_not_lagged_past_a_fresh_vcycle(monkeypatch):
    # The cusp [0, 3] at 66^2, which has no coarser grids: the first
    # step's V-cycle run fails, and a factor of its Hessian solves it.
    # No step after the first one a fresh V-cycle solves runs CG
    # preconditioned by that factor.
    spec, init = _cusp_problem((66, 66))
    events = []
    linear_solve, pcg = minimal_graph._linear_solve, minimal_graph._pcg

    def recording_solve(*args):
        result = linear_solve(*args)
        events.append(("step", result[2], result[1]))
        return result

    def recording_pcg(H, rhs, precondition, max_iter):
        events.append(("pcg", precondition.__self__))
        return pcg(H, rhs, precondition, max_iter)

    monkeypatch.setattr(minimal_graph, "_linear_solve", recording_solve)
    monkeypatch.setattr(minimal_graph, "_pcg", recording_pcg)
    out, rep = solve(spec, init, tol=1e-8)
    assert rep.converged and rep.linear_solvers[0] == "lu"
    assert "multigrid" in rep.linear_solvers[1:]
    steps = [i for i, event in enumerate(events) if event[0] == "step"]
    factor = events[steps[0]][2]
    fresh = next(i for i in steps[1:] if events[i][1] == "multigrid")
    assert all(event[1] is not factor for event in events[fresh + 1:])


@pytest.mark.parametrize("name,height,solvers", [
    ("readme_tube", 0.7, ["multigrid", "multigrid"]),
    ("tube_4c", 1.4, ["lu", "lagged"]),
], ids=["readme_tube_aspect_2", "tube_4c_aspect_4"])
def test_slow_fresh_vcycles_are_not_kept(name, height, solvers):
    # Cells twice and four times as tall as wide, which point Jacobi
    # smooths poorly: fresh V-cycles take more than _CG_MAX_ITER
    # iterations, so no step lags them.  At aspect ratio 4 the first
    # step's run reaches _MG_MAX_ITER and is discarded, and the factor
    # made in its place is kept.
    spec, g = _graph_large_problem(name, (129, 129))
    g = DiscreteGraph.on_rectangle((0.35, height), g.shape, g.values)
    out, rep = solve(spec, g, tol=1e-8)
    assert rep.converged and rep.linear_solvers == solvers
    assert all(k > _CG_MAX_ITER for k, kind in zip(rep.linear_iterations, solvers)
               if kind == "multigrid")
    assert all(k == _MG_MAX_ITER for k, kind in zip(rep.linear_iterations, solvers)
               if kind == "lu")


# ------------------------------------------------- nested iteration


def _graph_large_problem(name, shape):
    # The two tube solves of the graph_large benchmark workload, on a
    # grid of square cells 0.35 / (shape[0] - 1) wide.
    metric, data = {
        "readme_tube": ({"kind": "tube", "length": 0.01, "twist": 0.0,
                         "radius": "meyerhoff", "normalized": True},
                        lambda x, y: 1.2 + 0.05 * x + 0.0 * y),
        "tube_4c": ({"kind": "tube", "length": 1e-5, "twist": 0.3, "radius": 5.0},
                    lambda x, y: 3.8 + 0.0 * x),
    }[name]
    n1, n2 = shape
    extent = (0.35, 0.35 * (n2 - 1) / (n1 - 1))
    return spec_from_json(metric), DiscreteGraph.on_rectangle(extent, shape, data)


@pytest.mark.parametrize("shape,ladder", [
    ((129, 129), [(17, 17), (33, 33), (65, 65)]),
    ((257, 257), [(17, 17), (33, 33), (65, 65), (129, 129)]),
    ((65, 65), [(17, 17), (33, 33)]),
    ((65, 129), [(17, 33), (33, 65)]),
    # The free side of 36^2 is even: the ladder stops there.
    ((71, 71), [(36, 36)]),
], ids=["129", "257", "65", "65x129", "71"])
@pytest.mark.parametrize("name", ["readme_tube", "tube_4c"])
def test_nested_iteration_reaches_the_cold_start_solution(monkeypatch, name, shape,
                                                          ladder):
    spec, g = _graph_large_problem(name, shape)
    out, rep = solve(spec, g, tol=1e-8)
    _cold_start(monkeypatch)
    cold, cold_rep = solve(spec, g, tol=1e-8)
    assert cold_rep.coarse_grids == []
    assert rep.converged and rep.iterations < cold_rep.iterations
    assert len(rep.linear_solvers) == rep.iterations
    assert np.max(np.abs(out.values - cold.values)) <= 1e-12
    # One record per coarser grid, coarsest first, each of one Newton step.
    assert [c.shape for c in rep.coarse_grids] == ladder
    assert [c.iterations for c in rep.coarse_grids] == [1] * len(ladder)
    assert all(0.0 < c.residual < math.inf and c.error is None for c in rep.coarse_grids)


def _bump(x, y):
    return 1.0 + 0.1 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)


@pytest.mark.parametrize("make_spec,init", [
    (tube_spec, lambda: _tube_4c_graph(128)),
    (cusp_spec, lambda: DiscreteGraph.on_rectangle((1.0, 1.0), (65, 128), _bump,
                                                   periodic=(True, False))),
    (flat_spec, lambda: DiscreteGraph.on_torus(UNIT, (65, 65), _bump)),
], ids=["even_128", "stripe_65x128", "torus_65"])
def test_solve_without_coarser_grids(make_spec, init):
    # An even free side, or no Dirichlet axis: the solve starts from its
    # data.
    out, rep = solve(make_spec(), init(), tol=1e-8)
    assert rep.converged and rep.coarse_grids == []


@pytest.mark.parametrize("n", [17, 19, 25, 41, 57])
@pytest.mark.parametrize("name", ["tube_4c", "readme_tube", "cusp"])
def test_every_dirichlet_grid_follows_one_multigrid_rule(monkeypatch, name, n):
    # Coarser grids are visited exactly when both free sides are odd and
    # longer than the coarsest level's 15, whatever the grid's size; the
    # solution is that of the solve with no hierarchy.
    problem = (_cusp_problem if name == "cusp"
               else lambda shape: _graph_large_problem(name, shape))
    spec, g = problem((n, n))
    out, rep = solve(spec, g, tol=1e-8)
    free = n - 2
    assert rep.converged
    assert bool(rep.coarse_grids) == (free % 2 == 1 and free > 15)
    _cold_start(monkeypatch)
    reference, ref_rep = solve(spec, g, tol=1e-8)
    assert ref_rep.converged and ref_rep.coarse_grids == []
    assert np.max(np.abs(out.values - reference.values)) <= 1e-12


def test_a_coarsest_grid_failure_falls_back_to_the_cold_start(monkeypatch):
    # Every coarser grid fails, the coarsest included: none contributes a
    # correction, so the 65^2 grid starts from its own data.
    spec, g = tube_spec(), _tube_4c_graph(65)
    newton = minimal_graph._newton

    def failing_on_coarser_grids(spec, u, *args):
        if u.shape != g.shape:
            raise SolveError("forced", [2.5])
        return newton(spec, u, *args)

    monkeypatch.setattr(minimal_graph, "_newton", failing_on_coarser_grids)
    out, rep = solve(spec, g, tol=1e-9)
    monkeypatch.undo()
    assert rep.coarse_grids == [CoarseSolve((17, 17), 0, 2.5, "forced"),
                                CoarseSolve((33, 33), 0, 2.5, "forced")]
    _cold_start(monkeypatch)
    cold, cold_rep = solve(spec, g, tol=1e-9)
    assert rep.converged and rep.iterations == cold_rep.iterations == 4
    # The first step's V-cycle, its finest level smoothing with each later
    # step's own Hessian, serves the last three.
    assert rep.linear_solvers == ["multigrid", "lagged", "lagged", "lagged"]
    assert np.max(np.abs(out.values - cold.values)) <= 1e-12


@pytest.mark.parametrize("data", [
    lambda x, y: 0.5 + 0.0 * x,
    lambda x, y: 0.2 + 0.3 * x - 0.1 * y,
], ids=["constant", "affine"])
def test_corrected_start_interpolates_the_coarse_solution(data):
    # A correction that is cubic in each halved coordinate and vanishes
    # on the boundary ring is interpolated exactly: on a square, both
    # axes halved, and on a stripe, whose periodic first axis is kept
    # and carries any profile.  The ring of the fine grid is kept.
    for periodic, along_x1 in (((False, False), lambda x: x * (1.0 - x) * (0.3 + x)),
                               ((True, False), lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x))):
        def correction(g):
            X1, X2 = np.meshgrid(g.x1_coords(), g.x2_coords(), indexing="ij")
            return along_x1(X1) * X2 * (2.0 - X2) * (0.5 - X2)

        fine = DiscreteGraph.on_rectangle((1.0, 2.0), (65, 129), data, periodic=periodic)
        step = 1 if periodic[0] else 2
        coarse = DiscreteGraph(fine.values[::step, ::2],
                               (step * fine.spacing[0], 2.0 * fine.spacing[1]), periodic)
        u = coarse.copy()
        u.values += correction(coarse)
        start = _corrected(fine, coarse, u)
        expected = correction(fine)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(start.values - fine.values - expected)) <= 1e-14 * scale
        ring = ~fine.free_mask()
        assert np.array_equal(start.values[ring], fine.values[ring])


def _hessian_and_rhs(n=33):
    spec, g = tube_spec(), _tube_4c_graph(n)
    H = _hessian(spec, g, _Pattern(g))
    rhs = -_gradient(spec, g)[g.free_slices()].ravel()
    return H, rhs


def _solves_to_1e6(H, delta, rhs):
    return (np.all(np.isfinite(delta))
            and np.linalg.norm(H @ delta - rhs) <= 1e-6 * np.linalg.norm(rhs))


@pytest.mark.parametrize("lagged", ["scaled_identity", "negated"])
def test_linear_solve_refactors_when_the_lagged_factor_fails(monkeypatch, lagged):
    H, rhs = _hessian_and_rhs()
    # A factor unrelated to H, and an indefinite one (r.z < 0 at once).
    other = (3.0 * sp.identity(H.shape[0], format="csc") if lagged == "scaled_identity"
             else -H)
    unrelated = _factor(other, (31, 31), (False, False))
    calls = _recording_factor(monkeypatch)
    delta, kept, kind, iterations = _linear_solve(H, rhs, _one_level((31, 31)), (False, False),
                                                  unrelated)
    assert len(calls) == 1 and kind == "lu" and kept is not unrelated
    # The discarded run's iterations are counted: the unrelated factor
    # runs to the cap, the indefinite one stops in its first iteration.
    assert iterations == (_CG_MAX_ITER if lagged == "scaled_identity" else 1)
    assert _solves_to_1e6(H, delta, rhs)


def test_linear_solve_with_the_factor_of_h_makes_no_factorization(monkeypatch):
    H, rhs = _hessian_and_rhs()
    own = _factor(H, (31, 31), (False, False))
    calls = _recording_factor(monkeypatch)
    delta, kept, kind, iterations = _linear_solve(H, rhs, _one_level((31, 31)), (False, False),
                                                  own)
    assert calls == [] and kept is own and 1 <= iterations <= _CG_MAX_ITER
    assert kind == "lagged"
    assert _solves_to_1e6(H, delta, rhs)


def test_a_fresh_factor_solves_an_indefinite_hessian():
    # A symmetric indefinite H and a rhs with r.H^-1 r < 0: CG
    # preconditioned by the exact factor stops at its first product r.z,
    # so the fresh factor is applied directly.
    n = 40
    diagonal = np.where(np.arange(n) % 2, -3.0, 2.0)
    H = sp.diags([np.full(n - 1, 0.5), diagonal, np.full(n - 1, 0.5)],
                 [-1, 0, 1], format="csc")
    x = (np.arange(n) % 2).astype(float)
    rhs = H @ x
    assert rhs @ x < 0.0
    delta, kept, kind, iterations = _linear_solve(H, rhs, _one_level((n, 1)), (False, False))
    assert kind == "lu" and iterations == 0 and isinstance(kept, _Band)
    assert _solves(H, delta, rhs)
    assert _pcg(H, rhs, kept.solve, _CG_MAX_ITER)[0] is None


def test_a_stripe_whose_factor_fails_gets_no_update(monkeypatch):
    # A stripe's Hessian is nonsingular, so no solve reaches this path:
    # the factor of the fine grid's Hessian is made to fail.  As on a
    # Dirichlet grid, the step has no update, and the solve raises.
    spec = cusp_spec()
    g = DiscreteGraph.on_rectangle((1.0, 1.0), (65, 129), _bump, periodic=(True, False))
    H = _hessian(spec, g, _Pattern(g))
    rhs = -_gradient(spec, g)[g.free_slices()].ravel()
    n = H.shape[0]
    splu = spla.splu

    def failing_on_h(A, *args, **kwargs):
        if A.shape == (n, n):
            raise RuntimeError("Factor is exactly singular")
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(minimal_graph.spla, "splu", failing_on_h)
    levels = _hierarchy((65, 127), g.periodic)
    delta, kept, kind, iterations = _linear_solve(H, rhs, levels, g.periodic)
    assert delta is None and kept is None and kind == "lu" and iterations == 0
    with pytest.raises(SolveError, match="singular Jacobian"):
        solve(spec, g, tol=1e-8)


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


@pytest.mark.parametrize("n", [257, 513])
@pytest.mark.parametrize("make_spec,periodic", SPEC_GRID)
def test_mean_curvature_blocks_match_the_whole_grid(make_spec, periodic, n):
    # Both grids split into several blocks of free-node rows, the last
    # one shorter; every value is that of the whole-grid formula, bit for
    # bit.
    spec = make_spec()
    g, _ = _random_graph_and_variation(spec, np.random.RandomState(5), n=n,
                                       periodic=periodic)
    rows, columns = g.values[g.free_slices()].shape
    assert rows % (_BLOCK_CELLS // columns) != 0 and rows > _BLOCK_CELLS // columns
    assert np.array_equal(graph_mean_curvature(spec, g),
                          mean_curvature_whole_grid(spec, g))


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


@pytest.mark.parametrize("name", [
    "comparison", "intrinsic_radius", "curvature_bound", "tangency_level",
    "graph_constant",
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_graph_bounds_params_reject_nonfinite(name, value):
    args = {"comparison": 1.0, "intrinsic_radius": 1.0, "curvature_bound": 1.0,
            "tangency_level": 2.0, "graph_constant": 1.5}
    args[name] = value
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        GraphBoundsParams(**args)


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
