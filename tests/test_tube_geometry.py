import math

import numpy as np
import pytest
from scipy.optimize import brentq

from thinpart import DomainError
from thinpart.flat_torus import FlatTorusLattice, systole
from thinpart.tube_geometry import (
    ELL_MAX,
    CuspParams,
    TubeParams,
    boundary_lattice,
    cusp_as_warped,
    meyerhoff_radius,
    slice_area,
    slice_mean_curvature,
    tube_as_warped,
)

SQRT3_OVER_4PI = math.sqrt(3.0) / (4.0 * math.pi)


def radius_by_root_solve(length):
    """Independent oracle: solve sinh^2(R) = target by bracketing."""
    y = math.sqrt(4.0 * math.pi * length / math.sqrt(3.0))
    k = math.cosh(y) - 1.0
    target = 0.5 * (math.sqrt(1.0 - 2.0 * k) / k - 1.0)
    return brentq(lambda R: math.sinh(R) ** 2 - target, 0.0, 60.0, xtol=1e-15)


def test_threshold_value():
    assert ELL_MAX == pytest.approx(0.10707074542167836, rel=1e-15)


def test_radius_at_threshold_is_zero():
    assert meyerhoff_radius(ELL_MAX) == 0.0
    # k = sqrt(2) - 1 there, so sqrt(1 - 2k)/k = 1 analytically.


def test_radius_domain_errors():
    with pytest.raises(DomainError):
        meyerhoff_radius(0.0)
    with pytest.raises(DomainError):
        meyerhoff_radius(-1e-3)
    with pytest.raises(DomainError):
        meyerhoff_radius(ELL_MAX * 1.0001)


def test_radius_closed_form_against_root_solve():
    for ell in (1e-5, 1e-3, 0.01, 0.05, 0.09, 0.105, ELL_MAX - 2e-6):
        assert meyerhoff_radius(ell) == pytest.approx(
            radius_by_root_solve(ell), rel=1e-12, abs=1e-13
        )


def test_radius_example_and_small_length_anchor():
    # mpmath-frozen value for ell = 0.01.
    assert meyerhoff_radius(0.01) == pytest.approx(1.9827241630705441, rel=1e-12)
    # ell * sinh^2(R_ell) -> sqrt(3)/(4 pi) as ell -> 0.
    R = meyerhoff_radius(1e-5)
    assert 1e-5 * math.sinh(R) ** 2 == pytest.approx(SQRT3_OVER_4PI, rel=1e-3)


def test_compensated_branch_matches_direct_branch_in_overlap():
    # Just inside and outside the 1e-6 switchover window.
    for ell in (ELL_MAX - 9.9e-7, ELL_MAX - 1.01e-6, ELL_MAX - 5e-7):
        assert meyerhoff_radius(ell) == pytest.approx(
            radius_by_root_solve(ell), rel=1e-9, abs=1e-12
        )


def test_radius_strictly_decreasing():
    ells = np.geomspace(1e-6, ELL_MAX, 60)
    rs = [meyerhoff_radius(float(e)) for e in ells]
    assert all(a > b for a, b in zip(rs, rs[1:]))


def test_slice_area_examples():
    assert slice_area(0.3, 0.0) == 0.0
    R = meyerhoff_radius(0.01)
    assert slice_area(0.01, R) == pytest.approx(0.8282015940681025, rel=1e-12)
    # Area of the boundary torus approaches sqrt(3)/2 for short geodesics.
    for ell, rtol in ((1e-4, 1e-2), (1e-5, 1e-3), (1e-6, 1e-4)):
        a = slice_area(ell, meyerhoff_radius(ell))
        assert a == pytest.approx(math.sqrt(3.0) / 2.0, rel=rtol)


def test_slice_area_increasing_in_radius():
    rs = np.linspace(0.0, 4.0, 40)
    areas = [slice_area(0.02, float(r)) for r in rs]
    assert all(a < b for a, b in zip(areas, areas[1:]))


def test_slice_mean_curvature():
    assert slice_mean_curvature(20.0) == pytest.approx(1.0, abs=1e-12)
    assert slice_mean_curvature(1.0) == pytest.approx(1.0373147207275481, rel=1e-12)
    assert slice_mean_curvature(0.1) == pytest.approx(5.066489563439473, rel=1e-12)
    with pytest.raises(DomainError):
        slice_mean_curvature(0.0)
    # Identity (tanh r + coth r)/2 = coth(2r); >= 1 with the infimum at
    # the far end of any grid.
    rs = np.linspace(0.1, 20.0, 200)
    vals = np.array([slice_mean_curvature(float(r)) for r in rs])
    assert np.all(vals >= 1.0)
    assert vals[-1] == vals.min()  # infimum at the right endpoint
    for r in (0.3, 1.7):
        assert slice_mean_curvature(r) == pytest.approx(
            math.cosh(2 * r) / math.sinh(2 * r), rel=1e-14
        )


def test_boundary_lattice_example():
    R = meyerhoff_radius(0.01)
    p = TubeParams(length=0.01, twist=0.0, radius=R)
    lat = boundary_lattice(p, R)
    assert lat.a1 == pytest.approx(22.383240295682068, rel=1e-12)
    assert abs(lat.a2) <= 1e-12
    assert lat.b2 == pytest.approx(0.037000969615103947, rel=1e-12)
    # Zero twist always gives a rectangular lattice.
    p2 = TubeParams(length=0.05, twist=0.0, radius=0.5)
    lat2 = boundary_lattice(p2, 0.31)
    assert abs(lat2.a2) <= 1e-14


def test_boundary_lattice_area_equals_slice_area():
    rng = np.random.RandomState(5)
    for _ in range(20):
        ell = float(rng.uniform(0.001, 0.1))
        R = meyerhoff_radius(ell)
        p = TubeParams(ell, float(rng.uniform(-3, 3)), R)
        r = float(rng.uniform(0.1, 1.0)) * R
        lat = boundary_lattice(p, r)
        assert lat.area == pytest.approx(slice_area(ell, r), rel=1e-12)


def test_tube_params_validation():
    with pytest.raises(DomainError):
        TubeParams(0.2, 0.0, 0.5)  # length above threshold
    with pytest.raises(DomainError):
        TubeParams(0.01, 0.0, 5.0)  # radius above the embedded guarantee


@pytest.mark.parametrize("name", ["length", "twist", "radius"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tube_params_reject_nonfinite(name, value):
    args = {"length": 0.01, "twist": 0.0, "radius": 1.0}
    args[name] = value
    with pytest.raises(DomainError, match=f"tube {name} must be finite"):
        TubeParams(**args)


def test_tube_as_warped_coefficients():
    p = TubeParams(0.001, 0.3, 3.0)
    spec = tube_as_warped(p)
    R = 3.0
    G0 = spec.coefficient_matrix(0.0, 0.0, 0.0)
    assert G0[0, 0] == pytest.approx(math.sinh(R) ** 2, rel=1e-14)
    assert G0[1, 1] == pytest.approx(math.cosh(R) ** 2, rel=1e-14)
    assert G0[2, 2] == 1.0
    assert float(spec.warping(0.0)) == pytest.approx(1.0, rel=1e-14)

    p5 = TubeParams(1e-5, 0.0, 5.0)
    spec5 = tube_as_warped(p5)
    G = spec5.coefficient_matrix(0.0, 0.0, 4.0)  # t = R - 1
    assert G[0, 0] == pytest.approx(math.sinh(1.0) ** 2, rel=1e-13)
    assert G[1, 1] == pytest.approx(math.cosh(1.0) ** 2, rel=1e-13)
    # Coefficients at depth t match the tube metric at r = R - t.
    for t in np.linspace(0.0, 4.5, 12):
        G = spec5.coefficient_matrix(0.0, 0.0, float(t))
        assert G[0, 0] == pytest.approx(math.sinh(5.0 - t) ** 2, rel=1e-13)
        assert G[1, 1] == pytest.approx(math.cosh(5.0 - t) ** 2, rel=1e-13)


def test_cusp_as_warped_scaling():
    lat = FlatTorusLattice.unit_square()
    spec = cusp_as_warped(CuspParams(lat, 0.0, 4.0))
    # Slice systole scales by exp(-t): unit square at t = ln 2 -> 1/2.
    t = math.log(2.0)
    scale = float(spec.a1(t))
    assert scale * systole(lat) == pytest.approx(0.5, rel=1e-14)
    # Slice area scales by exp(-2t).
    G = spec.coefficient_matrix(0.0, 0.0, 1.0)
    assert math.sqrt(G[0, 0] * G[1, 1]) * lat.area == pytest.approx(
        math.exp(-2.0), rel=1e-13
    )


def test_cusp_thin_part_scaling_sandwich():
    # Systole ratio delta(t) of cusp slices satisfies
    # exp(-2t) <= delta(t) <= exp(-t/2) on [0, 4], equality on the left at 0.
    lat = FlatTorusLattice.unit_square()
    spec = cusp_as_warped(CuspParams(lat, 0.0, 4.0))
    base = systole(lat)
    for t in np.linspace(0.0, 4.0, 33):
        delta = float(spec.a1(t)) * base / base
        assert math.exp(-2.0 * t) <= delta * (1 + 1e-12)
        assert delta <= math.exp(-0.5 * t) * (1 + 1e-12)
