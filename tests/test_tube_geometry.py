import math
from decimal import Decimal

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import meyerhoff_radius_decimal
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


def test_radius_whose_sinh_squared_overflows_names_the_length():
    # sinh^2 R ~ sqrt(3) / (4 pi ell) leaves the float range below
    # ell ~ 7.7e-310, where R itself would be about 355.6.
    for ell in (5e-324, 1e-315, 7e-310):
        with pytest.raises(DomainError, match=f"^geodesic length = {ell!r} overflows sinh\\^2 R$"):
            meyerhoff_radius(ell)
    # Just above, R has every digit: it depends on ell through its log.
    for ell in (8e-310, 1e-309):
        exact = float(meyerhoff_radius_decimal(ell))
        assert meyerhoff_radius(ell) == pytest.approx(exact, rel=1e-15)


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


def test_radius_against_decimal_oracle_down_to_the_threshold():
    # Relative error against the 50-digit closed form: at most 2e-15 on
    # 1000 lengths from 1e-300 to 0.07, where the condition number
    # kappa = ell / (2 (ELL_MAX - ell)) of ell -> R is at most 1.  Nearer
    # the threshold R ~ sqrt(ELL_MAX - ell), and the rounding of the float
    # constants ELL_MAX and 4 pi / sqrt 3 (about 1e-17) is amplified by
    # kappa, so the bound there is 2e-15 kappa: on 400 lengths from 0.07
    # to 1e-6 below ELL_MAX, where 1 - sinh y would cancel.
    near = np.concatenate([np.linspace(0.07, ELL_MAX - 1e-3, 200),
                           ELL_MAX - np.geomspace(1e-3, 1e-6, 200)])
    for ell in np.concatenate([np.geomspace(1e-300, 0.07, 1000), near]).tolist():
        exact = meyerhoff_radius_decimal(ell)
        error = float(abs((Decimal(meyerhoff_radius(ell)) - exact) / exact))
        assert error <= 2e-15 * max(1.0, ell / (2.0 * (ELL_MAX - ell))), ell


def test_radius_nonincreasing_up_to_the_threshold_where_it_is_plus_zero():
    ells = np.concatenate([
        np.geomspace(1e-300, ELL_MAX, 4000),
        np.linspace(ELL_MAX - 1e-3, ELL_MAX, 20001),
        ELL_MAX - np.arange(4000)[::-1] * np.spacing(ELL_MAX),  # the last floats
    ])
    rs = np.array([meyerhoff_radius(ell) for ell in np.unique(ells).tolist()])
    assert np.all(np.diff(rs) <= 0.0)
    assert math.copysign(1.0, meyerhoff_radius(ELL_MAX)) == 1.0 and rs[-1] == 0.0


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_slice_area_rejects_nonfinite(value):
    with pytest.raises(DomainError, match="geodesic length must be finite"):
        slice_area(value, 1.0)
    with pytest.raises(DomainError, match="radius must be finite"):
        slice_area(0.1, value)


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_slice_mean_curvature_and_boundary_lattice_reject_nonfinite(value):
    with pytest.raises(DomainError, match="radius must be finite"):
        slice_mean_curvature(value)
    with pytest.raises(DomainError, match="radius must be finite"):
        boundary_lattice(TubeParams(0.01, 0.0, 1.0), value)


@pytest.mark.parametrize("name", ["t0", "t1"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cusp_params_reject_nonfinite(name, value):
    args = {"lattice": FlatTorusLattice.unit_square(), "t0": 0.0, "t1": 3.0}
    args[name] = value
    with pytest.raises(DomainError, match=f"{name} must be finite"):
        CuspParams(**args)


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


def test_tube_params_from_json_dict():
    assert TubeParams.from_json_dict({"length": 0.01}) == TubeParams(
        0.01, 0.0, meyerhoff_radius(0.01))
    assert TubeParams.from_json_dict(
        {"length": 0.01, "twist": 0.3, "radius": 1}) == TubeParams(0.01, 0.3, 1.0)
    for name, value in (("length", "x"), ("twist", [1]), ("radius", "1.0")):
        data = {"length": 0.01, name: value}
        with pytest.raises(DomainError, match=name):
            TubeParams.from_json_dict(data)


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
