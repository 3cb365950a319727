import json
import math

import numpy as np
import pytest

from thinpart import DomainError
from thinpart.filler import (
    area_lower_bound,
    as_warped,
    build,
    core_chart_metric,
    from_json_dict,
    mean_convexity,
    metric_at,
    slice_area,
    slice_lattice,
    to_json_dict,
    verify,
)
from thinpart.flat_torus import FlatTorusLattice, diameter, systole
from thinpart.warped_metric import check_hypotheses, level_torus_mean_curvature

from oracles import random_lattice

UNIT = FlatTorusLattice.unit_square()


def test_build_rejects_shallow_depth():
    with pytest.raises(DomainError):
        build(10.0, UNIT)
    with pytest.raises(DomainError):
        build(5.0, UNIT)


@pytest.mark.parametrize("depth", [math.nan, math.inf, -math.inf])
def test_build_rejects_nonfinite_depth(depth):
    with pytest.raises(DomainError, match="filler depth must be finite"):
        build(depth, UNIT)


def test_profile_head_is_identity():
    spec = build(20.0, UNIT)
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert float(spec.f(t)) == t
    assert float(spec.f(0.5)) == 0.5


def test_profile_cap_and_tail_flatness():
    spec = build(20.0, UNIT)
    tt = np.linspace(0.0, 21.0, 2001)
    assert float(np.max(spec.f(tt))) <= 3.0
    # f' > 0 everywhere, and vanishes on [L + 2/3, L + 1] to ramp tolerance.
    assert float(np.min(spec.f.d1(tt))) > 0.0
    assert float(spec.f.d1(20.9)) == pytest.approx(0.0, abs=1e-6)
    # f' and f'' bounded independently of the depth.
    sup_fp = {}
    sup_fpp = {}
    for L in (12.0, 20.0, 35.0):
        s = build(L, UNIT)
        tt = np.linspace(0.0, L + 1.0, 4001)
        sup_fp[L] = float(np.max(np.abs(s.f.d1(tt))))
        sup_fpp[L] = float(np.max(np.abs(s.f.d2(tt))))
    assert max(sup_fp.values()) <= 1.0 + 1e-12
    assert max(sup_fpp.values()) <= 1.0
    assert max(sup_fpp.values()) == pytest.approx(min(sup_fpp.values()), rel=1e-3)


def test_profile_c2_continuity_at_knots():
    # No jumps in the value or first two derivatives: across each knot,
    # the change over a 2*eps window is bounded by the next derivative's
    # piecewise bound; a genuine C^2 failure would show as an O(scale)
    # jump instead.
    spec = build(15.0, UNIT)
    eps = 1e-9
    f = spec.f
    for order, bound in ((0, 1.0), (1, 1.0), (2, 2.0)):
        fn = (f, f.d1, f.d2)[order]
        gap = abs(float(fn(1.0 - eps)) - float(fn(1.0 + eps)))
        assert gap <= 2.5 * bound * eps + 1e-15, order

    eta = spec.eta
    K = eta.K
    w = min(eta.x1 - eta.x0, eta.x2 - eta.x1)
    scales = (K, 1.875 * K / w, 5.8 * K / w**2)  # |eta'|, |eta''|, |eta'''|
    for knot in (eta.x0, eta.x1, eta.x2):
        for order in (0, 1, 2):
            fn = (eta, eta.d1, eta.d2)[order]
            gap = abs(float(fn(knot - eps)) - float(fn(knot + eps)))
            assert gap <= 2.5 * scales[order] * eps + 1e-13, (knot, order)


def test_eta_endpoint_and_tail_slope():
    spec = build(20.0, UNIT)
    eta = spec.eta
    K_expected = 2.0 * math.pi * math.exp(spec.core_height) / UNIT.a1
    assert float(eta(1.0)) == 0.0
    assert float(eta.d1(1.0)) == pytest.approx(-K_expected, rel=1e-12)
    xs = np.linspace(0.0, 1.0, 801)
    vals = np.asarray(eta(xs))
    assert np.all(np.diff(vals) <= 1e-15)  # nonincreasing
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    assert np.all(vals[xs <= 0.01] == 1.0)  # = 1 near 0
    mid = (xs >= 0.5) & (xs <= 1.0)
    assert np.all(np.diff(vals[mid]) < 0.0)  # decreasing on [1/2, 1]


def test_metric_collar_and_continuity():
    spec = build(20.0, UNIT)
    for t in np.linspace(0.0, 0.999, 17):
        g = metric_at(spec, (0.4, -0.7, float(t)))
        assert g == (np.exp(-2 * t), np.exp(-2 * t), 1.0)
    below = metric_at(spec, (0.0, 0.0, 20.0 - 1e-12))
    at = metric_at(spec, (0.0, 0.0, 20.0))
    for b, a in zip(below, at):
        assert abs(b - a) <= 1e-10 * max(1.0, abs(b))
    with pytest.raises(DomainError):
        metric_at(spec, (0.0, 0.0, 21.0))


def test_verify_flat_levels_fails_on_a_perturbed_metric(monkeypatch):
    # g11 off by 1e-9 relative past the collar: the metric no longer
    # agrees with its warped form, while the collar check still holds.
    from thinpart import filler

    exact = filler.metric_at

    def perturbed(spec, point):
        g11, g22, g33 = exact(spec, point)
        return g11 * np.where(np.asarray(point[2]) >= 1.0, 1.0 + 1e-9, 1.0), g22, g33

    spec = build(20.0, UNIT)
    monkeypatch.setattr(filler, "metric_at", perturbed)
    report = verify(spec, grid=50)
    assert not report.flat_levels and not report.passed
    assert report.boundary_collar_exact


def test_core_chart_example_at_rho_001():
    spec = build(20.0, UNIT)
    g_theta, g_zz, g_rr = core_chart_metric(spec, 0.01)
    assert g_theta == pytest.approx(0.01**2, rel=1e-3)
    assert g_rr == 1.0
    assert g_zz == pytest.approx(math.exp(-2.0 * spec.core_height), rel=1e-9)


def test_verify_unit_square_L20():
    spec = build(20.0, UNIT)
    report = verify(spec, grid=200)
    assert report.flat_levels
    assert report.diameters_strictly_decreasing
    assert report.mean_convex
    assert report.boundary_collar_exact
    assert report.continuous_at_collar
    assert report.profile_cap <= 3.0
    assert report.ramp_flatness_sup <= 1e-9
    # Smoothness residuals: cubic in rho for the angular coefficient,
    # linear for the longitudinal one.
    assert abs(report.core_theta_slope - 3.0) <= 0.2
    assert abs(report.core_z_slope - 1.0) <= 0.2
    assert report.core_theta_constant <= 1e-6
    assert report.core_z_constant <= 1e-6
    assert report.passed


def test_verify_monotone_diameters_random_lattices():
    rng = np.random.RandomState(23)
    count = 0
    while count < 20:
        lat = random_lattice(rng, min_quality=0.2)
        spec = build(float(rng.uniform(11.0, 20.0)), lat)
        ts = np.linspace(0.0, spec.depth + 1.0, 60, endpoint=False)
        diams = [diameter(slice_lattice(spec, float(t))) for t in ts]
        assert all(a > b for a, b in zip(diams, diams[1:])), lat
        count += 1


def test_slice_quantities():
    spec = build(12.0, UNIT)
    # Below the collapse collar the scaling is isotropic exp(-f).
    t = 3.0
    lat_t = slice_lattice(spec, t)
    scale = math.exp(-float(spec.f(t)))
    assert systole(lat_t) == pytest.approx(scale * systole(UNIT), rel=1e-12)
    assert slice_area(spec, t) == pytest.approx(scale**2 * UNIT.area, rel=1e-12)
    # Slice areas never exceed the boundary torus area and decrease.
    ts = np.linspace(0.0, 13.0, 400, endpoint=False)
    areas = np.array([slice_area(spec, float(x)) for x in ts])
    assert float(areas[0]) == pytest.approx(UNIT.area, rel=1e-12)
    assert np.all(np.diff(areas) < 0.0)
    assert np.all(areas <= UNIT.area + 1e-12)


def test_mean_convexity_matches_warped_machinery():
    spec = build(14.0, UNIT)
    warped = as_warped(spec)
    for t in (0.5, 5.0, 13.5, 14.2):
        direct = mean_convexity(spec, t)
        assert direct > 0.0
        via_spec = level_torus_mean_curvature(warped, t)
        assert via_spec == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("t", [15.0, 16.0, -1.0, math.nan,
                               np.array([0.5, 15.0]), np.array([-1e-9, 3.0])])
def test_mean_convexity_rejects_depths_outside_the_filler(t):
    message = "depth t must be finite" if np.isnan(t).any() else "0 <= t < L"
    with pytest.raises(DomainError, match=message):
        mean_convexity(build(14.0, UNIT), t)


def test_filler_warped_spec_hypotheses():
    spec = build(14.0, UNIT)
    warped = as_warped(spec)
    rep = check_hypotheses(warped, grid=(8, 8, 40))
    assert rep.h_monotone
    assert rep.mean_convex
    # On the isotropic body g = reference, so H1 stays 1 until the
    # collapse collar.
    assert rep.a_h1 < 1.5
    assert rep.h2_ratios[0] <= 1.0 + 1e-9  # |f'| <= 1


def test_area_lower_bound_unit_square_L20():
    spec = build(20.0, UNIT)
    ab = area_lower_bound(spec)
    # Chain evaluated by hand: rho0 = 1/2, spacing 2 exp(-3),
    # n0 = floor(18 / 0.0995741...) = 180, bound = 181 pi exp(-6) / 4.
    assert ab.ball_radius_scale == 0.5
    assert ab.ball_count == 180
    expected = 181 * math.pi * math.exp(-6.0) * 0.25
    assert ab.bound == pytest.approx(expected, abs=1e-12)
    assert ab.bound == pytest.approx(0.35237214067988453, rel=1e-9)
    assert ab.kappa == pytest.approx(expected / 20.0, rel=1e-12)


def test_area_lower_bound_scaling_and_saturation():
    spec20 = build(20.0, UNIT)
    spec40 = build(40.0, UNIT)
    k20 = area_lower_bound(spec20).kappa
    k40 = area_lower_bound(spec40).kappa
    assert abs(k40 - k20) / k20 < 0.10  # near-linear growth in depth
    # rho0 saturates at 1 once the systole reaches 2.
    big = build(20.0, FlatTorusLattice(3.0, 0.0, 3.0))
    bigger = build(20.0, FlatTorusLattice(5.0, 0.0, 5.0))
    assert area_lower_bound(big).bound == area_lower_bound(bigger).bound
    # Monotone nondecreasing in depth and systole.
    small = build(20.0, FlatTorusLattice(0.5, 0.0, 0.5))
    assert area_lower_bound(small).bound <= area_lower_bound(big).bound
    assert area_lower_bound(spec20).bound <= area_lower_bound(spec40).bound
    # Custom monotonicity constant is passed through.
    assert area_lower_bound(spec20, 1.0).bound == pytest.approx(
        area_lower_bound(spec20).bound / math.pi, rel=1e-12
    )


def test_slice_functions_take_arrays_of_depths():
    spec = build(14.0, FlatTorusLattice(1.3, 0.2, 0.9))
    ts = np.linspace(0.0, 15.0, 61, endpoint=False)
    g11, g22, g33 = metric_at(spec, (0.0, 0.0, ts))
    areas = slice_area(spec, ts)
    for k, t in enumerate(ts.tolist()):
        assert (g11[k], g22[k], g33) == metric_at(spec, (0.0, 0.0, t))
        assert areas[k] == slice_area(spec, t)
    rho = np.geomspace(1e-3, 1.0, 17)
    chart = core_chart_metric(spec, rho)
    for k, r in enumerate(rho.tolist()):
        assert (chart[0][k], chart[1][k], chart[2]) == core_chart_metric(spec, r)
    with pytest.raises(DomainError, match="got t = 15.0"):
        slice_area(spec, np.array([1.0, 15.0, 16.0]))


@pytest.mark.parametrize("t", ["0.5", None, True, ["0.5"], [0.5, None]],
                         ids=["string", "none", "bool", "string_list", "none_entry"])
@pytest.mark.parametrize("evaluate", [
    lambda spec, t: metric_at(spec, (0.0, 0.0, t)),
    slice_area,
    mean_convexity,
], ids=["metric_at", "slice_area", "mean_convexity"])
def test_depths_must_be_real_numbers(evaluate, t):
    # A string depth used to be read as the number it spells.
    spec = build(12.0, UNIT)
    with pytest.raises(DomainError, match="depth t must be a rectangular array of real numbers"):
        evaluate(spec, t)


def test_json_round_trip_bit_identical(tmp_path):
    spec = build(17.0, FlatTorusLattice(1.3, 0.2, 0.9))
    data = json.loads(json.dumps(to_json_dict(spec)))
    again = from_json_dict(data)
    ts = np.linspace(0.0, 18.0, 500, endpoint=False)
    assert np.array_equal(np.asarray(spec.f(ts)), np.asarray(again.f(ts)))
    xs = np.linspace(0.0, 1.0, 500)
    assert np.array_equal(np.asarray(spec.eta(xs)), np.asarray(again.eta(xs)))
    assert area_lower_bound(spec).bound == area_lower_bound(again).bound
    # The Chebyshev mirror tracks the exact profile closely.
    cheb = np.polynomial.chebyshev.Chebyshev(
        data["chebyshev_mirror"]["f_interior"], domain=[1.0, 18.0]
    )
    mid = np.linspace(1.5, 17.5, 50)
    assert np.max(np.abs(cheb(mid) - np.asarray(spec.f(mid)))) < 1e-9


def test_json_round_trip_random_fillers():
    # Reading rebuilds through build, which must give back the stored
    # profile parameters exactly, or the file would be rejected.
    rng = np.random.RandomState(41)
    for _ in range(200):
        lat = random_lattice(rng, min_quality=0.2)
        spec = build(float(rng.uniform(10.0, 40.0)) + 1e-9, lat)
        data = json.loads(json.dumps(to_json_dict(spec)))
        again = from_json_dict(data)
        assert (again.depth, again.lattice) == (spec.depth, spec.lattice)
        assert (again.eta.K, again.eta.tail, again.eta.corner_width) == (
            spec.eta.K, spec.eta.tail, spec.eta.corner_width)


def _spoiled(key, value):
    data = json.loads(json.dumps(to_json_dict(build(14.0, UNIT))))
    if key in data:
        data[key] = value
    else:
        data["collapse"][key] = value
    return data


@pytest.mark.parametrize("key,value,message", [
    ("depth", 3.0, "filler depth must exceed 10"),
    ("depth", math.nan, "filler depth must be finite"),
    ("depth", "abc", "malformed filler JSON"),
    ("depth", [14.0], "malformed filler JSON"),
    ("format", "thinpart-filler v0", "unknown filler format"),
    ("lattice", {"v1": [1.0, 0.0]}, "lattice JSON needs"),
    ("ramp_scale", 0.5, "differ from the rebuilt"),
    ("slope", 1.0, "differ from the rebuilt"),
    ("tail", 0.5, "differ from the rebuilt"),
    ("corner_width", "abc", "differ from the rebuilt"),
])
def test_from_json_dict_rejects_bad_or_disagreeing_values(key, value, message):
    with pytest.raises(DomainError, match=message):
        from_json_dict(_spoiled(key, value))


@pytest.mark.parametrize("key,value,field", [
    ("depth", "abc", "depth"),
    ("lattice", {"v1": ["x", 0.0], "v2": [0.0, 1.0]}, "lattice v1"),
])
def test_from_json_dict_names_a_non_numeric_field(key, value, field):
    # The lattice's generators are named by FlatTorusLattice.from_vectors.
    field = field.replace("lattice", "lattice generator")
    with pytest.raises(DomainError, match=f"{field} must be a"):
        from_json_dict(_spoiled(key, value))


def test_from_json_dict_rejects_missing_fields():
    data = to_json_dict(build(14.0, UNIT))
    for key in ("format", "depth", "lattice", "ramp_scale", "collapse"):
        partial = {k: v for k, v in data.items() if k != key}
        with pytest.raises(DomainError, match="malformed filler JSON"):
            from_json_dict(partial)
    with pytest.raises(DomainError, match="malformed filler JSON"):
        from_json_dict([])


def _richardson(g, t, h):
    """Central difference of g at t, Richardson-extrapolated: O(h^4)."""
    def central(step):
        return (np.asarray(g(t + step)) - np.asarray(g(t - step))) / (2.0 * step)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def test_as_warped_a1_derivatives_closed_form():
    spec = build(14.0, UNIT)
    a1 = as_warped(spec).a1
    L, eta = spec.depth, spec.eta
    # The smooth pieces of a1 = exp(-f) eta(t - L): the body, split at f's
    # knot t = 1 (eta = 1 up to L + x0), then eta's descent, corner and
    # linear tail.  The differences agree to <= 1.3e-7 of each piece's sup,
    # except on the tail, where a1 is nearly linear and the rounding of
    # a1' / h leaves 4.5e-6 of the small a1''; a wrong term is off by O(1).
    pieces = {
        "head": (0.0, 1.0),
        "body": (1.0, L + eta.x0),
        "descent": (L + eta.x0, L + eta.x1),
        "corner": (L + eta.x1, L + eta.x2),
        "tail": (L + eta.x2, L + 1.0),
    }
    orders = (a1, a1.d1, a1.d2, a1.d3)
    for name, (lo, hi) in pieces.items():
        width = hi - lo
        t = lo + width * np.linspace(0.2, 0.8, 7)
        for k in (1, 2, 3):
            exact = np.asarray(orders[k](t))
            approx = _richardson(orders[k - 1], t, min(width / 50.0, 1e-2))
            assert np.max(np.abs(exact - approx)) <= 1e-5 * np.max(np.abs(exact)), (name, k)


def test_as_warped_a1_d3_equals_a2_d3_before_collar():
    spec = build(14.0, UNIT)
    warped = as_warped(spec)
    t = np.linspace(0.0, np.nextafter(spec.depth, 0.0), 1001)
    assert np.array_equal(warped.a1.d3(t), warped.a2.d3(t))
    for s in t[::50]:
        assert warped.a1.d3(float(s)) == warped.a2.d3(float(s))
    assert warped.a2 is warped.warping
