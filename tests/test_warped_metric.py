import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from thinpart import DomainError
from thinpart.fields import Field1D
from thinpart.flat_torus import FlatTorusLattice
from thinpart.tube_geometry import (
    CuspParams,
    TubeParams,
    cusp_as_warped,
    slice_mean_curvature,
    tube_as_warped,
)
from thinpart.warped_metric import (
    CallableCoefficients,
    WarpedMetricSpec,
    blowup_rescale,
    check_hypotheses,
    level_torus_mean_curvature,
    n_p,
    spec_from_json,
)

from oracles import check_hypotheses_loop

UNIT = FlatTorusLattice.unit_square()


def test_n_p_examples_and_exhaustive():
    assert n_p(3, 3) == 0
    assert n_p(1, 2) == 2
    assert n_p(1, 2, 3, 1, 2) == 4
    for p in range(1, 6):
        for combo in itertools.product((1, 2, 3), repeat=p):
            assert n_p(*combo) == sum(1 for i in combo if i in (1, 2))
    with pytest.raises(DomainError):
        n_p(0, 1)


def test_cusp_hypotheses_exact_constants():
    spec = cusp_as_warped(CuspParams(UNIT, 0.0, 3.0))
    rep = check_hypotheses(spec, grid=16)
    assert rep.a_h1 == pytest.approx(1.0, rel=1e-12)
    assert rep.a_h2 == pytest.approx(1.0, rel=1e-12)
    assert rep.h2_ratios == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)
    # |d a_11| = 2 exp(-2t) = 2 h^2, and each further t-derivative doubles.
    assert rep.h3_ratios[0] == pytest.approx(1.0, rel=1e-12)
    assert rep.h3_ratios[1] == pytest.approx(2.0, rel=1e-12)
    assert rep.h3_ratios[2] == pytest.approx(4.0, rel=1e-12)
    assert rep.h3_ratios[3] == pytest.approx(8.0, rel=1e-12)
    assert math.isfinite(rep.a_h3)
    assert rep.h_monotone and rep.mean_convex


def test_flat_hypotheses():
    spec = WarpedMetricSpec.flat(UNIT, 0.0, 1.0)
    rep = check_hypotheses(spec, grid=8)
    assert rep.a_h1 == pytest.approx(1.0, rel=1e-14)
    assert rep.a_h2 == 0.0
    assert rep.h3_ratios[1:] == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
    assert rep.h_monotone and rep.mean_convex


def test_tube_hypotheses_h2_constant():
    # Normalized tube on [0, R - 1/2], R = 5: sup |h'|/h = coth(1/2)
    # attained at the right endpoint.
    p = TubeParams(1e-5, 0.0, 5.0)
    spec = tube_as_warped(p, margin=0.5, normalized=True)
    rep = check_hypotheses(spec, grid=16)
    assert rep.a_h2 == pytest.approx(2.1639534137386528, rel=1e-12)
    assert rep.h_monotone and rep.mean_convex
    # The normalized coordinates keep H1 moderate (g11 = h^2 exactly,
    # g22/h^2 = coth^2(R - t)).
    assert rep.a_h1 == pytest.approx(1.0 / math.tanh(0.5), rel=1e-12)


@pytest.mark.parametrize("grid", [(8, 8), (8, 8, 8, 8), "x", 8.5, True, math.nan],
                         ids=["two", "four", "string", "fraction", "bool", "nan"])
def test_check_hypotheses_rejects_a_malformed_grid(grid):
    with pytest.raises(DomainError, match="grid"):
        check_hypotheses(WarpedMetricSpec.flat(UNIT), grid=grid)


def test_check_hypotheses_reads_an_integral_float_grid():
    spec = WarpedMetricSpec.flat(UNIT)
    assert check_hypotheses(spec, grid=8.0) == check_hypotheses(spec, grid=8)
    assert check_hypotheses(spec, grid=[8.0, 9, 10]) == check_hypotheses(spec, grid=(8, 9, 10))


def test_check_hypotheses_rejects_bad_grid_and_indefinite():
    spec = WarpedMetricSpec.flat(UNIT)
    with pytest.raises(DomainError):
        check_hypotheses(spec, grid=4)
    bad = WarpedMetricSpec.diagonal(
        UNIT, 0.0, 1.0,
        a1=Field1D.constant(0.0),  # degenerate coefficient
        a2=Field1D.constant(1.0),
    )
    with pytest.raises(DomainError):
        check_hypotheses(bad, grid=8)


def test_level_torus_mean_curvature_values():
    flat = WarpedMetricSpec.flat(UNIT)
    assert level_torus_mean_curvature(flat, 0.5) == pytest.approx(0.0, abs=1e-15)

    cusp = cusp_as_warped(CuspParams(UNIT, 0.0, 4.0))
    for s in np.linspace(0.0, 4.0, 9):
        assert level_torus_mean_curvature(cusp, float(s)) == pytest.approx(
            1.0, rel=1e-13
        )

    p = TubeParams(1e-5, 0.0, 5.0)
    tube = tube_as_warped(p)
    assert level_torus_mean_curvature(tube, 4.0) == pytest.approx(
        slice_mean_curvature(1.0), rel=1e-12
    )


def test_level_torus_mean_curvature_matches_area_variation():
    # H = -(d/ds |T_s|) / (2 |T_s|); check by central differences.
    p = TubeParams(1e-5, 0.7, 5.0)
    specs = [
        tube_as_warped(p),
        cusp_as_warped(CuspParams(UNIT, 0.0, 3.0)),
    ]
    for spec in specs:
        for s in np.linspace(spec.x3_min + 0.3, spec.x3_max - 0.3, 7):
            s = float(s)
            eps = 1e-6

            def slice_area_at(t, spec=spec):
                G = spec.coefficient_matrix(0.0, 0.0, t)
                return math.sqrt(G[0, 0] * G[1, 1]) * spec.lattice.area

            fd = (slice_area_at(s + eps) - slice_area_at(s - eps)) / (2 * eps)
            expected = -fd / (2.0 * slice_area_at(s))
            assert level_torus_mean_curvature(spec, s) == pytest.approx(
                expected, rel=1e-6
            )


def test_level_torus_mean_curvature_rejects_nondiagonal():
    def fn(x1, x2, x3, axes):
        if axes:
            return np.zeros((3, 3))
        return np.array([[1.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 1.0]])

    spec = WarpedMetricSpec(
        UNIT, 0.0, 1.0, Field1D.constant(1.0), coefficients=CallableCoefficients(fn)
    )
    with pytest.raises(DomainError):
        level_torus_mean_curvature(spec, 0.5)


def test_blowup_flat_spec_is_flat():
    spec = WarpedMetricSpec.flat(UNIT, 0.0, 1.0)
    for lam in (0.2, 1.0, 7.5):
        res = blowup_rescale(spec, 0.5, lam)
        # Warping is identically 1 and the rescaled coefficients are
        # constant multiples of the identity block: still a flat spec.
        for y in np.linspace(res.x3_min, res.x3_max, 5):
            assert float(res.warping(y)) == pytest.approx(1.0, rel=1e-14)
            assert float(res.a1.d1(y)) == 0.0
            G = res.coefficient_matrix(0.0, 0.0, float(y))
            assert G[0, 0] == pytest.approx(lam**2, rel=1e-14)
            assert G[2, 2] == 1.0
        assert level_torus_mean_curvature(res, 0.0) == pytest.approx(0.0, abs=1e-15)
    # lam = 1/h(s) = 1 reproduces the spec exactly.
    res = blowup_rescale(spec, 0.25, 1.0)
    assert res.coefficient_matrix(0, 0, 0.1) == pytest.approx(np.eye(3))


def test_blowup_tube_normalized_first_coefficient_is_one():
    # Blow up the section of radius r_n = 10 by lambda = 1/h: the first
    # coefficient at y3 = 0 becomes (sinh r_n / sinh r_n)^2 = 1.
    p = TubeParams(1e-11, 0.0, 12.0)
    spec = tube_as_warped(p, normalized=True)
    s = 12.0 - 10.0
    lam = 1.0 / float(spec.warping(s))
    res = blowup_rescale(spec, s, lam)
    G = res.coefficient_matrix(0.0, 0.0, 0.0)
    assert G[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_blowup_tube_quarter_exponential_limit():
    # Horizontal stretching by exp(-r_n) at radius r_n = 10 lands on the
    # exp(2 rho)/4 model: the z-coefficient at y3 = 0 is
    # (cosh(10) exp(-10))^2 = 0.25000000103...
    p = TubeParams(1e-11, 0.0, 12.0)
    spec = tube_as_warped(p)  # a2(t) = cosh(R - t)
    s = 12.0 - 10.0
    res = blowup_rescale(spec, s, math.exp(-10.0))
    G = res.coefficient_matrix(0.0, 0.0, 0.0)
    assert G[1, 1] == pytest.approx(0.25000000103057681, rel=1e-12)
    assert abs(G[1, 1] - 0.25) < 1.1e-9


def test_blowup_cusp_h3_first_derivative_shrinks():
    # After blowing up at level s with lambda = 1/h(s), the measured
    # first-derivative comparison ratio equals the original one times
    # h(s) (the rescaling gains one factor of h(s)); it tends to 0 as
    # s grows.
    lat = UNIT
    spec = cusp_as_warped(CuspParams(lat, 0.0, 10.0))
    base = check_hypotheses(spec, grid=9).h3_ratios[1]
    assert base == pytest.approx(2.0, rel=1e-12)
    prev = math.inf
    for s in (2.0, 5.0, 8.0):
        lam = 1.0 / float(spec.warping(s))
        res = blowup_rescale(spec, s, lam)
        rep = check_hypotheses(res, grid=9)
        bound = base * float(spec.warping(s))
        assert rep.h3_ratios[1] <= bound * (1.0 + 1e-9)
        assert rep.h3_ratios[1] == pytest.approx(bound, rel=1e-9)
        assert rep.h3_ratios[1] < prev
        prev = rep.h3_ratios[1]
    # At s = 5 the bound is 2 exp(-5); with the hypothesis constant
    # normalized out, the decay factor is h(5) = exp(-5) = 6.74e-3.
    assert float(spec.warping(5.0)) == pytest.approx(6.737946999085467e-3, rel=1e-12)


def test_blowup_h1_invariance():
    # With the canonical factor lambda = 1/h(s), the H1 eigenvalue ratios
    # are pointwise invariant, so the measured constant on the image
    # window equals the original constant on the source window.
    p = TubeParams(1e-5, 0.4, 5.0)
    spec = tube_as_warped(p, normalized=True)
    s = 2.0
    lam = 1.0 / float(spec.warping(s))
    res = blowup_rescale(spec, s, lam)
    rep_res = check_hypotheses(res, grid=16)
    rep_src = check_hypotheses(spec, grid=16)
    assert rep_res.a_h1 == pytest.approx(rep_src.a_h1, rel=1e-10)


def test_blowup_domain_errors():
    spec = WarpedMetricSpec.flat(UNIT)
    with pytest.raises(DomainError):
        blowup_rescale(spec, 5.0, 1.0)  # s outside the interval
    with pytest.raises(DomainError):
        blowup_rescale(spec, 0.5, -1.0)


def test_spec_json_round_trip():
    data = {
        "kind": "cusp",
        "lattice": {"v1": [1.0, 0.0], "v2": [0.25, 2.0]},
        "interval": [0.5, 3.5],
    }
    spec = spec_from_json(data)
    assert spec.kind == "cusp"
    assert spec.x3_min == 0.5 and spec.x3_max == 3.5
    assert float(spec.warping(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-14)

    tube = spec_from_json({"kind": "tube", "length": 0.01, "twist": 0.1})
    assert tube.kind == "tube"
    G = tube.coefficient_matrix(0, 0, 0.0)
    R = 1.9827241630705441
    assert G[0, 0] == pytest.approx(math.sinh(R) ** 2, rel=1e-10)

    with pytest.raises(DomainError):
        spec_from_json({"kind": "nope"})


_UNIT_JSON = {"v1": [1.0, 0.0], "v2": [0.0, 1.0]}


@pytest.mark.parametrize("data,message", [
    ({"kind": "flat", "lattice": _UNIT_JSON, "interval": [0, "x"]},
     "interval must be a list of numbers"),
    ({"kind": "cusp", "lattice": _UNIT_JSON, "interval": [0.5]},
     "interval must be a list of 2 numbers"),
    ({"kind": "tube", "length": "0.01"}, "length must be a number"),
    ({"kind": "tube", "length": 0.01, "radius": None}, "radius must be a number"),
    ({"kind": "custom", "lattice": _UNIT_JSON,
      "samples": {"x3": [0, 1, 2, "x"], "a1": [1] * 4, "a2": [1] * 4, "h": [1] * 4}},
     "samples x3 must be a list of numbers"),
])
def test_spec_from_json_names_a_non_numeric_field(data, message):
    with pytest.raises(DomainError, match=message):
        spec_from_json(data)


@pytest.mark.parametrize("data,message", [
    ({"kind": "flat", "interval": [0, 1]}, "flat metric descriptor: missing field 'lattice'"),
    ({"kind": "cusp"}, "cusp metric descriptor: missing field 'lattice'"),
    ({"kind": "custom"}, "custom metric descriptor: missing field 'lattice', 'samples'"),
    ({"kind": "custom", "lattice": _UNIT_JSON},
     "custom metric descriptor: missing field 'samples'"),
    ({"kind": "custom", "lattice": _UNIT_JSON, "samples": [[0, 1, 2, 3]]},
     r"bad field value: samples must be a JSON object, got \[\[0, 1, 2, 3\]\]"),
    ({"kind": "custom", "lattice": _UNIT_JSON, "samples": "x3"},
     "bad field value: samples must be a JSON object, got 'x3'"),
    ({"kind": "custom", "lattice": _UNIT_JSON,
      "samples": {"x3": [0, 1, 2, 3], "a1": [1] * 4, "a2": [1] * 4}},
     "samples: missing field 'h'"),
    ({"kind": "custom", "lattice": _UNIT_JSON, "samples": {"a2": [1] * 4}},
     "samples: missing field 'x3', 'a1', 'h'"),
    ({"kind": "custom", "lattice": _UNIT_JSON,
      "samples": {"x3": [0, 1, 2, 3], "a1": [1] * 4, "a2": [1] * 4,
                  "h": [1, 1, math.inf, 1]}},
     "samples h must be finite"),
    ({"kind": "custom", "lattice": _UNIT_JSON,
      "samples": {"x3": [], "a1": [], "a2": [], "h": []}},
     "need matching 1-d sample arrays with >= 4 points"),
])
def test_spec_from_json_names_a_missing_or_malformed_field(data, message):
    with pytest.raises(DomainError, match=message):
        spec_from_json(data)


@pytest.mark.parametrize("normalized", [True, False])
def test_spec_from_json_reads_normalized_as_a_json_bool(normalized):
    spec = spec_from_json({"kind": "tube", "length": 0.01, "normalized": normalized})
    R = 1.9827241630705441
    scale = math.sinh(R) if normalized else 1.0
    assert spec.lattice.a1 == pytest.approx(2.0 * math.pi * scale, rel=1e-12)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
def test_spec_from_json_rejects_a_normalized_that_is_not_a_bool(value):
    # bool("false") is True: a string would build the normalized tube.
    with pytest.raises(DomainError, match="normalized must be true or false"):
        spec_from_json({"kind": "tube", "length": 0.01, "normalized": value})


@pytest.mark.parametrize("bad", [["0", "1", "2", "3"], None, [True, True, True, True],
                                 [1.0, "1", 1.0, 1.0]],
                         ids=["strings", "none", "bools", "string_entry"])
@pytest.mark.parametrize("name", ["x3", "a1", "a2", "h"])
def test_from_sampled_rejects_non_numeric_samples(name, bad):
    samples = {"x3": [0.0, 1.0, 2.0, 3.0], "a1": [1.0] * 4, "a2": [1.0] * 4, "h": [1.0] * 4}
    samples[name] = bad
    with pytest.raises(DomainError, match=f"{name} samples must be a rectangular array"):
        WarpedMetricSpec.from_sampled(UNIT, samples["x3"], samples["a1"], samples["a2"],
                                      samples["h"])


def test_sampled_spec_tracks_closed_form():
    # Spline-backed cusp: coefficients and first two derivatives follow
    # the closed form away from the sample boundary.
    ts = np.linspace(0.0, 3.0, 400)
    spec = WarpedMetricSpec.from_sampled(
        UNIT, ts, np.exp(-ts), np.exp(-ts), np.exp(-ts)
    )
    for t in (0.5, 1.2, 2.4):
        assert float(spec.a1(t)) == pytest.approx(math.exp(-t), rel=1e-8)
        assert float(spec.a1.d1(t)) == pytest.approx(-math.exp(-t), rel=1e-5)
        assert float(spec.a1.d2(t)) == pytest.approx(math.exp(-t), rel=1e-3)


# ------------------------------------------- batched vs per-point reference

SHEAR = np.array([[1.0, 0.3], [0.3, 1.0]])


def _sheared_cusp(t1=3.0):
    def fn(x1, x2, x3, axes):
        out = np.zeros((3, 3))
        if any(a != 3 for a in axes):
            return out
        out[:2, :2] = (-2.0) ** len(axes) * math.exp(-2.0 * x3) * SHEAR
        out[2, 2] = 1.0 if not axes else 0.0
        return out

    return WarpedMetricSpec(
        FlatTorusLattice(1.0, 0.2, 1.1), 0.0, t1, Field1D.exp_decay(),
        coefficients=CallableCoefficients(fn),
    )


def _modulated_cusp():
    """The sheared cusp with its horizontal block scaled by 1 + sin(x1)/2:
    its coefficients, unlike the others here, vary along the torus."""

    def fn(x1, x2, x3, axes):
        out = np.zeros((3, 3))
        if 2 in axes:
            return out
        p = axes.count(1)
        wave = (p == 0) + 0.5 * math.sin(x1 + p * math.pi / 2)
        out[:2, :2] = (-2.0) ** axes.count(3) * math.exp(-2.0 * x3) * wave * SHEAR
        out[2, 2] = 1.0 if not axes else 0.0
        return out

    return WarpedMetricSpec(
        FlatTorusLattice(1.0, 0.2, 1.1), 0.0, 3.0, Field1D.exp_decay(),
        coefficients=CallableCoefficients(fn),
    )


def _equivalence_specs():
    sheared = _sheared_cusp()
    cusp = cusp_as_warped(CuspParams(FlatTorusLattice(1.05, -0.1, 0.9), 0.0, 3.0))
    tube = tube_as_warped(TubeParams(1e-5, 0.3, 5.0), margin=0.5)
    return {
        "sheared": sheared,
        "modulated": _modulated_cusp(),
        "cusp": cusp,
        "tube": tube,
        "blowup_sheared": blowup_rescale(sheared, 1.2, 2.5),
        "blowup_tube": blowup_rescale(tube, 2.0, 1.0 / float(tube.warping(2.0))),
    }


@pytest.mark.parametrize("name", sorted(_equivalence_specs()))
def test_check_hypotheses_matches_per_point_reference(name):
    spec = _equivalence_specs()[name]
    for grid in (8, 11):
        assert check_hypotheses(spec, grid=grid) == check_hypotheses_loop(spec, grid)


def _failing_spec(bad):
    """Non-diagonal spec whose coefficient matrix is diag(1, 1, c(x3))."""

    def fn(x1, x2, x3, axes):
        if axes:
            return np.zeros((3, 3))
        return np.diag([1.0, 1.0, bad(x3)])

    return WarpedMetricSpec(
        UNIT, 0.0, 2.0, Field1D.constant(1.0), coefficients=CallableCoefficients(fn)
    )


def test_check_hypotheses_names_first_failing_point_like_reference():
    # Non-positive-definite from x3 = 1 onward: the first failing sample
    # in sample order is (0, 0, 8/7), and both evaluations name it.
    spec = _failing_spec(lambda t: 1.0 - t)
    with pytest.raises(DomainError) as batched:
        check_hypotheses(spec, grid=8)
    with pytest.raises(DomainError) as looped:
        check_hypotheses_loop(spec, 8)
    assert str(batched.value) == str(looped.value)
    assert str(batched.value) == (
        f"coefficient matrix not positive definite at {(0.0, 0.0, 8.0 / 7.0)}"
    )

    # An earlier point failing a later check still wins.
    def fn(x1, x2, x3, axes):
        if axes:
            return np.zeros((3, 3))
        G = np.eye(3)
        if x3 > 1.5:
            G[0, 1] = 0.5  # not symmetric, but only from x3 = 12/7 on
        if x3 > 0.5:
            G[2, 2] = -1.0
        return G

    spec = WarpedMetricSpec(
        UNIT, 0.0, 2.0, Field1D.constant(1.0), coefficients=CallableCoefficients(fn)
    )
    with pytest.raises(DomainError, match="positive definite") as batched:
        check_hypotheses(spec, grid=8)
    with pytest.raises(DomainError) as looped:
        check_hypotheses_loop(spec, 8)
    assert str(batched.value) == str(looped.value)


def _recording(fn, calls):
    """fn, recording the types of the arguments of every call."""

    def recorded(x1, x2, x3, axes):
        calls.append((type(x1), type(x2), type(x3), type(axes), axes))
        return fn(x1, x2, x3, axes)

    return recorded


def test_check_hypotheses_calls_fn_once_per_point_and_multi_index():
    calls = []
    sheared = _sheared_cusp()
    spec = WarpedMetricSpec(
        sheared.lattice, sheared.x3_min, sheared.x3_max, sheared.warping,
        coefficients=CallableCoefficients(_recording(sheared.coefficients.fn, calls)),
    )
    multi_indices = [axes for order in range(4)
                     for axes in itertools.combinations_with_replacement((1, 2, 3), order)]
    check_hypotheses(spec, grid=(8, 9, 10))
    assert len(calls) == 8 * 9 * 10 * 20
    assert Counter(call[4] for call in calls) == {axes: 8 * 9 * 10 for axes in multi_indices}
    # One pass over the samples per multi-index, in increasing order.
    assert [call[4] for call in calls[::8 * 9 * 10]] == multi_indices
    assert {call[:4] for call in calls} == {(float, float, float, tuple)}

    # Every call is made before any sample is validated.
    calls.clear()
    failing = _failing_spec(lambda t: 1.0 - t)
    failing.coefficients.fn = _recording(failing.coefficients.fn, calls)
    with pytest.raises(DomainError, match="not positive definite"):
        check_hypotheses(failing, grid=8)
    assert len(calls) == 8**3 * 20
    assert {call[:4] for call in calls} == {(float, float, float, tuple)}


def test_check_hypotheses_holds_no_array_of_all_twenty_multi_indices():
    # Each multi-index is folded in as it is read: at grid 16 the report
    # peaks below the bytes of one (N, 20, 3, 3) float64 array, N = 16^3,
    # the callable's per-point returns included.
    spec = _sheared_cusp()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        rep = check_hypotheses(spec, grid=16)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert rep.npoints == 16**3
    assert peak < 16**3 * 20 * 9 * 8, peak


@pytest.mark.parametrize("value, seen", [
    (0.0, "shape ()"),
    (np.zeros(3), "shape (3,)"),
    (np.zeros((2, 2)), "shape (2, 2)"),
    ([[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]], "a ragged or non-numeric value"),
])
def test_check_hypotheses_rejects_a_malformed_callable_return(value, seen):
    # Only the first x3-derivative is malformed; numpy would broadcast a
    # scalar or a row into a 3x3 matrix without the shape check.
    def fn(x1, x2, x3, axes):
        if axes == (3,):
            return value
        return np.eye(3) if not axes else np.zeros((3, 3))

    spec = WarpedMetricSpec(
        UNIT, 0.0, 1.0, Field1D.constant(1.0), coefficients=CallableCoefficients(fn)
    )
    with pytest.raises(DomainError) as err:
        check_hypotheses(spec, grid=8)
    assert str(err.value) == (
        f"coefficient callable must return a 3x3 matrix; for axes (3,) it returned {seen}"
    )


def test_callable_returning_nested_lists_equals_arrays():
    sheared = _sheared_cusp()

    def as_lists(x1, x2, x3, axes):
        return sheared.coefficients.fn(x1, x2, x3, axes).tolist()

    listed = WarpedMetricSpec(sheared.lattice, sheared.x3_min, sheared.x3_max,
                              sheared.warping, coefficients=CallableCoefficients(as_lists))
    assert check_hypotheses(listed, grid=8) == check_hypotheses(sheared, grid=8)


def test_check_hypotheses_rejects_nonfinite_coefficient():
    spec = _failing_spec(lambda t: math.nan if t > 0.5 else 1.0)
    with pytest.raises(DomainError) as err:
        check_hypotheses(spec, grid=8)
    assert str(err.value) == (
        f"coefficient matrix not finite at {(0.0, 0.0, 4.0 / 7.0)}"
    )


def test_check_hypotheses_rejects_nonfinite_warping():
    def h(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.5, np.nan, 1.0)

    def zero(t):
        return np.zeros_like(np.asarray(t, dtype=float))

    one = Field1D.constant(1.0)
    spec = WarpedMetricSpec.diagonal(UNIT, 0.0, 1.0, one, one,
                                     warping=Field1D.from_evaluators(h, zero, zero, zero))
    with pytest.raises(DomainError) as err:
        check_hypotheses(spec, grid=8)
    assert str(err.value) == f"warping not finite at x3 = {4.0 / 7.0!r}"


def test_check_hypotheses_rejects_nonfinite_derivatives():
    def d3(t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0.5, np.inf, 0.0)

    one = Field1D.constant(1.0)
    warping = Field1D.from_evaluators(one, one.d1, one.d2, d3)
    spec = WarpedMetricSpec.diagonal(UNIT, 0.0, 1.0, one, one, warping=warping)
    with pytest.raises(DomainError) as err:
        check_hypotheses(spec, grid=8)
    assert str(err.value) == (
        f"coefficient or warping derivatives not finite at {(0.0, 0.0, 4.0 / 7.0)}"
    )


# ------------------------------------------- array and per-point evaluation


def _coefficient_classes():
    """One spec per coefficient class: diagonal (closed form and
    spline-backed), callable, and the blow-up wrapper over a callable and
    over a diagonal field."""
    ts = np.linspace(0.0, 3.0, 50)
    sampled = WarpedMetricSpec.from_sampled(UNIT, ts, np.exp(-ts), 1.1 * np.exp(-ts),
                                            np.exp(-ts))
    tube = tube_as_warped(TubeParams(1e-5, 0.3, 5.0), margin=0.5)
    # A diagonal field held as a general one, so that blowup_rescale
    # wraps it instead of composing its profiles.
    wrapped_tube = WarpedMetricSpec(tube.lattice, tube.x3_min, tube.x3_max, tube.warping,
                                    coefficients=tube.coefficients)
    return {
        "diagonal_tube": tube,
        "diagonal_sampled": sampled,
        "callable": _sheared_cusp(),
        "rescaled_callable": blowup_rescale(_sheared_cusp(), 1.2, 2.5),
        "rescaled_diagonal": blowup_rescale(wrapped_tube, 2.0, 0.7),
    }


@pytest.mark.parametrize("name", sorted(_coefficient_classes()))
def test_coefficient_deriv_on_arrays_equals_stacked_point_calls(name):
    spec = _coefficient_classes()[name]
    rng = np.random.default_rng(7)
    x1 = rng.uniform(-1.0, 1.0, (4, 1))
    x2 = rng.uniform(-1.0, 1.0, (1, 5))
    x3 = rng.uniform(spec.x3_min, spec.x3_max, (4, 5))
    for order in range(4):
        for axes in itertools.combinations_with_replacement((1, 2, 3), order):
            batched = spec.coefficient_deriv(axes, x1, x2, x3)
            assert batched.shape == (4, 5, 3, 3)
            stacked = np.array([
                [spec.coefficient_deriv(axes, float(x1[i, 0]), float(x2[0, j]),
                                        float(x3[i, j])) for j in range(5)]
                for i in range(4)
            ])
            assert np.array_equal(batched, stacked), axes
    assert np.array_equal(spec.coefficient_matrix(x1, x2, x3),
                          spec.coefficient_deriv((), x1, x2, x3))
    assert spec.coefficient_matrix(0.1, 0.2, float(x3[0, 0])).shape == (3, 3)
