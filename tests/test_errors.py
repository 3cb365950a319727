import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from thinpart import DomainError, area_bounds, filler, sweepout
from thinpart.errors import as_float, as_floats, as_int, as_real_array
from thinpart.fields import Field1D
from thinpart.flat_torus import FlatTorusLattice
from thinpart.minimal_graph import DiscreteGraph, GraphBoundsParams, first_variation, solve
from thinpart.tube_geometry import (CuspParams, TubeParams, cusp_as_warped, meyerhoff_radius,
                                    slice_area, slice_mean_curvature, tube_as_warped)
from thinpart.warped_metric import (WarpedMetricSpec, blowup_rescale,
                                    level_torus_mean_curvature, n_p)


@pytest.mark.parametrize("value,expected", [(0, 0), (-3, -3), (2.0, 2), (10**30, 10**30)])
def test_as_int_accepts_integral_numbers(value, expected):
    result = as_int("level", value)
    assert result == expected and type(result) is int


@pytest.mark.parametrize("value", [2.7, -0.5, True, False, "2", None, [1], math.nan,
                                   math.inf])
def test_as_int_rejects_everything_else(value):
    with pytest.raises(DomainError, match="level must be an integer"):
        as_int("level", value)


def _solve_max_iter(n):
    spec = WarpedMetricSpec.flat(FlatTorusLattice.unit_square(), -1.0, 1.0)
    solve(spec, DiscreteGraph.on_rectangle((1.0, 1.0), (8, 8), 0.0), max_iter=n)


def _rectangle_shape(n):
    DiscreteGraph.on_rectangle((1.0, 1.0), (n, 9), 0.0)


def _verify_grid(n):
    filler.verify(filler.build(20.0, FlatTorusLattice.unit_square()), grid=n)


def _profile_samples(n):
    sweepout.profile(samples=n)


def _interpolate_steps(n):
    a = sweepout.FormalCurrent((("T1", 1, 2.0),))
    sweepout.interpolate_patches(a, sweepout.FormalCurrent((("T1", 2, 2.0),)), n)


@pytest.mark.parametrize("value", [2.5, math.nan, True], ids=["fraction", "nan", "bool"])
@pytest.mark.parametrize("call,name", [
    (_solve_max_iter, "max_iter"),
    (_rectangle_shape, "shape"),
    (_verify_grid, "grid"),
    (_profile_samples, "samples"),
    (_interpolate_steps, "k"),
], ids=["solve", "on_rectangle", "verify", "profile", "interpolate_patches"])
def test_integer_counts_are_checked_by_as_int(call, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be an integer"):
        call(value)


@pytest.mark.parametrize("shape", [(9,), (9, 9, 9), 9], ids=["one", "three", "int"])
def test_rectangle_shape_must_be_a_pair(shape):
    with pytest.raises(DomainError, match="^shape must be a pair of grid sizes"):
        DiscreteGraph.on_rectangle((1.0, 1.0), shape, 0.0)


_VALUES = [[0.0] * 8] * 8


@pytest.mark.parametrize("make,name", [
    (lambda: DiscreteGraph(_VALUES, (1, 1), periodic=(True,)), "periodic"),
    (lambda: DiscreteGraph(_VALUES, (1, 1), periodic="yes"), "periodic"),
    (lambda: DiscreteGraph(_VALUES, (1, 1), periodic=(1, 0)), "periodic"),
    (lambda: DiscreteGraph(_VALUES, (1, 1, 1)), "spacing"),
    (lambda: DiscreteGraph(_VALUES, 0.1), "spacing"),
    (lambda: DiscreteGraph(_VALUES, ("a", "b")), "spacing"),
    (lambda: DiscreteGraph(_VALUES, (1, 1), origin=(0.0,)), "origin"),
    (lambda: DiscreteGraph.on_rectangle((1, 1), (5, 5), 0.0, periodic=(True,)), "periodic"),
    (lambda: DiscreteGraph.on_rectangle((1, 1), (5, 5), 0.0, periodic=None), "periodic"),
    (lambda: DiscreteGraph.on_rectangle((1, 1, 1), (5, 5), 0.0), "extent"),
    (lambda: DiscreteGraph.on_rectangle((1, 1), (5, 5), lambda x, y: x, origin=5.0), "origin"),
], ids=["periodic_one", "periodic_str", "periodic_ints", "spacing_three", "spacing_scalar",
        "spacing_str", "origin_one", "rectangle_periodic_one", "rectangle_periodic_none",
        "rectangle_extent_three", "rectangle_origin_scalar"])
def test_graph_grid_fields_are_pairs(make, name):
    with pytest.raises(DomainError, match=f"^{name} must be a"):
        make()


@pytest.mark.parametrize("periodic,flags", [(True, (True, True)), (False, (False, False)),
                                            ((True, False), (True, False)),
                                            ([False, True], (False, True))])
def test_graph_periodic_is_a_bool_or_a_pair_of_bools(periodic, flags):
    g = DiscreteGraph(_VALUES, [0.5, 0.25], periodic=periodic, origin=[1, 2])
    assert g.periodic == flags and g.spacing == (0.5, 0.25) and g.origin == (1.0, 2.0)


_RAGGED = [[0.0] * 8] * 7 + [[0.0] * 7]


@pytest.mark.parametrize("make", [
    lambda: DiscreteGraph(np.full((8, 8), 1.0 + 1.0j), (1, 1)),
    lambda: DiscreteGraph(np.zeros((8, 8), dtype=complex), (1, 1)),
    lambda: DiscreteGraph([["a"] * 8] * 8, (1, 1)),
    lambda: DiscreteGraph(_RAGGED, (1, 1)),
    lambda: DiscreteGraph.on_rectangle((1, 1), (8, 8), np.full((8, 8), 2.0j)),
    lambda: DiscreteGraph.on_rectangle((1, 1), (8, 8), "x"),
    lambda: DiscreteGraph.on_rectangle((1, 1), (8, 8), _RAGGED),
    lambda: DiscreteGraph.on_rectangle((1, 1), (8, 8), lambda x, y: x + 1j * y),
    lambda: DiscreteGraph.on_rectangle((1, 1), (8, 8), lambda x, y: np.ones(3)),
    lambda: DiscreteGraph.on_rectangle((1, 1), (8, 8), lambda x, y: np.ones(8)),
    lambda: DiscreteGraph.on_torus(FlatTorusLattice.unit_square(), (8, 8),
                                   lambda x, y: "x"),
    lambda: DiscreteGraph(np.ones((8, 8), dtype=bool), (1, 1)),
    lambda: DiscreteGraph([[0.0] * 8] * 7 + [[True] + [0.0] * 7], (1, 1)),
], ids=["complex", "complex_zero_imaginary", "strings", "ragged", "rectangle_complex",
        "rectangle_string", "rectangle_ragged", "callable_complex", "callable_short",
        "callable_row", "torus_callable_string", "bools", "one_bool"])
def test_graph_values_must_be_a_grid_of_real_numbers(make):
    # No numpy error or ComplexWarning: a DomainError that names values.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="values"):
            make()


@pytest.mark.parametrize("make", [
    lambda: DiscreteGraph.on_rectangle((1, 1), (8, 8), lambda x, y: 0.25),
    lambda: DiscreteGraph.on_torus(FlatTorusLattice.unit_square(), (8, 8),
                                   lambda x, y: np.float64(0.25)),
], ids=["rectangle", "torus"])
def test_a_callable_may_return_a_scalar_for_the_whole_grid(make):
    g = make()
    assert g.shape == (8, 8) and np.all(g.values == 0.25)


_UNIT = FlatTorusLattice.unit_square()


def _cusp():
    return cusp_as_warped(CuspParams(_UNIT, 0.0, 3.0))


def _solve_tol(x):
    spec = WarpedMetricSpec.flat(_UNIT, -1.0, 1.0)
    solve(spec, DiscreteGraph.on_rectangle((1.0, 1.0), (8, 8), 0.0), tol=x)


# (entry point, the name its message gives the argument)
_NUMBER_ARGUMENTS = {
    "meyerhoff_radius": (lambda x: meyerhoff_radius(x), "geodesic length"),
    "slice_area": (lambda x: slice_area(x, 0.5), "geodesic length"),
    "slice_mean_curvature": (lambda x: slice_mean_curvature(x), "radius"),
    "TubeParams": (lambda x: TubeParams(x, 0.0, 1.0), "tube length"),
    "CuspParams": (lambda x: CuspParams(_UNIT, x, 3.0), "t0"),
    "FlatTorusLattice": (lambda x: FlatTorusLattice(1.0, x, 1.0), "lattice component a2"),
    "WarpedMetricSpec.flat": (lambda x: WarpedMetricSpec.flat(_UNIT, 0.0, x), "x3_max"),
    "level_torus_mean_curvature": (lambda x: level_torus_mean_curvature(_cusp(), x), "x3"),
    "blowup_rescale": (lambda x: blowup_rescale(_cusp(), 1.0, x), "blow-up factor"),
    "build_filler": (lambda x: filler.build(x, _UNIT), "filler depth"),
    "area_lower_bound": (lambda x: filler.area_lower_bound(filler.build(14.0, _UNIT), x),
                         "monotonicity_constant"),
    "parallel_disk_area": (lambda x: area_bounds.parallel_disk_area(x), "R"),
    "margulis_area_bound": (lambda x: area_bounds.margulis_area_bound(x), "eps"),
    "BandEstimate": (lambda x: area_bounds.BandEstimate(0.0, 1.0, x, 2.0), "systole_bound"),
    "crossing_lower_bound": (lambda x: area_bounds.crossing_lower_bound(x, 5.0, 0.5), "R"),
    "GraphBoundsParams": (lambda x: GraphBoundsParams(1.0, 1.0, 1.0, x, 1.5),
                          "tangency_level"),
    "solve": (_solve_tol, "tolerance"),
    "FormalCurrent": (lambda x: sweepout.FormalCurrent.single("a", 1.0, x), "multiplicity"),
    "FormalCurrent_area": (lambda x: sweepout.FormalCurrent.single("a", x), "patch area"),
    "GridVertex.from_indices": (lambda x: sweepout.GridVertex.from_indices(x, 0),
                                "grid level"),
    "DiscreteFamily": (lambda x: sweepout.DiscreteFamily(x, [sweepout.FormalCurrent.zero()] * 2),
                       "family level"),
}


@pytest.mark.parametrize("value", ["0.1", None, True], ids=["string", "none", "bool"])
@pytest.mark.parametrize("entry", list(_NUMBER_ARGUMENTS))
def test_every_number_argument_is_read_by_one_rule(entry, value):
    # A string, None or a bool is not a number: a DomainError that names
    # the argument, never a TypeError, and a bool never passes as 0 or 1.
    call, name = _NUMBER_ARGUMENTS[entry]
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must be a"):
        call(value)


@pytest.mark.parametrize("value,expected", [
    (0.5, 0.5), (3, 3.0), (np.float32(0.5), 0.5), (np.int64(-2), -2.0),
    (np.float64(1e300), 1e300), (Fraction(1, 4), 0.25),
], ids=["float", "int", "float32", "int64", "float64", "fraction"])
def test_as_float_accepts_python_and_numpy_reals(value, expected):
    result = as_float("x", value)
    assert result == expected and type(result) is float


@pytest.mark.parametrize("value,message", [
    ("0.1", "must be a number"), (None, "must be a number"), (True, "must be a number"),
    (np.bool_(False), "must be a number"), (1 + 0j, "must be a number"),
    ([1.0], "must be a number"), (np.array(1.0), "must be a number"),
    (math.nan, "must be finite"), (-math.inf, "must be finite"),
    (np.float32("inf"), "must be finite"), (10**400, "must be finite"),
], ids=["string", "none", "bool", "numpy_bool", "complex", "list", "array", "nan", "inf",
        "float32_inf", "huge_int"])
def test_as_float_rejects_everything_else_by_name(value, message):
    with pytest.raises(DomainError, match=f"^x {message}, got "):
        as_float("x", value)


@pytest.mark.parametrize("value,size,message", [
    ([True, 0, 0], 3, "must be a list of numbers"),
    ([False, 3], 2, "must be a list of numbers"),
    ((0.5, np.True_), 2, "must be a list of numbers"),
    (np.array([True, False]), 2, "must be a list of numbers"),
    (["1", "0"], 2, "must be a list of numbers"),
    ([[1.0, 2.0]], 2, "must be a list of numbers"),
    (0.5, None, "must be a list of numbers"),
    ([1.0, 2.0, 3.0], 2, "must be a list of 2 numbers"),
    ([1.0, math.nan], 2, "must be finite"),
    ([math.inf], None, "must be finite"),
], ids=["bool_first", "bool_interval", "numpy_bool", "bool_array", "strings", "nested",
        "scalar", "three_for_two", "nan", "inf"])
def test_as_floats_rejects_bools_and_wrong_counts(value, size, message):
    with pytest.raises(DomainError, match=f"^v {message}"):
        as_floats("v", value, size)


def test_as_floats_reads_pairs_and_lists_as_tuples_of_floats():
    assert as_floats("v", [1, 2.5], 2) == (1.0, 2.5)
    assert as_floats("v", np.arange(3)) == (0.0, 1.0, 2.0)
    assert all(type(x) is float for x in as_floats("v", np.array([1, 2], np.int32), 2))


def test_from_vectors_rejects_string_generators():
    # from_json_dict rejected these and from_vectors read them as numbers.
    with pytest.raises(DomainError, match="^lattice generator v1 must be a list of numbers"):
        FlatTorusLattice.from_vectors(["1", "0"], ["0", "2"])


def _filler():
    return filler.build(14.0, _UNIT)


def _variation(v):
    first_variation(WarpedMetricSpec.flat(_UNIT, -1.0, 1.0),
                    DiscreteGraph.on_rectangle((1.0, 1.0), (6, 6), 0.0), v)


# (entry point, the name its message gives the argument, a valid array of
# the argument's shape)
_ARRAY_ARGUMENTS = {
    "DiscreteGraph": (lambda a: DiscreteGraph(a, (0.1, 0.1)), "values", np.zeros((6, 6))),
    "first_variation": (_variation, "variation values", np.zeros((6, 6))),
    "from_samples_x": (lambda a: Field1D.from_samples(a, [1.0, 0.5, 0.25, 0.125]), "sample x",
                       np.arange(4.0)),
    "from_samples_y": (lambda a: Field1D.from_samples(np.arange(4.0), a), "sample y",
                       np.ones(4)),
    "slice_area": (lambda a: slice_area(0.1, a), "radius", np.array([0.5, 1.0])),
    "projection_contraction_check": (lambda a: area_bounds.projection_contraction_check(0.1, a),
                                     "radius grid", np.array([0.5, 1.0])),
    "core_chart_metric": (lambda a: filler.core_chart_metric(_filler(), a), "rho",
                          np.array([0.5, 0.25])),
    "metric_at": (lambda a: filler.metric_at(_filler(), a), "point x1", np.array([0.0, 0.0, 0.5])),
    "coefficient_deriv": (lambda a: _cusp().coefficient_deriv((3,), a, 0.0, 0.5), "x1",
                          np.array([0.1, 0.2])),
    "coefficient_matrix": (lambda a: _cusp().coefficient_matrix(0.0, 0.0, a), "x3",
                           np.array([0.5, 1.0])),
}


def _bad_array(valid, kind):
    """``valid`` with every entry a string, the first entry None, NaN or
    infinite, or as a bool array."""
    if kind == "strings":
        return valid.astype(str)
    if kind == "bools":
        return valid > 0.0
    bad = valid.tolist() if kind == "none" else valid.copy()
    row = bad
    for _ in range(valid.ndim - 1):
        row = row[0]
    row[0] = {"none": None, "nan": math.nan, "inf": math.inf}[kind]
    return bad


def _project_vertex(level):
    sweepout.project_vertex(sweepout.GridVertex.from_indices(2, 4), level)


_COMPOSE = {"in_scale": lambda x: Field1D.exp_decay().compose_affine(x, 0.0),
            "in_shift": lambda x: Field1D.exp_decay().compose_affine(1.0, x),
            "out_scale": lambda x: Field1D.exp_decay().compose_affine(1.0, 0.0, x)}

# (entry point, the name its message gives the argument)
_MORE_NUMBER_ARGUMENTS = {
    "as_warped": (lambda x: filler.as_warped(_filler(), x), "t_max"),
    "project_vertex": (_project_vertex, "level"),
    "Field1D.constant": (lambda x: Field1D.constant(x), "constant value"),
    **{f"compose_affine_{name}": (call, name) for name, call in _COMPOSE.items()},
    "n_p": (lambda x: n_p(1, x), "coordinate index"),
}

_CALLER_INPUTS = (
    [(f"{entry}-{kind}", entry, kind) for entry in _ARRAY_ARGUMENTS
     for kind in ("strings", "none", "bools", "nan", "inf")]
    + [(f"{entry}-{kind}", entry, value) for entry in _MORE_NUMBER_ARGUMENTS
       for kind, value in (("string", "0.1"), ("none", None), ("bool", True), ("nan", math.nan))
       if (entry, value) != ("as_warped", None)]  # None is t_max's default
    + [(f"normalized-{kind}", "normalized", value) for kind, value in (("string", "false"),
                                                                      ("int", 1))])


@pytest.mark.parametrize("entry,value", [case[1:] for case in _CALLER_INPUTS],
                         ids=[case[0] for case in _CALLER_INPUTS])
def test_every_array_argument_is_read_by_one_rule(entry, value):
    # Strings, None, bools, NaN and infinities are malformed arrays (and
    # numbers): a DomainError that names the argument, never a TypeError,
    # an AttributeError or a silent read as numbers.
    if entry in _ARRAY_ARGUMENTS:
        call, name, valid = _ARRAY_ARGUMENTS[entry]
        value = _bad_array(valid, value)
    elif entry == "normalized":
        name = entry
        call = lambda x: tube_as_warped(TubeParams(0.1, 0.0, 0.3), margin=0.1, normalized=x)  # noqa: E731
    else:
        call, name = _MORE_NUMBER_ARGUMENTS[entry]
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must be "):
        call(value)


@pytest.mark.parametrize("value,message", [
    ([[0.0, 1.0], [2.0, math.nan]], "x must be finite, got nan at (1, 1)"),
    ([[0.0, math.inf], [math.nan, 0.0]], "x must be finite, got inf at (0, 1)"),
    ([1.0, -math.inf], "x must be finite, got -inf at (1,)"),
    (math.nan, "x must be finite, got nan"),
    (np.float64(math.inf), "x must be finite, got inf"),
    ([[1.0, 2.0], [3.0]], "x must be a rectangular array of real numbers"),
    ([[1.0], []], "x must be a rectangular array of real numbers"),
], ids=["matrix", "first_bad_entry", "vector", "zero_d_nan", "zero_d_inf", "ragged",
        "ragged_empty_row"])
def test_as_real_array_names_the_first_nonfinite_entry_by_index(value, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        as_real_array("x", value)


@pytest.mark.parametrize("value,shape", [(2, ()), (np.float32(0.5), ()), ([], (0,)),
                                         (np.zeros((0, 3)), (0, 3)), ([[1, 2]], (1, 2))],
                         ids=["int", "float32", "empty", "empty_rows", "ints"])
def test_as_real_array_reads_scalars_and_empty_arrays(value, shape):
    array = as_real_array("x", value)
    assert array.shape == shape and array.dtype == float
    assert np.array_equal(array, np.asarray(value, dtype=float))
    assert as_floats("x", []) == ()
