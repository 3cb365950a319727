import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from thinpart import DomainError, area_bounds, cli, filler, sweepout
from thinpart.cli import ManifoldDescription, _boundary_function, _family_from_json
from thinpart.errors import as_float, as_floats, as_index, as_int, as_real_array, json_fields
from thinpart.fields import Field1D
from thinpart.flat_torus import FlatTorusLattice, diameter, reduce_basis, systole
from thinpart.minimal_graph import (DiscreteGraph, GraphBoundsParams, area, first_variation,
                                    rescale_graph, solve)
from thinpart.tube_geometry import (CuspParams, TubeParams, cusp_as_warped, meyerhoff_radius,
                                    slice_area, slice_mean_curvature, tube_as_warped)
from thinpart.warped_metric import (CallableCoefficients, WarpedMetricSpec, blowup_rescale,
                                    level_torus_mean_curvature, n_p, spec_from_json)


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


_ONE = Field1D.constant(1.0)
_DIAG_4_4_1 = CallableCoefficients(
    lambda x1, x2, x3, axes: np.diag([4.0, 4.0, 1.0]) if not axes else np.zeros((3, 3)))


def _attached_profile(attachments):
    """The profile of one cusp and one filler glued to its bottom torus,
    by ``attachments``."""
    cusp = CuspParams(_UNIT, 0.0, 1.0)
    glued = filler.build(12.0, _UNIT.scaled(math.exp(-1.0)))
    return sweepout.profile(cusps=[cusp], fillers=[glued], attachments=attachments, samples=8)


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


# (entry point, the name its message gives the argument, values it must
# reject): a derivative order, a multi-index, a lattice and one depth.
_STRUCTURED_ARGUMENTS = {
    "jet": (lambda x: Field1D.exp_decay().jet(0.5, x), "derivative order",
            [4, -1, 2.5, True, "1"]),
    "constant_jet": (lambda x: Field1D.constant(1.0).jet(0.5, x), "derivative order", [5]),
    "derivative": (lambda x: Field1D.exp_decay().derivative(0.5, x), "derivative order", [4]),
    "coefficient_deriv": (lambda x: _cusp().coefficient_deriv(x, 0.0, 0.0, 0.5), "axes",
                          [(4,), ("x",), (3, True), (3, 3, 3, 3), 3, [3]]),
    "build_filler": (lambda x: filler.build(12.0, x), "lattice", [(1, 0, 1), "x"]),
    "reduce_basis": (reduce_basis, "lattice", [(1, 0, 1)]),
    "systole": (systole, "lattice", ["x"]),
    "diameter": (diameter, "lattice", [None]),
    "on_torus": (lambda x: DiscreteGraph.on_torus(x, (8, 8), 0.0), "lattice", ["x"]),
    "CuspParams": (lambda x: CuspParams(x, 0.0, 1.0), "lattice", ["x"]),
    "WarpedMetricSpec.flat": (WarpedMetricSpec.flat, "lattice", ["x"]),
    "slice_lattice": (lambda x: filler.slice_lattice(_filler(), x), "depth t", [[1.0, 2.0]]),
    # A spec's fields are Field1Ds, and its coefficients come from one
    # source: a callable beside a1 and a2 is neither measured nor ignored.
    "warping": (lambda x: WarpedMetricSpec(_UNIT, 0.0, 1.0, x, a1=_ONE, a2=_ONE), "warping",
                [1.0, "x", None]),
    "a1": (lambda x: WarpedMetricSpec.diagonal(_UNIT, 0.0, 1.0, x, _ONE), "a1", ["x", 1.0]),
    "a2": (lambda x: WarpedMetricSpec.diagonal(_UNIT, 0.0, 1.0, _ONE, x), "a2", [np.exp]),
    "coefficients_and_a1": (lambda x: WarpedMetricSpec(_UNIT, 0.0, 1.0, _ONE, a1=x,
                                                       coefficients=_DIAG_4_4_1),
                            "coefficients", [_ONE]),
    "coefficients_and_a2": (lambda x: WarpedMetricSpec(_UNIT, 0.0, 1.0, _ONE, a2=x,
                                                       coefficients=_DIAG_4_4_1),
                            "coefficients", [_ONE]),
    # attachments maps a filler index to a cusp index, both in range.
    "attachments": (_attached_profile, "attachments",
                    [{0: 5}, {0: True}, {0: "0"}, [0], {0: -1}, {3: 0}, {-1: 0}, {0.5: 0}]),
    "FormalCurrent": (sweepout.FormalCurrent, "patches",
                      [5, None, (("A", 1),), (("A", 1, 1.0, 2),), (5,)]),
    "DiscreteFamily": (lambda x: sweepout.DiscreteFamily(0, x), "currents[0]",
                       [[1, 2], [None, sweepout.FormalCurrent.zero()]]),
    "interpolate_patches_a": (lambda x: sweepout.interpolate_patches(x, 2, 3), "a", [1]),
    "interpolate_patches_b": (lambda x: sweepout.interpolate_patches(
        sweepout.FormalCurrent.zero(), x, 3), "b", [{"A": 1}]),
    # A family's currents are an iterable, and a patch id is hashable.
    "DiscreteFamily_currents": (lambda x: sweepout.DiscreteFamily(0, x), "currents", [5]),
    "FormalCurrent_patch_id": (sweepout.FormalCurrent, "patches",
                               [(([1], 1, 1.0),), ((("A", [1]), 1, 1.0),)]),
}


@pytest.mark.parametrize("entry,value", [
    (entry, value) for entry, (_, _, values) in _STRUCTURED_ARGUMENTS.items() for value in values])
def test_every_structured_argument_is_read_by_one_rule(entry, value):
    # An order outside 0-3, a multi-index that is not a tuple of at most
    # three indices 1, 2 or 3, a lattice that is not a FlatTorusLattice and
    # a list of depths where one is read: a DomainError naming the
    # argument, never a silent result, a TypeError or an AttributeError.
    call, name, _ = _STRUCTURED_ARGUMENTS[entry]
    with pytest.raises(DomainError, match=f"^{re.escape(name)}"):
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


def test_a_glued_filler_is_attached_by_index():
    # The valid attachments of _attached_profile: an index pair, each
    # read by as_int (0.0 and numpy's 0 are the index 0), or none at all.
    for attachments in ({0: 0}, {0.0: np.int64(0)}, {}, None):
        profile = _attached_profile(attachments)
        assert [seg.label for seg in profile.segments] == ["cusp[0]", "filler[0]"]


def _sheared_torus():
    DiscreteGraph.on_torus(FlatTorusLattice(1.0, 0.3, 1.0), (8, 8), 0.0)


def _periodic_rescale():
    params = GraphBoundsParams(1.0, 1.0, 1.0, 1.0, 1.5)
    rescale_graph(_cusp(), DiscreteGraph.on_torus(_UNIT, (8, 8), 0.5), params)


def _nondiagonal_area():
    spec = WarpedMetricSpec(_UNIT, 0.0, 1.0, _ONE, coefficients=_DIAG_4_4_1)
    area(spec, DiscreteGraph.on_rectangle((1.0, 1.0), (8, 8), 0.5))


def _mismatched_variation():
    g = DiscreteGraph.on_rectangle((1.0, 1.0), (8, 8), 0.5)
    first_variation(_cusp(), g, np.zeros((7, 8)))


# (call, the start of its message): a rejection that no other test reaches.
_UNREACHED_REJECTIONS = {
    "nondiagonal_graph": (_nondiagonal_area, "graph operations support diagonal specs only"),
    "sheared_torus": (_sheared_torus, "periodic graphs require a rectangular lattice"),
    "periodic_rescale": (_periodic_rescale, "rescale_graph expects a rectangle grid"),
    "variation_shape": (_mismatched_variation, "variation shape (7, 8) != graph shape (8, 8)"),
    "solve_tol_0": (lambda: _solve_tol(0.0), "tolerance must be positive, got 0.0"),
    "samples_not_increasing": (lambda: Field1D.from_samples([0.0, 1.0, 1.0, 2.0], [0, 1, 2, 3]),
                               "sample abscissae must be strictly increasing"),
    "negative_radius": (lambda: slice_area(0.1, [0.1, -0.2]),
                        "radius must be nonnegative, got -0.2"),
    "core_rho_0": (lambda: filler.core_chart_metric(_filler(), 0), "core chart needs 0 < rho"),
    "t_max_at_core": (lambda: filler.as_warped(_filler(), 15.0), "t_max must lie in (0, L + 1)"),
    "scaled_0": (lambda: _UNIT.scaled(0), "scale factor must be positive"),
}


@pytest.mark.parametrize("entry", list(_UNREACHED_REJECTIONS))
def test_each_documented_rejection_raises_its_domain_error(entry):
    call, message = _UNREACHED_REJECTIONS[entry]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        call()


_UNIT_JSON = {"v1": [1.0, 0.0], "v2": [0.0, 1.0]}
_CUSP_JSON = {"lattice": _UNIT_JSON, "t0": 0.0, "t1": 1.0}

# (reader, a malformed JSON document, the start of its message): every
# reader of a JSON document, called directly, names the object, the field
# or the list entry (by its path) that is missing or of the wrong type.
_MALFORMED_DOCUMENTS = {
    "lattice_list": (FlatTorusLattice.from_json_dict, [],
                     "bad field value: lattice must be a JSON object, got []"),
    "lattice_empty": (FlatTorusLattice.from_json_dict, {}, "lattice: missing field 'v1', 'v2'"),
    "tube_list": (TubeParams.from_json_dict, [], "bad field value: tube must be a JSON object"),
    "tube_no_length": (TubeParams.from_json_dict, {"twist": 0.1}, "tube: missing field 'length'"),
    "metric_null": (spec_from_json, None,
                    "bad field value: metric descriptor must be a JSON object, got None"),
    "metric_no_kind": (spec_from_json, {"lattice": _UNIT_JSON},
                       "metric descriptor: missing field 'kind'"),
    "tube_metric_no_length": (spec_from_json, {"kind": "tube"}, "tube: missing field 'length'"),
    "cusp_metric_lattice_list": (spec_from_json, {"kind": "cusp", "lattice": [1, 0, 1]},
                                 "bad field value: lattice must be a JSON object"),
    "filler_string": (filler.from_json_dict, "filler",
                      "bad field value: filler must be a JSON object"),
    "filler_format_only": (filler.from_json_dict, {"format": "thinpart-filler v1"},
                           "filler: missing field 'depth', 'lattice', 'ramp_scale', 'collapse'"),
    "manifold_list": (ManifoldDescription.from_json_dict, [],
                      "bad field value: manifold must be a JSON object"),
    "cusps_object": (ManifoldDescription.from_json_dict, {"cusps": {"a": 1}},
                     "bad field value: cusps must be a list, got {'a': 1}"),
    "cusps_null": (ManifoldDescription.from_json_dict, {"cusps": None},
                   "bad field value: cusps must be a list, got None"),
    "cusp_number": (ManifoldDescription.from_json_dict, {"cusps": [_CUSP_JSON, 1]},
                    "bad field value: cusps[1] must be a JSON object, got 1"),
    "cusp_no_t1": (ManifoldDescription.from_json_dict,
                   {"cusps": [{"lattice": _UNIT_JSON, "t0": 0.0}]}, "cusps[0]: missing field 't1'"),
    "cusp_empty": (ManifoldDescription.from_json_dict, {"cusps": [{}]},
                   "cusps[0]: missing field 'lattice', 't0', 't1'"),
    "tubes_string": (ManifoldDescription.from_json_dict, {"tubes": "x"},
                     "bad field value: tubes must be a list, got 'x'"),
    "tube_entry_number": (ManifoldDescription.from_json_dict, {"tubes": [5]},
                          "bad field value: tubes[0] must be a JSON object, got 5"),
    "fillers_number": (ManifoldDescription.from_json_dict, {"fillers": 3},
                       "bad field value: fillers must be a list, got 3"),
    "filler_no_L": (ManifoldDescription.from_json_dict,
                    {"cusps": [_CUSP_JSON], "fillers": [{"attach": 0}]},
                    "fillers[0]: missing field 'L'"),
    # A nested reader names its own object; the manifold prefixes the
    # entry's path.
    "tube_entry_no_length": (ManifoldDescription.from_json_dict,
                             {"tubes": [{"length": 0.01}, {"twist": 0.0}]},
                             "tubes[1]: tube: missing field 'length'"),
    "tube_entry_string_length": (ManifoldDescription.from_json_dict, {"tubes": [{"length": "x"}]},
                                 "tubes[0]: length must be a number, got 'x'"),
    "cusp_lattice_no_v2": (ManifoldDescription.from_json_dict,
                           {"cusps": [{"lattice": {"v1": [1.0, 0.0]}, "t0": 0.0, "t1": 1.0}]},
                           "cusps[0].lattice: lattice: missing field 'v2'"),
    "filler_lattice_list": (ManifoldDescription.from_json_dict,
                            {"fillers": [{"L": 12.0, "lattice": [1, 0, 1]}]},
                            "fillers[0].lattice: bad field value: lattice must be a JSON object"),
    "filler_attach_past_end": (ManifoldDescription.from_json_dict,
                               {"cusps": [_CUSP_JSON], "fillers": [{"L": 12.0, "attach": 1}]},
                               "fillers[0].attach must lie in [0, 1), got 1"),
    "family_list": (_family_from_json, [1], "bad field value: family must be a JSON object"),
    "family_empty": (_family_from_json, {}, "family: missing field 'level', 'currents'"),
    "currents_number": (_family_from_json, {"level": 0, "currents": 5},
                        "bad field value: currents must be a list, got 5"),
    "current_object": (_family_from_json, {"level": 0, "currents": [{"patch": "A"}, []]},
                       "bad field value: currents[0] must be a list"),
    "patch_number": (_family_from_json, {"level": 0, "currents": [[], [5]]},
                     "bad field value: currents[1][0] must be a JSON object, got 5"),
    "patch_no_area": (_family_from_json,
                      {"level": 0, "currents": [[], [{"patch": "B", "multiplicity": 1}]]},
                      "currents[1][0]: missing field 'area'"),
    "bc_list": (_boundary_function, [1, 2],
                "bad field value: boundary data must be a JSON object, got [1, 2]"),
    "bc_no_kind": (_boundary_function, {"coeffs": [0, 0, 0]},
                   "boundary data: missing field 'kind'"),
    "affine_no_coeffs": (_boundary_function, {"kind": "affine"},
                         "affine boundary data: missing field 'coeffs'"),
    "constant_no_value": (_boundary_function, {"kind": "constant"},
                          "constant boundary data: missing field 'value'"),
}


@pytest.mark.parametrize("entry", list(_MALFORMED_DOCUMENTS))
def test_every_json_document_is_read_by_one_rule(entry):
    # A missing field, a document, entry or field of the wrong JSON type
    # and an index out of range: a DomainError naming it, never a
    # KeyError, a TypeError or an unnamed entry.
    reader, document, message = _MALFORMED_DOCUMENTS[entry]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        reader(document)


def test_json_fields_reads_required_then_optional_fields():
    # Field names that are also the reader's own parameter names are read
    # like any other.
    assert json_fields("x", {"name": 1, "data": 2}, "name", data=0, other=3) == (1, 2, 3)
    assert as_index("i", np.int64(2), 3) == 2 and type(as_index("i", 2.0, 3)) is int


@pytest.mark.parametrize("manifold,field", [
    ({"cusps": {"a": 1}}, "cusps"),
    ({"cusps": None}, "cusps"),
    ({"cusps": [{"lattice": _UNIT_JSON, "t0": 0.0}]}, "cusps[0]"),
    ({"tubes": [{"length": 0.01}, {"twist": 0.0}]}, "tubes[1]: tube"),
    ({"cusps": [{"lattice": {"v1": [1.0, 0.0]}, "t0": 0.0, "t1": 1.0}]}, "cusps[0].lattice: "),
], ids=["cusps_object", "cusps_null", "cusp_no_t1", "tube_no_length", "cusp_lattice_no_v2"])
def test_a_malformed_manifold_exits_domain_naming_its_entry(tmp_path, capsys, manifold, field):
    path = tmp_path / "manifold.json"
    path.write_text(json.dumps(manifold))
    assert cli.run(["sweepout", "profile", "--manifold", str(path),
                    "--out", str(tmp_path / "p.csv")]) == cli.EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith(f"domain error: {path}: ") and field in err, err
    assert "Traceback" not in err and not (tmp_path / "p.csv").exists()
