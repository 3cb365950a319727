import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from thinpart import DomainError, area_bounds, filler, sweepout
from thinpart.errors import as_float, as_floats, as_int
from thinpart.flat_torus import FlatTorusLattice
from thinpart.minimal_graph import DiscreteGraph, GraphBoundsParams, solve
from thinpart.tube_geometry import (CuspParams, TubeParams, cusp_as_warped, meyerhoff_radius,
                                    slice_area, slice_mean_curvature)
from thinpart.warped_metric import (WarpedMetricSpec, blowup_rescale,
                                    level_torus_mean_curvature)


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
