import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from thinpart import DomainError
from thinpart.flat_torus import FlatTorusLattice, diameter, reduce_basis, systole
from thinpart.tube_geometry import TubeParams, boundary_lattice, meyerhoff_radius

from oracles import (covering_radius_grid, gauss_reduce_exact, random_lattice,
                     shortest_vector_brute)


def test_well_oriented_validation():
    with pytest.raises(DomainError):
        FlatTorusLattice(-1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        FlatTorusLattice(1.0, 0.0, -1.0)
    with pytest.raises(DomainError):
        FlatTorusLattice(1.0, 0.5, 1e-14)  # degenerate: det below tolerance


def test_from_vectors_rotates_into_well_oriented_form():
    ang = 0.7
    R = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    lat = FlatTorusLattice.from_vectors(R @ [2.0, 0.0], R @ [0.5, 1.5])
    assert lat.a1 == pytest.approx(2.0, rel=1e-14)
    assert lat.a2 == pytest.approx(0.5, rel=1e-13)
    assert lat.b2 == pytest.approx(1.5, rel=1e-13)


@pytest.mark.parametrize("v1,v2", [
    # w lands below the x-axis at a2 = 0.0, and is flipped.
    ((0.0, 1.0), (2.0, 0.0)),
    # a2 = (-1.0) * 0.0 + 0.0 * (-1.0) = -0.0, above the x-axis.
    ((-1.0, 0.0), (0.0, -1.0)),
], ids=["flipped", "unflipped"])
def test_from_vectors_returns_no_negative_zero(v1, v2):
    lat = FlatTorusLattice.from_vectors(v1, v2)
    assert lat.a2 == 0.0 and math.copysign(1.0, lat.a2) == 1.0
    data = FlatTorusLattice.from_json_dict({"v1": list(v1), "v2": list(v2)}).to_json_dict()
    assert json.dumps(data) == json.dumps({"v1": [lat.a1, 0.0], "v2": [0.0, lat.b2]})


@pytest.mark.parametrize("v1,v2,message", [
    ((1.0, 1.0), (2.0, 2.0), "degenerate lattice"),
    ((1.0, 3.0), (-2.0, -6.0), "degenerate lattice"),
    ((0.0, 0.0), (1.0, 0.0), "degenerate lattice"),
    ((1.0, 0.0), (0.0, 0.0), "degenerate lattice"),
    ((math.inf, 0.0), (0.0, 1.0), "lattice generator v1 must be finite"),
    ((1.0, math.nan), (0.0, 1.0), "lattice generator v1 must be finite"),
    ((1.0, 0.0), (-math.inf, 1.0), "lattice generator v2 must be finite"),
    (["x", 0.0], (0.0, 1.0), "lattice generator v1 must be a list of numbers"),
    ([[1.0], [2.0, 3.0]], (0.0, 1.0), "lattice generator v1 must be a list of numbers"),
    ((1.0, 0.0), (0.0, 1.0, 2.0), "lattice generator v2 must be a list of 2 numbers"),
])
def test_from_vectors_rejects_bad_generators_by_name(v1, v2, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message):
            FlatTorusLattice.from_vectors(v1, v2)


def test_reduce_already_reduced_unit_square():
    lat = FlatTorusLattice.unit_square()
    red = reduce_basis(lat)
    assert red.a1 == pytest.approx(1.0, abs=1e-15)
    assert red.b2 == pytest.approx(1.0, abs=1e-15)
    assert abs(red.a2) <= 1e-15


def test_reduce_skewed_basis_matches_brute_force():
    lat = FlatTorusLattice(1.0, 0.9, 0.1)
    red = reduce_basis(lat)
    # Oracle: brute-force shortest vector over |m|, |n| <= 50.
    short = shortest_vector_brute(lat)
    assert short == pytest.approx(math.sqrt(0.02), rel=1e-12)
    assert red.a1 == pytest.approx(short, rel=1e-12)
    assert abs(red.v1 @ red.v2) <= 0.5 * red.a1**2 * (1 + 1e-12)
    assert red.area == pytest.approx(lat.area, rel=1e-12)


def test_reduce_tube_boundary_lattice_with_pi_twist():
    # Boundary torus of a tube of length 0.01 at the Meyerhoff radius with
    # twist pi.  Brute force gives the short vector 2*v2 - v1 = (0.0001, 0.074);
    # no lattice vector has length near 0.037 (that would need a half-integer
    # coefficient).
    lat = FlatTorusLattice(22.3835, 11.1918, 0.0370)
    short = shortest_vector_brute(lat)
    expected = math.hypot(2 * 11.1918 - 22.3835, 2 * 0.0370)
    assert short == pytest.approx(expected, rel=1e-12)
    assert systole(lat) == pytest.approx(short, rel=1e-12)


def test_systole_examples():
    assert systole(FlatTorusLattice.unit_square()) == pytest.approx(1.0, rel=1e-14)
    hexa = FlatTorusLattice.hexagonal()
    assert systole(hexa) == pytest.approx(1.0, rel=1e-14)
    assert shortest_vector_brute(hexa) == pytest.approx(1.0, rel=1e-14)
    rect = FlatTorusLattice(22.3835, 0.0, 0.0370)
    assert systole(rect) == pytest.approx(0.0370, rel=1e-14)
    assert shortest_vector_brute(rect) == pytest.approx(0.0370, rel=1e-14)


def test_diameter_examples():
    assert diameter(FlatTorusLattice.unit_square()) == pytest.approx(
        math.sqrt(2.0) / 2.0, rel=1e-13
    )
    assert diameter(FlatTorusLattice.hexagonal()) == pytest.approx(
        1.0 / math.sqrt(3.0), rel=1e-13
    )
    assert diameter(FlatTorusLattice(4.0, 0.0, 2.0)) == pytest.approx(
        math.sqrt(5.0), rel=1e-13
    )


def test_diameter_against_grid_search_oracle():
    rng = np.random.RandomState(7)
    for _ in range(10):
        lat = random_lattice(rng)
        red = reduce_basis(lat)
        found, slack = covering_radius_grid(red, n=300)
        d = diameter(lat)
        assert found - 1e-9 * found <= d <= found + slack


def test_reduced_vectors_bounded_by_twice_diameter():
    rng = np.random.RandomState(11)
    for _ in range(50):
        lat = random_lattice(rng)
        red = reduce_basis(lat)
        bound = 2.0 * diameter(lat) * (1 + 1e-12)
        assert red.norm1 <= bound
        assert red.norm2 <= bound


def test_invariance_and_scaling():
    rng = np.random.RandomState(3)
    for _ in range(20):
        lat = random_lattice(rng)
        red = reduce_basis(lat)
        # reduce_basis is idempotent on the quantities of interest.
        assert systole(red) == pytest.approx(systole(lat), rel=1e-12)
        assert diameter(red) == pytest.approx(diameter(lat), rel=1e-12)
        # Rotation invariance.
        ang = rng.uniform(0, 2 * math.pi)
        R = np.array(
            [[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]]
        )
        rot = FlatTorusLattice.from_vectors(R @ lat.v1, R @ lat.v2)
        assert systole(rot) == pytest.approx(systole(lat), rel=1e-10)
        assert diameter(rot) == pytest.approx(diameter(lat), rel=1e-10)
        # Linear scaling.
        lam = 10.0 ** rng.uniform(-2, 2)
        assert systole(lat.scaled(lam)) == pytest.approx(lam * systole(lat), rel=1e-11)
        assert diameter(lat.scaled(lam)) == pytest.approx(
            lam * diameter(lat), rel=1e-11
        )
        # systole <= 2 * diameter.
        assert systole(lat) <= 2.0 * diameter(lat) * (1 + 1e-12)


def test_json_round_trip():
    lat = FlatTorusLattice(2.5, -0.75, 1.25)
    again = FlatTorusLattice.from_json_dict(lat.to_json_dict())
    assert (again.a1, again.a2, again.b2) == (lat.a1, lat.a2, lat.b2)


@pytest.mark.parametrize("v1,v2,field", [
    (["x", 0], [0, 1], "lattice v1"),
    ([1, 0], [0, None], "lattice v2"),
    ([[1], [2, 3]], [0, 1], "lattice v1"),
])
def test_from_json_dict_names_a_non_numeric_generator(v1, v2, field):
    # from_json_dict hands the generators to from_vectors, which names
    # them "lattice generator v1" and "lattice generator v2".
    generator = field.replace("lattice", "lattice generator")
    with pytest.raises(DomainError, match=f"{generator} must be a list of numbers"):
        FlatTorusLattice.from_json_dict({"v1": v1, "v2": v2})


def test_diameter_closed_form_has_no_spurious_vertex():
    # u = (0.001, 0), w = (0, 50) after reduction: the deep hole is the
    # rectangle's center, sqrt(0.001^2 + 50^2) / 2 = 25.000000005.
    assert diameter(FlatTorusLattice(0.001, 0.4, 50.0)) == pytest.approx(
        25.000000005, rel=1e-15
    )


# Seeded lattices for the exact-arithmetic oracle, one generator per family.
def _lattices_at_scales(rng):
    """The benchmark's shape distribution at scales 1e-6 ... 1e6."""
    scale = 10.0 ** rng.uniform(-6.0, 6.0)
    return FlatTorusLattice(*(scale * rng.uniform([0.2, -3.0, 0.2], [3.0, 3.0, 3.0])).tolist())


def _skinny_basis(rng):
    """|a2| / a1 up to 1e6: a far-from-reduced basis of a plain lattice."""
    a1 = 10.0 ** rng.uniform(-3.0, 3.0)
    a2 = a1 * float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(0.0, 6.0)
    return FlatTorusLattice(a1, a2, a1 * rng.uniform(1.5, 3.0))


def _near_degenerate(rng):
    """area / (longer generator)^2 down to 1e-11: the reduced generators are
    much shorter than the given ones, so their x-coordinates cancel."""
    a1 = 10.0 ** rng.uniform(-1.0, 1.0)
    a2 = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-1.0, 1.0)
    ratio = 10.0 ** rng.uniform(-11.0, -2.0)
    return FlatTorusLattice(a1, a2, ratio * max(a1, abs(a2)) ** 2 / a1)


def _tube_boundary(rng):
    """Boundary tori of Margulis tubes of length 1e-6 ... 0.1, any twist."""
    length = 10.0 ** rng.uniform(-6.0, -1.0)
    radius = meyerhoff_radius(length) * rng.uniform(0.3, 1.0)
    return boundary_lattice(TubeParams(length, rng.uniform(-math.pi, math.pi), radius), radius)


@pytest.mark.parametrize("family", [_lattices_at_scales, _skinny_basis, _near_degenerate,
                                    _tube_boundary])
def test_reduction_matches_exact_rational_reduction(family):
    rng = np.random.default_rng(20)
    slack = 1 + Fraction(1, 10**12)
    for _ in range(100):
        lat = family(rng)
        red = reduce_basis(lat)
        v1sq, v2sq, inner, area = gauss_reduce_exact(lat)
        a1, a2, b2 = Fraction(red.a1), Fraction(red.a2), Fraction(red.b2)
        # <v1, v2> can vanish, so its error is relative to |v1| |v2|.
        for got, want, size in ((a1 * a1, v1sq, v1sq), (a2 * a2 + b2 * b2, v2sq, v2sq),
                                (abs(a1 * a2), inner, math.sqrt(v1sq * v2sq)),
                                (a1 * b2, area, area)):
            assert float(abs(got - want)) <= 1e-14 * float(size), (lat, red)
        assert a1 * a1 <= (a2 * a2 + b2 * b2) * slack**2
        assert abs(a1 * a2) <= a1 * a1 / 2 * slack
        assert systole(lat) == red.a1
