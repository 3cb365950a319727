"""Property tests of the lattice routines: systole and diameter are
invariants of the lattice up to isometry, and reduction is idempotent.

Each tolerance is a multiple of the float rounding of the changed basis:
presenting a lattice through an integer matrix with entries up to M rounds
its generators by ~eps * M * |v|, and the reduced vectors are integer
combinations with coefficients up to M of those.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from thinpart.flat_torus import FlatTorusLattice, diameter, reduce_basis, systole

EPS = 2.0**-52
PROPERTY = settings(derandomize=True, deadline=None, database=None)


@st.composite
def lattices(draw):
    scale = 10.0 ** draw(st.integers(-3, 3))
    return FlatTorusLattice(scale * draw(st.floats(0.1, 10.0)),
                            scale * draw(st.floats(-10.0, 10.0)),
                            scale * draw(st.floats(0.1, 10.0)))


def _bezout(p: int, q: int) -> tuple[int, int]:
    """x, y with p x + q y = 1, for coprime p, q."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while q:
        k = p // q
        p, q = q, p - k * q
        x0, x1 = x1, x0 - k * x1
        y0, y1 = y1, y0 - k * y1
    return x0 * p, y0 * p  # p = gcd = +-1 here


@st.composite
def unimodular(draw, bound=50):
    """An integer matrix ((p, q), (r, s)) with p s - q r = 1, entries <= bound."""
    p = draw(st.integers(-bound, bound))
    q = draw(st.integers(-bound, bound).filter(lambda q: math.gcd(p, q) == 1))
    x, y = _bezout(p, q)
    k = draw(st.integers(-2, 2))
    r, s = k * p - y, k * q + x
    if max(abs(r), abs(s)) > bound:
        r, s = -y, x
    return p, q, r, s


def _longest(lat: FlatTorusLattice) -> float:
    return max(lat.norm1, lat.norm2)


@PROPERTY
@given(lattices(), unimodular())
def test_invariant_under_unimodular_basis_change(lat, matrix):
    p, q, r, s = matrix
    assert p * s - q * r == 1
    v1, v2 = lat.v1, lat.v2
    other = FlatTorusLattice.from_vectors(p * v1 + q * v2, r * v1 + s * v2)
    tol = 64 * EPS * max(map(abs, matrix)) ** 2 * _longest(lat)
    assert abs(systole(other) - systole(lat)) <= tol
    assert abs(diameter(other) - diameter(lat)) <= tol


@PROPERTY
@given(lattices(), st.floats(0.0, 2.0 * math.pi))
def test_invariant_under_rotation(lat, angle):
    c, s = math.cos(angle), math.sin(angle)
    rotated = FlatTorusLattice.from_vectors((c * lat.a1, s * lat.a1),
                                            (c * lat.a2 - s * lat.b2, s * lat.a2 + c * lat.b2))
    tol = 16 * EPS * _longest(lat)
    assert abs(systole(rotated) - systole(lat)) <= tol
    assert abs(diameter(rotated) - diameter(lat)) <= tol


@PROPERTY
@given(lattices(), st.floats(1e-3, 1e3))
def test_scaling_multiplies_systole_and_diameter(lat, factor):
    big = lat.scaled(factor)
    tol = 16 * EPS * factor * _longest(lat)
    assert abs(systole(big) - factor * systole(lat)) <= tol
    assert abs(diameter(big) - factor * diameter(lat)) <= tol


@PROPERTY
@given(lattices())
def test_reduction_is_idempotent_bit_for_bit(lat):
    red = reduce_basis(lat)
    again = reduce_basis(red)
    assert [x.hex() for x in (again.a1, again.a2, again.b2)] == \
        [x.hex() for x in (red.a1, red.a2, red.b2)]


@PROPERTY
@given(st.integers(1, 12), st.integers(-12, 12), st.integers(1, 12), st.booleans())
@example(2, 0, 1, False)
@example(1, 0, 1, True)
def test_reduced_basis_never_carries_negative_zero(a1, a2, b2, negate):
    # Integer lattices make a reduced a2 of exactly zero common; a
    # rotation or a remainder can leave it signed.
    lat = FlatTorusLattice(float(a1), -float(a2) if negate else float(a2), float(b2))
    red = reduce_basis(lat)
    assert math.copysign(1.0, red.a2) == 1.0 or red.a2 != 0.0
