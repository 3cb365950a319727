"""Rank-2 lattice geometry for flat tori: reduction, systole, covering radius.

A flat torus is R^2 / Gamma for a rank-2 lattice Gamma.  Every lattice is
stored in well-oriented form: generators v1 = (a1, 0) with a1 > 0 and
v2 = (a2, b2) with b2 > 0, so det(v1, v2) = a1*b2 > 0 is the torus area.

Reduction, systole and covering radius run on Python floats and ints, not
numpy arrays: at n = 2 the per-call array overhead dominates the few flops
a reduction step needs.  numpy pays where one call covers many points, not
the two coordinates of one vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_float, as_floats, json_fields

# det <= DEGENERACY_RTOL * max(|v1|,|v2|)^2 is rejected: downstream code
# divides by the area.
DEGENERACY_RTOL = 1e-12


@dataclass(frozen=True)
class FlatTorusLattice:
    """Well-oriented lattice basis v1 = (a1, 0), v2 = (a2, b2)."""

    a1: float
    a2: float
    b2: float

    def __post_init__(self):
        # Every reduction step builds a lattice: the checks read plain
        # locals, not the norm and area properties, and call as_float
        # directly rather than through a loop.
        a1, a2, b2 = self.a1, self.a2, self.b2
        as_float("lattice component a1", a1)
        as_float("lattice component a2", a2)
        as_float("lattice component b2", b2)
        if a1 <= 0.0 or b2 <= 0.0:
            raise DomainError(
                "well-oriented form requires v1 = (a1, 0) with a1 > 0 and "
                "v2 = (a2, b2) with b2 > 0"
            )
        scale = max(a1, math.hypot(a2, b2))
        if a1 * b2 <= DEGENERACY_RTOL * scale * scale:
            raise DomainError("degenerate lattice: det(v1, v2) below tolerance")

    @classmethod
    def from_vectors(cls, v1, v2) -> "FlatTorusLattice":
        """Rotate an arbitrary basis pair into well-oriented form.

        Rotation is an isometry of the torus; replacing v2 by -v2 keeps the
        lattice.  Systole, diameter and area are unchanged.
        """
        ux, uy = as_floats("lattice generator v1", v1, 2)
        wx, wy = as_floats("lattice generator v2", v2, 2)
        if ux == 0.0 and uy == 0.0:
            raise DomainError("degenerate lattice: v1 = 0")
        a1, a2, b2 = _rotated(ux, uy, wx, wy)
        if b2 == 0.0:
            raise DomainError("degenerate lattice: v1 and v2 are collinear")
        return cls(a1, a2, b2)

    @classmethod
    def unit_square(cls) -> "FlatTorusLattice":
        return cls(1.0, 0.0, 1.0)

    @classmethod
    def hexagonal(cls) -> "FlatTorusLattice":
        return cls(1.0, 0.5, math.sqrt(3.0) / 2.0)

    @property
    def v1(self) -> np.ndarray:
        return np.array([self.a1, 0.0])

    @property
    def v2(self) -> np.ndarray:
        return np.array([self.a2, self.b2])

    @property
    def norm1(self) -> float:
        return self.a1

    @property
    def norm2(self) -> float:
        return math.hypot(self.a2, self.b2)

    @property
    def area(self) -> float:
        return self.a1 * self.b2

    def scaled(self, factor: float) -> "FlatTorusLattice":
        if as_float("scale factor", factor) <= 0.0:
            raise DomainError("scale factor must be positive")
        return FlatTorusLattice(factor * self.a1, factor * self.a2, factor * self.b2)

    def to_json_dict(self) -> dict:
        return {"v1": [self.a1, 0.0], "v2": [self.a2, self.b2]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FlatTorusLattice":
        return cls.from_vectors(*json_fields("lattice", data, "v1", "v2"))


def require_lattice(name: str, lattice) -> FlatTorusLattice:
    """``lattice``; a DomainError naming ``name`` when it is not a
    ``FlatTorusLattice``: the one check of a lattice a caller passes."""
    if not isinstance(lattice, FlatTorusLattice):
        raise DomainError(f"{name} must be a FlatTorusLattice, got {lattice!r}")
    return lattice


def _rotated(ux: float, uy: float, wx: float, wy: float) -> tuple[float, float, float]:
    """Well-oriented (a1, a2, b2) of the basis u, w: u rotated onto the
    positive x-axis, and w replaced by -w if it lands below it.  No
    returned a2 is -0.0."""
    a1 = math.hypot(ux, uy)
    c, s = ux / a1, uy / a1
    a2 = c * wx + s * wy
    b2 = c * wy - s * wx
    # -0.0 + 0.0 is +0.0; every other a2 passes through unchanged.
    return (a1, a2 + 0.0, b2) if b2 >= 0.0 else (a1, -a2 + 0.0, -b2)


def _reduced(a1: float, a2: float, b2: float) -> tuple[float, float, float]:
    """Lagrange-Gauss reduction of the well-oriented basis (a1, 0), (a2, b2).

    Returns the reduced well-oriented triple: |a2| <= a1 / 2 and
    hypot(a2, b2) >= a1.  Along the x-axis a reduction step is
    math.remainder, which is exact.  Off the axis every lattice vector is
    (p / d, q * b2) with integers p, q and d the common power-of-two
    denominator of a1 and a2, so cancellation never amplifies an earlier
    rounding: each coordinate is rounded once, from exact values.  No
    returned a2 is -0.0, and a reduced triple with any other a2 comes back
    unchanged, bit for bit.  Each pass through the outer loop shortens the
    first generator, so the loop ends.
    """
    while True:
        a2 = math.remainder(a2, a1)
        nu = math.hypot(a2, b2)
        if nu >= a1:
            # -0.0 + 0.0 is +0.0; every other a2 passes through unchanged.
            return a1, a2 + 0.0, b2
        # (a2, b2) is the shorter generator: it becomes u, and w = (a1, 0).
        n1, d1 = a1.as_integer_ratio()
        n2, d2 = a2.as_integer_ratio()
        d = max(d1, d2)
        pu, qu, ux, uy = n2 * (d // d2), 1, a2, b2
        pw, qw, wx, wy = n1 * (d // d1), 0, a1, 0.0
        while True:
            m = round((ux * wx + uy * wy) / (ux * ux + uy * uy))
            pw -= m * pu
            qw -= m * qu
            wx, wy = pw / d, qw * b2
            nw = math.hypot(wx, wy)
            if nw >= nu:
                break
            pu, qu, ux, uy, nu, pw, qw, wx, wy = pw, qw, wx, wy, nw, pu, qu, ux, uy
        a1, a2, b2 = _rotated(ux, uy, wx, wy)


def _circumradius(a1: float, a2: float, b2: float) -> float:
    """Covering radius of a reduced well-oriented basis u = (a1, 0),
    w = (a2, b2).

    Reflecting w when a2 < 0 gives u.w >= 0; the triangle (0, u, w) is then
    non-obtuse, so its circumcenter is a deepest hole and the covering
    radius is the circumradius |u| |w| |w - u| / (2 det(u, w)) =
    |w| |w - u| / (2 b2) (Conway-Sloane, Sphere Packings, Lattices and
    Groups, 2-d covering radius).
    """
    return math.hypot(a2, b2) * math.hypot(abs(a2) - a1, b2) / (2.0 * b2)


def reduce_basis(lat: FlatTorusLattice) -> FlatTorusLattice:
    """Lagrange-Gauss reduction, re-normalized to well-oriented form.

    The result generates the same torus (up to rotation) with
    |v1| <= |v2| and |<v1, v2>| <= |v1|^2 / 2, so v1 is a shortest nonzero
    lattice vector.  Reducing a reduced lattice returns it unchanged.
    """
    require_lattice("lattice", lat)
    return FlatTorusLattice(*_reduced(lat.a1, lat.a2, lat.b2))


def systole(lat: FlatTorusLattice) -> float:
    """Length of the shortest nonzero lattice vector."""
    require_lattice("lattice", lat)
    return _reduced(lat.a1, lat.a2, lat.b2)[0]


def diameter(lat: FlatTorusLattice) -> float:
    """Covering radius: the largest distance of a plane point to the lattice."""
    require_lattice("lattice", lat)
    return _circumradius(*_reduced(lat.a1, lat.a2, lat.b2))


def reduced_invariants(lat: FlatTorusLattice) -> tuple[FlatTorusLattice, float, float]:
    """(reduce_basis(lat), systole(lat), diameter(lat)) from one reduction."""
    red = reduce_basis(lat)
    return red, red.a1, _circumradius(red.a1, red.a2, red.b2)
