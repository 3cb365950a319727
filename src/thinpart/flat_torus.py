"""Rank-2 lattice geometry for flat tori: reduction, systole, covering radius.

A flat torus is R^2 / Gamma for a rank-2 lattice Gamma.  Every lattice is
stored in well-oriented form: generators v1 = (a1, 0) with a1 > 0 and
v2 = (a2, b2) with b2 > 0, so det(v1, v2) = a1*b2 > 0 is the torus area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_floats

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
        for name in ("a1", "a2", "b2"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"lattice component {name} is not finite")
        if self.a1 <= 0.0 or self.b2 <= 0.0:
            raise DomainError(
                "well-oriented form requires v1 = (a1, 0) with a1 > 0 and "
                "v2 = (a2, b2) with b2 > 0"
            )
        scale = max(self.norm1, self.norm2)
        if self.area <= DEGENERACY_RTOL * scale * scale:
            raise DomainError("degenerate lattice: det(v1, v2) below tolerance")

    @classmethod
    def from_vectors(cls, v1, v2) -> "FlatTorusLattice":
        """Rotate an arbitrary basis pair into well-oriented form.

        Rotation is an isometry of the torus; replacing v2 by -v2 keeps the
        lattice.  Systole, diameter and area are unchanged.
        """
        u = np.asarray(v1, dtype=float)
        w = np.asarray(v2, dtype=float)
        if u.shape != (2,) or w.shape != (2,):
            raise DomainError("lattice generators must be 2-vectors")
        nu = float(np.hypot(u[0], u[1]))
        if nu == 0.0:
            raise DomainError("degenerate lattice: v1 = 0")
        # Rotate u onto the positive x-axis.
        c, s = u[0] / nu, u[1] / nu
        wx = c * w[0] + s * w[1]
        wy = -s * w[0] + c * w[1]
        if wy < 0.0:
            wx, wy = -wx, -wy
        return cls(nu, float(wx), float(wy))

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
        if factor <= 0.0:
            raise DomainError("scale factor must be positive")
        return FlatTorusLattice(factor * self.a1, factor * self.a2, factor * self.b2)

    def to_json_dict(self) -> dict:
        return {"v1": [self.a1, 0.0], "v2": [self.a2, self.b2]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FlatTorusLattice":
        try:
            v1 = data["v1"]
            v2 = data["v2"]
        except (KeyError, TypeError) as exc:
            raise DomainError("lattice JSON needs 'v1' and 'v2'") from exc
        return cls.from_vectors(as_floats("lattice v1", v1),
                                as_floats("lattice v2", v2))


def reduce_basis(lat: FlatTorusLattice) -> FlatTorusLattice:
    """Lagrange-Gauss reduction, re-normalized to well-oriented form.

    The result generates the same torus (up to rotation) with
    |v1| <= |v2| and |<v1, v2>| <= |v1|^2 / 2, so v1 is a shortest nonzero
    lattice vector.
    """
    u = lat.v1
    w = lat.v2
    if u @ u > w @ w:
        u, w = w, u
    for _ in range(10000):
        m = round(float(u @ w) / float(u @ u))
        w = w - m * u
        if w @ w >= u @ u:
            break
        u, w = w, u
    else:  # pragma: no cover - loop terminates for any nondegenerate input
        raise RuntimeError("Gauss reduction did not terminate")
    return FlatTorusLattice.from_vectors(u, w)


def systole(lat: FlatTorusLattice) -> float:
    """Length of the shortest nonzero lattice vector."""
    return reduce_basis(lat).a1


def diameter(lat: FlatTorusLattice) -> float:
    """Covering radius: the largest distance of a plane point to the lattice.

    For a Gauss-reduced basis u, w with u.w >= 0 the triangle (0, u, w) is
    non-obtuse, so its circumcenter is a deepest hole and the covering
    radius is the circumradius |u| |w| |w - u| / (2 |det(u, w)|)
    (Conway-Sloane, Sphere Packings, Lattices and Groups, 2-d covering
    radius).  The reduced form is u = (a1, 0), w = (a2, b2); reflecting w
    when a2 < 0 gives u.w >= 0.
    """
    red = reduce_basis(lat)
    far = math.hypot(abs(red.a2) - red.a1, red.b2)
    return red.norm1 * red.norm2 * far / (2.0 * red.area)
