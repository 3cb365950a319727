"""Margulis-tube and cusp geometry.

Tubular neighborhoods of a closed geodesic of length ell carry the metric
cosh^2(r) dz^2 + sinh^2(r) dtheta^2 + dr^2 with identifications by (2*pi, 0)
and (twist, ell); cusp ends carry exp(-2t) dsigma^2 + dt^2.  This module
computes the guaranteed embedded radius, slice areas and curvatures,
boundary lattices, and the conversion into the warped-metric framework.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_float, as_real_array, require_finite
from .fields import Field1D
from .flat_torus import FlatTorusLattice
from .warped_metric import WarpedMetricSpec

#: Largest geodesic length with a guaranteed embedded tube:
#: (sqrt(3) / 4 pi) * ln^2(1 + sqrt(2)).
ELL_MAX = (math.sqrt(3.0) / (4.0 * math.pi)) * math.log(1.0 + math.sqrt(2.0)) ** 2

# Within this window of ELL_MAX the direct formula loses all digits to the
# cancellation sqrt(1 - 2k) - k -> 0; a series in (ell - ELL_MAX) is used.
_NEAR_THRESHOLD = 1e-6

_Y0 = math.log(1.0 + math.sqrt(2.0))  # sinh(_Y0) = 1, cosh(_Y0) = sqrt(2)
_C = 4.0 * math.pi / math.sqrt(3.0)


@dataclass(frozen=True)
class TubeParams:
    """An embedded tube: core length, twist angle, tube radius.

    The twist is stored as given (only its class mod 2*pi matters; lattice
    operations reduce it implicitly via basis reduction).
    """

    length: float
    twist: float
    radius: float

    def __post_init__(self):
        for name in ("length", "twist", "radius"):
            as_float(f"tube {name}", getattr(self, name))
        if not 0.0 < self.length < ELL_MAX:
            raise DomainError(
                f"embedded tube requires 0 < length < {ELL_MAX!r}"
            )
        if self.radius <= 0.0:
            raise DomainError("tube radius must be positive")
        r_max = meyerhoff_radius(self.length)
        if self.radius > r_max * (1.0 + 1e-12):
            raise DomainError(
                f"radius {self.radius!r} exceeds the guaranteed embedded "
                f"radius {r_max!r} for length {self.length!r}"
            )

    @classmethod
    def from_json_dict(cls, data: dict) -> "TubeParams":
        """A tube from its JSON descriptor: "length", "twist" (default 0)
        and "radius", a number or "meyerhoff" (the default) for
        ``meyerhoff_radius(length)``."""
        length = as_float("length", data["length"])
        twist = as_float("twist", data.get("twist", 0.0))
        radius = data.get("radius", "meyerhoff")
        if radius == "meyerhoff":
            radius = meyerhoff_radius(length)
        return cls(length, twist, as_float("radius", radius))


@dataclass(frozen=True)
class CuspParams:
    """A cusp-end piece: boundary lattice and depth range."""

    lattice: FlatTorusLattice
    t0: float
    t1: float

    def __post_init__(self):
        require_finite(t0=self.t0, t1=self.t1)
        if not self.t0 < self.t1:
            raise DomainError("cusp depth range requires t0 < t1")


def meyerhoff_radius(length: float) -> float:
    """Embedded-tube radius R with sinh^2 R = ((1 - 2k)^(1/2)/k - 1)/2,
    k = cosh(sqrt(4 pi ell / sqrt 3)) - 1.

    Strictly decreasing on (0, ELL_MAX], with R = 0 at the threshold.
    Lengths above ELL_MAX carry no embedded-tube guarantee and are
    rejected.
    """
    if as_float("geodesic length", length) <= 0.0:
        raise DomainError(f"geodesic length must be positive, got {length!r}")
    if length > ELL_MAX:
        raise DomainError(
            f"length {length!r} is above the threshold {ELL_MAX!r}; "
            "no embedded tube is guaranteed"
        )
    if length > ELL_MAX - _NEAR_THRESHOLD:
        # Compensated branch: work with dy = y - y0 where sinh(y0) = 1
        # exactly, so the cancellation 1 - sinh^2(y) is done analytically.
        q = _C * (length - ELL_MAX)  # = y^2 - y0^2, tiny and <= 0
        dy = q / (2.0 * _Y0)
        dy = q / (2.0 * _Y0 + dy)  # one fixed-point refinement
        y = _Y0 + dy
        # sinh(y) - 1 without cancellation:
        ds = 2.0 * math.cosh(0.5 * (y + _Y0)) * math.sinh(0.5 * dy)
        k = 2.0 * math.sinh(0.5 * y) ** 2  # cosh(y) - 1
        disc = 3.0 - 2.0 * math.cosh(y)  # = 1 - 2k, ~ 3 - 2 sqrt(2)
        s2 = -ds * (2.0 + ds) / (2.0 * k * (math.sqrt(disc) + k))
        s2 = max(s2, 0.0)
        return math.asinh(math.sqrt(s2))
    y = math.sqrt(_C * length)
    k = 2.0 * math.sinh(0.5 * y) ** 2
    s2 = 0.5 * (math.sqrt(1.0 - 2.0 * k) / k - 1.0)
    return math.asinh(math.sqrt(s2))


def slice_area(length: float, radius):
    """Area of the r = radius torus around a geodesic of the given length,
    at a radius or an array of radii: pi * ell * sinh(2r)."""
    if as_float("geodesic length", length) <= 0.0:
        raise DomainError(f"geodesic length must be positive, got {length!r}")
    radius = as_real_array("radius", radius)
    negative = radius < 0.0
    if negative.any():
        raise DomainError(f"radius must be nonnegative, got {float(radius[negative][0])!r}")
    return math.pi * length * np.sinh(2.0 * radius)


def slice_mean_curvature(radius: float) -> float:
    """Mean curvature of the r = radius torus with respect to the inward
    normal: (tanh r + coth r)/2.  Singular at r = 0."""
    if as_float("radius", radius) <= 0.0:
        raise DomainError("slice mean curvature needs radius > 0")
    return 0.5 * (math.tanh(radius) + 1.0 / math.tanh(radius))


def boundary_lattice(params: TubeParams, radius: float) -> FlatTorusLattice:
    """Lattice of the flat torus at r = radius in orthonormal coordinates:
    v1 = (2 pi sinh r, 0), v2 = (twist sinh r, ell cosh r)."""
    if as_float("radius", radius) <= 0.0:
        raise DomainError("boundary lattice needs radius > 0")
    if radius > params.radius * (1.0 + 1e-12):
        raise DomainError("radius exceeds the tube radius")
    sh, ch = math.sinh(radius), math.cosh(radius)
    return FlatTorusLattice.from_vectors(
        (2.0 * math.pi * sh, 0.0), (params.twist * sh, params.length * ch)
    )


def tube_as_warped(params: TubeParams, margin: float = 0.5,
                   normalized: bool = False) -> WarpedMetricSpec:
    """The tube in depth coordinates t = R - r on T x [0, R - margin].

    Coefficients are a1(t) = sinh(R - t), a2(t) = cosh(R - t) (the metric
    is singular at t = R, hence the margin); the reference warping is
    h(t) = sinh(R - t)/sinh(R), so h(0) = 1.  With ``normalized=True`` the
    coefficients and the lattice are scaled by 1/sinh(R) and sinh(R): the
    coordinates in which the comparison constants are length-independent.
    """
    R = params.radius
    if not 0.0 < as_float("margin", margin) < R:
        raise DomainError("margin must lie in (0, radius)")
    if not isinstance(normalized, bool):
        raise DomainError(f"normalized must be true or false, got {normalized!r}")
    sh_R = math.sinh(R)
    scale = 1.0 / sh_R if normalized else 1.0

    sinh = Field1D(np.sinh, np.cosh, np.sinh, np.cosh)
    cosh = Field1D(np.cosh, np.sinh, np.cosh, np.sinh)
    a1 = sinh.compose_affine(-1.0, R, scale)
    a2 = cosh.compose_affine(-1.0, R, scale)
    h = sinh.compose_affine(-1.0, R, 1.0 / sh_R)
    lattice = FlatTorusLattice.from_vectors(
        (2.0 * math.pi, 0.0), (params.twist, params.length)
    )
    if normalized:
        lattice = lattice.scaled(sh_R)
    return WarpedMetricSpec(
        lattice, 0.0, R - margin, h, kind="tube", a1=a1, a2=a2
    )


def cusp_as_warped(params: CuspParams) -> WarpedMetricSpec:
    """The cusp piece T x [t0, t1] with a1 = a2 = h = exp(-t)."""
    decay = Field1D.exp_decay()
    return WarpedMetricSpec(
        params.lattice, params.t0, params.t1, decay,
        kind="cusp", a1=decay, a2=decay,
    )
