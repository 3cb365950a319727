"""Explicit area inequalities around short geodesics, as computable values.

Covers the parallel-disk lower bound 2 pi (cosh R - 1), the geodesic
projection whose contraction property yields it, the comparison-surface
band estimates, the transverse-crossing chain with its simplified
exponential form, and the Margulis-constant bound.

Each difference of hyperbolic functions is read as a product,
cosh a - cosh b = 2 sinh((a+b)/2) sinh((a-b)/2) and sinh a - sinh b =
2 cosh((a+b)/2) sinh((a-b)/2): one expression per bound, free of
cancellation over the whole float range.  A value that overflows a
float is a DomainError naming the argument at fault, by the one rule
``errors.finite_result``; no bound returns an infinity.

The universal constants of the crossing chain are never pinned down by
theory; this module declares kappa'' = 1 by default, derives the final
constant from the chain, prints all of them, and accepts overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_float, as_real_array, finite_result, require_finite

#: Published lower estimate for the Margulis constant of hyperbolic
#: 3-manifolds.  The introduction-level bound "at least 0.104" admits two
#: readings; both are exposed: this constant, and
#: margulis_area_bound(MARGULIS_EPSILON_LOWER).
MARGULIS_EPSILON_LOWER = 0.104


def parallel_disk_area(R: float) -> float:
    """Area of a geodesic parallel disk of radius R: 2 pi (cosh R - 1)."""
    return _disk_area("R", R)


def _disk_area(name: str, R) -> float:
    """2 pi (cosh R - 1) as 4 pi sinh^2(R/2), which does not cancel at
    small R, for the argument ``name``."""
    if as_float(name, R) < 0.0:
        raise DomainError(f"{name} must be nonnegative, got {R!r}")
    return finite_result(name, R, "the disk area", lambda: 4.0 * math.pi * math.sinh(0.5 * R) ** 2)


@dataclass(frozen=True)
class ProjectionReport:
    max_singular_value: float
    per_direction_max: tuple  # (z, theta, r) directions
    grid: int  # number of radii

    @property
    def contraction(self) -> bool:
        return self.max_singular_value <= 1.0 + 1e-12


def projection_contraction_check(length: float, r_grid) -> ProjectionReport:
    """Singular values of the geodesic projection (z, theta, r) ->
    (z0, theta, r) from the tube metric onto the parallel-disk metric
    sinh^2(r) dtheta^2 + dr^2, over the given radius grid.

    The projection kills the z direction and preserves theta and r, so
    every singular value is 0 or 1; the report records the measured
    maxima.  Both metrics are diagonal and the projection maps each
    coordinate direction onto a coordinate direction (or to 0), so the
    singular values are the three directions' stretches: the length of
    the image over the length of the unit coordinate vector, (0 / cosh r,
    sinh r / sinh r, 1 / 1).  Lengths, not squared lengths, keep every
    radius with a finite sinh r in range; a radius beyond it (r > 710.47)
    is a DomainError.
    """
    require_finite(length=length)
    if length <= 0.0:
        raise DomainError("geodesic length must be positive")
    rs = as_real_array("radius grid", r_grid)
    if rs.ndim != 1 or rs.size == 0 or not np.all(rs > 0.0):
        raise DomainError("radius grid must be a nonempty list of positive radii")
    # cosh r overflows exactly where sinh r does.
    sinh = finite_result("radius grid", rs, "sinh r", lambda: np.sinh(rs))
    ones = np.ones_like(rs)
    source = np.array([np.cosh(rs), sinh, ones])  # |e_z|, |e_theta|, |e_r| in the tube metric
    image = np.array([np.zeros_like(rs), sinh, ones])  # their images' lengths in the disk metric
    per_dir = (image / source).max(axis=1)
    return ProjectionReport(
        max_singular_value=float(per_dir.max()),
        per_direction_max=tuple(per_dir.tolist()),
        grid=int(rs.size),
    )


@dataclass(frozen=True)
class BandEstimate:
    """Comparison-surface band over radii [rho1, rho2] inside the tube of
    radius tube_radius, for a boundary-systole lower bound at most 1."""

    rho1: float
    rho2: float
    systole_bound: float
    tube_radius: float

    def __post_init__(self):
        require_finite(rho1=self.rho1, rho2=self.rho2,
                       systole_bound=self.systole_bound, tube_radius=self.tube_radius)
        if not 0.0 <= self.rho1 <= self.rho2 <= self.tube_radius:
            raise DomainError("need 0 <= rho1 <= rho2 <= tube_radius")
        if not self.tube_radius > 0.0:
            raise DomainError(f"tube radius must be positive, got {self.tube_radius!r}")
        if not 0.0 < self.systole_bound <= 1.0:
            raise DomainError("systole bound must lie in (0, 1]")


def annulus_band_bound(e: BandEstimate) -> tuple:
    """Area bound for the comparison band, (s0 / sinh RL)(sinh rho2 -
    sinh rho1), evaluated as (2 s0 / sinh RL) cosh((rho1+rho2)/2)
    sinh((rho2-rho1)/2).  Returns (bound, intermediate): the argument's
    intermediate bound is this same value."""
    s0, RL = e.systole_bound, e.tube_radius
    bound = finite_result("tube_radius", RL, "the band bound", lambda: (
        2.0 * s0 / math.sinh(RL)
        * math.cosh(0.5 * (e.rho1 + e.rho2))
        * math.sinh(0.5 * (e.rho2 - e.rho1))
    ))
    return bound, bound


def crossing_chain_value(R: float, tube_radius: float, systole_bound: float,
                         kappa2: float = 1.0) -> float:
    """The crossing chain (pi / (8 kappa'')) (s0 / cosh RL)
    (cosh R - cosh(3/2)), the difference read as
    2 sinh((R + 3/2)/2) sinh((R - 3/2)/2); vanishes at R = 3/2 by
    construction.  The systole bound s0 must lie in (0, 1]."""
    require_finite(R=R, tube_radius=tube_radius, systole_bound=systole_bound,
                   kappa2=kappa2)
    if not 0.0 < systole_bound <= 1.0:
        raise DomainError("systole bound must lie in (0, 1]")
    if kappa2 <= 0.0:
        raise DomainError("kappa'' must be positive")
    scale = finite_result("kappa2", kappa2, "the crossing chain",
                          lambda: math.pi / (8.0 * kappa2) * systole_bound)
    cosh_RL = finite_result("tube_radius", tube_radius, "cosh RL", lambda: math.cosh(tube_radius))
    return finite_result("R", R, "the crossing chain", lambda: (
        scale / cosh_RL * 2.0 * math.sinh(0.5 * (R + 1.5)) * math.sinh(0.5 * (R - 1.5))
    ))


def simplified_crossing_constant(kappa2: float = 1.0) -> float:
    """kappa''' with chain >= kappa''' s0 exp(R - RL) for 3 <= R <= RL:
    (pi / (16 kappa'')) (1 - cosh(3/2)/cosh 3) / (1 + exp(-6))."""
    require_finite(kappa2=kappa2)
    if kappa2 <= 0.0:
        raise DomainError("kappa'' must be positive")
    return finite_result("kappa2", kappa2, "kappa'''", lambda: (
        math.pi / (16.0 * kappa2)
        * (1.0 - math.cosh(1.5) / math.cosh(3.0))
        / (1.0 + math.exp(-6.0))
    ))


@dataclass(frozen=True)
class CrossingBound:
    chain: float
    simplified: float
    kappa2: float
    kappa3: float


def crossing_lower_bound(R: float, tube_radius: float, systole_bound: float,
                         kappa2: float = 1.0) -> CrossingBound:
    """Area lower bound for a surface crossing the tube through radius R,
    3 <= R <= tube_radius: the chain value and the simplified form
    kappa''' s0 exp(R - RL), with the constants used."""
    require_finite(R=R, tube_radius=tube_radius, systole_bound=systole_bound,
                   kappa2=kappa2)
    if R < 3.0:
        raise DomainError("the crossing estimate needs R >= 3")
    if R > tube_radius:
        raise DomainError("R must not exceed the tube radius")
    chain = crossing_chain_value(R, tube_radius, systole_bound, kappa2)
    kappa3 = simplified_crossing_constant(kappa2)
    simplified = kappa3 * systole_bound * math.exp(R - tube_radius)
    return CrossingBound(chain, simplified, kappa2, kappa3)


def margulis_area_bound(eps: float) -> float:
    """Monotonicity-formula area bound from a Margulis-type constant:
    2 pi (cosh(eps) - 1)."""
    return _disk_area("eps", eps)
