"""Explicit area inequalities around short geodesics, as computable values.

Covers the parallel-disk lower bound 2 pi (cosh R - 1), the geodesic
projection whose contraction property yields it, the comparison-surface
band estimates, the transverse-crossing chain with its simplified
exponential form, and the Margulis-constant bound.

The universal constants of the crossing chain are never pinned down by
theory; this module declares kappa'' = 1 by default, derives the final
constant from the chain, prints all of them, and accepts overrides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_real_array, require_finite

#: Published lower estimate for the Margulis constant of hyperbolic
#: 3-manifolds.  The introduction-level bound "at least 0.104" admits two
#: readings; both are exposed: this constant, and
#: margulis_area_bound(MARGULIS_EPSILON_LOWER).
MARGULIS_EPSILON_LOWER = 0.104


def parallel_disk_area(R: float) -> float:
    """Area of a geodesic parallel disk of radius R: 2 pi (cosh R - 1)."""
    require_finite(R=R)
    if R < 0.0:
        raise DomainError("disk radius must be nonnegative")
    # 4 pi sinh^2(R/2) avoids cancellation at small R.
    return 4.0 * math.pi * math.sinh(0.5 * R) ** 2


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
    maxima.
    """
    require_finite(length=length)
    if length <= 0.0:
        raise DomainError("geodesic length must be positive")
    rs = as_real_array("radius grid", r_grid)
    if rs.ndim != 1 or rs.size == 0 or not np.all(rs > 0.0):
        raise DomainError("radius grid must be a nonempty list of positive radii")
    dP = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # rows (theta, r)
    max_sv = 0.0
    per_dir = [0.0, 0.0, 0.0]
    for r in rs:
        src = np.diag([math.cosh(r) ** 2, math.sinh(r) ** 2, 1.0])
        tgt = np.diag([math.sinh(r) ** 2, 1.0])
        B = np.linalg.solve(src, dP.T @ tgt @ dP)
        sv = np.sqrt(np.maximum(np.linalg.eigvals(B).real, 0.0))
        max_sv = max(max_sv, float(sv.max()))
        for k, e in enumerate(np.eye(3)):
            stretch = math.sqrt((dP @ e) @ tgt @ (dP @ e) / (e @ src @ e))
            per_dir[k] = max(per_dir[k], stretch)
    return ProjectionReport(
        max_singular_value=max_sv,
        per_direction_max=tuple(per_dir),
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
        if not 0.0 < self.systole_bound <= 1.0:
            raise DomainError("systole bound must lie in (0, 1]")


def annulus_band_bound(e: BandEstimate) -> tuple:
    """Area bound for the comparison band: returns (bound, intermediate)
    with bound = (2 s0 / sinh RL) cosh((rho1+rho2)/2) sinh((rho2-rho1)/2)
    and the tighter intermediate (s0 / sinh RL)(sinh rho2 - sinh rho1);
    the two agree identically."""
    s0 = e.systole_bound
    shR = math.sinh(e.tube_radius)
    bound = (
        2.0 * s0 / shR
        * math.cosh(0.5 * (e.rho1 + e.rho2))
        * math.sinh(0.5 * (e.rho2 - e.rho1))
    )
    intermediate = s0 / shR * (math.sinh(e.rho2) - math.sinh(e.rho1))
    scale = max(abs(bound), abs(intermediate), 1e-300)
    if abs(bound - intermediate) > 1e-10 * scale:  # pragma: no cover
        raise RuntimeError("hyperbolic identity violated: check inputs")
    return bound, intermediate


def crossing_chain_value(R: float, tube_radius: float, systole_bound: float,
                         kappa2: float = 1.0) -> float:
    """The crossing chain (pi / (8 kappa'')) (s0 / cosh RL)
    (cosh R - cosh(3/2)); vanishes at R = 3/2 by construction."""
    require_finite(R=R, tube_radius=tube_radius, systole_bound=systole_bound,
                   kappa2=kappa2)
    if kappa2 <= 0.0:
        raise DomainError("kappa'' must be positive")
    return (
        math.pi / (8.0 * kappa2)
        * systole_bound / math.cosh(tube_radius)
        * (math.cosh(R) - math.cosh(1.5))
    )


def simplified_crossing_constant(kappa2: float = 1.0) -> float:
    """kappa''' with chain >= kappa''' s0 exp(R - RL) for 3 <= R <= RL:
    (pi / (16 kappa'')) (1 - cosh(3/2)/cosh 3) / (1 + exp(-6))."""
    require_finite(kappa2=kappa2)
    if kappa2 <= 0.0:
        raise DomainError("kappa'' must be positive")
    return (
        math.pi / (16.0 * kappa2)
        * (1.0 - math.cosh(1.5) / math.cosh(3.0))
        / (1.0 + math.exp(-6.0))
    )


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
    if not 0.0 < systole_bound <= 1.0:
        raise DomainError("systole bound must lie in (0, 1]")
    chain = crossing_chain_value(R, tube_radius, systole_bound, kappa2)
    kappa3 = simplified_crossing_constant(kappa2)
    simplified = kappa3 * systole_bound * math.exp(R - tube_radius)
    return CrossingBound(chain, simplified, kappa2, kappa3)


def margulis_area_bound(eps: float) -> float:
    """Monotonicity-formula area bound from a Margulis-type constant:
    2 pi (cosh(eps) - 1)."""
    require_finite(eps=eps)
    if eps < 0.0:
        raise DomainError("epsilon must be nonnegative")
    return parallel_disk_area(eps)
