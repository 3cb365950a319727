"""Solid-torus fillers: profile functions, metric, verification, area bound.

A filler caps a flat-torus boundary T with a solid torus of depth L + 1.
Away from the core the metric is exp(-2 f(t)) dsigma^2 + dt^2; on the last
unit collar it is exp(-2 f(t)) (eta^2(t-L) dx1^2 + dx2^2) + dt^2, where
eta collapses the x1 circle so that the torus degenerates to a core
geodesic at t = L + 1.

Profile recipe.  f(t) = t on [0, 1], then a C^2 ramp 1 + 2s - (x + 2s)
exp(-x/s) (x = t - 1, s = 3/4) increasing to the cap 1 + 2s = 2.5 < 3
with |f'| <= 1 and |f''| <= 1/(s e) independent of L.  The ramp slope is
strictly positive everywhere and only exponentially small beyond L + 2/3,
which keeps the level-torus diameters strictly decreasing and gives the
core chart O(rho^3)/O(rho) smoothness residuals with the nonzero
constants 2 f'(L+1) and 2 f'(L+1) exp(-2 f(L+1)); ``verify`` reads both
from the jets of f and eta, and the sign of f' from log f', which stays
finite where f' underflows (from L = 559), so it holds at every depth
below 2^49, past which L + 0.95, the end of its flat-level probe,
rounds to L + 1.  eta is 1 near 0,
descends through a smoothstep, rounds the corner onto the exact linear
tail eta(x) = (1 - x) * (2 pi / alpha) * exp(f(L+1)) near 1 (slope -K
with K = 2 pi exp(f(L+1)) / alpha).

``build`` is the only constructor.  A filler file stores the depth and the
lattice together with the profile parameters they determine; reading one
rebuilds the filler from the depth and the lattice, and a file whose
stored parameters disagree with the rebuilt ones is rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .errors import (DomainError, as_float, as_int, as_real_array, json_fields, load_json,
                     require_finite)
from .fields import Field1D, _memoized
from .flat_torus import FlatTorusLattice, require_lattice, systole

_FORMAT = "thinpart-filler v1"
_RAMP_SCALE = 0.75
_ETA_FLAT_END = 0.02  # eta = 1 on [0, 0.02]


# The quintic smoothstep S (order 0): 0 -> 1 with zero slope and curvature
# at both ends; its antiderivative with value 0 at 0 (order -1); and its
# derivatives (orders 1-3).
_SMOOTHSTEP = {
    -1: lambda u: 2.5 * u**4 - 3.0 * u**5 + u**6,
    0: lambda u: u**3 * (10.0 - 15.0 * u + 6.0 * u**2),
    1: lambda u: 30.0 * u**2 * (1.0 - u) ** 2,
    2: lambda u: 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u),
    3: lambda u: 60.0 * (1.0 - 6.0 * u + 6.0 * u**2),
}


def _smoothstep(u, order=0):
    """S^(order)(u), continued off [0, 1] as S is: constant below and above."""
    if order <= 0:
        return _SMOOTHSTEP[order](np.clip(u, 0.0, 1.0))
    u = np.asarray(u, dtype=float)
    return np.where((u > 0.0) & (u < 1.0), _SMOOTHSTEP[order](u), 0.0)


def _ramp_decay(t):
    """exp(-(t - 1)/s), the ramp's decay, which every derivative of f reads."""
    return np.exp(-(np.asarray(t, dtype=float) - 1.0) / _RAMP_SCALE)


class DepthProfile(Field1D):
    """The profile f: identity on [0, 1], then an exponential-tail ramp
    with scale s = 3/4."""

    def __init__(self):
        super().__init__(self._derivative)

    @staticmethod
    def _derivative(t, order, memo):
        decay = _memoized(memo, _ramp_decay, t)
        t = np.asarray(t, dtype=float)
        x, s = t - 1.0, _RAMP_SCALE
        if order == 0:
            return np.where(t <= 1.0, t, 1.0 + 2.0 * s - (x + 2.0 * s) * decay)
        if order == 1:
            return np.where(t <= 1.0, 1.0, (1.0 + x / s) * decay)
        if order == 2:
            return np.where(t <= 1.0, 0.0, -(x / s**2) * decay)
        return np.where(t <= 1.0, 0.0, ((x - s) / s**3) * decay)

    @staticmethod
    def log_slope(t):
        """log f'(t): 0 on [0, 1], then log1p(x/s) - x/s.  It is finite
        at every depth, also where f' = (1 + x/s) exp(-x/s) underflows to
        0 (from x/s ~ 745), so ``verify`` reads the sign of f' from it."""
        x = np.maximum(np.asarray(t, dtype=float) - 1.0, 0.0) / _RAMP_SCALE
        return np.log1p(x) - x


class CollapseProfile(Field1D):
    """The profile eta on [0, 1]: 1, smoothstep descent, corner rounding,
    exact linear tail K*(1 - x)."""

    def __init__(self, K: float, tail: float, corner_width: float):
        if K <= 0.0:
            raise DomainError("collapse slope must be positive")
        self.K = K
        self.tail = tail
        self.corner_width = corner_width
        self.x2 = 1.0 - tail          # tail start
        self.x1 = self.x2 - corner_width
        self.x0 = _ETA_FLAT_END
        if not (self.x0 < self.x1 < self.x2 < 1.0):
            raise DomainError("collapse profile knots out of order")
        self.v2 = K * tail            # value where the tail takes over
        self.v1 = self.v2 + 0.5 * K * corner_width
        if self.v1 >= 1.0:
            raise DomainError("collapse profile would exceed 1")
        super().__init__(self._derivative)

    def _derivative(self, x, order, memo):
        x = np.asarray(x, dtype=float)
        span = self.x1 - self.x0
        w = self.x2 - self.x1
        if order == 0:
            gentle = 1.0 - (1.0 - self.v1) * _smoothstep((x - self.x0) / span)
            corner = self.v1 - self.K * w * _smoothstep((x - self.x1) / w, -1)
            tail, flat = self.K * (1.0 - x), 1.0
        else:
            gentle = -(1.0 - self.v1) * _smoothstep((x - self.x0) / span, order) / span**order
            corner = -self.K * _smoothstep((x - self.x1) / w, order - 1) / w ** (order - 1)
            tail, flat = (-self.K if order == 1 else 0.0), 0.0
        out = np.where(x <= self.x1, gentle, np.where(x <= self.x2, corner, tail))
        return np.where(x <= self.x0, flat, out)


@dataclass(frozen=True)
class FillerSpec:
    """A built filler: depth L, boundary lattice, and the two profiles."""

    depth: float
    lattice: FlatTorusLattice
    f: DepthProfile
    eta: CollapseProfile

    @property
    def collapse_slope(self) -> float:
        return self.eta.K

    @property
    def tail_reach(self) -> float:
        """Largest rho with eta exactly linear on [1 - rho, 1]."""
        return 1.0 - self.eta.x2

    @property
    def core_height(self) -> float:
        return float(self.f(self.depth + 1.0))

    @property
    def _collapse(self) -> Field1D:
        """eta(t - L), the collapse factor at depth t, which eta's flat
        head makes 1 before the collar t = L."""
        return self.eta.compose_affine(1.0, -self.depth)


def build(depth: float, lattice: FlatTorusLattice) -> FillerSpec:
    """Construct the filler for the given boundary torus and depth L > 10.

    The lattice's first generator (alpha, 0) sets the collapse slope
    K = 2 pi exp(f(L+1)) / alpha.
    """
    if not as_float("filler depth", depth) > 10.0:
        raise DomainError("filler depth must exceed 10")
    require_lattice("lattice", lattice)
    f = DepthProfile()
    alpha = lattice.a1
    K = 2.0 * math.pi * math.exp(float(f(depth + 1.0))) / alpha
    tail = min(0.012, 0.85 / K)
    corner_width = min(0.1 / K, 0.45)
    eta = CollapseProfile(K, tail, corner_width)
    return FillerSpec(depth, lattice, f, eta)


def _depths(spec: FillerSpec, t) -> np.ndarray:
    """``t``, a depth or an array of depths, as a float array; a
    DomainError when it is not an array of real numbers, or naming the
    first depth outside [0, L + 1), the range of the level tori."""
    depths = as_real_array("depth t", t)
    outside = ~((0.0 <= depths) & (depths < spec.depth + 1.0))
    if outside.any():
        raise DomainError(
            "level torus exists for 0 <= t < L + 1 (core_chart_metric covers "
            f"the core), got t = {float(depths[outside][0])!r}"
        )
    return depths


def metric_at(spec: FillerSpec, point) -> tuple:
    """Diagonal metric coefficients (g11, g22, g33) at (x1, x2, t).

    The metric is x-independent, and g33 = 1.  Each coordinate may be an
    array; each depth t lies in [0, L + 1): at the core the product chart
    is singular and ``core_chart_metric`` applies.
    """
    try:
        x1, x2, t = point
    except (TypeError, ValueError):
        raise DomainError(f"point must be (x1, x2, t), got {point!r}") from None
    as_real_array("point x1", x1)
    as_real_array("point x2", x2)
    t = _depths(spec, t)
    e2f = np.exp(-2.0 * spec.f(t))
    return (e2f * spec._collapse(t) ** 2, e2f, 1.0)


def core_chart_metric(spec: FillerSpec, rho) -> tuple:
    """Pulled-back metric near the core in polar coordinates
    (rho, theta, z): returns (g_theta_theta, g_zz, g_rho_rho), at a
    radius or an array of radii.

    Smoothness of the solid torus shows as g_theta_theta = rho^2 + O(rho^3)
    and g_zz = exp(-2 f(L+1)) + O(rho).
    """
    rho = as_real_array("rho", rho)
    if not np.all((0.0 < rho) & (rho <= 1.0)):
        raise DomainError("core chart needs 0 < rho <= 1")
    e2f = np.exp(-2.0 * spec.f(spec.depth + 1.0 - rho))
    alpha = spec.lattice.a1
    g_theta = e2f * spec.eta(1.0 - rho) ** 2 * alpha**2 / (4.0 * math.pi**2)
    return (g_theta, e2f, 1.0)


def slice_lattice(spec: FillerSpec, t: float) -> FlatTorusLattice:
    """Lattice of the level torus T_t, at one depth t, in orthonormal
    coordinates: the boundary lattice with x1 scaled by exp(-f(t)) eta
    and x2 by exp(-f(t))."""
    # Read as a one-element array, as every array of depths is: numpy's
    # scalar loops can differ from its array loops in the last bit.
    t = _depths(spec, [as_float("depth t", t)])
    e_f = float(np.exp(-spec.f(t))[0])
    e_f_eta = e_f * float(spec._collapse(t)[0])
    lat = spec.lattice
    return FlatTorusLattice(e_f_eta * lat.a1, e_f_eta * lat.a2, e_f * lat.b2)


def slice_area(spec: FillerSpec, t):
    """Area of the level torus T_t, at a depth or an array of depths."""
    t = _depths(spec, t)
    return np.exp(-2.0 * spec.f(t)) * spec._collapse(t) * spec.lattice.area


def mean_convexity(spec: FillerSpec, t):
    """Signed level-torus mean curvature toward +t: f'(t) - eta'/(2 eta),
    at a depth or an array of depths."""
    t = _depths(spec, t)
    eta, eta_prime = spec._collapse.jet(t, 1)
    return spec.f.d1(t) - 0.5 * eta_prime / eta


def as_warped(spec: FillerSpec, t_max: float | None = None):
    """The filler body as a diagonal warped spec on [0, t_max]."""
    from .warped_metric import WarpedMetricSpec

    L = spec.depth
    t_max = L + 0.5 if t_max is None else as_float("t_max", t_max)
    if not 0.0 < t_max < L + 1.0:
        raise DomainError("t_max must lie in (0, L + 1)")

    f, collapse = spec.f, spec._collapse

    def exp_f(t, order, memo):
        """The order-th derivative of h = exp(-f) at t, from one exp per
        memo and f's derivatives read through it."""
        e = _memoized(memo, lambda t: np.exp(-f.derivative(t, 0, memo)), t, exp_f)
        if order == 0:
            return e
        fp = f.derivative(t, 1, memo)
        if order == 1:
            return -fp * e
        fpp = f.derivative(t, 2, memo)
        if order == 2:
            return (fp**2 - fpp) * e
        return (-fp**3 + 3.0 * fp * fpp - f.derivative(t, 3, memo)) * e

    def a1(t, order, memo):
        """The order-th derivative of h * eta(t - L), by Leibniz."""
        return sum(
            math.comb(order, j) * exp_f(t, j, memo) * collapse.derivative(t, order - j, memo)
            for j in range(order + 1)
        )

    h = Field1D(exp_f)
    return WarpedMetricSpec(spec.lattice, 0.0, t_max, h, kind="filler", a1=Field1D(a1), a2=h)


# ------------------------------------------------------------ verification


@dataclass(frozen=True)
class FillerReport:
    """Verification summary; carries failures rather than raising.

    The level-torus and core-chart fields read the jets of f and eta
    (``verify``).  ``core_theta_slope`` and ``core_z_slope`` are the
    orders in rho of g_theta - rho^2 and g_zz - exp(-2 f(L+1)) at the
    core: the power of the first Taylor coefficient at rho = 0 that is
    nonzero (the rho^2 one beyond 1e-12), or one past the last power read
    (rho^3 and rho) when none is.  ``core_theta_constant`` and
    ``core_z_constant`` are those coefficients (0 when none is nonzero).
    A smooth core reads orders 3 and 1, with the constants 2 f'(L+1) and
    2 f'(L+1) exp(-2 f(L+1)).  A coefficient whose sign is known from log
    f' (``DepthProfile.log_slope``) is nonzero even where its float value
    underflows to 0, as both constants do from L = 559.
    """

    flat_levels: bool
    diameters_strictly_decreasing: bool
    mean_convex: bool
    boundary_collar_exact: bool
    continuous_at_collar: bool
    profile_cap: float
    ramp_flatness_sup: float        # sup f' on [L + 2/3, L + 1]
    core_theta_constant: float      # leading coefficient of g_theta - rho^2
    core_z_constant: float          # leading coefficient of g_zz - exp(-2 f(L+1))
    core_theta_slope: float         # its order in rho: 0, 2, 3, or 4 past rho^3
    core_z_slope: float             # its order in rho: 1, or 2 past rho
    ball_count_note: str

    @property
    def passed(self) -> bool:
        return (
            self.flat_levels
            and self.diameters_strictly_decreasing
            and self.mean_convex
            and self.boundary_collar_exact
            and self.continuous_at_collar
            and self.profile_cap <= 3.0
            and self.ramp_flatness_sup <= 1e-4
            and self.core_theta_constant <= 1e-4
            and self.core_z_constant <= 1e-4
            and self.core_theta_slope == 3.0
            and self.core_z_slope == 1.0
        )


def verify(spec: FillerSpec, grid: int = 200) -> FillerReport:
    """Check the defining properties, at ``grid`` depths for the level
    tori.

    Covers: flat level tori (the metric equals its warped-product form),
    the exact exp(-2t) collar on [0, 1], continuity of the two metric
    formulas at t = L, and profile bounds, on sample grids; and, from one
    jet of f and of eta(t - L):

    - strictly decreasing level diameters.  The level lattice at depth t
      is diag(exp(-f) eta(t - L), exp(-f)) applied to the boundary
      lattice; where f' > 0 and eta' <= 0 both scales shrink strictly,
      and so does the covering radius.  f' > 0 is read from log f'
      (``DepthProfile.log_slope``), which stays finite where f'
      underflows.
    - mean convexity toward the core: ``mean_convexity``, -1/2 the sum
      of the two scales' log-derivatives, f' - eta'/(2 eta), is positive.
      It is where f' > 0 and eta'/eta <= 0, and its float value decides
      elsewhere.
    - core-chart smoothness, at rho = 0 from the jets of eta at 1 and of
      f at L + 1.  With eta(1) = 0, g_theta = c rho^2 (1 + (2 f'(L+1) -
      eta''(1) / eta'(1)) rho + O(rho^2)), where c = (alpha eta'(1) /
      2 pi)^2 exp(-2 f(L+1)) is 1 when the cone angle is 2 pi, that is
      when eta'(1) = -K; and g_zz = exp(-2 f(L+1)) (1 + 2 f'(L+1) rho +
      O(rho^2)).  On eta's linear tail eta'' = 0, so a smooth core reads
      orders 3 and 1 (``FillerReport``) at every depth: both coefficients
      are positive where f'(L+1) > 0, read from its log.
    """
    grid = as_int("grid", grid)
    if grid < 2:
        raise DomainError(f"verify needs a grid of at least 2 depths, got {grid!r}")
    L = spec.depth

    # (i) flat level tori: the metric is the warped product of the level
    # lattice, so metric_at (the collar formula) gives the squares of the
    # warped spec's a1 and a2 (a Leibniz series) to 1e-12 relative.
    ts_probe = np.linspace(0.0, L + 0.9, 23)
    warped = as_warped(spec, L + 0.95)
    g11, g22, _ = metric_at(spec, (0.0, 0.0, ts_probe))
    flat_levels = all(
        bool(np.all(np.abs(g - np.asarray(a(ts_probe)) ** 2) <= 1e-12 * np.abs(g)))
        for g, a in ((g11, warped.a1), (g22, warped.a2))
    )

    # (ii) diameters strictly decreasing and mean convexity.
    ts = np.linspace(0.0, L + 1.0, grid, endpoint=False)
    rising = spec.f.log_slope(ts) > -np.inf
    eta, eta_prime = spec._collapse.jet(ts, 1)
    decreasing = bool(np.all(rising) and np.all(eta_prime <= 0.0))
    convex = bool(np.all((rising & (eta_prime / eta <= 0.0))
                         | (mean_convexity(spec, ts) > 0.0)))

    # (iii) exact collar on [0, 1].
    ts_collar = np.linspace(0.0, 1.0, 21, endpoint=False)
    g11, g22, _ = metric_at(spec, (0.0, 0.0, ts_collar))
    e2t = np.exp(-2.0 * ts_collar)
    collar = np.array_equal(g11, e2t) and np.array_equal(g22, e2t)

    # Continuity across t = L (eta(0) = 1).
    g11, g22, _ = metric_at(spec, (0.0, 0.0, np.array([L - 1e-12, L])))
    below, above = np.array([g11, g22]).T
    continuous = bool(np.all(np.abs(below - above) <= 1e-10 * np.maximum(1.0, np.abs(below))))

    # Profile bounds, and f and f' at the core t = L + 1, the last depth.
    tt = np.linspace(0.0, L + 1.0, 4001)
    f, fp = spec.f.jet(tt, 1)
    tail_mask = tt >= L + 2.0 / 3.0
    ramp_flatness = float(fp[tail_mask].max())
    cap, fp_core = float(f[-1]), float(fp[-1])

    # Core chart: the first nonzero Taylor coefficient at rho = 0 of
    # g_theta - rho^2 = (alpha eta(1 - rho) / 2 pi)^2 g_zz - rho^2, through
    # rho^3, and of g_zz - g_zz(0) = exp(-2 f(L+1-rho)) - exp(-2 f(L+1)),
    # from the jets of eta at 1 and of f at L + 1.  g_theta's rho^2 coefficient
    # is 1 up to rounding exactly when the cone angle at the core is 2 pi.
    # A term is nonzero where its float value exceeds its tolerance, or
    # where its sign is known: the rho^3 one, cone (2 f'(L+1) - eta''/eta'),
    # is positive where f'(L+1) > 0 and eta''/eta' <= 0.
    eta_core, eta_p, eta_pp = (float(v) for v in spec.eta.jet(1.0, 2))
    scale = (spec.lattice.a1 / (2.0 * math.pi)) ** 2 * math.exp(-2.0 * cap)
    cone = scale * eta_p**2
    core_rising = bool(spec.f.log_slope(L + 1.0) > -np.inf)
    theta_terms = (
        (0.0, scale * eta_core**2, 0.0, False),
        (2.0, cone - 1.0, 1e-12, False),
        (3.0, cone * (2.0 * fp_core - eta_pp / eta_p), 0.0,
         core_rising and cone > 0.0 and eta_pp / eta_p <= 0.0),
    )
    theta_order, theta_constant = next(
        ((k, c) for k, c, tol, positive in theta_terms if positive or abs(c) > tol), (4.0, 0.0))
    z_constant = 2.0 * fp_core * math.exp(-2.0 * cap)

    return FillerReport(
        flat_levels=flat_levels,
        diameters_strictly_decreasing=decreasing,
        mean_convex=convex,
        boundary_collar_exact=collar,
        continuous_at_collar=continuous,
        profile_cap=cap,
        ramp_flatness_sup=ramp_flatness,
        core_theta_constant=theta_constant,
        core_z_constant=z_constant,
        core_theta_slope=theta_order,
        core_z_slope=1.0 if core_rising or z_constant != 0.0 else 2.0,
        ball_count_note=(
            "disjoint balls counted for t <= L - 1 (conservative reading; "
            "the looser count runs to L + 2)"
        ),
    )


# ------------------------------------------------------------- area bound


@dataclass(frozen=True)
class AreaBound:
    """The monotonicity-formula chain for surfaces meeting every level."""

    bound: float
    kappa: float
    ball_count: int
    ball_radius_scale: float  # rho0 = min(1, systole / 2)
    spacing: float
    monotonicity_constant: float


def area_lower_bound(spec: FillerSpec, monotonicity_constant: float = math.pi) -> AreaBound:
    """Lower bound for the area of a surface meeting every level torus
    T_t, 0 <= t <= L - 1: disjoint balls of radius exp(-3) rho0 centered
    on levels t_n = 1 + 2 exp(-3) n each contribute
    c exp(-6) rho0^2 by the monotonicity formula.

    The monotonicity constant c is not pinned down universally; the
    default pi is the small-ball Euclidean comparison and can be
    overridden.  Returns the bound together with kappa = bound / L.
    """
    require_finite(monotonicity_constant=monotonicity_constant)
    if monotonicity_constant <= 0.0:
        raise DomainError("monotonicity constant must be positive")
    rho0 = min(1.0, 0.5 * systole(spec.lattice))
    spacing = 2.0 * math.exp(-3.0)
    L = spec.depth
    n0 = int(math.floor((L - 2.0) / spacing))
    bound = (n0 + 1) * monotonicity_constant * math.exp(-6.0) * rho0**2
    return AreaBound(
        bound=bound,
        kappa=bound / L,
        ball_count=n0,
        ball_radius_scale=rho0,
        spacing=spacing,
        monotonicity_constant=monotonicity_constant,
    )


# ------------------------------------------------------------------- JSON


def _profile_parameters(spec: FillerSpec) -> dict:
    """The profile parameters a filler file stores; ``build`` sets them
    all from the depth and the lattice."""
    return {
        "ramp_scale": _RAMP_SCALE,
        "collapse": {
            "slope": spec.eta.K,
            "tail": spec.eta.tail,
            "corner_width": spec.eta.corner_width,
        },
    }


def to_json_dict(spec: FillerSpec) -> dict:
    """Serializable description: exact rebuild parameters plus Chebyshev
    mirrors of the smooth profile segments for external consumers."""
    L = spec.depth
    f_cheb = chebyshev.Chebyshev.interpolate(
        lambda t: np.asarray(spec.f(t)), 40, domain=[1.0, L + 1.0]
    )
    eta_cheb = chebyshev.Chebyshev.interpolate(
        lambda x: np.asarray(spec.eta(x)), 60, domain=[spec.eta.x0, spec.eta.x1]
    )
    return {
        "format": _FORMAT,
        "depth": L,
        "lattice": spec.lattice.to_json_dict(),
        **_profile_parameters(spec),
        "chebyshev_mirror": {
            "f_interior": list(f_cheb.coef),
            "f_head": "f(t) = t on [0, 1]",
            "f_tail": "1 + 2s - (t - 1 + 2s) exp(-(t - 1)/s)",
            "eta_interior": list(eta_cheb.coef),
            "eta_tail": "slope * (1 - x) for x >= 1 - tail",
        },
    }


def from_json_dict(data: dict) -> FillerSpec:
    """Rebuild a filler with ``build`` from its stored depth and lattice.

    The stored ramp scale and collapse parameters must equal the rebuilt
    ones bit for bit; a description whose values differ is rejected.
    """
    fmt, depth, lattice, ramp_scale, collapse = json_fields(
        "filler", data, "format", "depth", "lattice", "ramp_scale", "collapse")
    if fmt != _FORMAT:
        raise DomainError(f"unknown filler format {fmt!r}")
    stored = {"ramp_scale": ramp_scale, "collapse": collapse}
    spec = build(as_float("filler depth", depth), FlatTorusLattice.from_json_dict(lattice))
    rebuilt = _profile_parameters(spec)
    if stored != rebuilt:
        raise DomainError(
            f"stored filler parameters {stored!r} differ from the rebuilt {rebuilt!r}"
        )
    return spec


def save(spec: FillerSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_json_dict(spec), fh, indent=2)


def load(path) -> FillerSpec:
    return load_json(path, from_json_dict)
