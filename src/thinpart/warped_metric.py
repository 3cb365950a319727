"""Metrics on T x [a, b] compared against a warped reference.

The reference metric is h(x3)^2 dsigma^2 + dx3^2 for a warping h > 0; a
second metric g = a_kl dx_k dx_l lives in the same orthonormal lattice
coordinates.  This module measures the comparison constants (the ratios
behind the hypotheses H1-H4), evaluates level-torus mean curvature, and
applies the blow-up rescaling
    b_kl(y) = a_kl(y1, y2, y3/lambda + s) * lambda^{n2(k,l)}
with rescaled warping h(y3/lambda + s)/h(s).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, as_float, as_floats, as_int, as_real_array,
                     finite_result, json_fields, require_finite)
from .fields import Field1D
from .flat_torus import FlatTorusLattice, require_lattice

_AXES = (1, 2, 3)


def _index(name: str, i) -> int:
    """``i`` as a 1-based coordinate index, 1, 2 or 3; a DomainError
    naming ``name`` otherwise."""
    if as_int(name, i) not in _AXES:
        raise DomainError(f"{name} must be 1, 2 or 3, got {i!r}")
    return int(i)


def _require_field(name: str, value) -> Field1D:
    """``value``; a DomainError naming ``name`` when it is not a ``Field1D``."""
    if not isinstance(value, Field1D):
        raise DomainError(f"{name} must be a Field1D, got {value!r}")
    return value


def n_p(*indices: int) -> int:
    """Count how many of the given 1-based indices are horizontal (1 or 2)."""
    return sum(1 for i in indices if _index("coordinate index", i) != 3)


class DiagonalCoefficients:
    """Coefficient field diag(a1(x3)^2, a2(x3)^2, 1)."""

    def __init__(self, a1: Field1D, a2: Field1D):
        self.a1 = a1
        self.a2 = a2

    def _sq(self, f: Field1D, t, order: int, memo: dict):
        """The order-th x3-derivative of f^2, from one jet of f.
        ``np.float_power`` squares by the C library's pow, as the float
        powers of h in ``check_hypotheses`` do, so a_i^2 / h^2 is exactly 1
        where a_i = h; numpy's array ``** 2`` multiplies, which rounds
        differently."""
        f0, *d = f.jet(t, order, memo)
        if order == 0:
            return np.float_power(f0, 2)
        if order == 1:
            return 2.0 * f0 * d[0]
        if order == 2:
            return 2.0 * (np.float_power(d[0], 2) + f0 * d[1])
        return 2.0 * (3.0 * d[0] * d[1] + f0 * d[2])

    def deriv(self, axes: tuple, x1, x2, x3) -> np.ndarray:
        shape = np.broadcast_shapes(np.shape(x1), np.shape(x2), np.shape(x3))
        out = np.zeros(shape + (3, 3))
        if any(a != 3 for a in axes):
            return out
        memo = {}
        out[..., 0, 0] = self._sq(self.a1, x3, len(axes), memo)
        out[..., 1, 1] = self._sq(self.a2, x3, len(axes), memo)
        if not axes:
            out[..., 2, 2] = 1.0
        return out


class CallableCoefficients:
    """General symmetric coefficient field backed by a single callable.

    ``fn(x1, x2, x3, axes)`` is called per point, with Python floats, and
    must return the 3x3 matrix of partial derivatives ``d_axes a_kl``
    (``axes`` a tuple of 1-based directions, empty for the plain value).
    ``deriv`` makes one pass over the points of its (broadcast) arguments
    per multi-index, collects the returns into one array and checks its
    shape once: a return that is not a 3x3 matrix of numbers (a scalar, a
    row, a ragged list) raises a DomainError naming the multi-index.
    ``check_hypotheses`` calls ``fn`` once per (sample point, derivative
    multi-index of order 0-3) before it validates any sample; ``fn``
    must be pure.
    """

    def __init__(self, fn):
        self.fn = fn

    def deriv(self, axes: tuple, x1, x2, x3) -> np.ndarray:
        axes = tuple(axes)
        points = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in (x1, x2, x3)))
        columns = [c.ravel().tolist() for c in points]
        values = list(map(self.fn, *columns, itertools.repeat(axes)))
        try:
            out = np.array(values, dtype=float)
        except (TypeError, ValueError):
            seen = "a ragged or non-numeric value"
        else:
            if out.shape[1:] == (3, 3) or not values:
                return out.reshape(points[0].shape + (3, 3))
            seen = f"shape {out.shape[1:]}"
        raise DomainError(
            f"coefficient callable must return a 3x3 matrix; for axes {axes!r} "
            f"it returned {seen}")


class _RescaledCoefficients:
    """Blow-up wrapper: derivative scaling by powers of lambda."""

    def __init__(self, base, s: float, lam: float):
        self.base = base
        self.s = s
        self.lam = lam
        self._lam_pow = np.array(
            [[lam**2, lam**2, lam], [lam**2, lam**2, lam], [lam, lam, 1.0]]
        )

    def deriv(self, axes: tuple, x1, x2, x3) -> np.ndarray:
        raw = self.base.deriv(axes, x1, x2, np.asarray(x3) / self.lam + self.s)
        n3 = sum(1 for a in axes if a == 3)
        return raw * self._lam_pow * self.lam ** (-n3)


@dataclass
class WarpedMetricSpec:
    """A metric on T x [x3_min, x3_max] with reference warping ``warping``.

    Diagonal specs carry ``a1``/``a2`` with a_kl = diag(a1^2, a2^2, 1);
    non-diagonal specs carry a general ``coefficients`` field instead, and
    a spec given both raises a DomainError.  ``warping``, ``a1`` and
    ``a2`` are ``Field1D``s.  Immutable by convention; all evaluation is
    pure.
    """

    lattice: FlatTorusLattice
    x3_min: float
    x3_max: float
    warping: Field1D
    kind: str = "custom"
    a1: Field1D | None = None
    a2: Field1D | None = None
    coefficients: object | None = field(default=None, repr=False)

    def __post_init__(self):
        require_lattice("lattice", self.lattice)
        require_finite(x3_min=self.x3_min, x3_max=self.x3_max)
        if self.x3_max <= self.x3_min:
            raise DomainError("empty x3 interval")
        _require_field("warping", self.warping)
        if self.coefficients is not None:
            if self.a1 is not None or self.a2 is not None:
                raise DomainError("coefficients cannot be given together with a1 or a2")
        elif self.a1 is None or self.a2 is None:
            raise DomainError("diagonal spec needs a1 and a2 fields")
        else:
            self.coefficients = DiagonalCoefficients(_require_field("a1", self.a1),
                                                     _require_field("a2", self.a2))

    # -- constructors ------------------------------------------------------

    @classmethod
    def flat(cls, lattice: FlatTorusLattice, x3_min: float = 0.0, x3_max: float = 1.0):
        one = Field1D.constant(1.0)
        return cls(lattice, x3_min, x3_max, one, kind="flat", a1=one, a2=one)

    @classmethod
    def diagonal(cls, lattice, x3_min, x3_max, a1: Field1D, a2: Field1D,
                 warping: Field1D | None = None, kind: str = "custom"):
        if warping is None:
            warping = Field1D.constant(1.0)
        return cls(lattice, x3_min, x3_max, warping, kind=kind, a1=a1, a2=a2)

    @classmethod
    def from_sampled(cls, lattice, x3, a1_samples, a2_samples, h_samples):
        """Spline-backed diagonal spec of kind "custom" from grids of a1, a2
        and h values, each an array of real numbers (a DomainError naming
        it otherwise)."""
        x3, a1, a2, h = (as_real_array(f"{name} samples", values) for name, values in
                         (("x3", x3), ("a1", a1_samples), ("a2", a2_samples), ("h", h_samples)))
        warping = Field1D.from_samples(x3, h)  # checks x3 before it is indexed
        return cls(
            lattice,
            float(x3[0]),
            float(x3[-1]),
            warping,
            a1=Field1D.from_samples(x3, a1),
            a2=Field1D.from_samples(x3, a2),
        )

    # -- queries -----------------------------------------------------------

    @property
    def diagonal_form(self) -> bool:
        return self.a1 is not None and self.a2 is not None

    def contains(self, x3: float) -> bool:
        slack = 1e-9 * (self.x3_max - self.x3_min)
        return self.x3_min - slack <= x3 <= self.x3_max + slack

    def require_inside(self, x3: float):
        if not self.contains(as_float("x3", x3)):
            raise DomainError(
                f"x3 = {x3!r} outside [{self.x3_min!r}, {self.x3_max!r}]"
            )

    def coefficient_matrix(self, x1, x2, x3) -> np.ndarray:
        return self.coefficient_deriv((), x1, x2, x3)

    def coefficient_deriv(self, axes: tuple, x1, x2, x3) -> np.ndarray:
        """d_axes a_kl at (x1, x2, x3), broadcast over the coordinates,
        each an array of real numbers: shape (..., 3, 3).  ``axes`` is a
        tuple of at most three coordinate indices 1, 2 or 3; the empty
        multi-index gives a_kl itself.  Any other argument raises a
        DomainError naming it."""
        if not isinstance(axes, tuple) or len(axes) > 3:
            raise DomainError(f"axes must be a tuple of at most three indices, got {axes!r}")
        axes = tuple(_index("axes entry", a) for a in axes)
        x1, x2, x3 = (as_real_array(name, c) for name, c in (("x1", x1), ("x2", x2), ("x3", x3)))
        return self.coefficients.deriv(axes, x1, x2, x3)


@dataclass(frozen=True)
class HypothesisReport:
    """Empirical suprema of the comparison ratios over a sample grid.

    The constants are measurements, not certified bounds; ``grid``
    records the resolution they were taken at.
    """

    a_h1: float
    a_h2: float
    a_h3: float
    h2_ratios: tuple  # (sup|h'|/h, sup|h''|/h, sup|h'''|/h)
    h3_ratios: tuple  # per derivative order 0..3
    h_monotone: bool
    mean_convex: bool
    grid: str
    npoints: int

    @property
    def constant(self) -> float:
        return max(self.a_h1, self.a_h2, self.a_h3)


# The 20 derivative multi-indices of orders 0-3, in increasing order;
# _ORDER_BOUNDS[p]:_ORDER_BOUNDS[p + 1] is the block of order p.
_MULTI_INDICES = [
    axes for order in range(4)
    for axes in itertools.combinations_with_replacement(_AXES, order)
]
_ORDER_BOUNDS = (0, 1, 4, 10, 20)
# H3 weighs |d_axes a_kl| by h^{n_p(k, l, axes)}; only k <= l is measured.
_UPPER = np.triu_indices(3)
_H3_EXPONENTS = np.array(
    [[[n_p(k, l, *axes) for l in _AXES] for k in _AXES] for axes in _MULTI_INDICES]
)[:, _UPPER[0], _UPPER[1]]
_MAX_EXPONENT = int(_H3_EXPONENTS.max())
# The least normal float: a divisor below it has lost digits.
_TINY = np.finfo(float).tiny


def _sample_points(spec: WarpedMetricSpec, n1: int, n2: int, x3s: np.ndarray):
    """Sample coordinates (x1, x2, x3) as flat arrays over the x3 levels
    ``x3s``, x3 varying fastest."""
    if spec.diagonal_form:
        zero = np.zeros_like(x3s)
        return zero, zero, x3s
    ss = np.linspace(0.0, 1.0, n1, endpoint=False)
    ts = np.linspace(0.0, 1.0, n2, endpoint=False)
    S, T, X3 = (a.ravel() for a in np.meshgrid(ss, ts, x3s, indexing="ij"))
    v1, v2 = spec.lattice.v1, spec.lattice.v2
    return S * v1[0] + T * v2[0], S * v1[1] + T * v2[1], X3


def _first_failure(points, failures) -> None:
    """Raise for the first point (in sample order) failing any check; at
    that point the checks are tried in the order given."""
    masks = np.stack([mask for mask, _ in failures], axis=1)
    bad = np.flatnonzero(masks.any(axis=1))
    if bad.size:
        i = int(bad[0])
        x1, x2, x3 = (float(c[i]) for c in points)
        message = failures[int(np.argmax(masks[i]))][1]
        raise DomainError(message.format(point=(x1, x2, x3), x3=x3))


def _mean_convexity_indicator(G: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """(g_T)^{ab} Gamma^3_{ab} per sample, from the stacked coefficient
    matrices G and their first derivatives dG[:, m] = d_{m+1} G; positive
    when the mean curvature vector of the level torus points toward +x3."""
    first = dG[:, :2, :2, :]                     # [n, a, b, m] = d_a G_bm
    christoffel = (first + first.transpose(0, 2, 1, 3)
                   - dG.transpose(0, 2, 3, 1)[:, :2, :2, :])
    gamma3 = 0.5 * np.einsum("nm,nabm->nab", np.linalg.inv(G)[:, 2, :], christoffel)
    return np.einsum("nab,nab->n", np.linalg.inv(G[:, :2, :2]), gamma3)


def check_hypotheses(spec: WarpedMetricSpec, grid=24) -> HypothesisReport:
    """Measure the H1-H4 comparison ratios on a sample grid.

    ``grid`` is points per axis (scalar or (n1, n2, n3)); at least 8 per
    sampled axis.  Every sample is validated before anything is reported:
    the first point (in sample order) whose coefficient matrix is not
    finite, not symmetric or not positive definite, whose warping is not
    finite or not positive, or whose derivatives are not finite raises a
    DomainError naming it.

    Each of the 20 derivative multi-indices of orders 0-3 is read once,
    over all samples, in increasing order, and folded in as it arrives:
    only a_kl, its three first derivatives and per-level maxima are kept,
    never all 20 at once.

    Each constant is first taken per x3 level, through
    ``errors.finite_result``: where one leaves the float range, a
    DomainError names the warping at the first such level, "warping
    entry <level> = <h> overflows the H1 ratio".  A level whose H1 ratios
    fall below the normal range, or whose power h^n does under a nonzero
    derivative, counts as leaving it; a zero derivative reads 0 whatever
    h^n is.
    """
    sizes = [as_int("grid", n) for n in (list(grid) if np.ndim(grid) else [grid])]
    if len(sizes) not in (1, 3):
        raise DomainError(f"grid must be one size or three (n1, n2, n3), got {grid!r}")
    n1, n2, n3 = sizes * (3 // len(sizes))
    if min(n1, n2, n3) < 8:
        raise DomainError("need at least 8 grid points per axis")

    levels = np.linspace(spec.x3_min, spec.x3_max, n3)
    points = _sample_points(spec, n1, n2, levels)
    npoints = points[2].size
    # Samples run through the levels in order, reps times over, so a
    # per-sample array reshaped to (reps, n3, ...) lines up with the
    # per-level ones.
    reps = npoints // n3
    # Kept of each multi-index: G = a_kl, its first derivatives
    # first[:, m] = d_{m+1} G, whether every derivative is finite, and per
    # level the largest |d a_kl|, k <= l, over the reps, which H3 divides
    # by a power of h once h is validated.
    first = np.empty((npoints, 3, 3, 3))
    derivs_finite = np.ones(npoints, dtype=bool)
    upper_max = np.empty((len(_MULTI_INDICES), n3, len(_UPPER[0])))
    for j, axes in enumerate(_MULTI_INDICES):
        # One float matrix per sample, whatever a coefficient field returns.
        d = np.broadcast_to(np.asarray(spec.coefficients.deriv(axes, *points), dtype=float),
                            (npoints, 3, 3))
        if j == 0:
            G = d
        elif j <= 3:
            first[:, j - 1] = d
        derivs_finite &= np.isfinite(d).all(axis=(1, 2))
        upper_max[j] = np.abs(d[:, _UPPER[0], _UPPER[1]]).reshape(reps, n3, -1).max(axis=0)
    # The warping depends on x3 alone: it is evaluated once per level.
    h, *hd = (np.broadcast_to(np.asarray(d, dtype=float), levels.shape)
              for d in spec.warping.jet(levels, 3))

    with np.errstate(invalid="ignore", over="ignore"):
        g_finite = np.isfinite(G).all(axis=(1, 2))
        Gt = G.transpose(0, 2, 1)
        asymmetric = ~(np.abs(G - Gt) <= 1e-14 + 1e-10 * np.abs(Gt)).all(axis=(1, 2))
        # Non-finite samples are reported before their eigenvalues matter.
        ev_min = np.linalg.eigvalsh(np.where(g_finite[:, None, None], G, np.eye(3)))[:, 0]
        derivs_finite &= np.tile(np.isfinite(np.stack(hd)).all(axis=0), reps)
        _first_failure(points, [
            (~g_finite, "coefficient matrix not finite at {point}"),
            (asymmetric, "coefficient matrix not symmetric at {point}"),
            (ev_min <= 0.0, "coefficient matrix not positive definite at {point}"),
            (np.tile(~np.isfinite(h), reps), "warping not finite at x3 = {x3!r}"),
            (np.tile(h <= 0.0, reps), "warping not positive at x3 = {x3!r}"),
            (~derivs_finite, "coefficient or warping derivatives not finite at {point}"),
        ])

    def h1_ratio():
        scale = np.stack([1.0 / h, 1.0 / h, np.ones_like(h)], axis=1)
        scaled = G.reshape(reps, n3, 3, 3) * scale[:, :, None] * scale[:, None, :]
        # A level whose scaled matrices left the float range reads NaN,
        # and eigvalsh sees the identity there; so does a least ratio below
        # the normal range, whose reciprocal root has lost its digits.
        finite = np.isfinite(scaled).all(axis=(0, 2, 3))
        scaled[:, ~finite] = np.eye(3)
        ratios = np.linalg.eigvalsh(scaled)
        least = np.where(ratios[..., 0] < _TINY, np.nan, ratios[..., 0])
        worst = np.maximum(np.sqrt(ratios[..., -1]), 1.0 / np.sqrt(least)).max(axis=0)
        return np.where(finite, worst, np.nan)

    sup_h1 = max(0.0, float(np.max(finite_result("warping", h, "the H1 ratio", h1_ratio))))

    per_level = finite_result("warping", h, "the H2 ratios",
                              lambda: np.stack([np.abs(d) / h for d in hd], axis=1))
    sup_h2 = [max(0.0, float(np.max(column))) for column in per_level.T]
    h_monotone = not bool(np.any(hd[0] > 0.0))

    def h3_ratios():
        # Powers of h by the C library's pow, as ``DiagonalCoefficients``
        # squares a_i.  A power outside the normal range reads NaN, so its
        # quotient does too, but a zero |d a_kl| reads 0 whatever h^n is.
        # h > 0, so the largest |d a_kl| over the reps gives the largest
        # quotient.
        powers = np.float_power(h[:, None], np.arange(_MAX_EXPONENT + 1))
        powers[(powers < _TINY) | (powers == np.inf)] = np.nan
        weighted = np.where(upper_max == 0.0, 0.0,
                            upper_max / powers[:, _H3_EXPONENTS].transpose(1, 0, 2))
        return np.stack([weighted[lo:hi].max(axis=(0, 2))
                         for lo, hi in zip(_ORDER_BOUNDS, _ORDER_BOUNDS[1:])], axis=1)

    per_level = finite_result("warping", h, "the H3 ratios", h3_ratios)
    sup_h3 = [max(0.0, float(np.max(column))) for column in per_level.T]

    mean_convex = not bool(np.any(_mean_convexity_indicator(G, first) < -1e-12))

    if spec.diagonal_form:
        desc = f"x3: {n3} points (coefficients x1,x2-independent)"
    else:
        desc = f"{n1}x{n2}x{n3} points over fundamental domain x [a,b]"
    return HypothesisReport(
        a_h1=sup_h1,
        a_h2=max(sup_h2),
        a_h3=max(sup_h3),
        h2_ratios=tuple(sup_h2),
        h3_ratios=tuple(sup_h3),
        h_monotone=h_monotone,
        mean_convex=mean_convex,
        grid=desc,
        npoints=npoints,
    )


def level_torus_mean_curvature(spec: WarpedMetricSpec, s: float) -> float:
    """Mean curvature of T_s = {x3 = s}, positive when the mean curvature
    vector points toward +x3 (the slice-shrinking direction for cusps and
    tubes in depth coordinates): -(a1'/a1 + a2'/a2)(s) / 2."""
    if not spec.diagonal_form:
        raise DomainError("level_torus_mean_curvature supports diagonal specs only")
    spec.require_inside(s)
    memo = {}
    (a1, a1p), (a2, a2p) = spec.a1.jet(s, 1, memo), spec.a2.jet(s, 1, memo)
    return -0.5 * float(a1p / a1 + a2p / a2)


def blowup_rescale(spec: WarpedMetricSpec, s: float, lam: float) -> WarpedMetricSpec:
    """Blow up around the level x3 = s by the factor lambda.

    Coefficients become a_kl(y/lambda + s) * lambda^{n2(k,l)} on the
    transformed interval, the warping becomes h(y/lambda + s)/h(s).
    """
    spec.require_inside(s)
    if as_float("blow-up factor", lam) <= 0.0:
        raise DomainError("blow-up factor must be positive")
    y_min = lam * (spec.x3_min - s)
    y_max = lam * (spec.x3_max - s)
    if y_max <= y_min:
        raise DomainError("transformed interval is empty")
    h_s = float(spec.warping(s))
    new_h = spec.warping.compose_affine(1.0 / lam, s, 1.0 / h_s)
    kind = f"blowup({spec.kind})"
    if spec.diagonal_form:
        return WarpedMetricSpec(
            spec.lattice,
            y_min,
            y_max,
            new_h,
            kind=kind,
            a1=spec.a1.compose_affine(1.0 / lam, s, lam),
            a2=spec.a2.compose_affine(1.0 / lam, s, lam),
        )
    return WarpedMetricSpec(
        spec.lattice,
        y_min,
        y_max,
        new_h,
        kind=kind,
        coefficients=_RescaledCoefficients(spec.coefficients, s, lam),
    )


def spec_from_json(data: dict) -> WarpedMetricSpec:
    """Build a spec from a JSON descriptor {"kind": ..., ...}."""
    (kind,) = json_fields("metric descriptor", data, "kind")
    name = f"{kind} metric descriptor"
    if kind in ("flat", "cusp"):
        lattice, interval = json_fields(name, data, "lattice", interval=[0.0, 1.0])
        lattice = FlatTorusLattice.from_json_dict(lattice)
        x3_min, x3_max = as_floats("interval", interval, 2)
        if kind == "flat":
            return WarpedMetricSpec.flat(lattice, x3_min, x3_max)
        from .tube_geometry import CuspParams, cusp_as_warped

        return cusp_as_warped(CuspParams(lattice, x3_min, x3_max))
    if kind == "tube":
        from .tube_geometry import TubeParams, tube_as_warped

        margin, normalized = json_fields(name, data, margin=0.5, normalized=False)
        return tube_as_warped(TubeParams.from_json_dict(data), margin=margin, normalized=normalized)
    if kind == "custom":
        lattice, samples = json_fields(name, data, "lattice", "samples")
        keys = ("x3", "a1", "a2", "h")
        return WarpedMetricSpec.from_sampled(
            FlatTorusLattice.from_json_dict(lattice),
            *(as_floats(f"samples {key}", values)
              for key, values in zip(keys, json_fields("samples", samples, *keys))))
    raise DomainError(f"unknown metric kind {kind!r}")
