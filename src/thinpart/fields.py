"""Scalar fields of one variable carrying up to three derivatives.

Closed-form evaluators are the preferred backing; sampled grids fall back
to cubic-spline differentiation. ``scipy.interpolate`` (which also loads
``scipy.special`` and ``scipy.optimize``) is imported by the first sampled
field built, not by ``import thinpart``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


class Field1D:
    """A function of x3 with derivative evaluators d1, d2, d3.

    All evaluators accept scalars or numpy arrays.
    """

    def __init__(self, f, d1, d2, d3):
        self._f = f
        self._d1 = d1
        self._d2 = d2
        self._d3 = d3

    def __call__(self, t):
        return self._f(t)

    def d1(self, t):
        return self._d1(t)

    def d2(self, t):
        return self._d2(t)

    def d3(self, t):
        return self._d3(t)

    @classmethod
    def constant(cls, value: float) -> "Field1D":
        def f(t, value=value):
            return value * np.ones_like(np.asarray(t, dtype=float))

        def zero(t):
            return np.zeros_like(np.asarray(t, dtype=float))

        return cls(f, zero, zero, zero)

    @classmethod
    def exp_decay(cls) -> "Field1D":
        """exp(-t), the cusp warping."""

        def f(t):
            return np.exp(-np.asarray(t, dtype=float))

        def d1(t):
            return -np.exp(-np.asarray(t, dtype=float))

        def d3(t):
            return -np.exp(-np.asarray(t, dtype=float))

        return cls(f, d1, f, d3)

    @classmethod
    def from_samples(cls, x, y) -> "Field1D":
        """Cubic-spline interpolant; derivatives are spline derivatives."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 4:
            raise DomainError("need matching 1-d sample arrays with >= 4 points")
        for name, values in (("x", x), ("y", y)):
            if not np.all(np.isfinite(values)):
                raise DomainError(f"sample {name} values must be finite")
        if np.any(np.diff(x) <= 0):
            raise DomainError("sample abscissae must be strictly increasing")
        from scipy.interpolate import CubicSpline

        sp = CubicSpline(x, y)
        return cls(sp, sp.derivative(1), sp.derivative(2), sp.derivative(3))

    def compose_affine(self, in_scale: float, in_shift: float, out_scale: float = 1.0) -> "Field1D":
        """out_scale * f(in_scale * t + in_shift), with chain-rule derivatives."""

        def make(level):
            base = (self._f, self._d1, self._d2, self._d3)[level]
            fac = out_scale * in_scale**level

            def g(t, base=base, fac=fac):
                return fac * base(in_scale * np.asarray(t, dtype=float) + in_shift)

            return g

        return Field1D(make(0), make(1), make(2), make(3))
