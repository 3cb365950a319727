"""Scalar fields of one variable carrying up to three derivatives.

Closed-form evaluators are the preferred backing; sampled grids fall back
to cubic-spline differentiation. ``scipy.interpolate`` (which also loads
``scipy.special`` and ``scipy.optimize``) is imported by the first sampled
field built, not by ``import thinpart``.

``Field1D.jet`` gives a field's value and derivatives at once.  Every
evaluator it needs is called once per evaluation point, and fields that
share an evaluator share its values through a ``memo``: the tube's
a1 = sinh(R - t) and a2 = cosh(R - t) form R - t once and call sinh and
cosh once each, and the cusp's a1 = a2 = exp(-t) calls exp once.  Each
value of a jet is bit for bit the one its evaluator gives alone.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, as_real_array


def _memoized(memo: dict, fn, t, name=None):
    """fn(t), called once per (``name``, t) in ``memo``, ``name`` fn by
    default; ``t`` stays alive while the memo holds its value, so its id
    names it."""
    key = (fn if name is None else name, id(t))
    if key not in memo:
        memo[key] = fn(t)
    return memo[key]


class Field1D:
    """A function of x3 with derivative evaluators d1, d2, d3.

    All evaluators accept scalars or numpy arrays.  ``jet``, where given,
    evaluates ``jet(t, order, memo)`` in place of the evaluators (see
    ``Field1D.jet``).
    """

    def __init__(self, f, d1, d2, d3, jet=None):
        self._f = f
        self._d1 = d1
        self._d2 = d2
        self._d3 = d3
        self._jet = jet

    def __call__(self, t):
        return self._f(t)

    def d1(self, t):
        return self._d1(t)

    def d2(self, t):
        return self._d2(t)

    def d3(self, t):
        return self._d3(t)

    def jet(self, t, order: int, memo: dict | None = None) -> tuple:
        """(f(t), f'(t), ..., f^(order)(t)), each bit for bit its
        evaluator's value, calling each distinct evaluator once.  Jets
        that share ``memo`` (a dict, for the jets of fields at one ``t``)
        share what their evaluators compute; an array in a jet may be
        another field's, or appear twice, so it is not written to."""
        if memo is None:
            memo = {}
        if self._jet is not None:
            return self._jet(t, order, memo)
        evaluators = (self._f, self._d1, self._d2, self._d3)[:order + 1]
        return tuple(_memoized(memo, fn, t) for fn in evaluators)

    @classmethod
    def constant(cls, value: float) -> "Field1D":
        def f(t, value=value):
            return value * np.ones_like(np.asarray(t, dtype=float))

        def zero(t):
            return np.zeros_like(np.asarray(t, dtype=float))

        return cls(f, zero, zero, zero)

    @classmethod
    def exp_decay(cls) -> "Field1D":
        """exp(-t), the cusp warping; its jet calls exp once."""

        def f(t):
            return np.exp(-np.asarray(t, dtype=float))

        def d1(t):
            return -np.exp(-np.asarray(t, dtype=float))

        def jet(t, order, memo):
            e = _memoized(memo, f, t)
            if order == 0:
                return (e,)
            return (e, -e, e, -e)[:order + 1]

        return cls(f, d1, f, d1, jet)

    @classmethod
    def from_samples(cls, x, y) -> "Field1D":
        """Cubic-spline interpolant; derivatives are spline derivatives."""
        x = as_real_array("sample x", x)
        y = as_real_array("sample y", y)
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
        """out_scale * f(in_scale * t + in_shift), with chain-rule
        derivatives.  Its jet forms the argument once per ``memo``, shared
        with every field composed with the same affine map."""
        factors = tuple(out_scale * in_scale**level for level in range(4))
        # Fields composed with the same map share its argument in a memo.
        affine_map = ("affine", in_scale, in_shift)

        def argument(t):
            return in_scale * np.asarray(t, dtype=float) + in_shift

        def make(level):
            base = (self._f, self._d1, self._d2, self._d3)[level]
            fac = factors[level]

            def g(t, base=base, fac=fac):
                return fac * base(argument(t))

            return g

        def jet(t, order, memo):
            values = self.jet(_memoized(memo, argument, t, affine_map), order, memo)
            scaled = {}
            for fac, value in zip(factors, values):
                # fac * value, once per distinct pair; 1 * x and -1 * x
                # are x and -x exactly.
                if (fac, id(value)) not in scaled:
                    scaled[fac, id(value)] = (value if fac == 1.0 else
                                              -value if fac == -1.0 else fac * value)
            return tuple(scaled[fac, id(value)] for fac, value in zip(factors, values))

        return Field1D(make(0), make(1), make(2), make(3), jet)
