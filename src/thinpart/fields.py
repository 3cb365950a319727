"""Scalar fields of one variable and their first three derivatives.

A ``Field1D`` is one function, ``derivative(t, order, memo)``: the
order-th derivative at t, for order 0 to 3, at a scalar or a numpy array.
``f(t)`` is its value, and ``f.jet(t, order)`` is the tuple of its
values up to ``order``.  Fields whose derivatives share a ``memo`` (a
dict, for the fields at one ``t``) share what they compute: the tube's
a1 = sinh(R - t) and a2 = cosh(R - t) form R - t once and call sinh and
cosh once each, the cusp's a1 = a2 = exp(-t) calls exp once, and the
filler's a1 and a2 call it twice.  A value is bit for bit the same with a
memo or without one.

Closed forms are the preferred backing; sampled grids fall back to
cubic-spline differentiation. ``scipy.interpolate`` (which also loads
``scipy.special`` and ``scipy.optimize``) is imported by the first sampled
field built, not by ``import thinpart``.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, as_float, as_int, as_real_array, require_finite


def _memoized(memo: dict, fn, t, name=None):
    """fn(t), called once per (``name``, t) in ``memo``, ``name`` fn by
    default; ``t`` stays alive while the memo holds its value, so its id
    names it."""
    key = (fn if name is None else name, id(t))
    if key not in memo:
        memo[key] = fn(t)
    return memo[key]


def _order(order) -> int:
    """``order`` as 0, 1, 2 or 3; a DomainError naming it otherwise."""
    if as_int("derivative order", order) not in range(4):
        raise DomainError(f"derivative order must be 0, 1, 2 or 3, got {order!r}")
    return int(order)


class Field1D:
    """A function of x3 given by ``derivative(t, order, memo)``, its
    order-th derivative at t for order 0 to 3 (module docstring).  An
    array it returns may be another field's, or the same for two orders,
    so it is not written to."""

    def __init__(self, derivative):
        self._derivative = derivative

    def derivative(self, t, order: int, memo: dict | None = None):
        """The order-th derivative at t, ``order`` 0, 1, 2 or 3 (a
        DomainError naming it otherwise), sharing ``memo``."""
        return self._derivative(t, _order(order), {} if memo is None else memo)

    def __call__(self, t):
        return self._derivative(t, 0, {})

    def jet(self, t, order: int, memo: dict | None = None) -> tuple:
        """(f(t), f'(t), ..., f^(order)(t)), its derivatives sharing ``memo``."""
        memo = {} if memo is None else memo
        return tuple(self._derivative(t, k, memo) for k in range(_order(order) + 1))

    @classmethod
    def from_evaluators(cls, f, d1, d2, d3) -> "Field1D":
        """The field whose derivatives of order 0-3 are ``f(t)`` ...
        ``d3(t)``; a memo calls each distinct evaluator once per t, also
        for other fields built from the same evaluators."""
        evaluators = (f, d1, d2, d3)
        return cls(lambda t, order, memo: _memoized(memo, evaluators[order], t))

    @classmethod
    def constant(cls, value: float) -> "Field1D":
        value = as_float("constant value", value)

        def f(t):
            return value * np.ones_like(np.asarray(t, dtype=float))

        def zero(t):
            return np.zeros_like(np.asarray(t, dtype=float))

        return cls.from_evaluators(f, zero, zero, zero)

    @classmethod
    def exp_decay(cls) -> "Field1D":
        """exp(-t), the cusp warping, whose derivatives are +-exp(-t)."""

        def f(t):
            return np.exp(-np.asarray(t, dtype=float))

        def derivative(t, order, memo):
            e = _memoized(memo, f, t)
            return -e if order % 2 else e

        return cls(derivative)

    @classmethod
    def from_samples(cls, x, y) -> "Field1D":
        """Cubic-spline interpolant; derivatives are spline derivatives."""
        x = as_real_array("sample x", x)
        y = as_real_array("sample y", y)
        if x.ndim != 1 or x.shape != y.shape or x.size < 4:
            raise DomainError("need matching 1-d sample arrays with >= 4 points")
        if np.any(np.diff(x) <= 0):
            raise DomainError("sample abscissae must be strictly increasing")
        from scipy.interpolate import CubicSpline

        sp = CubicSpline(x, y)
        return cls.from_evaluators(sp, sp.derivative(1), sp.derivative(2), sp.derivative(3))

    def compose_affine(self, in_scale: float, in_shift: float, out_scale: float = 1.0) -> "Field1D":
        """out_scale * f(in_scale * t + in_shift), with chain-rule
        derivatives.  A memo forms the argument once, shared with every
        field composed with the same affine map."""
        require_finite(in_scale=in_scale, in_shift=in_shift, out_scale=out_scale)
        factors = tuple(out_scale * in_scale**order for order in range(4))
        affine_map = ("affine", in_scale, in_shift)

        def argument(t):
            return in_scale * np.asarray(t, dtype=float) + in_shift

        def derivative(t, order, memo):
            value = self._derivative(_memoized(memo, argument, t, affine_map), order, memo)
            factor = factors[order]
            # 1 * x and -1 * x are x and -x exactly.
            return value if factor == 1.0 else -value if factor == -1.0 else factor * value

        return Field1D(derivative)
