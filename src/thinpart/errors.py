"""Shared exception types, the one rule for every number and every array
a caller passes (``as_float``, ``as_real_array`` and the readers built on
them), and the one reader of JSON input files."""

import json
import math
import numbers

import numpy as np


class DomainError(ValueError):
    """An argument violates a documented precondition (CLI exit code 2)."""


class SolveError(RuntimeError):
    """Iterative solver failed; carries diagnostic state."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


def as_float(name: str, value) -> float:
    """``value`` as a float: the one rule for a number a caller passes.

    ``value`` must be a Python or numpy real number that is not a bool,
    and finite; otherwise a DomainError names ``name``: "must be a
    number" for a string, None, a bool or a list, "must be finite" for
    NaN and infinities.
    """
    # A float (numpy.float64 is one) skips the slower ABC check.
    if not isinstance(value, float):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return number


def require_finite(**values) -> None:
    """``as_float`` of each keyword argument, named by its keyword."""
    for name, value in values.items():
        as_float(name, value)


def as_int(name: str, value) -> int:
    """``value`` as an int; a DomainError naming ``name`` when it is not an
    integral number (a bool, a fraction such as 2.7, a string, null)."""
    if type(value) is int:  # the common case skips the slower ABC checks
        return value
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _holds_bool(value) -> bool:
    """Whether ``value``, or a list or tuple nested in it, holds a bool:
    numpy reads [True, 2] as the integers [1, 2]."""
    return isinstance(value, (bool, np.bool_)) or (
        isinstance(value, (list, tuple)) and any(map(_holds_bool, value)))


def _real_array(value):
    """``value`` as an array, or None where it is not an array of real
    numbers: bool, complex or string entries, a ragged nested list."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nested list
        return None
    if array.dtype.kind not in "iuf" or _holds_bool(value):
        return None
    return array


def _finite(name: str, array: np.ndarray) -> np.ndarray:
    """``array``; a DomainError naming ``name`` and the first entry, by
    index, that is NaN or infinite."""
    finite = np.isfinite(array)
    if not finite.all():
        index = np.unravel_index(np.argmin(finite), array.shape)
        at = f" at {tuple(map(int, index))}" if array.ndim else ""
        raise DomainError(f"{name} must be finite, got {float(array[index])!r}{at}")
    return array


def as_floats(name: str, value, size: int | None = None) -> tuple:
    """``value``, a list of real numbers (``size`` of them where given:
    a pair, a triple), as a tuple of floats; a DomainError naming
    ``name`` when it is not one or holds a bool, NaN or an infinity."""
    array = _real_array(value)
    if array is None or array.ndim != 1:
        raise DomainError(f"{name} must be a list of numbers, got {value!r}")
    if size not in (None, array.size):
        raise DomainError(f"{name} must be a list of {size} numbers, got {value!r}")
    return tuple(_finite(name, array).astype(float).tolist())


def as_real_array(name: str, value) -> np.ndarray:
    """``value``, an array of finite real numbers of any shape, as a float
    array (``value`` itself where it is one): the one rule for an array a
    caller passes.  A DomainError names ``name``: "must be a rectangular
    array of real numbers" for strings, None, bools, complex numbers and
    ragged lists, "must be finite" with the first NaN or infinite entry
    and its index."""
    array = _real_array(value)
    if array is None:
        raise DomainError(f"{name} must be a rectangular array of real numbers")
    return _finite(name, np.asarray(array, dtype=float))


def load_json(path, build):
    """``build(data)`` for the JSON document in the file at ``path``.

    Malformed JSON, a document that is not a JSON object, a
    KeyError/TypeError/ValueError raised while building from it (a
    missing field, a field of the wrong type), and a DomainError from the
    builder become a DomainError naming the file.
    """
    with open(path) as fh:
        try:
            data = json.load(fh)
            if not isinstance(data, dict):
                raise DomainError(f"expected a JSON object, got {type(data).__name__}")
            return build(data)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: malformed JSON: {exc}") from exc
        except DomainError as exc:
            raise DomainError(f"{path}: {exc}") from exc
        except KeyError as exc:
            raise DomainError(f"{path}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{path}: bad field value: {exc}") from exc
