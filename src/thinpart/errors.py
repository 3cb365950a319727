"""Shared exception types, the finiteness and number checks, and the one
reader of JSON input files."""

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


def require_finite(**values) -> None:
    """Raise a DomainError naming the first argument that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")


def as_float(name: str, value) -> float:
    """``value`` as a float; a DomainError naming ``name`` when it is not a
    real number (a string, null, a list)."""
    if not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a number, got {value!r}")
    return float(value)


def as_int(name: str, value) -> int:
    """``value`` as an int; a DomainError naming ``name`` when it is not an
    integral number (a bool, a fraction such as 2.7, a string, null)."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real_array(value):
    """``value`` as an array, or None where it is not an array of real
    numbers: complex or string entries, a ragged nested list."""
    try:
        array = np.asarray(value)
    except ValueError:  # a ragged nested list
        return None
    return array if array.dtype.kind in "biuf" else None


def as_floats(name: str, value) -> np.ndarray:
    """``value``, a sequence of real numbers, as a 1-d float array; a
    DomainError naming ``name`` otherwise."""
    array = _real_array(value)
    if array is None or array.ndim != 1:
        raise DomainError(f"{name} must be a list of numbers, got {value!r}")
    return array.astype(float)


def as_real_array(name: str, value) -> np.ndarray:
    """``value``, an array of real numbers of any shape, as a float array
    (``value`` itself where it is one); a DomainError naming ``name``
    otherwise."""
    array = _real_array(value)
    if array is None:
        raise DomainError(f"{name} must be a rectangular array of real numbers")
    return np.asarray(array, dtype=float)


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
