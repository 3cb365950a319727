"""Shared exception types, the one rule for every number and every array
a caller passes (``as_float``, ``as_real_array`` and the readers built on
them), the one rule for a result that overflows (``finite_result``), the
one rule for every JSON document (``json_fields``, ``as_list``,
``as_index``), and the one reader of JSON input files."""

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


def finite_result(name: str, value, what: str, compute):
    """``compute()``, a number or an array computed from ``value``, the
    argument ``name``: the one rule for a result that leaves the float
    range.  Where the computation overflows (math.sinh, math.cosh and
    float powers raise OverflowError, a division by zero raises
    ZeroDivisionError, numpy and float arithmetic give an infinity or
    NaN), a DomainError names the argument: "<name> = <value> overflows
    <what>", or for an array ``value``, whose entries index the first
    axis of the result, the first such entry by index, "<name> entry 1 =
    800.0 overflows <what>"."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            result = compute()
    except (OverflowError, ZeroDivisionError):
        result = math.inf
    finite = np.isfinite(result)
    if not finite.all():
        if finite.ndim:
            index = int(np.argmin(finite.reshape(len(finite), -1).all(axis=1)))
            name, value = f"{name} entry {index}", float(value[index])
        raise DomainError(f"{name} = {value!r} overflows {what}")
    return result


def as_object(name: str, value) -> dict:
    """``value``, a JSON object; a DomainError naming ``name`` otherwise."""
    if not isinstance(value, dict):
        raise DomainError(f"bad field value: {name} must be a JSON object, got {value!r}")
    return value


def as_list(name: str, value) -> list:
    """``value``, a JSON list (or a tuple); a DomainError naming ``name``
    otherwise.  Its entries are named by their path, ``name[0]``."""
    if not isinstance(value, (list, tuple)):
        raise DomainError(f"bad field value: {name} must be a list, got {value!r}")
    return value


def json_fields(name: str, data, /, *required: str, **optional) -> tuple:
    """The values of the JSON object ``data``'s ``required`` fields, then of
    its ``optional`` ones (their defaults where absent): the one reader of
    an object's fields.  A DomainError names ``name``: "bad field value:
    <name> must be a JSON object" when ``data`` is not one, "<name>:
    missing field 'a', 'b'" with every required field that is absent."""
    data = as_object(name, data)
    missing = [key for key in required if key not in data]
    if missing:
        raise DomainError(f"{name}: missing field {', '.join(map(repr, missing))}")
    return (*(data[key] for key in required),
            *(data.get(key, default) for key, default in optional.items()))


def as_index(name: str, value, count: int) -> int:
    """``value`` as an index in [0, count); a DomainError naming ``name``
    when it is not an integer or lies outside."""
    index = as_int(name, value)
    if not 0 <= index < count:
        raise DomainError(f"{name} must lie in [0, {count}), got {value!r}")
    return index


def load_json(path, build):
    """``build(data)`` for the JSON document in the file at ``path``.

    Malformed JSON and a DomainError from the builder become a
    DomainError naming the file.  Builders read the document through
    ``json_fields``, which names the object a document that is not one
    should have been, ``as_list`` and the number rules; a
    KeyError/TypeError/ValueError that escapes one anyway becomes a
    DomainError too, never a traceback.
    """
    with open(path) as fh:
        try:
            return build(json.load(fh))
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: malformed JSON: {exc}") from exc
        except DomainError as exc:
            raise DomainError(f"{path}: {exc}") from exc
        except KeyError as exc:
            raise DomainError(f"{path}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{path}: bad field value: {exc}") from exc
