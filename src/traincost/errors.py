"""Exception types shared across the package, the input checks that config
sections, search spaces and sweeps raise them through, and the class
decorator that builds the records whose constructors run those checks."""

import sys
from collections import namedtuple


class TraincostError(Exception):
    """Base class for all package errors."""


class ShapeError(TraincostError):
    """A sharding dimension does not divide the quantity it partitions."""


class InputError(TraincostError):
    """A scalar input is outside its documented domain."""


class ProfileLookupError(TraincostError):
    """No profile entry covers the requested operator or collective."""


class InfeasibleError(TraincostError):
    """The fault regime cannot sustain checkpointed training."""


class ConfigError(TraincostError):
    """A configuration file failed to parse or validate."""


# The InfeasibleError text for a result that overflows although its inputs passed.
NOT_FINITE = "the result is not finite: an input is too large for the model"


def check_object(data, where: str) -> dict:
    """Reject a config value that is not a JSON object."""
    if not isinstance(data, dict):
        raise InputError(f"{where} must be a JSON object, got {type(data).__name__}")
    return data


def check_keys(data: dict, known: tuple[str, ...], where: str) -> None:
    """Reject a config value that is not an object or sets a key outside
    `known`."""
    check_object(data, where)
    unknown = [key for key in data if key not in known]
    if unknown:
        raise InputError(f"unknown {where} key {', '.join(map(repr, unknown))}")


# The largest count a config or sweep may set: every int up to it is exact as a float.
MAX_COUNT = 2**53


def check_count(name: str, value, low: int = 1, high: int | None = None) -> int:
    """Reject a count that is not an int >= `low` (a bool is not a count),
    or above `high` when one is given."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise InputError(f"{name} value {value!r} is not an integer >= {low}")
    if high is not None and value > high:
        raise InputError(f"{name} value {value!r} is not an integer <= {high}")
    return value


def check_number(name: str, value, low: float = 0.0, strict: bool = False,
                 high: float = sys.float_info.max) -> float:
    """Return `value` as a float if it is a finite real number >= `low`
    (> `low` when `strict`) and <= `high`; otherwise raise InputError. A bool
    or a string is not a number, and NaN or an infinity is not finite."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not (low < value if strict else low <= value)
            or not value <= high):
        if high < sys.float_info.max:
            domain = f"in {'(' if strict else '['}{low:g}, {high:g}]"
        else:
            domain = f"{'>' if strict else '>='} {low:g}"
        raise InputError(f"{name} value {value!r} is not a finite number {domain}")
    return float(value)


def record(cls: type) -> type:
    """The namedtuple class with the body of `cls`, whose fields are the
    parameters of `cls.__new__`, in order. That `__new__` checks the values
    and returns `tuple.__new__(cls, values)`; `_make`, and so `_replace`, call
    it too, so every way to build the record runs the checks."""
    code = cls.__new__.__code__
    tpl = namedtuple(cls.__name__, code.co_varnames[1:code.co_argcount],
                     defaults=cls.__new__.__defaults__, module=cls.__module__)
    for key, value in vars(cls).items():
        if key not in ("__dict__", "__weakref__"):
            setattr(tpl, key, value)
    tpl._make = classmethod(lambda c, values: c(*values))
    return tpl
