"""The one reader that turns a JSON config section or checkpoint model config into a dataclass."""

from __future__ import annotations

import math
from dataclasses import MISSING, fields

from .errors import ConfigError


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def finite_float(value) -> float | None:
    """``value`` as a float if it is a JSON number that stays finite as one, else None.

    A JSON number is an int or a float but not a bool; the NaN and Infinity
    that Python's json reads, and an int beyond the float range, are not finite.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        return None
    return number if math.isfinite(number) else None


def finite_floats(value, shape: tuple) -> tuple | None:
    """``value`` as nested tuples of floats of ``shape``, or None unless it has
    exactly that shape and every entry is a number ``finite_float`` accepts."""
    try:
        entries = tuple(value)
    except TypeError:  # not a sequence
        return None
    if len(entries) != shape[0]:
        return None
    if len(shape) > 1:
        rows = tuple(finite_floats(entry, shape[1:]) for entry in entries)
    else:
        rows = tuple(map(finite_float, entries))
    return None if None in rows else rows


# JSON values each field annotation accepts; a bool is never a number here.
_ACCEPTS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", lambda v: finite_float(v) is not None),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
}


def read_config(cls, doc, section: str):
    """Build the dataclass ``cls`` from ``doc``, the JSON object of one config section.

    A section that is not an object, an unknown or missing field, and a value
    of the wrong JSON type raise ConfigError, as does any ValueError from
    ``cls``'s own checks. A ``tuple`` field takes a list of integers.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{section} config must be a JSON object, got {type(doc).__name__}")
    spec = {f.name: f.type for f in fields(cls)}
    unknown = set(doc) - set(spec)
    if unknown:
        raise ConfigError(f"unknown {section} config fields: {sorted(unknown)}")
    required = [f.name for f in fields(cls) if f.default is MISSING]
    if not all(name in doc for name in required):
        raise ConfigError(f"{section} config requires {' and '.join(map(repr, required))}")
    for name, value in doc.items():
        what, accepts = _ACCEPTS[spec[name]]
        if not accepts(value):
            raise ConfigError(f"{section} config field {name!r} must be {what}, got {value!r}")
    try:
        return cls(**{name: tuple(value) if spec[name] == "tuple" else value
                      for name, value in doc.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
