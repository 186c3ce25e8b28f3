"""The one rule for a JSON object (``check_object``) and the config reader built on it."""

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


def _finite_numbers(value) -> bool:
    """Whether ``finite_float`` accepts every entry of ``value``, a JSON list, checked in C."""
    try:
        return isinstance(value, list) and all(map(math.isfinite, value)) and (
            bool not in map(type, value))
    except (TypeError, OverflowError):  # an entry that is no number, or an int beyond a float
        return False


# Per JSON type a field annotation or ``Schema`` names: a Python type all of whose values
# pass with no call (or None), the description and the test. A bool is never a number.
_ACCEPTS = {
    "int": (int, "an integer", _is_int),
    "float": (None, "a finite number", lambda v: finite_float(v) is not None),
    "bool": (bool, "true or false", lambda v: isinstance(v, bool)),
    "str": (str, "a string", lambda v: isinstance(v, str)),
    "str | None": (str, "a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple": (None, "a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "list": (list, "a list", lambda v: isinstance(v, list)),
    "list[float]": (None, "a list of finite numbers", _finite_numbers),
    "dict": (dict, "a JSON object", lambda v: isinstance(v, dict)),
    "dict[str, str]": (None, "an object of strings", lambda v: isinstance(v, dict)
                       and all(isinstance(t, str) for t in v.values())),
}


class Schema:
    """The keys a JSON object must hold and those it may hold, each mapped to
    its ``_ACCEPTS`` type name."""

    def __init__(self, required: dict, optional: dict | None = None):
        self.types, self.required = {**required, **(optional or {})}, tuple(required)
        self._accepts = {key: _ACCEPTS[name] for key, name in self.types.items()}
        self._needs = frozenset(required)


def check_object(doc, schema: Schema, label: str, *where) -> None:
    """Raise ValueError unless ``doc`` is a JSON object that holds only keys of
    ``schema``, every required one, and each value of its key's type. The
    message names ``label.format(*where)``, the path to ``doc``, and the first
    rule broken: not an object, an unknown key, a missing key, then each value."""
    known, bad = schema._accepts, None
    if isinstance(doc, dict):
        for name, value in doc.items():
            rule = known.get(name)
            if rule is None or type(value) is not rule[0] and not rule[2](value):
                bad = name
                break
        if bad is None and doc.keys() >= schema._needs:
            return
    label = label.format(*where)
    if not isinstance(doc, dict):
        raise ValueError(f"{label} must be a JSON object, got {type(doc).__name__}")
    if not doc.keys() <= known.keys():
        raise ValueError(f"unknown {label} fields: {sorted(doc.keys() - known.keys())}")
    if not doc.keys() >= schema._needs:
        raise ValueError(f"{label} requires {' and '.join(map(repr, schema.required))}")
    raise ValueError(f"{label} field {bad!r} must be {known[bad][1]}, got {doc[bad]!r}")


def read_config(cls, doc, section: str):
    """Build the dataclass ``cls`` from ``doc``, one config section, under
    ``check_object``: its fields, typed by their annotations, are the keys, and
    those without a default are required; a ``tuple`` field takes a list of
    integers. Any fault, or a ValueError from ``cls``, raises ConfigError."""
    schema = Schema({f.name: f.type for f in fields(cls) if f.default is MISSING},
                    {f.name: f.type for f in fields(cls) if f.default is not MISSING})
    try:
        check_object(doc, schema, f"{section} config")
        return cls(**{name: tuple(value) if schema.types[name] == "tuple" else value
                      for name, value in doc.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
