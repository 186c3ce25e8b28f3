"""The one reader of JSON text (``parse_json``), the one rule for a JSON object
(``check_object``) and the config reader built on it."""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import MISSING, fields
from typing import Callable, NamedTuple

from .errors import ConfigError

# The types json.loads gives a JSON number: ``type(True)`` is bool, not int.
_NUMBER_TYPES = frozenset({int, float})


def parse_json(text):
    """``json.loads(text)``, through which every JSON text the package reads goes.

    A document nested too deeply for the parser's recursion limit raises
    ValueError, as any other text that does not parse does (a
    ``json.JSONDecodeError`` is one), so each reader's own ``except`` names
    the file and gives its exit code.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON text nested too deeply to parse") from None


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


def _finite_numbers(value, length: int | None = None) -> bool:
    """Whether ``value`` is a list (of ``length`` entries) of numbers ``finite_float`` accepts.
    A finite sum of ints and floats proves each finite; any other list is checked entry by entry."""
    if type(value) is not list or length is not None and len(value) != length:
        return False
    try:
        summed = _NUMBER_TYPES.issuperset(map(type, value)) and math.isfinite(sum(value, 0.0))
    except OverflowError:  # an int beyond the float range
        summed = False
    return summed or None not in map(finite_float, value)


class _Type(NamedTuple):
    """How ``check_object`` tests a value of one type name."""

    exact: type | None  # a Python type all of whose values pass with no call, or None
    description: str
    test: Callable
    entries: tuple = (None, "")  # a typed list's or object's Python type, its entries' type


_ACCEPTS = {
    "int": _Type(int, "an integer", _is_int),
    "float": _Type(None, "a finite number", lambda v: finite_float(v) is not None),
    "bool": _Type(bool, "true or false", lambda v: isinstance(v, bool)),
    "str": _Type(str, "a string", lambda v: isinstance(v, str)),
    "str | None": _Type(str, "a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple": _Type(None, "a list of integers",
                   lambda v: isinstance(v, list) and all(map(_is_int, v)), (list, "int")),
    "list": _Type(list, "a list", lambda v: isinstance(v, list)),
    "list[float]": _Type(None, "a list of finite numbers", _finite_numbers, (list, "float")),
    "dict": _Type(dict, "a JSON object", lambda v: isinstance(v, dict)),
    "dict[str, str]": _Type(None, "an object of strings", lambda v: isinstance(v, dict)
                            and all(isinstance(t, str) for t in v.values()), (dict, "str")),
}


def _rule(name: str) -> _Type:
    """An ``_ACCEPTS`` type, or for "float[n]" a list of exactly n finite numbers."""
    if name in _ACCEPTS:
        return _ACCEPTS[name]
    n = int(name[len("float["):-1])
    return _Type(None, f"{n} finite numbers", lambda v: _finite_numbers(v, n), (list, "float"))


class Schema:
    """The keys a JSON object must hold and those it may hold, each mapped to its type name."""

    def __init__(self, required: dict, optional: dict | None = None):
        self.types, self.required = {**required, **(optional or {})}, tuple(required)
        self._accepts = {key: _rule(name) for key, name in self.types.items()}
        self._needs = frozenset(required)


def _fault(key: str, value, rule: _Type) -> str:
    """Why ``value`` at ``key`` breaks ``rule``: a typed list's or object's first bad entry."""
    container, entry_type = rule.entries
    if type(value) is container:
        _, description, test, _ = _ACCEPTS[entry_type]
        for at, entry in enumerate(value) if container is list else value.items():
            if not test(entry):
                return f"{key}[{at!r}] must be {description}, got {reprlib.repr(entry)}"
    return f"{key!r} must be {rule.description}, got {reprlib.repr(value)}"


def check_object(doc, schema: Schema, label: str, *where) -> None:
    """Raise ValueError unless ``doc`` is a JSON object that holds only keys of
    ``schema``, every required one, and each value of its key's type. The
    message names ``label.format(*where)``, the path to ``doc``, and the first
    rule broken: not an object, an unknown key, a missing key, then each value
    (down to a typed list's or object's first bad entry), as ``reprlib`` shows it."""
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
    if missing := [repr(key) for key in schema.required if key not in doc]:
        raise ValueError(f"{label} requires {' and '.join(missing)}")
    raise ValueError(f"{label} field {_fault(bad, doc[bad], known[bad])}")


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
