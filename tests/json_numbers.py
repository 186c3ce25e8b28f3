"""A hypothesis strategy of JSON values that a number field must refuse.

Every reader takes a JSON number by ``config.finite_float``'s rule: an int
that is not a bool, or a float, finite once converted. ``bad_json_numbers``
draws what that rule refuses, each value as ``json.loads`` reads it from a
file, so a test can write it back with ``json.dumps`` and read it again.
"""

from __future__ import annotations

import json

from hypothesis import strategies as st

# Past 2**1024 an int has no float: float() raises OverflowError.
_HUGE = st.integers(2 ** 1024, 10 ** 400)


def bad_json_numbers():
    """Bools, null, numeric strings, ints beyond the float range, and non-finite floats.

    The non-finite floats are the ``NaN``, ``Infinity`` and ``-Infinity``
    tokens Python's json accepts, and number literals such as ``1e400``
    that it reads as an infinity.
    """
    tokens = st.one_of(
        st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity",
                         "1e400", "-1e400"]),
        st.one_of(_HUGE, _HUGE.map(lambda n: -n)).map(str),
        st.one_of(st.integers(-10 ** 6, 10 ** 6),
                  st.floats(allow_nan=False, allow_infinity=False)).map(
            lambda number: json.dumps(repr(number))),
    )
    return tokens.map(json.loads)
