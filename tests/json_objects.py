"""The JSON objects of a scenario file, and values of the wrong JSON type for each key.

``scenario_objects`` lists every object of a parsed scenario document with
the key path its errors name and the schema ``config.check_object`` checks
it against. ``WRONG_VALUES`` holds, for each type name of that rule, JSON
values the type refuses.
"""

from __future__ import annotations

import math

from gazeshift.reasoner.scenario import (CAMERA_SCHEMA, CYCLE_SCHEMA, DOCUMENT_SCHEMA,
                                         INSTANCE_SCHEMA, TRANSFORM_SCHEMA)

WRONG_VALUES = {
    "str": [5, None, True, ["a"], {"a": "b"}],
    "int": [1.0, 2.5, 1e300, "1", True, None, [1]],
    "float": ["1.5", True, None, math.nan, math.inf, -math.inf, 10 ** 400, [1.5]],
    "bool": [0, 1, "true", None, []],
    "list": ["[]", {"a": 1}, None, 3],
    "list[float]": [[1, "2", 3, 4], [True, 1, 2, 3], [None], [math.nan], {"0": 1}, "1,2,3,4",
                    None],
    "dict": [[], "{}", None, 1],
    "dict[str, str]": [{"0": 1}, {"0": None}, ["TARGET: 1"], "x", None],
}


def scenario_objects(doc: dict) -> list:
    """``(key path, object, schema)`` of each object of ``doc``, in reading order."""
    objects = [("scenario", doc, DOCUMENT_SCHEMA), ("camera", doc["camera"], CAMERA_SCHEMA),
               ("base_from_camera", doc["base_from_camera"], TRANSFORM_SCHEMA)]
    for position, cycle in enumerate(doc["cycles"]):
        objects.append((f"cycles[{position}]", cycle, CYCLE_SCHEMA))
        objects += [(f"cycles[{position}].instances[{slot}]", inst, INSTANCE_SCHEMA)
                    for slot, inst in enumerate(cycle["instances"])]
    return objects
