"""The JSON objects the package reads, and values of the wrong JSON type for each key.

Each enumerator lists the objects of one parsed file, in reading order, as
``(prefix, label, object, schema)``: ``config.check_object`` checks the
object against the schema, and the reader's error is the prefix, then the
label as the rule's message names it. ``scenario_objects`` covers a scenario
file, ``dataset_objects`` a dataset file (header and sample lines),
``checkpoint_objects`` a checkpoint (document, parameter entries and model
record), ``config_objects`` a --config file and ``timings_objects`` a
timings file. ``wrong_values`` holds, for each type name of the rule, JSON
values the type refuses, and ``refused`` says where in a refused value the
message points and what it shows.
"""

from __future__ import annotations

import math
from dataclasses import fields

from gazeshift.cli import CONFIG_SCHEMA
from gazeshift.config import Schema, finite_float
from gazeshift.datagen import HEADER_SCHEMA, SAMPLE_SCHEMA
from gazeshift.nets import CHECKPOINT_SCHEMA, PARAM_SCHEMA
from gazeshift.prior import PriorConfig
from gazeshift.reasoner.scenario import (CAMERA_SCHEMA, CYCLE_SCHEMA, DOCUMENT_SCHEMA,
                                         INSTANCE_SCHEMA, TRANSFORM_SCHEMA)
from gazeshift.trainer import TIMINGS_SCHEMA
from gazeshift.vqvae import VQVAEConfig

WRONG_VALUES = {
    "str": [5, None, True, ["a"], {"a": "b"}],
    "str | None": [5, True, ["a"], {"a": "b"}],
    "int": [1.0, 2.5, 1e300, "1", True, None, [1]],
    "float": ["1.5", True, None, math.nan, math.inf, -math.inf, 10 ** 400, [1.5]],
    "bool": [0, 1, "true", None, []],
    "list": ["[]", {"a": 1}, None, 3],
    "tuple": [[1, 2.0], [True], ["3"], [None], {"0": 1}, "1,2", None],
    "list[float]": [[1, "2", 3, 4], [True, 1, 2, 3], [None], [math.nan], {"0": 1}, "1,2,3,4",
                    None],
    "dict": [[], "{}", None, 1],
    "dict[str, str]": [{"0": 1}, {"0": None}, ["TARGET: 1"], "x", None],
}

# The rule's entries for each typed list or object: its Python type and the test of one entry.
_NUMBER = (list, lambda v: finite_float(v) is not None)
_ENTRIES = {"list[float]": _NUMBER, "tuple": (list, lambda v: type(v) is int),
            "dict[str, str]": (dict, lambda v: isinstance(v, str))}

# The model record's keys beside its config fields.
_MODEL_KEYS = {"conditional-vqvae": (VQVAEConfig, {}),
               "conditional-prior": (PriorConfig, {"stage1_sha256": "str | None"})}


def wrong_values(name: str) -> list:
    """Values of type name ``name`` refuses; "float[n]" is a list of exactly n finite numbers."""
    if name in WRONG_VALUES:
        return WRONG_VALUES[name]
    n = int(name[len("float["):-1])
    return [[0.5] * (n - 1), [0.5] * (n + 1), [True] + [0.5] * (n - 1),
            [0.5] * (n - 1) + ["1"], [0.5] * (n - 1) + [math.nan], [10 ** 400] * n,
            None, "0.5", {"0": 0.5}]


def refused(key: str, value, name: str) -> tuple:
    """Where the message on ``value`` of type ``name`` at ``key`` points, and the value
    it shows: the first entry a typed list or object refuses, else the value itself."""
    container, test = _NUMBER if name.startswith("float[") else _ENTRIES.get(name, (None, None))
    if type(value) is container:
        for at, entry in enumerate(value) if container is list else value.items():
            if not test(entry):
                return f"{key}[{at!r}]", entry
    return repr(key), value


def scenario_objects(doc: dict, origin: str = "<doc>") -> list:
    """The document, camera, transform, each cycle and each instance record."""
    objects = [("scenario", doc, DOCUMENT_SCHEMA), ("camera", doc["camera"], CAMERA_SCHEMA),
               ("base_from_camera", doc["base_from_camera"], TRANSFORM_SCHEMA)]
    for position, cycle in enumerate(doc["cycles"]):
        objects.append((f"cycles[{position}]", cycle, CYCLE_SCHEMA))
        objects += [(f"cycles[{position}].instances[{slot}]", inst, INSTANCE_SCHEMA)
                    for slot, inst in enumerate(cycle["instances"])]
    return [(f"{origin}: ", *obj) for obj in objects]


def dataset_objects(docs: list, path) -> list:
    """The header and each sample line of a dataset file, each line parsed."""
    return [(f"{path}: ", "header", docs[0], HEADER_SCHEMA)] + [
        (f"{path}: line {line_no}: ", "sample", doc, SAMPLE_SCHEMA)
        for line_no, doc in enumerate(docs[1:], start=2)]


def checkpoint_objects(doc: dict, path) -> list:
    """The document, each parameter entry, and the model record: ``kind``, every field of
    the model's config and its own extra keys."""
    spec = doc["metadata"]["model"]
    config_cls, extra = _MODEL_KEYS[spec["kind"]]
    model = Schema({"kind": "str", **{f.name: f.type for f in fields(config_cls)}, **extra})
    return ([(f"{path}: ", "checkpoint", doc, CHECKPOINT_SCHEMA)]
            + [(f"{path}: ", f"parameter {name!r}", entry, PARAM_SCHEMA)
               for name, entry in doc["params"].items()]
            + [(f"{path}: unusable checkpoint: ", "model config", spec, model)])


def config_objects(doc: dict, path) -> list:
    """The --config file's one object; ``read_config`` checks each section in it."""
    return [(f"{path}: ", "config", doc, CONFIG_SCHEMA)]


def timings_objects(records: list, path) -> list:
    """Each line of a timings file."""
    return [(f"cannot read {path} as one JSON object per line: ", f"line {line_no}", record,
             TIMINGS_SCHEMA) for line_no, record in enumerate(records, start=1)]
