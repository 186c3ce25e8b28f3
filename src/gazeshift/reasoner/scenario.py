"""Scenario files: pre-annotated interaction streams the pipeline replays.

A scenario is a JSON document holding camera intrinsics, the base-from-
camera transform, an ordered cycle array (semantics text plus candidate
instances with boxes and depths), canned backend responses keyed by cycle
index, and evaluation metadata (cue-onset cycle and expected target).
Detection and depth aggregation happen upstream; files carry their results.

A ``Scenario`` holds its file's one camera and transform. Each instance is
built with them: its boxes are checked against the image and it is placed
(its pixel and base-frame gaze points) when it is built, so a cycle holds
instances that are ready to prompt and localize.
"""

from __future__ import annotations

import marshal
import math
from dataclasses import KW_ONLY, InitVar, dataclass, field
from pathlib import Path

from ..atomic import read_text
from ..config import Schema, check_object, finite_float, finite_floats, parse_json
from ..errors import DataError

SCENARIO_SCHEMA = "gazeshift-scenario"
SCENARIO_VERSION = 1

REGULARITIES = ("H1", "H2", "H3", "H4")
PERSON_CATEGORIES = frozenset({"person"})

# Rotation-matrix invariants (orthogonality, unit determinant) are enforced
# to this absolute tolerance.
ROTATION_ATOL = 1e-6


def check_rotation(R) -> tuple:
    """R's rows as float tuples; raise ValueError unless R is a rotation within ``ROTATION_ATOL``.

    ``R`` is 3 rows of 3 finite numbers: nested sequences, or a float array.
    Orthogonality uses ``np.allclose``'s rule entry by entry,
    |(R R^T)_kl - I_kl| <= ROTATION_ATOL + 1e-5 * |I_kl|; the determinant is the
    cofactor expansion along the first row.
    """
    rows = finite_floats(R, (3, 3))
    if rows is None:
        raise ValueError(f"rotation matrix must be 3 rows of 3 finite numbers, not {R!r}")
    for k, a in enumerate(rows):
        for m, b in enumerate(rows):
            dot = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
            eye = 1.0 if k == m else 0.0
            if not abs(dot - eye) <= ROTATION_ATOL + 1e-5 * eye:
                raise ValueError("rotation matrix is not orthogonal within tolerance")
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if abs(det - 1.0) > ROTATION_ATOL:
        raise ValueError("rotation matrix determinant differs from +1 beyond tolerance")
    return rows


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters in pixels, plus the image size boxes live in."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        for name in ("width", "height"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"camera {name} must be an integer of at least 1, not {value!r}")

    def back_project(self, u: float, v: float, depth: float) -> tuple:
        """Camera-frame 3D point (x, y, z) for pixel (u, v) at the given depth."""
        if depth <= 0:
            raise ValueError("depth must be positive")
        return (depth * ((u - self.cx) / self.fx), depth * ((v - self.cy) / self.fy),
                float(depth))


@dataclass(frozen=True)
class RigidTransform:
    """base_from_camera: p_base = rotation @ p_camera + translation.

    Built from nested sequences or arrays; held as a tuple of three row
    tuples and a 3-tuple, all floats.
    """

    rotation: tuple
    translation: tuple

    def __post_init__(self):
        try:
            rotation = check_rotation(self.rotation)
        except ValueError as exc:
            raise ValueError(f"base_from_camera {exc}") from exc
        translation = finite_floats(self.translation, (3,))
        if translation is None:
            raise ValueError("base_from_camera translation must be 3 finite numbers, "
                             f"not {self.translation!r}")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    def apply(self, point) -> tuple:
        """``rotation @ point + translation``, each row summed left to right."""
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = self.rotation
        tx, ty, tz = self.translation
        x, y, z = point
        return (r00 * x + r01 * y + r02 * z + tx,
                r10 * x + r11 * y + r12 * z + ty,
                r20 * x + r21 * y + r22 * z + tz)


def _check_box(box, camera: CameraIntrinsics, instance_id: str, label: str):
    """Raise ValueError unless ``box`` is a (left, top, right, bottom) box inside the image.

    Each entry must be a number by ``config.finite_float``'s rule. The
    message, naming the instance and ``label``, is built only when the
    check fails.
    """
    try:
        entries = tuple(box)
    except TypeError:  # not a sequence
        entries = ()
    numbers = tuple(map(finite_float, entries))
    if len(entries) != 4:
        reason = "must be (left, top, right, bottom)"
    elif None in numbers:
        k = numbers.index(None)
        reason = f"entry {k} must be a finite number, got {entries[k]!r}"
    else:
        left, top, right, bottom = numbers
        if not (left < right and top < bottom):
            reason = "is empty or inverted"
        elif left < 0 or top < 0 or right > camera.width or bottom > camera.height:
            reason = f"exceeds the {camera.width}x{camera.height} image"
        else:
            return
    raise ValueError(f"instance {instance_id} {label} {reason}")


def box_center(box) -> tuple:
    left, top, right, bottom = box
    return ((left + right) / 2.0, (top + bottom) / 2.0)


@dataclass(frozen=True, slots=True)
class Instance:
    """One candidate gaze target, placed in the scene of the camera it is built with.

    Every box entry is a number by ``config.finite_float``'s rule (an int
    or a float, not a bool, finite as a float) and keeps its JSON type. So
    is ``depth``, which must also be positive. ``camera`` and
    ``base_from_camera``, keyword-only, are used to check the boxes against
    the image and to place the instance; they are not kept. An instance
    that fails a check is refused with a ValueError naming it.

    A scenario shows the same Instance cycle after cycle, so its derived
    facts are set once, when it is built, in fields that equality, hashing
    and repr ignore:

    - ``placeholder``, the text ``"{instance_id}"`` that semantics names the
      instance by;
    - ``prompt_entry``, the prompt's candidate text after "[mark] ":
      category, id, box and depth;
    - ``point_2d``, ``point_3d`` and ``face_fallback``: where the robot
      looks to gaze at it. A person is placed at the face-box center; a
      person without a face box falls back to the body-box center, with
      ``face_fallback`` set. ``point_2d`` is in pixels, ``point_3d`` is
      ``point_2d`` back-projected at the instance's depth and carried into
      the base frame; every coordinate of both must be finite.
    """

    instance_id: str
    category: str
    box: tuple  # (left, top, right, bottom) pixels
    depth: float  # representative depth, metres
    face_box: tuple | None = None  # persons only, may be absent
    _: KW_ONLY
    camera: InitVar[CameraIntrinsics]
    base_from_camera: InitVar[RigidTransform]
    placeholder: str = field(init=False, repr=False, compare=False)
    prompt_entry: str = field(init=False, repr=False, compare=False)
    point_2d: tuple = field(init=False, repr=False, compare=False)  # pixels
    point_3d: tuple = field(init=False, repr=False, compare=False)  # metres, base frame
    face_fallback: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self, camera: CameraIntrinsics, base_from_camera: RigidTransform):
        if not self.instance_id or not self.category:
            raise ValueError("instance id and category must be non-empty")
        depth = finite_float(self.depth)
        if depth is None or not depth > 0:
            raise ValueError(f"instance {self.instance_id}: depth must be a positive finite "
                             f"number, got {self.depth!r}")
        _check_box(self.box, camera, self.instance_id, "box")
        if self.face_box is not None:
            _check_box(self.face_box, camera, self.instance_id, "face box")
        person = self.is_person()
        u, v = box_center(self.face_box if person and self.face_box is not None else self.box)
        point_3d = base_from_camera.apply(camera.back_project(u, v, self.depth))
        if not all(map(math.isfinite, (u, v, *point_3d))):
            raise ValueError(f"instance {self.instance_id}: gaze point is not finite "
                             f"(pixel {(u, v)}, base frame {point_3d})")
        left, top, right, bottom = self.box
        set_field = object.__setattr__  # the dataclass is frozen
        set_field(self, "placeholder", "{" + self.instance_id + "}")
        set_field(self, "prompt_entry", f"{self.category} (id {self.instance_id}, "
                                        f"box {left:.0f},{top:.0f},{right:.0f},{bottom:.0f}, "
                                        f"depth {self.depth:.2f} m)")
        set_field(self, "point_2d", (u, v))
        set_field(self, "point_3d", point_3d)
        set_field(self, "face_fallback", person and self.face_box is None)

    def is_person(self) -> bool:
        return self.category in PERSON_CATEGORIES


@dataclass(frozen=True)
class ScenarioCycle:
    """One inference cycle: semantics text plus the candidate instances.

    ``instances`` is kept in mark order: by category, then left box edge,
    then id. Mark m, counted from 1, is ``instances[m - 1]``; the order the
    instances were given in is not kept. Each instance was checked against
    the image and placed when it was built.

    ``expected_instance`` is set only on the cue-onset cycle, and names an
    instance the cycle shows.
    """

    index: int
    semantics: str
    instances: tuple
    image_ref: str | None = None
    cue_onset: bool = False
    expected_instance: str | None = None

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("cycle index must be non-negative")
        ids = [inst.instance_id for inst in self.instances]
        if len(set(ids)) != len(ids):
            raise ValueError(f"cycle {self.index}: duplicate instance ids")
        object.__setattr__(self, "instances", tuple(sorted(
            self.instances, key=lambda i: (i.category, i.box[0], i.instance_id))))
        if self.expected_instance is not None:
            if not self.cue_onset:
                raise ValueError(f"cycle {self.index}: expected_instance requires cue_onset")
            if self.expected_instance not in ids:
                raise ValueError(f"cycle {self.index}: expected_instance "
                                 f"{self.expected_instance!r} is not an instance of the cycle")


@dataclass(frozen=True)
class Scenario:
    """A replayable clip: ordered cycles plus canned backend responses.

    ``camera`` and ``base_from_camera`` are the scenario's one camera and
    transform, the ones its instances were built with.
    """

    scenario_id: str
    regularity: str  # H1..H4 interaction-regularity group
    cycles: tuple
    responses: dict  # cycle index -> canned backend response text
    camera: CameraIntrinsics
    base_from_camera: RigidTransform
    description: str = ""
    origin: str | None = field(default=None, compare=False)  # the name its errors give it
    sha256: str | None = field(default=None, compare=False)  # of the file load_scenario read

    def __post_init__(self):
        if self.regularity not in REGULARITIES:
            raise ValueError(f"unknown regularity {self.regularity!r}")
        if not self.cycles:
            raise ValueError("scenario must have at least one cycle")
        for i, cycle in enumerate(self.cycles):
            if cycle.index != i:
                raise ValueError(f"cycle indices must be consecutive from 0, got {cycle.index} at {i}")
        onsets = [c for c in self.cycles if c.cue_onset]
        if len(onsets) > 1:
            raise ValueError("at most one cue-onset cycle per scenario")
        for idx in self.responses:
            if not 0 <= idx < len(self.cycles):
                raise ValueError(f"canned response for out-of-range cycle {idx}")

    def cue_cycle(self) -> ScenarioCycle | None:
        for cycle in self.cycles:
            if cycle.cue_onset:
                return cycle
        return None

    def has_evaluation_metadata(self) -> bool:
        cue = self.cue_cycle()
        return cue is not None and cue.expected_instance is not None


# The JSON objects of a scenario file under ``config.check_object``: required
# keys, then optional ones, which may be left out but are never null.
DOCUMENT_SCHEMA = Schema({"schema": "str", "version": "int", "scenario_id": "str",
                          "regularity": "str", "camera": "dict", "base_from_camera": "dict",
                          "cycles": "list"}, {"description": "str", "responses": "dict[str, str]"})
CAMERA_SCHEMA = Schema({"fx": "float", "fy": "float", "cx": "float", "cy": "float",
                        "width": "int", "height": "int"})
TRANSFORM_SCHEMA = Schema({"rotation": "list", "translation": "list"})
CYCLE_SCHEMA = Schema({"index": "int", "semantics": "str", "instances": "list"},
                      {"image_ref": "str", "cue_onset": "bool", "expected_instance": "str"})
INSTANCE_SCHEMA = Schema({"id": "str", "category": "str", "box": "list[float]", "depth": "float"},
                         {"face_box": "list[float]"})


def scenario_from_doc(doc: dict, origin: str = "<doc>", sha256: str | None = None) -> Scenario:
    """Check a parsed scenario document and build its Scenario.

    A fault names ``origin`` and the key path, as in ``origin: cycles[2]
    field 'index' ...``. Each distinct instance record is checked and built
    once per scenario; later records with the same keys in the same order,
    equal in values and JSON types, share that Instance, which is checked
    and placed with the scenario's one camera and transform when the first
    cycle that shows it is read; its faults name that cycle's index.
    """
    try:
        check_object(doc, DOCUMENT_SCHEMA, "scenario")
        if doc["schema"] != SCENARIO_SCHEMA:
            raise ValueError(f"not a scenario file (schema {doc['schema']!r})")
        if doc["version"] != SCENARIO_VERSION:
            raise ValueError(f"unsupported scenario version {doc['version']!r}")
        check_object(doc["camera"], CAMERA_SCHEMA, "camera")
        camera = CameraIntrinsics(**doc["camera"])
        check_object(doc["base_from_camera"], TRANSFORM_SCHEMA, "base_from_camera")
        transform = RigidTransform(**doc["base_from_camera"])
        built = {}  # marshalled instance record -> its Instance
        cycles = []
        for position, cdoc in enumerate(doc["cycles"]):
            check_object(cdoc, CYCLE_SCHEMA, "cycles[{}]", position)
            instances = []
            for slot, idoc in enumerate(cdoc["instances"]):
                # Not the record itself: dict equality merges 0 with -0.0 and 1 with
                # true. Marshal format 2 writes each key and value with its type and a
                # float's exact bits, and (unlike format 3 and up) no back-references,
                # so only records alike in keys, key order, values and JSON types
                # share bytes. It costs a quarter of repr's time.
                key = marshal.dumps(idoc, 2)
                inst = built.get(key)
                if inst is None:
                    check_object(idoc, INSTANCE_SCHEMA, "cycles[{}].instances[{}]", position, slot)
                    try:
                        inst = built[key] = Instance(
                            idoc["id"], idoc["category"], tuple(idoc["box"]),
                            float(idoc["depth"]),
                            tuple(idoc["face_box"]) if "face_box" in idoc else None,
                            camera=camera, base_from_camera=transform)
                    except ValueError as exc:
                        raise ValueError(f"cycle {cdoc['index']} {exc}") from exc
                instances.append(inst)
            # the cycle's keys are ScenarioCycle's fields
            cycles.append(ScenarioCycle(**{**cdoc, "instances": tuple(instances)}))
        responses = {}
        for key, text in doc.get("responses", {}).items():
            # str(i) of an index only: int() would also read "02" and " 2" as 2
            if not (key.isdecimal() and key == str(int(key))):
                raise ValueError(f"canned response key {key!r} is not a cycle index")
            responses[int(key)] = text
        return Scenario(scenario_id=doc["scenario_id"], regularity=doc["regularity"],
                        cycles=tuple(cycles), responses=responses, camera=camera,
                        base_from_camera=transform, description=doc.get("description", ""),
                        origin=origin, sha256=sha256)
    except ValueError as exc:
        raise DataError(f"{origin}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """The scenario of one file; it keeps the path and the SHA-256 of the bytes read."""
    path = Path(path)
    try:
        text, sha256 = read_text(path)
        doc = parse_json(text)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 text, or not JSON
        raise DataError(f"{path}: {exc}") from exc
    return scenario_from_doc(doc, origin=str(path), sha256=sha256)


def load_scenario_dir(directory) -> list:
    """All scenarios under a directory, sorted by file name; their ids must differ."""
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        raise DataError(f"no scenario files found under {directory}")
    scenarios, first_path = [], {}
    for path in paths:
        scenario = load_scenario(path)
        first = first_path.setdefault(scenario.scenario_id, path)
        if first != path:
            raise DataError(f"{path}: scenario_id {scenario.scenario_id!r} is already "
                            f"that of {first}")
        scenarios.append(scenario)
    return scenarios
