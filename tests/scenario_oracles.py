"""Oracles for the scenario loader and the prompt: work done afresh, with no sharing.

``scenario_from_doc_per_record`` is the loader ``scenario_from_doc`` replaced:
one ``Instance`` per instance entry of every cycle, with no sharing, each
built with the scenario's camera and transform and its fault prefixed with
its cycle's index. Every object, each instance record included, goes
through the package's one object rule, ``config.check_object``, with no
memo. On documents both accept, the package's loader must give the same
scenario field by field; on a document with one fault both detect, the
same message.

``mark_order`` is the reference set-of-mark order: by category, then left
box edge, then id. The package sorts each cycle's instances into it once,
when the ``ScenarioCycle`` is built, and mark m is ``cycle.instances[m - 1]``.

``marked_semantics_sequential`` is the placeholder rewrite on its own: it
formats each instance's "{id}" and replaces it, present or not, in mark
order, where the package's ``synthesize_prompt`` formats each placeholder
once per instance and replaces only those the text holds, in the same pass
that writes the candidate lines.

``synthesize_prompt_per_cycle`` is the prompt builder ``synthesize_prompt``
replaced: it marks the instances it is given with ``mark_order``, writes the
placeholders of the semantics as marked references, and formats every
candidate line, the previous gaze and each history line on every call, as
lines joined at the end, where the package formats each instance's entry
once and reuses it, and builds the prompt as one text. Both must give the
same prompt and marked semantics for every cycle.

``localize_per_call`` is the placement that ``localize`` once did on every
call: it works out the selected instance's pixel and base-frame point, and
whether a person fell back to the body box, from the camera and transform
it is given, where the package places each instance once, when it is
built, and ``localize``'s record names that instance.

``project`` is the inverse of ``CameraIntrinsics.back_project``: the pixel
a camera-frame point lands on. The package needs only the one direction.
"""

from __future__ import annotations

from gazeshift.config import check_object
from gazeshift.errors import DataError
from gazeshift.reasoner.pipeline import PROMPT_INSTRUCTIONS, MemoryBuffer
from gazeshift.reasoner.scenario import (CAMERA_SCHEMA, CYCLE_SCHEMA, DOCUMENT_SCHEMA,
                                         INSTANCE_SCHEMA, SCENARIO_SCHEMA, SCENARIO_VERSION,
                                         TRANSFORM_SCHEMA, CameraIntrinsics, Instance,
                                         RigidTransform, Scenario, ScenarioCycle, box_center)


def scenario_from_doc_per_record(doc: dict, origin: str = "<doc>") -> Scenario:
    try:
        check_object(doc, DOCUMENT_SCHEMA, "scenario")
        if doc["schema"] != SCENARIO_SCHEMA:
            raise ValueError(f"not a scenario file (schema {doc['schema']!r})")
        if doc["version"] != SCENARIO_VERSION:
            raise ValueError(f"unsupported scenario version {doc['version']!r}")
        check_object(doc["camera"], CAMERA_SCHEMA, "camera")
        camera = CameraIntrinsics(**doc["camera"])
        check_object(doc["base_from_camera"], TRANSFORM_SCHEMA, "base_from_camera")
        transform = RigidTransform(doc["base_from_camera"]["rotation"],
                                   doc["base_from_camera"]["translation"])
        cycles = []
        for position, cdoc in enumerate(doc["cycles"]):
            check_object(cdoc, CYCLE_SCHEMA, f"cycles[{position}]")
            instances = []
            for slot, idoc in enumerate(cdoc["instances"]):
                check_object(idoc, INSTANCE_SCHEMA, f"cycles[{position}].instances[{slot}]")
                try:
                    instances.append(Instance(
                        instance_id=idoc["id"],
                        category=idoc["category"],
                        box=tuple(idoc["box"]),
                        depth=float(idoc["depth"]),
                        face_box=tuple(idoc["face_box"]) if "face_box" in idoc else None,
                        camera=camera,
                        base_from_camera=transform,
                    ))
                except ValueError as exc:
                    raise ValueError(f"cycle {cdoc['index']} {exc}") from exc
            cycles.append(ScenarioCycle(
                index=cdoc["index"],
                semantics=cdoc["semantics"],
                instances=tuple(instances),
                image_ref=cdoc.get("image_ref"),
                cue_onset=cdoc.get("cue_onset", False),
                expected_instance=cdoc.get("expected_instance"),
            ))
        responses = {int(k): v for k, v in doc.get("responses", {}).items()}
        return Scenario(
            scenario_id=doc["scenario_id"],
            regularity=doc["regularity"],
            cycles=tuple(cycles),
            responses=responses,
            camera=camera,
            base_from_camera=transform,
            description=doc.get("description", ""),
        )
    except ValueError as exc:
        raise DataError(f"{origin}: {exc}") from exc


def project(camera: CameraIntrinsics, point) -> tuple:
    """Pixel (u, v) of a camera-frame point; the inverse of ``camera.back_project``."""
    x, y, z = map(float, point)
    if z <= 0:
        raise ValueError("point must lie in front of the camera")
    return (camera.fx * x / z + camera.cx, camera.fy * y / z + camera.cy)


def mark_order(instances) -> list:
    """The instances in mark order: mark m is the m-th, counted from 1."""
    return sorted(instances, key=lambda i: (i.category, i.box[0], i.instance_id))


def marked_semantics_sequential(semantics: str, marked) -> str:
    """``semantics`` with each of ``marked``, instances in mark order, rewritten in turn."""
    for mark, inst in enumerate(marked, start=1):
        semantics = semantics.replace("{" + inst.instance_id + "}", f"{inst.category} [{mark}]")
    return semantics


def synthesize_prompt_per_cycle(semantics: str, instances, buffer: MemoryBuffer) -> tuple:
    """(prompt, marked semantics) of a cycle that shows ``instances``."""
    marks = dict(enumerate(mark_order(instances), start=1))
    semantics = marked_semantics_sequential(semantics, marks.values())
    lines = [PROMPT_INSTRUCTIONS, "", "Candidates:"]
    for mark, inst in marks.items():
        left, top, right, bottom = inst.box
        lines.append(f"  [{mark}] {inst.category} (id {inst.instance_id}, "
                     f"box {left:.0f},{top:.0f},{right:.0f},{bottom:.0f}, "
                     f"depth {inst.depth:.2f} m)")
    lines += ["", "Current scene:", f"  {semantics}"]
    if buffer.prev_record is not None:
        lines += ["", "Previous gaze:", f"  {buffer.prev_record.summary()}"]
    if buffer.history:
        lines += ["", f"History (last {len(buffer.history)} cycles):"]
        lines += [f"  {entry}" for entry in buffer.history]
    return "\n".join(lines), semantics


def localize_per_call(mark: int, cycle: ScenarioCycle, camera: CameraIntrinsics,
                      base_from_camera: RigidTransform) -> tuple:
    """(point_2d, point_3d, face_fallback) of the selected instance, worked out afresh."""
    inst = cycle.instances[mark - 1]
    face_fallback = False
    if inst.is_person() and inst.face_box is not None:
        u, v = box_center(inst.face_box)
    else:
        if inst.is_person():
            face_fallback = True
        u, v = box_center(inst.box)
    cam_point = camera.back_project(u, v, inst.depth)
    return (u, v), base_from_camera.apply(cam_point), face_fallback
