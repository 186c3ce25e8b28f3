"""Oracles for the scenario loader and the prompt: work done afresh, with no sharing.

``scenario_from_doc_per_record`` is the loader ``scenario_from_doc`` replaced:
one ``Instance`` per instance entry of every cycle, with no sharing and
without the JSON type checks. On documents both accept, the package's
loader must give the same scenario field by field; on a document with one
fault both detect, the same message.

``synthesize_prompt_per_cycle`` is the prompt builder ``synthesize_prompt``
replaced: it formats every candidate line on every call, where the package
formats each instance's entry once and reuses it. Both must give the same
text for every cycle.

``project`` is the inverse of ``CameraIntrinsics.back_project``: the pixel
a camera-frame point lands on. The package needs only the one direction.
"""

from __future__ import annotations

from gazeshift.errors import DataError
from gazeshift.reasoner.pipeline import PROMPT_INSTRUCTIONS, MarkedScene, MemoryBuffer
from gazeshift.reasoner.scenario import (SCENARIO_SCHEMA, SCENARIO_VERSION, CameraIntrinsics,
                                         Instance, RigidTransform, Scenario, ScenarioCycle)


def scenario_from_doc_per_record(doc: dict, origin: str = "<doc>") -> Scenario:
    if not isinstance(doc, dict):
        raise DataError(f"{origin}: a scenario must be a JSON object, not {type(doc).__name__}")
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise DataError(f"{origin}: not a scenario file (schema {doc.get('schema')!r})")
    if doc.get("version") != SCENARIO_VERSION:
        raise DataError(f"{origin}: unsupported scenario version {doc.get('version')!r}")
    try:
        camera = CameraIntrinsics(**doc["camera"])
        transform = RigidTransform(doc["base_from_camera"]["rotation"],
                                   doc["base_from_camera"]["translation"])
        cycles = []
        for cdoc in doc["cycles"]:
            instances = tuple(
                Instance(
                    instance_id=idoc["id"],
                    category=idoc["category"],
                    box=tuple(idoc["box"]),
                    depth=float(idoc["depth"]),
                    face_box=tuple(idoc["face_box"]) if idoc.get("face_box") else None,
                )
                for idoc in cdoc["instances"]
            )
            cycles.append(ScenarioCycle(
                index=int(cdoc["index"]),
                semantics=cdoc["semantics"],
                instances=instances,
                camera=camera,
                base_from_camera=transform,
                image_ref=cdoc.get("image_ref"),
                cue_onset=bool(cdoc.get("cue_onset", False)),
                expected_instance=cdoc.get("expected_instance"),
            ))
        responses = {int(k): v for k, v in doc.get("responses", {}).items()}
        return Scenario(
            scenario_id=doc["scenario_id"],
            regularity=doc["regularity"],
            cycles=tuple(cycles),
            responses=responses,
            description=doc.get("description", ""),
        )
    except DataError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{origin}: {exc}") from exc


def project(camera: CameraIntrinsics, point) -> tuple:
    """Pixel (u, v) of a camera-frame point; the inverse of ``camera.back_project``."""
    x, y, z = map(float, point)
    if z <= 0:
        raise ValueError("point must lie in front of the camera")
    return (camera.fx * x / z + camera.cx, camera.fy * y / z + camera.cy)


def synthesize_prompt_per_cycle(marked: MarkedScene, buffer: MemoryBuffer) -> tuple:
    lines = [PROMPT_INSTRUCTIONS, "", "Candidates:"]
    for mark in sorted(marked.marks):
        inst = marked.marks[mark]
        left, top, right, bottom = inst.box
        lines.append(f"  [{mark}] {inst.category} (id {inst.instance_id}, "
                     f"box {left:.0f},{top:.0f},{right:.0f},{bottom:.0f}, "
                     f"depth {inst.depth:.2f} m)")
    lines += ["", "Current scene:", f"  {marked.semantics}"]
    if buffer.prev_record is not None:
        lines += ["", "Previous gaze:", f"  {buffer.prev_record.summary()}"]
    if buffer.history:
        lines += ["", f"History (last {len(buffer.history)} cycles):"]
        lines += [f"  {entry}" for entry in buffer.history]
    return "\n".join(lines), marked.image_ref
