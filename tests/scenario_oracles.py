"""Oracle for the scenario loader: build every instance record on its own.

``scenario_from_doc_per_record`` is the loader ``scenario_from_doc`` replaced:
one ``Instance`` per instance entry of every cycle, with no sharing and
without the JSON type checks. On documents both accept, the package's
loader must give the same scenario field by field; on a document with one
fault both detect, the same message.
"""

from __future__ import annotations

import numpy as np

from gazeshift.errors import DataError
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
        transform = RigidTransform(np.array(doc["base_from_camera"]["rotation"]),
                                   np.array(doc["base_from_camera"]["translation"]))
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
