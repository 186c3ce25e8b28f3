"""Builder for the bundled scenario corpus.

Twelve hand-authored scenarios, three per interaction regularity:

* H1 — deictic gesture: a person points at an object.
* H2 — social orienting: a person starts speaking.
* H3 — turn-taking: the floor is handed to another person.
* H4 — joint attention: a person directs their own gaze at an object.

Canned responses are authored through the reference mark order,
``scenario_oracles.mark_order``, so the scripted backend answers the
expected target's actual mark one cycle after cue onset (and dwells there
for a second cycle), behaving as a perfect reasoner under the two-cycle
correctness rule. Each file lists a cycle's instances in the order they
were authored, not in mark order, which the loader restores. The package
ships only the files; this builder lives beside the test that checks it
reproduces them byte for byte. Regenerate the bundled files from the
repository root with:

    PYTHONPATH=src python tests/scenario_corpus.py src/gazeshift/scenarios

``scenario_to_doc`` and ``write_scenario``, the inverse of the package's
``scenario_from_doc`` and ``load_scenario``, live here too: only this
builder and the round-trip tests write scenario files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from gazeshift.reasoner.scenario import (SCENARIO_SCHEMA, SCENARIO_VERSION, CameraIntrinsics,
                                         Instance, RigidTransform, Scenario, ScenarioCycle,
                                         scenario_from_doc)
from scenario_oracles import mark_order

CAMERA = CameraIntrinsics(fx=525.0, fy=525.0, cx=320.0, cy=240.0, width=640, height=480)

# Camera looks along +x of the base frame: camera z -> base x,
# camera x (image right) -> base -y, camera y (image down) -> base -z.
_R_BASE_CAM = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
HEAD_CAMERA = RigidTransform(_R_BASE_CAM, np.array([0.0, 0.0, 0.0]))
RAISED_CAMERA = RigidTransform(_R_BASE_CAM, np.array([0.05, 0.02, 1.35]))


def person(iid, left, top, right, bottom, depth, face=True):
    box = (left, top, right, bottom)
    face_box = None
    if face:
        w = right - left
        face_box = (left + 0.3 * w, top + 10, right - 0.3 * w, top + 10 + 0.22 * (bottom - top))
    return Instance(iid, "person", box, depth, face_box, camera=CAMERA,
                    base_from_camera=HEAD_CAMERA)


def thing(iid, category, left, top, right, bottom, depth):
    return Instance(iid, category, (left, top, right, bottom), depth, camera=CAMERA,
                    base_from_camera=HEAD_CAMERA)


def _build(scenario_id, regularity, description, instances, semantics_per_cycle,
           t0, expected, default_target, transform=HEAD_CAMERA, prose_at=None):
    """Expand a declarative description into a scenario document with canned responses.

    Every cycle shows ``instances``, listed in the order given.
    ``default_target`` is gazed at outside the cue window; the expected
    instance's mark is answered at t0+1 and t0+2 (dwell). ``prose_at``
    names a cycle whose response gains a prose preamble.
    """
    instances = [replace(inst, camera=CAMERA, base_from_camera=transform) for inst in instances]
    cycles = []
    for t, semantics in enumerate(semantics_per_cycle):
        cycles.append(ScenarioCycle(
            index=t, semantics=semantics, instances=tuple(instances),
            image_ref=f"frames/{scenario_id}/cycle{t:02d}.png",
            cue_onset=(t == t0), expected_instance=expected if t == t0 else None,
        ))
    marked = [inst.instance_id for inst in mark_order(instances)]
    responses = {}
    for cycle in cycles:
        target = expected if cycle.index in (t0 + 1, t0 + 2) else default_target
        line = f"TARGET: {marked.index(target) + 1}"
        if prose_at is not None and cycle.index == prose_at:
            line = ("The cue is clear from the scene context, so the robot "
                    "should attend there next. " + line)
        responses[cycle.index] = line
    scenario = Scenario(scenario_id=scenario_id, regularity=regularity,
                        cycles=tuple(cycles), responses=responses, camera=CAMERA,
                        base_from_camera=transform, description=description)
    return scenario_to_doc(scenario, [inst.instance_id for inst in instances])


def corpus_docs() -> list:
    """The document of each bundled scenario, as its file holds it."""
    docs = []

    # ---- H1: deictic gestures ------------------------------------------------
    anna = person("anna", 60, 70, 210, 460, 1.6)
    ben = person("ben", 400, 80, 560, 460, 1.8)
    cup = thing("cup", "cup", 280, 300, 330, 360, 1.2)
    book = thing("book", "book", 250, 380, 340, 430, 1.1)
    docs.append(_build(
        "h1_point_cup", "H1", "Anna points at the cup on the table.",
        [anna, ben, cup, book],
        ["{anna} and {ben} sit at a table. A {cup} and a {book} lie between them.",
         "{anna} talks to {ben} about the experiment.",
         "{anna} raises her arm and points at the {cup}.",
         "{anna} keeps pointing at the {cup}; {ben} follows the gesture.",
         "{ben} nods and reaches toward the {cup}.",
         "{anna} lowers her arm and resumes talking."],
        t0=2, expected="cup", default_target="anna"))

    door = thing("door", "door", 540, 60, 636, 420, 2.8)
    plant = thing("plant", "plant", 20, 250, 90, 420, 2.2)
    docs.append(_build(
        "h1_point_door", "H1", "Ben points toward the door.",
        [anna, ben, door, plant],
        ["{anna} and {ben} stand in the lab; the {door} is to the right of a {plant}.",
         "{ben} points at the {door} and says someone is waiting outside.",
         "{ben} keeps his arm extended toward the {door}.",
         "{anna} walks toward the {door}.",
         "{ben} lowers his arm."],
        t0=1, expected="door", default_target="ben"))

    child = person("child", 120, 160, 240, 460, 1.3)
    parent = person("parent", 380, 60, 540, 460, 1.7)
    toy = thing("toy", "toy", 280, 350, 350, 420, 1.0)
    ball = thing("ball", "ball", 60, 390, 110, 440, 1.1)
    docs.append(_build(
        "h1_point_toy", "H1", "A child points at a toy; the response carries a prose preamble.",
        [child, parent, toy, ball],
        ["A {child} and a {parent} play on the floor near a {toy} and a {ball}.",
         "The {child} rolls the {ball} to the {parent}.",
         "The {parent} stacks blocks; the {child} watches.",
         "The {child} points at the {toy} and squeals.",
         "The {child} keeps pointing at the {toy}.",
         "The {parent} picks up the {toy}.",
         "They play with the {toy} together."],
        t0=3, expected="toy", default_target="child", prose_at=4))

    # ---- H2: social orienting (speech onset) ---------------------------------
    laptop = thing("laptop", "laptop", 260, 280, 380, 370, 1.4)
    docs.append(_build(
        "h2_speaker_anna", "H2", "Anna breaks the silence; gaze should orient to her.",
        [anna, ben, laptop],
        ["{anna} and {ben} work quietly, a {laptop} between them.",
         "Both read; nobody speaks.",
         "{anna} starts speaking: 'I found the bug.'",
         "{anna} keeps explaining while {ben} listens.",
         "{ben} leans over to look at the {laptop}.",
         "They discuss the fix."],
        t0=2, expected="anna", default_target="ben"))

    nurse = person("nurse", 80, 60, 230, 460, 1.9, face=False)  # turned away
    patient = person("patient", 350, 120, 500, 460, 2.1)
    monitor = thing("monitor", "monitor", 520, 100, 630, 240, 2.4)
    docs.append(_build(
        "h2_speaker_nurse", "H2", "The nurse speaks while facing away (no face box).",
        [nurse, patient, monitor],
        ["A {nurse} checks a {monitor}; a {patient} rests in bed.",
         "The room is quiet.",
         "The {nurse} speaks while still facing the {monitor}: 'Readings look fine.'",
         "The {nurse} keeps talking, back turned.",
         "The {patient} answers softly."],
        t0=2, expected="nurse", default_target="patient"))

    host = person("host", 70, 80, 220, 460, 1.5)
    visitor = person("visitor", 430, 70, 580, 460, 2.5)
    phone = thing("phone", "phone", 300, 330, 345, 395, 1.3)
    door2 = thing("door", "door", 560, 50, 638, 400, 2.9)
    docs.append(_build(
        "h2_greeting", "H2", "A visitor enters and greets the room.",
        [host, visitor, phone, door2],
        ["The {host} scrolls a {phone}; the {door} opens.",
         "A {visitor} steps in and says hello.",
         "The {visitor} keeps talking from the doorway.",
         "The {host} stands up to greet the {visitor}.",
         "They shake hands.",
         "The {host} offers a seat."],
        t0=1, expected="visitor", default_target="host"))

    # ---- H3: turn-taking -----------------------------------------------------
    whiteboard = thing("whiteboard", "whiteboard", 240, 60, 420, 260, 2.6)
    docs.append(_build(
        "h3_handoff_ben", "H3", "Anna finishes and hands the floor to Ben.",
        [anna, ben, whiteboard],
        ["{anna} presents at the {whiteboard}; {ben} listens.",
         "{anna} sketches the architecture.",
         "{anna} summarizes her part.",
         "{anna} finishes and asks: '{ben}, what do you think?'",
         "{ben} starts answering.",
         "{ben} walks to the {whiteboard}."],
        t0=3, expected="ben", default_target="anna"))

    cara = person("cara", 250, 90, 390, 460, 2.0)
    docs.append(_build(
        "h3_handoff_cara", "H3", "Ben passes the turn to Cara.",
        [anna, ben, cara, laptop],
        ["{anna}, {ben} and {cara} sit around a {laptop}.",
         "{ben} reports on the deployment.",
         "{ben} turns to {cara}: 'your turn.'",
         "{cara} begins her update.",
         "{cara} shows numbers on the {laptop}.",
         "{anna} asks a follow-up question."],
        t0=2, expected="cara", default_target="ben"))

    moderator = person("moderator", 60, 70, 200, 460, 1.8)
    dana = person("dana", 420, 100, 570, 460, 2.3)
    screen = thing("monitor", "monitor", 250, 80, 400, 220, 2.7)
    docs.append(_build(
        "h3_meeting", "H3", "The moderator invites Dana to speak.",
        [moderator, dana, screen],
        ["A {moderator} runs the meeting; slides on a {monitor}.",
         "The {moderator} wraps up the agenda item.",
         "The {moderator} says: '{dana}, please go ahead.'",
         "{dana} starts presenting.",
         "{dana} points at the {monitor}."],
        t0=2, expected="dana", default_target="moderator"))

    # ---- H4: joint attention (gaze following) --------------------------------
    cup2 = thing("cup", "cup", 480, 320, 530, 380, 1.9)
    docs.append(_build(
        "h4_look_monitor", "H4", "Anna turns her gaze to the monitor; follow it.",
        [anna, monitor, cup2],
        ["{anna} sips from a {cup} near a {monitor}.",
         "{anna} puts the {cup} down.",
         "{anna} turns and stares at the {monitor}.",
         "{anna} keeps studying the {monitor}.",
         "{anna} frowns at something on the {monitor}.",
         "{anna} looks back and comments."],
        t0=2, expected="monitor", default_target="anna"))

    docs.append(_build(
        "h4_look_ball", "H4", "The child stares at the ball; camera is head-mounted and offset.",
        [child, parent, ball],
        ["A {child} sits with a {parent}; a {ball} rests nearby.",
         "The {child} suddenly stares at the {ball}.",
         "The {child} keeps staring at the {ball}.",
         "The {parent} rolls the {ball} over.",
         "The {child} giggles."],
        t0=1, expected="ball", default_target="parent", transform=RAISED_CAMERA))

    book2 = thing("book", "book", 150, 300, 260, 370, 1.5)
    plant2 = thing("plant", "plant", 560, 240, 635, 430, 2.5)
    docs.append(_build(
        "h4_look_book", "H4", "Ben fixates an open book.",
        [ben, book2, phone, plant2],
        ["{ben} sits near a {book}, a {phone} and a {plant}.",
         "{ben} taps at the {phone}.",
         "{ben} sets the {phone} aside.",
         "{ben} fixes his gaze on the open {book}.",
         "{ben} keeps reading the {book} intently.",
         "{ben} turns a page.",
         "{ben} underlines a sentence."],
        t0=3, expected="book", default_target="ben"))

    return docs


def build_corpus() -> list:
    """The bundled scenarios, read from their documents."""
    return [scenario_from_doc(doc) for doc in corpus_docs()]


def scenario_to_doc(scenario: Scenario, order=None) -> dict:
    """The scenario document that ``scenario_from_doc`` reads back as ``scenario``.

    A cycle lists its instances in mark order, or in the order of their ids
    in ``order``.
    """
    cycles = []
    for c in scenario.cycles:
        shown = c.instances if order is None else sorted(
            c.instances, key=lambda inst: order.index(inst.instance_id))
        doc = {
            "index": c.index,
            "semantics": c.semantics,
            "instances": [
                {k: v for k, v in {
                    "id": inst.instance_id,
                    "category": inst.category,
                    "box": list(inst.box),
                    "depth": inst.depth,
                    "face_box": list(inst.face_box) if inst.face_box else None,
                }.items() if v is not None}
                for inst in shown
            ],
        }
        if c.image_ref:
            doc["image_ref"] = c.image_ref
        if c.cue_onset:
            doc["cue_onset"] = True
        if c.expected_instance:
            doc["expected_instance"] = c.expected_instance
        cycles.append(doc)
    transform = scenario.base_from_camera
    return {
        "schema": SCENARIO_SCHEMA,
        "version": SCENARIO_VERSION,
        "scenario_id": scenario.scenario_id,
        "regularity": scenario.regularity,
        "description": scenario.description,
        "camera": asdict(scenario.camera),
        "base_from_camera": {"rotation": [list(row) for row in transform.rotation],
                             "translation": list(transform.translation)},
        "cycles": cycles,
        "responses": {str(k): v for k, v in sorted(scenario.responses.items())},
    }


def _write_doc(doc: dict, path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_scenario(scenario: Scenario, path) -> None:
    _write_doc(scenario_to_doc(scenario), path)


def write_corpus(out_dir) -> list:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in corpus_docs():
        path = out / f"{doc['scenario_id']}.json"
        _write_doc(doc, path)
        paths.append(path)
    return paths


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "scenarios"
    for p in write_corpus(target):
        print(p)
