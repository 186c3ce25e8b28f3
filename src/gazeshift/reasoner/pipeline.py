"""Per-cycle gaze reasoning: mark, prompt, query, parse, localize.

The pipeline is total: whatever the backend does (valid answer, garbage,
timeout), step_cycle emits a gaze record. Failures degrade to holding the
previous target — a robot always gazes somewhere — and the fallback is
flagged on the emitted record so logs stay honest.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field, replace

from ..errors import BackendError
from .scenario import Instance, ScenarioCycle, box_center

HISTORY_LENGTH = 10

PROMPT_INSTRUCTIONS = (
    "You control the gaze of a humanoid robot. Candidate gaze targets are "
    "listed below, each with a unique integer mark. Decide which single "
    "candidate the robot should look at next. Answer with exactly one line "
    "of the form TARGET: <mark>, using one of the listed marks."
)

_TARGET_RE = re.compile(r"TARGET:\s*(\d+)")


class EmptySceneError(Exception):
    """A cycle offered no candidate instances."""


class ResponseParseError(Exception):
    """The backend response contained no usable mark."""


@dataclass(frozen=True)
class MarkedScene:
    """Mark-to-instance assignment for one cycle plus rewritten semantics."""

    marks: dict  # mark (int, from 1) -> Instance
    semantics: str
    image_ref: str | None
    cycle_index: int

    def mark_of(self, instance_id: str) -> int:
        for mark, inst in self.marks.items():
            if inst.instance_id == instance_id:
                return mark
        raise KeyError(instance_id)


def mark_scene(cycle: ScenarioCycle) -> MarkedScene:
    """Assign consecutive integer marks (from 1) to the cycle's instances.

    Ordering is deterministic: category, then left box edge, then id.
    Semantics placeholders "{instance_id}" become "category [mark]".
    """
    if not cycle.instances:
        raise EmptySceneError(f"cycle {cycle.index} has no candidate instances")
    ordered = sorted(cycle.instances, key=lambda i: (i.category, i.box[0], i.instance_id))
    marks = {m: inst for m, inst in enumerate(ordered, start=1)}
    text = cycle.semantics
    for mark, inst in marks.items():
        text = text.replace("{" + inst.instance_id + "}", f"{inst.category} [{mark}]")
    return MarkedScene(marks=marks, semantics=text, image_ref=cycle.image_ref,
                       cycle_index=cycle.index)


@dataclass(frozen=True)
class GazeTargetRecord:
    """The pipeline's per-cycle output: what to look at and where it is."""

    mark: int | None
    instance_id: str | None
    category: str | None
    box: tuple | None
    face_box: tuple | None
    point_2d: tuple | None  # pixels
    point_3d: tuple  # metres, base frame
    face_fallback: bool = False  # person lacked a face box; body box used
    held: bool = False  # fallback: previous target re-emitted

    def summary(self) -> str:
        if self.instance_id is None:
            return "gaze: rest position"
        hold = " (held)" if self.held else ""
        return f"gaze: {self.category} [{self.mark}]{hold}"


REST_RECORD = GazeTargetRecord(
    mark=None, instance_id=None, category=None, box=None, face_box=None,
    point_2d=None, point_3d=(1.0, 0.0, 0.0), held=True,
)


@dataclass
class MemoryBuffer:
    """Rolling interaction memory carried between cycles.

    Holds the previous cycle's marked semantics and image reference, the
    previous gaze record, and a capped textual history (FIFO eviction).
    """

    prev_semantics: str | None = None
    prev_image_ref: str | None = None
    prev_record: GazeTargetRecord | None = None
    history: deque = field(default_factory=lambda: deque(maxlen=HISTORY_LENGTH), init=False)

    def advance(self, marked: MarkedScene | None, record: GazeTargetRecord) -> None:
        """Record this cycle's outcome; the oldest history entry falls off at HISTORY_LENGTH."""
        if marked is not None:
            self.prev_semantics = marked.semantics
            self.prev_image_ref = marked.image_ref
            line = f"cycle {marked.cycle_index}: {marked.semantics} -> {record.summary()}"
        else:
            line = f"cycle: (empty scene) -> {record.summary()}"
        self.prev_record = record
        self.history.append(line)


def synthesize_prompt(marked: MarkedScene, buffer: MemoryBuffer) -> tuple:
    """Build (text prompt, visual prompt reference) for one cycle.

    Section order is fixed: instructions, candidates, current scene,
    previous gaze, history. Empty sections are omitted, so the first
    cycle's prompt has no history block. Identical inputs give
    byte-identical prompts. Each candidate line is "  [mark] " and the
    instance's ``prompt_entry()``, which each distinct instance formats
    once, on first use, and reuses on every later cycle that shows it.
    """
    marks = marked.marks
    lines = [PROMPT_INSTRUCTIONS, "", "Candidates:"]
    lines += [f"  [{mark}] {marks[mark].prompt_entry()}" for mark in sorted(marks)]
    lines += ["", "Current scene:", f"  {marked.semantics}"]
    if buffer.prev_record is not None:
        lines += ["", "Previous gaze:", f"  {buffer.prev_record.summary()}"]
    if buffer.history:
        lines += ["", f"History (last {len(buffer.history)} cycles):"]
        lines += [f"  {entry}" for entry in buffer.history]
    return "\n".join(lines), marked.image_ref


def query_backend(prompt: str, image_ref: str | None, cycle_index: int, backend) -> str:
    """One backend round trip; transport problems surface as BackendError."""
    try:
        response = backend.query(prompt, image_ref, cycle_index)
    except BackendError:
        raise
    except Exception as exc:
        raise BackendError(f"backend failed on cycle {cycle_index}: {exc}") from exc
    if not isinstance(response, str):
        raise BackendError(f"backend returned {type(response).__name__}, expected text")
    return response


def parse_response(raw: str, marked: MarkedScene) -> int:
    """Extract the first well-formed TARGET mark and range-check it."""
    match = _TARGET_RE.search(raw)
    if match is None:
        raise ResponseParseError(f"no TARGET line in response: {raw[:80]!r}")
    try:
        mark = int(match.group(1))
    except ValueError as exc:  # more digits than int() converts
        raise ResponseParseError(f"mark of {len(match.group(1))} digits in response") from exc
    if mark not in marked.marks:
        raise ResponseParseError(f"mark {mark} not among {sorted(marked.marks)}")
    return mark


def localize(mark: int, marked: MarkedScene, cycle: ScenarioCycle) -> GazeTargetRecord:
    """Back-project the selected instance to a base-frame 3D point.

    Persons are localized at the face-box center; a person without a face
    box falls back to the body box, flagged on the record.
    """
    inst = marked.marks[mark]
    face_fallback = False
    if inst.is_person() and inst.face_box is not None:
        u, v = box_center(inst.face_box)
    else:
        if inst.is_person():
            face_fallback = True
        u, v = box_center(inst.box)
    cam_point = cycle.camera.back_project(u, v, inst.depth)
    return GazeTargetRecord(
        mark=mark, instance_id=inst.instance_id, category=inst.category,
        box=inst.box, face_box=inst.face_box, point_2d=(u, v),
        point_3d=cycle.base_from_camera.apply(cam_point), face_fallback=face_fallback,
    )


def _fallback_record(buffer: MemoryBuffer) -> GazeTargetRecord:
    if buffer.prev_record is not None:
        return replace(buffer.prev_record, held=True)
    return REST_RECORD


def step_cycle(cycle: ScenarioCycle, buffer: MemoryBuffer, backend) -> GazeTargetRecord:
    """Run one full cycle and advance the buffer; never raises on backend
    or parse trouble — those degrade to re-emitting the previous target
    (or the rest record on a failed first cycle)."""
    try:
        marked = mark_scene(cycle)
    except EmptySceneError:
        record = _fallback_record(buffer)
        buffer.advance(None, record)
        return record
    prompt, image_ref = synthesize_prompt(marked, buffer)
    try:
        raw = query_backend(prompt, image_ref, cycle.index, backend)
        mark = parse_response(raw, marked)
        record = localize(mark, marked, cycle)
    except (BackendError, ResponseParseError):
        record = _fallback_record(buffer)
    buffer.advance(marked, record)
    return record
