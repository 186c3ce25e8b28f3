"""Per-cycle gaze reasoning: prompt, query, parse, localize.

A cycle's marks are the positions of its instances: mark m, counted from
1, is ``cycle.instances[m - 1]``, which ``ScenarioCycle`` keeps in mark
order.

The pipeline is total: whatever the backend does (valid answer, garbage,
timeout), step_cycle emits a gaze record. Failures degrade to holding the
previous target — a robot always gazes somewhere — and the fallback is
flagged on the emitted record so logs stay honest.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from ..errors import BackendError
from .scenario import ScenarioCycle

HISTORY_LENGTH = 10

PROMPT_INSTRUCTIONS = (
    "You control the gaze of a humanoid robot. Candidate gaze targets are "
    "listed below, each with a unique integer mark. Decide which single "
    "candidate the robot should look at next. Answer with exactly one line "
    "of the form TARGET: <mark>, using one of the listed marks."
)

_TARGET_RE = re.compile(r"TARGET:\s*(\d+)")


class ResponseParseError(Exception):
    """The backend response contained no usable mark."""


def marked_semantics(cycle: ScenarioCycle) -> str:
    """The cycle's semantics with each placeholder "{instance_id}" written "category [mark]".

    The instances are taken in mark order, each rewriting the text as the
    ones before it left it. An instance whose ``placeholder`` that text does
    not hold is skipped, which changes nothing: replacing an absent
    substring returns the text as it is.
    """
    text = cycle.semantics
    for mark, inst in enumerate(cycle.instances, start=1):
        if inst.placeholder in text:
            text = text.replace(inst.placeholder, f"{inst.category} [{mark}]")
    return text


class GazeTargetRecord(NamedTuple):
    """The pipeline's per-cycle output: what to look at and where it is.

    An immutable named tuple, built once per cycle: assigning a field
    raises AttributeError, so ``REST_RECORD`` can be shared, and a hold is
    ``prev_record._replace(held=True)``. As a tuple it iterates and equals
    a plain tuple of the same values.
    """

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

    Holds the previous gaze record, its ``summary()`` text, and a capped
    textual history (FIFO eviction). Only ``advance`` sets them, so the
    summary is formatted once per cycle and the next prompt reuses it.
    """

    prev_record: GazeTargetRecord | None = field(default=None, init=False)
    prev_summary: str | None = field(default=None, init=False)
    history: deque = field(default_factory=lambda: deque(maxlen=HISTORY_LENGTH), init=False)

    def advance(self, cycle_index: int, semantics: str | None, record: GazeTargetRecord) -> None:
        """Record this cycle's outcome; the oldest history entry falls off at HISTORY_LENGTH.

        ``semantics`` is the cycle's ``marked_semantics``, or None for a cycle
        with no candidates.
        """
        scene = "cycle: (empty scene)" if semantics is None else f"cycle {cycle_index}: {semantics}"
        self.prev_record = record
        self.prev_summary = summary = record.summary()
        self.history.append(f"{scene} -> {summary}")


def synthesize_prompt(cycle: ScenarioCycle, semantics: str, buffer: MemoryBuffer) -> tuple:
    """Build (text prompt, visual prompt reference) for one cycle.

    ``semantics`` is the cycle's ``marked_semantics``. Section order is
    fixed: instructions, candidates, current scene, previous gaze,
    history. Empty sections are omitted, so the first cycle's prompt has
    no history block. Identical inputs give
    byte-identical prompts. Each candidate line is "  [mark] " and the
    instance's ``prompt_entry``, which each instance formats once, when it
    is built. The previous gaze is the summary text ``MemoryBuffer.advance`` kept.
    The history block is its entries indented by two spaces and joined
    with newlines in one step: an entry that holds a newline itself is
    indented only on its first line, as a line per entry would be.
    """
    lines = [PROMPT_INSTRUCTIONS, "", "Candidates:"]
    lines += [f"  [{mark}] {inst.prompt_entry}"
              for mark, inst in enumerate(cycle.instances, start=1)]
    lines += ["", "Current scene:", f"  {semantics}"]
    if buffer.prev_summary is not None:
        lines += ["", "Previous gaze:", "  " + buffer.prev_summary]
    if buffer.history:
        lines += ["", f"History (last {len(buffer.history)} cycles):",
                  "  " + "\n  ".join(buffer.history)]
    return "\n".join(lines), cycle.image_ref


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


def parse_response(raw: str, cycle: ScenarioCycle) -> int:
    """Extract the first well-formed TARGET mark and range-check it."""
    match = _TARGET_RE.search(raw)
    if match is None:
        raise ResponseParseError(f"no TARGET line in response: {raw[:80]!r}")
    try:
        mark = int(match.group(1))
    except ValueError as exc:  # more digits than int() converts
        raise ResponseParseError(f"mark of {len(match.group(1))} digits in response") from exc
    count = len(cycle.instances)
    if not 1 <= mark <= count:
        raise ResponseParseError(f"mark {mark} not among {list(range(1, count + 1))}")
    return mark


def localize(mark: int, cycle: ScenarioCycle) -> GazeTargetRecord:
    """The record of the selected instance, with its pixel and base-frame 3D point.

    Persons are localized at the face-box center; a person without a face
    box falls back to the body box, flagged on the record. The points are
    the instance's own, placed when it was built with the scenario's camera
    and transform.
    """
    inst = cycle.instances[mark - 1]
    return GazeTargetRecord(
        mark=mark, instance_id=inst.instance_id, category=inst.category,
        box=inst.box, face_box=inst.face_box, point_2d=inst.point_2d,
        point_3d=inst.point_3d, face_fallback=inst.face_fallback,
    )


def _fallback_record(buffer: MemoryBuffer) -> GazeTargetRecord:
    if buffer.prev_record is not None:
        return buffer.prev_record._replace(held=True)
    return REST_RECORD


def step_cycle(cycle: ScenarioCycle, buffer: MemoryBuffer, backend) -> GazeTargetRecord:
    """Run one full cycle and advance the buffer; never raises on backend
    or parse trouble — those degrade to re-emitting the previous target
    (or the rest record on a failed first cycle). A cycle with no
    candidates is not queried: it degrades the same way."""
    if not cycle.instances:
        record = _fallback_record(buffer)
        buffer.advance(cycle.index, None, record)
        return record
    semantics = marked_semantics(cycle)
    prompt, image_ref = synthesize_prompt(cycle, semantics, buffer)
    try:
        raw = query_backend(prompt, image_ref, cycle.index, backend)
        record = localize(parse_response(raw, cycle), cycle)
    except (BackendError, ResponseParseError):
        record = _fallback_record(buffer)
    buffer.advance(cycle.index, semantics, record)
    return record
