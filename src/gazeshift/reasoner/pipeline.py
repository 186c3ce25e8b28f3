"""Per-cycle gaze reasoning: prompt, query, parse, localize.

A cycle's marks are the positions of its instances: mark m, counted from
1, is ``cycle.instances[m - 1]``, which ``ScenarioCycle`` keeps in mark
order. One pass over them writes both the prompt's candidate block and
the marked semantics that the prompt and the memory buffer share.

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

# The prompt up to its first candidate line.
_PROMPT_HEAD = PROMPT_INSTRUCTIONS + "\n\nCandidates:"

_TARGET_RE = re.compile(r"TARGET:\s*(\d+)")


class ResponseParseError(Exception):
    """The backend response contained no usable mark."""


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

        ``semantics`` is the cycle's marked semantics, as ``synthesize_prompt``
        returns it, or None for a cycle with no candidates.
        """
        scene = "cycle: (empty scene)" if semantics is None else f"cycle {cycle_index}: {semantics}"
        self.prev_record = record
        self.prev_summary = summary = record.summary()
        self.history.append(f"{scene} -> {summary}")


def synthesize_prompt(cycle: ScenarioCycle, buffer: MemoryBuffer) -> tuple:
    """Build (text prompt, marked semantics) for one cycle in one pass over its instances.

    The marked semantics is the cycle's semantics with each placeholder
    "{instance_id}" written "category [mark]". Each instance, in mark order,
    adds its candidate line, "  [mark] " and the ``prompt_entry`` it
    formatted once when it was built, and rewrites the semantics as the
    instances before it left them; an instance whose ``placeholder`` that
    text does not hold leaves it as it is.

    Section order is fixed: instructions, candidates, current scene,
    previous gaze, history. Empty sections are omitted, so the first
    cycle's prompt has no history block. Identical inputs give
    byte-identical prompts. The previous gaze is the summary text
    ``MemoryBuffer.advance`` kept. The history block is its entries
    indented by two spaces and joined with newlines in one step: an entry
    that holds a newline itself is indented only on its first line, as a
    line per entry would be.
    """
    semantics = cycle.semantics
    candidates = []
    for mark, inst in enumerate(cycle.instances, start=1):
        candidates.append(f"\n  [{mark}] {inst.prompt_entry}")
        if inst.placeholder in semantics:
            semantics = semantics.replace(inst.placeholder, f"{inst.category} [{mark}]")
    prompt = f"{_PROMPT_HEAD}{''.join(candidates)}\n\nCurrent scene:\n  {semantics}"
    if buffer.prev_summary is not None:
        prompt += "\n\nPrevious gaze:\n  " + buffer.prev_summary
    if buffer.history:
        prompt += (f"\n\nHistory (last {len(buffer.history)} cycles):\n  "
                   + "\n  ".join(buffer.history))
    return prompt, semantics


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
    return GazeTargetRecord(mark, inst.instance_id, inst.category, inst.box, inst.face_box,
                            inst.point_2d, inst.point_3d, inst.face_fallback)


def _fallback_record(buffer: MemoryBuffer) -> GazeTargetRecord:
    if buffer.prev_record is not None:
        return buffer.prev_record._replace(held=True)
    return REST_RECORD


def step_cycle(cycle: ScenarioCycle, buffer: MemoryBuffer, backend) -> GazeTargetRecord:
    """Run one full cycle and advance the buffer; never raises on backend
    or parse trouble — those degrade to re-emitting the previous target
    (or the rest record on a failed first cycle). A cycle with no
    candidates is not queried: it degrades the same way. The query sends
    the prompt with the cycle's own ``image_ref``, and the buffer keeps the
    marked semantics that ``synthesize_prompt`` wrote beside the prompt."""
    if not cycle.instances:
        record = _fallback_record(buffer)
        buffer.advance(cycle.index, None, record)
        return record
    prompt, semantics = synthesize_prompt(cycle, buffer)
    try:
        raw = query_backend(prompt, cycle.image_ref, cycle.index, backend)
        record = localize(parse_response(raw, cycle), cycle)
    except (BackendError, ResponseParseError):
        record = _fallback_record(buffer)
    buffer.advance(cycle.index, semantics, record)
    return record
