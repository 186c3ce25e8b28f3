"""Replay evaluation: run scenarios through the pipeline and score them.

A trial is correct iff the selected instance equals the expected target
at cue-onset + 1 or cue-onset + 2 cycles. Results aggregate per
interaction-regularity group (H1..H4) into a success table.

The two offline backends live here, beside the loop that runs them.
ScriptedBackend replays canned responses from a scenario file.
OracleBackend answers from evaluation metadata with a configurable delay:
delay 1 is the always-correct reference, and delay 3 lands outside the
two-cycle correctness window and must score zero. The remote backend is in
``reasoner.backends``, which a scripted or oracle replay never runs.
"""

from __future__ import annotations

import json
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass

from ..atomic import open_atomic
from ..errors import BackendError
from .pipeline import REST_POINT, MemoryBuffer, step_cycle
from .scenario import REGULARITIES, Scenario

CORRECTNESS_WINDOW = (1, 2)  # offsets after cue onset that count

# The cycle log's per-target keys, in line order, their text for the rest
# record, and its spelling of a bool.
_TARGET_KEYS = ("instance", "category", "point_2d", "point_3d")
_REST_TEXT = json.dumps(dict(zip(_TARGET_KEYS, (None, None, None, REST_POINT))))[1:-1]
_JSON_BOOL = {True: "true", False: "false"}


class ScriptedBackend:
    """Replays the scenario's canned response for each cycle index."""

    def __init__(self, scenario: Scenario):
        self.responses = dict(scenario.responses)

    def query(self, prompt: str, image_ref: str | None, cycle_index: int) -> str:
        try:
            return self.responses[cycle_index]
        except KeyError:
            raise BackendError(f"no canned response for cycle {cycle_index}") from None


class OracleBackend:
    """Answers the expected target exactly ``delay`` cycles after cue onset.

    On every other cycle it names some non-expected candidate (or an
    arbitrary one when the scenario has no evaluation metadata), so only
    the delayed answer can score. delay=1 models a perfect reasoner;
    delay=3 is the adversarial probe for the t0+1/t0+2 window.
    """

    def __init__(self, scenario: Scenario, delay: int = 1):
        if delay < 1:
            raise ValueError("delay must be at least 1")
        self.scenario = scenario
        self.delay = delay
        cue = scenario.cue_cycle()
        self._cue_index = cue.index if cue is not None else None
        self._expected = cue.expected_instance if cue is not None else None

    def query(self, prompt: str, image_ref: str | None, cycle_index: int) -> str:
        answer_cycle = (self._cue_index is not None and self._expected is not None
                        and cycle_index == self._cue_index + self.delay)
        # the expected instance's mark on the answer cycle, else the first other one
        for mark, inst in enumerate(self.scenario.cycles[cycle_index].instances, start=1):
            if (inst.instance_id == self._expected) == answer_cycle:
                return f"TARGET: {mark}"
        # No candidate fits, as in a single-candidate scene whose candidate is
        # the expected one: say nothing parseable and force a hold.
        return "no alternative candidate"


@dataclass(frozen=True)
class ReplayResult:
    scenario_id: str
    regularity: str
    records: tuple  # one GazeTargetRecord per cycle
    correct: bool


@dataclass(frozen=True)
class GroupRow:
    regularity: str
    clips: int
    correct: int

    @property
    def success_rate(self) -> float:
        return 100.0 * self.correct / self.clips if self.clips else 0.0


def replay_scenario(scenario: Scenario, backend, log_fh=None) -> ReplayResult:
    """Run every cycle in order and apply the two-cycle correctness rule.

    Each ``log_fh`` line is the text ``json.dumps`` gives the cycle's record
    (scenario, cycle, mark, instance, category, point_2d, point_3d, held,
    face_fallback, elapsed_s); ``elapsed_s`` is the wall time of the cycle's
    ``step_cycle`` call alone. The scenario id is encoded once, and the
    instance-to-point_3d stretch once per target, keyed by its id: the
    scenario keeps its instances alive, and equal instances (``0 == -0.0``)
    each get their own text. The rest record's target, None, writes ``REST_POINT``.
    """
    buffer = MemoryBuffer()
    records = []
    if log_fh is not None:
        scenario_text = json.dumps(scenario.scenario_id)
        targets = {id(None): _REST_TEXT}  # id of a record's target -> its JSON text
    for cycle in scenario.cycles:
        t0 = time.monotonic()
        record = step_cycle(cycle, buffer, backend)
        elapsed = time.monotonic() - t0
        records.append(record)
        if log_fh is not None:
            target = record.target
            target_text = targets.get(id(target))
            if target_text is None:
                target_text = targets[id(target)] = json.dumps(dict(zip(_TARGET_KEYS, (
                    target.instance_id, target.category, target.point_2d, target.point_3d))))[1:-1]
            mark = "null" if record.mark is None else record.mark
            face_fallback = target is not None and target.face_fallback
            log_fh.write(f'{{"scenario": {scenario_text}, "cycle": {cycle.index}, '
                         f'"mark": {mark}, {target_text}, "held": {_JSON_BOOL[record.held]}, '
                         f'"face_fallback": {_JSON_BOOL[face_fallback]}, '
                         f'"elapsed_s": {elapsed!r}}}\n')
    cue = scenario.cue_cycle()
    correct = False
    if cue is not None and cue.expected_instance is not None:
        for offset in CORRECTNESS_WINDOW:
            t = cue.index + offset
            if t < len(records) and not records[t].held \
                    and records[t].target.instance_id == cue.expected_instance:
                correct = True
                break
    return ReplayResult(scenario.scenario_id, scenario.regularity,
                        tuple(records), correct)


def replay_evaluate(scenarios, backend_factory, log_path=None):
    """Score a scenario set; returns (group rows, results, excluded ids).

    ``backend_factory(scenario)`` builds a fresh backend per scenario (a
    scripted backend is bound to one scenario's canned responses).
    Scenarios without evaluation metadata are excluded with a warning.
    The cycle log at ``log_path`` is written atomically: a replay that fails
    or is killed leaves the previous log as it was.
    """
    results = []
    excluded = []
    with (open_atomic(log_path) if log_path else nullcontext()) as log_fh:
        for scenario in scenarios:
            if not scenario.has_evaluation_metadata():
                warnings.warn(f"scenario {scenario.scenario_id} has no cue/expected "
                              "target; excluded from scoring")
                excluded.append(scenario.scenario_id)
                continue
            results.append(replay_scenario(scenario, backend_factory(scenario), log_fh=log_fh))
    rows = []
    for group in REGULARITIES:
        group_results = [r for r in results if r.regularity == group]
        if group_results:
            rows.append(GroupRow(group, len(group_results),
                                 sum(r.correct for r in group_results)))
    return rows, results, excluded


def write_success_table(rows, path) -> None:
    """CSV with the success-table schema: regularity, clips, correct, rate."""
    with open_atomic(path) as fh:
        fh.write("regularity,clips,correct,success_rate\n")
        for row in rows:
            fh.write(f"{row.regularity},{row.clips},{row.correct},{row.success_rate:.1f}\n")
