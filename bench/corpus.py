"""Seeded replay corpora in the scenario JSON schema, with their expected outcome.

Every scenario has a pool of 16 candidate instances; each cycle shows a
random subset of them. Canned answers are authored through the oracle
marking rule (``oracles.marks``), never through the program's
``mark_scene``, and the expected log record of every cycle is worked out
here from the same oracles: a valid answer localizes the named instance,
an empty scene or a bad answer holds the previous record (or the rest
record at the start).

Where the bundled corpus (``src/gazeshift/scenarios``: 12 scenarios, 70
cycles) has a path at all, the shares below are measured from it. Shares it
has none of are set low, only so that the path runs a few hundred times
per scripted replay; README.md lists each with its source.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

# Design ranges, wider than the bundled 3-4 candidates and 5-7 cycles per
# scenario: candidate counts up to 16 let per-candidate costs show, and
# 20-40 cycles fill the 10-entry prompt history.
POOL_SIZE = 16
MIN_CYCLES, MAX_CYCLES = 20, 40
HISTORY = 10  # prompt history length the program documents
# Measured from the bundled corpus.
PERSON_SHARE = 0.5      # pool instances that are persons (bundled: 133 of 263 shown)
NO_FACE_SHARE = 0.04    # persons without a face box (bundled: 5 of 133)
PROSE_SHARE = 0.015     # valid answers with a prose preamble (bundled: 1 of 70)
DEPTH_M = (1.0, 3.0)    # instance depths (bundled: 1.0-2.9 m)
# Absent from the bundled corpus; set only so that each path runs.
EMPTY_SHARE = 0.02      # cycles outside the cue window with no candidates (bundled: 0)
BAD_ANSWER_SHARE = 0.02  # answers outside the cue window that are malformed or name an
                         # absent mark (bundled: 0)
# Cue-window plans: the expected target is named at t0+1 ("hit1"), only at
# t0+2 after a bad answer or an empty scene at t0+1 ("hit2"), or never
# ("miss": another candidate, a bad answer or an empty scene). All 12
# bundled scenarios are "hit1"; the other two give the success table both
# outcomes and the t0+2 credit.
PLANS = (("hit1", 0.8), ("hit2", 0.1), ("miss", 0.1))

REGULARITIES = ("H1", "H2", "H3", "H4")
OBJECTS = ("ball", "book", "cup", "door", "laptop", "monitor", "phone", "plant", "toy",
           "whiteboard")  # the bundled corpus's object categories
WIDTH, HEIGHT = 640, 480
REST = {"mark": None, "instance": None, "point_2d": None, "point_3d": (1.0, 0.0, 0.0),
        "face_fallback": False, "held": True}
# The camera looks along base +x: camera z -> base x, x -> -y, y -> -z.
R_BASE_CAM = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


@dataclass
class Corpus:
    directory: Path
    records: dict = field(default_factory=dict)   # scenario id -> expected records
    groups: dict = field(default_factory=dict)    # regularity -> [clips, correct]
    prompts: dict = field(default_factory=dict)   # image_ref -> what the stub expects
    stats: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats["cycles"]


def _instance(rng, category, j):
    left = 20 * rng.randint(0, 27)
    w = rng.randint(40, min(200, WIDTH - left))
    top = rng.randint(0, 300)
    h = rng.randint(60, HEIGHT - top)
    inst = {"id": f"{category}{j}", "category": category,
            "box": [left, top, left + w, top + h], "depth": round(rng.uniform(*DEPTH_M), 3)}
    if category == "person" and rng.random() >= NO_FACE_SHARE:
        inst["face_box"] = [left + 0.3 * w, top + 5, left + w - 0.3 * w, top + 5 + 0.2 * h]
    return inst


def _bad_answer(rng, n_candidates):
    kind = rng.randrange(6)
    if kind == 0:
        return "I cannot decide which candidate matters."
    if kind == 1:
        return "TARGET: none"
    if kind == 2:
        return "Look at the person on the left."
    if kind == 3:
        return "TARGET: 0"
    return f"TARGET: {n_candidates + 1 + rng.randrange(4)}"


def _valid_answer(rng, mark, category):
    if rng.random() < PROSE_SHARE:
        # The preamble shares the TARGET line, as in the bundled corpus.
        return f"The {category} is where attention should go next. TARGET: {mark}"
    return f"TARGET: {mark}"


def _scenario(rng, sid, regularity, n_cycles, stats):
    # Intrinsics and pose vary around the bundled camera (525 px, looking
    # along base +x), so the back-projection check does not rest on one
    # pose; they do not change the work of a cycle.
    camera = {"fx": rng.uniform(450.0, 650.0), "fy": rng.uniform(450.0, 650.0),
              "cx": 320.0, "cy": 240.0, "width": WIDTH, "height": HEIGHT}
    rotation = oracles.rot_z(rng.uniform(-0.5, 0.5)) @ R_BASE_CAM
    transform = {"rotation": rotation.tolist(),
                 "translation": [rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                                 rng.uniform(0.0, 1.5)]}
    pool = []
    for j in range(POOL_SIZE):
        category = "person" if rng.random() < PERSON_SHARE else rng.choice(OBJECTS)
        pool.append(_instance(rng, category, j))
    t0 = rng.randint(1, n_cycles - 3)
    expected = rng.choice(pool)
    others = [inst for inst in pool if inst is not expected]
    plan = rng.choices([p for p, _ in PLANS], weights=[w for _, w in PLANS])[0]
    # What each cue-window cycle does: ("name", instance), ("bad", None) or ("empty", None).
    window = {t0: ("name", rng.choice(pool))}
    if plan == "hit1":
        window[t0 + 1] = ("name", expected)
        window[t0 + 2] = ("name", expected)
    elif plan == "hit2":
        window[t0 + 1] = (rng.choice(["bad", "empty"]), None)
        window[t0 + 2] = ("name", expected)
    else:
        window[t0 + 1] = (rng.choice(["name", "bad", "empty"]), rng.choice(others))
        window[t0 + 2] = (rng.choice(["name", "bad"]), rng.choice(others))

    cycles, responses, records, prompts = [], {}, [], {}
    prev = REST
    for t in range(n_cycles):
        action, named = window.get(t, (None, None))
        if action is None:
            action = "empty" if rng.random() < EMPTY_SHARE else (
                "bad" if rng.random() < BAD_ANSWER_SHARE else "name")
        if action == "empty":
            shown = []
        else:
            shown = rng.sample(pool, rng.randint(1, POOL_SIZE))
            for inst in (named, expected if t == t0 else None):
                if inst is not None and inst not in shown:
                    shown.append(inst)
            if named is None:
                named = rng.choice(shown)
        image_ref = f"frames/{sid}/c{t:02d}.png"
        cdoc = {"index": t, "image_ref": image_ref, "instances": shown}
        if shown:
            picks = rng.sample(shown, min(2, len(shown)))
            cdoc["semantics"] = " ".join("{%s} is in view." % inst["id"] for inst in picks)
        else:
            cdoc["semantics"] = "Nobody and nothing is in view."
        if t == t0:
            cdoc["cue_onset"] = True
            cdoc["expected_instance"] = expected["id"]
        cycles.append(cdoc)

        if action == "empty":
            record = dict(prev, held=True)
            stats["empty"] += 1
        else:
            marked = oracles.marks(shown)
            if action == "bad":
                answer = _bad_answer(rng, len(shown))
                record = dict(prev, held=True)
                stats["bad_answers"] += 1
            else:
                mark = oracles.mark_of(shown, named["id"])
                answer = _valid_answer(rng, mark, named["category"])
                point_2d, point_3d, fallback = oracles.localize(named, camera, transform)
                record = {"mark": mark, "instance": named["id"], "point_2d": point_2d,
                          "point_3d": tuple(point_3d), "face_fallback": fallback,
                          "held": False}
            responses[str(t)] = answer
            prompts[image_ref] = {
                "answer": answer,
                "candidates": [[m, inst["category"], inst["id"]] for m, inst in marked.items()],
                "history": min(t, HISTORY),
            }
            stats["candidates"] += len(shown)
            stats["persons"] += sum(inst["category"] == "person" for inst in shown)
            stats["persons_without_face"] += sum(
                inst["category"] == "person" and "face_box" not in inst for inst in shown)
        records.append(record)
        prev = record

    correct = any(records[t]["instance"] == expected["id"] and not records[t]["held"]
                  for t in (t0 + 1, t0 + 2))
    doc = {"schema": "gazeshift-scenario", "version": 1, "scenario_id": sid,
           "regularity": regularity, "description": f"benchmark scenario, plan {plan}",
           "camera": camera, "base_from_camera": transform, "cycles": cycles,
           "responses": responses}
    return doc, records, prompts, correct


def write_corpus(directory, seed: int, n_scenarios: int, keep_prompts: bool) -> Corpus:
    """Write ``n_scenarios`` scenario files for ``seed`` and return their expectations.

    ``n_scenarios`` is even; the corpus then holds exactly
    ``n_scenarios * (MIN_CYCLES + MAX_CYCLES) / 2`` cycles.
    ``keep_prompts`` keeps what the remote stub checks for each queried cycle.
    """
    rng = random.Random(seed)
    corpus = Corpus(Path(directory))
    corpus.directory.mkdir(parents=True, exist_ok=True)
    stats = dict.fromkeys(("cycles", "queried", "empty", "bad_answers", "candidates",
                           "persons", "persons_without_face"), 0)
    for i in range(n_scenarios):
        sid = f"s{i:04d}"
        regularity = REGULARITIES[i % len(REGULARITIES)]
        # Lengths come in pairs summing to MIN_CYCLES + MAX_CYCLES, so the
        # corpus size, and with it the work of a replay, is the same for every seed.
        n_cycles = rng.randint(MIN_CYCLES, MAX_CYCLES) if i % 2 == 0 \
            else MIN_CYCLES + MAX_CYCLES - n_cycles
        doc, records, prompts, correct = _scenario(rng, sid, regularity, n_cycles, stats)
        (corpus.directory / f"{sid}.json").write_text(
            json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        corpus.records[sid] = records
        stats["queried"] += len(prompts)
        if keep_prompts:
            corpus.prompts.update(prompts)
        group = corpus.groups.setdefault(regularity, [0, 0])
        group[0] += 1
        group[1] += int(correct)
        stats["cycles"] += len(records)
    stats["scenarios"] = n_scenarios
    corpus.stats = stats
    return corpus


def check_log(corpus: Corpus, log_path, table_path) -> list:
    """Problems found comparing ``cycles.jsonl`` and the success table with the corpus."""
    problems = []
    seen = {}
    with open(log_path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            sid, t = rec["scenario"], rec["cycle"]
            want = corpus.records.get(sid, [])
            if t != seen.get(sid, 0) or t >= len(want):
                problems.append(f"{sid} cycle {t}: out of order or unexpected")
                continue
            seen[sid] = t + 1
            exp = want[t]
            for key in ("mark", "instance", "held", "face_fallback"):
                if rec[key] != exp[key]:
                    problems.append(f"{sid} cycle {t}: {key} {rec[key]!r} != {exp[key]!r}")
            dist = math.dist(rec["point_3d"], exp["point_3d"])
            if not dist <= 1e-6:
                problems.append(f"{sid} cycle {t}: point_3d off by {dist:.3g} m")
    for sid, want in corpus.records.items():
        if seen.get(sid, 0) != len(want):
            problems.append(f"{sid}: {seen.get(sid, 0)} of {len(want)} cycles logged")
    rows = Path(table_path).read_text(encoding="utf-8").splitlines()[1:]
    table = {r.split(",")[0]: [int(r.split(",")[1]), int(r.split(",")[2])] for r in rows}
    if table != corpus.groups:
        problems.append(f"success table {table} != expected {corpus.groups}")
    return problems[:20]
