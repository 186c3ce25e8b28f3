"""Scripted gaze-reasoning pipeline: mark order, prompts, parsing, localization.

Two golden files pin the exact text surface: the synthesized prompt for a
first cycle (tests/data/prompt_first_cycle.txt) and the chat-completion
request body (tests/data/request_body.json). Everything downstream of the
backend is checked for totality: garbage in, a gaze record out.
"""

from __future__ import annotations

import io
import json
import math
import reprlib
import socket
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazeshift import config as config_mod
from gazeshift.config import finite_float
from gazeshift.errors import BackendError, ConfigError, DataError
from gazeshift.reasoner.backends import (API_KEY_ENV, OracleBackend,
                                         RemoteBackend, RemoteConfig,
                                         ScriptedBackend, build_request)
from gazeshift.reasoner.pipeline import (HISTORY_LENGTH, REST_POINT, REST_RECORD,
                                         GazeTargetRecord, MemoryBuffer,
                                         ResponseParseError, localize,
                                         parse_response, query_backend,
                                         step_cycle, synthesize_prompt)
from gazeshift.reasoner import pipeline as pipeline_mod
from gazeshift.reasoner import replay as replay_mod
from gazeshift.reasoner.replay import (GroupRow, replay_evaluate,
                                       replay_scenario, write_success_table)
from gazeshift.reasoner.scenario import (CameraIntrinsics, Instance,
                                         RigidTransform, Scenario,
                                         ScenarioCycle, box_center,
                                         load_scenario, load_scenario_dir,
                                         scenario_from_doc)
from json_numbers import bad_json_numbers
from json_objects import WRONG_VALUES, scenario_objects
from scenario_corpus import build_corpus, scenario_to_doc, write_corpus, write_scenario
from scenario_oracles import (localize_per_call, mark_order, marked_semantics_sequential,
                              project, scenario_from_doc_per_record,
                              synthesize_prompt_per_cycle)

DATA_DIR = Path(__file__).parent / "data"
BUNDLED = Path(__file__).parent.parent / "src" / "gazeshift" / "scenarios"


def demo_camera() -> CameraIntrinsics:
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                            width=640, height=480)


def identity_transform() -> RigidTransform:
    return RigidTransform(np.eye(3), np.zeros(3))


def instance(*fields, **kw) -> Instance:
    """An Instance placed with the demo camera and the identity transform unless ``kw``
    names others."""
    return Instance(*fields, **{"camera": demo_camera(), "base_from_camera": identity_transform(),
                                **kw})


def demo_instances() -> tuple:
    return (
        instance("p_anna", "person", (300.0, 80.0, 420.0, 460.0), 2.0,
                 face_box=(340.0, 100.0, 380.0, 150.0)),
        instance("c_mug", "cup", (100.0, 200.0, 160.0, 260.0), 1.2),
        instance("t_ball", "toy", (500.0, 300.0, 560.0, 360.0), 0.8),
    )


def make_cycle(index: int, semantics: str, instances=None, **kw) -> ScenarioCycle:
    return ScenarioCycle(
        index=index, semantics=semantics,
        instances=demo_instances() if instances is None else instances, **kw)


def demo_scenario(responses: dict) -> Scenario:
    cycles = (
        make_cycle(0, "{p_anna} sits near {c_mug} and {t_ball}",
                   image_ref="frames/000.png"),
        make_cycle(1, "{p_anna} points at {c_mug}", cue_onset=True,
                   expected_instance="c_mug", image_ref="frames/001.png"),
        make_cycle(2, "{p_anna} keeps pointing", image_ref="frames/002.png"),
        make_cycle(3, "{p_anna} lowers the arm", image_ref="frames/003.png"),
    )
    return Scenario("demo", "H1", cycles, responses, demo_camera(), identity_transform())


# -- set-of-mark order: mark m is cycle.instances[m - 1] -------------------------------

def _ids(instances) -> list:
    return [inst.instance_id for inst in instances]


def test_marks_sorted_by_category_then_left_edge():
    cycle = make_cycle(0, "scene")
    # categories sort cup < person < toy; single instance each here
    assert _ids(cycle.instances) == ["c_mug", "p_anna", "t_ball"]


def test_marks_same_category_by_left_edge_then_id():
    instances = (
        instance("cup_b", "cup", (206.0, 10.0, 260.0, 60.0), 1.0),
        instance("cup_a", "cup", (10.0, 10.0, 60.0, 60.0), 1.0),
        instance("cup_c", "cup", (206.0, 100.0, 260.0, 160.0), 1.0),
    )
    cycle = make_cycle(0, "cups", instances)
    assert _ids(cycle.instances) == ["cup_a", "cup_b", "cup_c"]  # tie on left edge broken by id


def test_marks_are_bijective_and_deterministic():
    given = demo_instances()
    a = make_cycle(0, "scene", given)
    b = make_cycle(0, "scene", given[::-1])
    assert a.instances == b.instances == tuple(mark_order(given))
    assert sorted(_ids(a.instances)) == sorted(_ids(given))


_MARK_CATEGORIES = st.sampled_from(["cup", "person", "toy"])
# ties on the left edge, and an int against a float of the same value
_MARK_LEFT_EDGES = st.one_of(st.sampled_from([0, 0.0, 1, 1.0, 2.5, 300, 300.0]),
                             st.integers(0, 600), st.floats(0, 600))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cycle_keeps_its_instances_in_mark_order(data):
    ids = data.draw(st.lists(st.sampled_from("abcdefgh"), max_size=8, unique=True))
    instances = []
    for iid in ids:
        left = data.draw(_MARK_LEFT_EDGES)
        instances.append(instance(iid, data.draw(_MARK_CATEGORIES), (left, 0, left + 10, 10), 1.0))
    cycle = make_cycle(0, "scene", tuple(instances))
    expected = mark_order(instances)
    assert len(cycle.instances) == len(expected)
    assert all(got is want for got, want in zip(cycle.instances, expected))


def test_semantics_placeholders_become_marked_references():
    _, semantics = synthesize_prompt(make_cycle(0, "{p_anna} waves at {c_mug}"), MemoryBuffer())
    assert semantics == "person [2] waves at cup [1]"


# Ids and categories from a small alphabet with braces, so that placeholders sit side by
# side, repeat, are missing, and a category can spell another instance's placeholder.
_SEMANTIC_IDS = st.text(st.sampled_from("ab{}"), min_size=1, max_size=3)


@st.composite
def _semantic_cases(draw):
    """Ids, one category per id, and the words of a semantics text."""
    ids = draw(st.lists(_SEMANTIC_IDS, min_size=1, max_size=5, unique=True))
    placeholders = st.sampled_from(ids).map(lambda iid: "{" + iid + "}")
    categories = draw(st.lists(
        st.one_of(st.sampled_from(["cup", "person", "{", "}"]), placeholders,
                  st.text(st.sampled_from("ab{} ["), min_size=1, max_size=4)),
        min_size=len(ids), max_size=len(ids)))
    words = draw(st.lists(
        st.one_of(placeholders,
                  _SEMANTIC_IDS.map(lambda iid: "{" + iid + "}"),  # often no instance's
                  st.sampled_from(["", " ", "{", "}", "near"])),
        max_size=8))
    return ids, categories, words


@settings(max_examples=300, deadline=None)
# mark 1's category spells mark 2's placeholder, which the text holds only after mark 1's
# rewrite; placeholders repeat and touch
@example((["a", "b"], ["A{b}", "cup"], ["{a}", " ", "{a}{a}", "{", "}", "{c}"]))
@given(_semantic_cases())
def test_marked_semantics_equals_sequential_replace(case):
    ids, categories, words = case
    semantics = "".join(words)  # no separator: placeholders may touch
    instances = tuple(instance(iid, category, (0, 0, 10, 10), 1.0)
                      for iid, category in zip(ids, categories))
    cycle = make_cycle(0, semantics, instances)
    _, marked = synthesize_prompt(cycle, MemoryBuffer())
    assert marked == marked_semantics_sequential(semantics, cycle.instances)


def test_empty_scene_raises():
    # a cycle with no candidates has no marks to answer with
    with pytest.raises(ResponseParseError, match=r"^mark 1 not among \[\]$"):
        parse_response("TARGET: 1", make_cycle(0, "nothing here", instances=()))


# -- prompt synthesis -----------------------------------------------------------------

def test_first_cycle_prompt_matches_golden():
    cycle = make_cycle(0, "{p_anna} sits near {c_mug} and {t_ball}", image_ref="frames/000.png")
    prompt, semantics = synthesize_prompt(cycle, MemoryBuffer())
    golden = (DATA_DIR / "prompt_first_cycle.txt").read_text(encoding="utf-8")
    assert prompt == golden
    assert semantics == "person [2] sits near cup [1] and toy [3]"


def test_prompt_lists_every_mark_exactly_once():
    cycle = make_cycle(0, "scene")
    prompt, _ = synthesize_prompt(cycle, MemoryBuffer())
    candidates = prompt.split("Candidates:")[1].split("Current scene:")[0]
    for mark in range(1, len(cycle.instances) + 1):
        assert candidates.count(f"[{mark}]") == 1


def test_first_prompt_has_no_history_sections():
    prompt, _ = synthesize_prompt(make_cycle(0, "scene"), MemoryBuffer())
    assert "Previous gaze:" not in prompt
    assert "History" not in prompt


def test_later_prompt_carries_memory():
    buffer = MemoryBuffer()
    cycle0 = make_cycle(0, "scene")
    _, semantics = synthesize_prompt(cycle0, buffer)
    buffer.advance(0, semantics, localize(1, cycle0))
    prompt, _ = synthesize_prompt(make_cycle(1, "scene"), buffer)
    assert "Previous gaze:" in prompt and "cup [1]" in prompt
    assert "History (last 1 cycles):" in prompt


def test_prompt_is_deterministic():
    cycle = make_cycle(0, "scene")
    assert synthesize_prompt(cycle, MemoryBuffer()) == synthesize_prompt(cycle, MemoryBuffer())


# Values where a candidate line's formatting could go wrong: boxes half-way between
# integers (`:.0f` rounds half to even), ints beside floats, depths on `:.2f` ties, and
# ids with braces or non-ASCII text. The wide image admits boxes out to 1e15 + 2.
_WIDE_CAMERA = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0,
                                width=2 * 10 ** 15, height=2 * 10 ** 15)
_BOX_VALUES = st.one_of(st.sampled_from([0, 0.0, 0.5, 1, 1.5, 2.5, 3.5, 1e15 + 0.5, 1e15 + 2]),
                        st.integers(0, 10 ** 15), st.floats(0, 1e15))
_DEPTHS = st.one_of(st.sampled_from([0.005, 0.015, 0.125, 1.005, 2.675, 1, 3]),
                    st.floats(0.001, 1e3), st.integers(1, 50))
_NAMES = st.text(st.sampled_from("ab_{} éü中"), min_size=1, max_size=6)


@st.composite
def _prompt_instances(draw, iid):
    left, right = sorted(draw(st.lists(_BOX_VALUES, min_size=2, max_size=2, unique=True)))
    top, bottom = sorted(draw(st.lists(_BOX_VALUES, min_size=2, max_size=2, unique=True)))
    category = draw(st.one_of(st.sampled_from(["person", "cup"]), _NAMES))
    return instance(iid, category, (left, top, right, bottom), draw(_DEPTHS),
                    camera=_WIDE_CAMERA)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_prompt_matches_per_cycle_oracle(data):
    ids = data.draw(st.lists(_NAMES, min_size=1, max_size=5, unique=True))
    pool = [data.draw(_prompt_instances(iid)) for iid in ids]
    # each run outlasts the history and holds a cycle with no candidates
    sizes = data.draw(st.lists(st.integers(0, len(pool)), min_size=HISTORY_LENGTH + 1,
                               max_size=HISTORY_LENGTH + 3).filter(lambda s: 0 in s))
    buffer = MemoryBuffer()
    for t, size in enumerate(sizes):
        shown = data.draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size,
                                   unique=True))
        semantics = " near ".join("{" + inst.instance_id + "}" for inst in shown)
        cycle = ScenarioCycle(t, semantics, tuple(shown))
        got = synthesize_prompt(cycle, buffer)
        assert got == synthesize_prompt_per_cycle(semantics, shown, buffer)
        buffer.advance(t, got[1] if shown else None,
                       localize(1, cycle) if shown else REST_RECORD)


@pytest.mark.parametrize("label, bad", [("box", "0"), ("box", True), ("box", False),
                                        ("face box", "340"), ("face box", True),
                                        ("box", float("nan")), ("face box", 10 ** 400)],
                         ids=["box-str", "box-true", "box-false", "face-str", "face-true",
                              "box-nan", "face-huge-int"])
def test_a_box_entry_that_is_not_a_finite_number_fails_in_its_cycle(label, bad):
    # an Instance built in Python is refused when it is built; a file's loader
    # names the cycle (test_instance_with_a_malformed_box_still_fails_in_its_cycle)
    box, face_box = [300, 80, 420, 460], [340, 100, 380, 150]
    (box if label == "box" else face_box)[0] = bad
    with pytest.raises(ValueError) as raised:
        instance("p", "person", tuple(box), 2.0, face_box=tuple(face_box))
    assert str(raised.value) == f"instance p {label} entry 0 must be a finite number, got {bad!r}"


def test_instance_with_a_malformed_box_still_fails_in_its_cycle():
    doc = scenario_to_doc(demo_scenario({}))
    doc["cycles"][3]["instances"][0]["box"].pop()  # c_mug: a record no earlier cycle holds
    for load in (scenario_from_doc, scenario_from_doc_per_record):
        with pytest.raises(DataError) as raised:
            load(doc, origin="s.json")
        assert str(raised.value) == ("s.json: cycle 3 instance c_mug box must be "
                                     "(left, top, right, bottom)")


@pytest.mark.parametrize("depth", [True, False, math.inf, -math.inf, math.nan, "1.0", 0, 0.0,
                                   -0.0, -1.5, 10 ** 400, None],
                         ids=["true", "false", "inf", "minus-inf", "nan", "text", "zero",
                              "zero-float", "minus-zero", "negative", "huge", "null"])
def test_instance_depth_follows_the_finite_number_rule(depth):
    # the rule box entries follow: a bool, a non-finite or non-numeric depth
    # is refused as a ValueError naming the instance, not printed as a depth
    with pytest.raises(ValueError, match=r"^instance cup_1: depth must be a positive finite "
                                         r"number, got "):
        instance("cup_1", "cup", (0, 0, 1, 1), depth)
    for fine in (1, 0.25, 2.5):
        assert instance("cup_1", "cup", (0, 0, 1, 1), fine).depth == fine


def test_prompt_entry_is_outside_equality_hash_and_repr():
    # so are the placement fields: the same record placed by two cameras is one instance
    text = ("Instance(instance_id='c', category='cup', box=(1, 2, 30, 40), depth=1.5, "
            "face_box=None)")
    wide = CameraIntrinsics(fx=250.0, fy=250.0, cx=400.0, cy=300.0, width=800, height=600)
    here = instance("c", "cup", (1, 2, 30, 40), 1.5)
    there = instance("c", "cup", (1, 2, 30, 40), 1.5, camera=wide)
    assert here.prompt_entry == there.prompt_entry == "cup (id c, box 1,2,30,40, depth 1.50 m)"
    assert localize(1, make_cycle(0, "{c}", instances=(here,))).target.point_2d == (15.5, 21.0)
    assert here.point_3d != there.point_3d
    assert here == there and hash(here) == hash(there)
    assert repr(here) == repr(there) == text


# -- response parsing ------------------------------------------------------------------

def test_parse_plain_target_line():
    assert parse_response("TARGET: 2", make_cycle(0, "scene")) == 2


def test_parse_takes_first_well_formed_line():
    raw = "Thinking about it.\nTARGET: 1\nTARGET: 3\n"
    assert parse_response(raw, make_cycle(0, "scene")) == 1


def test_parse_rejects_prose_without_target():
    with pytest.raises(ResponseParseError, match="no TARGET"):
        parse_response("I think mark 7 is best", make_cycle(0, "scene"))


def test_parse_rejects_out_of_range_mark():
    with pytest.raises(ResponseParseError, match=r"^mark 9 not among \[1, 2, 3\]$"):
        parse_response("TARGET: 9", make_cycle(0, "scene"))


def test_parse_rejects_mark_beyond_int_digit_limit():
    with pytest.raises(ResponseParseError, match="5000 digits"):
        parse_response("TARGET: " + "1" * 5000, make_cycle(0, "scene"))


# Arbitrary text, and text around a TARGET line whose mark is small, has
# more digits than int() converts, or is made of any Unicode decimal digits.
answers = st.one_of(
    st.text(),
    st.tuples(
        st.text(),
        st.sampled_from(["TARGET:", "TARGET: ", "TARGET:\t", "TARGET -"]),
        st.one_of(st.integers(-3, 12).map(str),
                  st.integers(4000, 6000).map(lambda n: "7" * n),
                  st.text(st.characters(whitelist_categories=("Nd",)), min_size=1)),
        st.text(),
    ).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(answers)
def test_parse_response_returns_listed_mark_or_raises_parse_error(raw):
    try:
        mark = parse_response(raw, make_cycle(0, "scene"))
    except ResponseParseError:
        return
    assert mark in (1, 2, 3)


# -- localization ------------------------------------------------------------------------

def test_back_project_principal_point():
    cam = demo_camera()
    np.testing.assert_allclose(cam.back_project(320.0, 240.0, 2.0),
                               [0.0, 0.0, 2.0], atol=1e-12)


def test_back_project_offset_pixel():
    cam = demo_camera()
    np.testing.assert_allclose(cam.back_project(420.0, 240.0, 1.0),
                               [0.2, 0.0, 1.0], atol=1e-12)


def test_box_center():
    assert box_center((10.0, 20.0, 30.0, 40.0)) == (20.0, 30.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(100.0, 2000.0), st.floats(100.0, 2000.0), st.floats(0.0, 1.0),
       st.floats(0.0, 1.0), st.floats(0.3, 10.0))
def test_project_round_trip(fx, fy, u_share, v_share, d):
    cam = CameraIntrinsics(fx=fx, fy=fy, cx=331.5, cy=247.25, width=640, height=480)
    u, v = u_share * cam.width, v_share * cam.height
    point = cam.back_project(u, v, d)
    assert all(type(x) is float for x in point) and point[2] == d
    uu, vv = project(cam, point)
    assert abs(uu - u) < 1e-9 and abs(vv - v) < 1e-9


def _quaternion_rotation(w, x, y, z) -> np.ndarray:
    """The rotation of the unit quaternion along (w, x, y, z)."""
    n = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                     [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                     [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


_unit = st.floats(-1.0, 1.0)
_coordinate = st.floats(-10.0, 10.0)


@settings(max_examples=500, deadline=None)
@given(st.tuples(_unit, _unit, _unit, _unit).filter(lambda q: sum(c * c for c in q) > 0.01),
       st.tuples(_coordinate, _coordinate, _coordinate),
       st.tuples(_coordinate, _coordinate, _coordinate), st.booleans())
def test_rigid_transform_apply_agrees_with_matrix_product(q, p, t, as_lists):
    R = _quaternion_rotation(*q)
    transform = (RigidTransform(R.tolist(), list(t)) if as_lists
                 else RigidTransform(R, np.array(t)))
    assert transform.rotation == tuple(map(tuple, R.tolist()))
    got = transform.apply(p)
    assert all(type(x) is float for x in got)
    want = R @ np.array(p) + np.array(t)
    # Within a few ulps of the largest partial sum, since the terms may cancel.
    scale = np.abs(R) @ np.abs(np.array(p)) + np.abs(np.array(t))
    for g, w, s in zip(got, want.tolist(), scale.tolist()):
        assert abs(g - w) <= 8 * math.ulp(s)


def test_back_project_validation():
    cam = demo_camera()
    with pytest.raises(ValueError):
        cam.back_project(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        project(cam, np.array([0.1, 0.1, -1.0]))


def test_localize_person_uses_face_center():
    target = localize(2, make_cycle(0, "scene")).target  # p_anna
    assert target.point_2d == box_center((340.0, 100.0, 380.0, 150.0))
    assert not target.face_fallback
    expected = demo_camera().back_project(*target.point_2d, 2.0)
    np.testing.assert_allclose(target.point_3d, expected, atol=1e-12)


def test_localize_person_without_face_box_falls_back_to_body():
    instances = (instance("p_solo", "person", (300.0, 80.0, 420.0, 460.0), 2.0),)
    cycle = make_cycle(0, "scene", instances)
    target = localize(1, cycle).target
    assert target.face_fallback
    assert target.point_2d == box_center((300.0, 80.0, 420.0, 460.0))


def test_localize_applies_base_from_camera():
    # camera looking along +y of the base frame, mounted 1.5 m up
    R = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]).T
    transform = RigidTransform(R, np.array([0.0, 0.0, 1.5]))
    instances = (instance("c_one", "cup", (310.0, 230.0, 330.0, 250.0), 2.0,
                          base_from_camera=transform),)
    cycle = ScenarioCycle(index=0, semantics="s", instances=instances)
    target = localize(1, cycle).target
    cam_point = demo_camera().back_project(320.0, 240.0, 2.0)
    np.testing.assert_allclose(target.point_3d, R @ cam_point + [0, 0, 1.5],
                               atol=1e-12)


@st.composite
def _placed_instances(draw):
    """A person with a face box, a person without one, or an object, in a 640x480 image.

    Returns the instance and the camera and transform it was placed with.
    """
    kind = draw(st.sampled_from(["face", "body", "object"]))
    left, right = sorted(draw(st.lists(st.integers(0, 640), min_size=2, max_size=2,
                                       unique=True)))
    top, bottom = sorted(draw(st.lists(st.floats(0, 480), min_size=2, max_size=2,
                                       unique=True)))
    face_box = None
    if kind == "face":
        face_box = (left, top, draw(st.integers(left + 1, right)), bottom)
    camera, transform = draw(_CAMERAS), draw(_TRANSFORMS)
    inst = Instance("x", "cup" if kind == "object" else "person", (left, top, right, bottom),
                    draw(st.floats(0.1, 10.0)), face_box=face_box, camera=camera,
                    base_from_camera=transform)
    return inst, camera, transform


_CAMERAS = st.builds(CameraIntrinsics, fx=st.floats(100.0, 2000.0), fy=st.floats(100.0, 2000.0),
                     cx=st.floats(0.0, 640.0), cy=st.floats(0.0, 480.0),
                     width=st.just(640), height=st.just(480))
_TRANSFORMS = st.builds(
    lambda q, t: RigidTransform(_quaternion_rotation(*q), t),
    st.tuples(_unit, _unit, _unit, _unit).filter(lambda q: sum(c * c for c in q) > 0.01),
    st.tuples(_coordinate, _coordinate, _coordinate))


@settings(max_examples=200, deadline=None)
@given(_placed_instances(), st.integers(1, 10))
def test_a_shared_instance_is_localized_as_every_call_would(placed, n_cycles):
    inst, camera, transform = placed
    for t in range(n_cycles):
        cycle = ScenarioCycle(t, "{x}", (inst,))
        got = localize(1, cycle)
        assert got.mark == 1 and got.target is inst and not got.held
        placed = (inst.point_2d, inst.point_3d, inst.face_fallback)
        want = localize_per_call(1, cycle, camera, transform)
        assert placed == want and repr(placed) == repr(want)


# -- memory buffer ------------------------------------------------------------------------

def test_history_is_capped_fifo():
    buffer = MemoryBuffer()
    assert buffer.prev_record is None and not buffer.history
    for i in range(HISTORY_LENGTH + 3):
        cycle = make_cycle(i, f"scene {i}")
        buffer.advance(i, marked_semantics_sequential(cycle.semantics, cycle.instances),
                       localize(1, cycle))
    assert len(buffer.history) == HISTORY_LENGTH
    assert "cycle 3:" in buffer.history[0]  # cycles 0..2 were evicted
    assert f"cycle {HISTORY_LENGTH + 2}:" in buffer.history[-1]
    assert buffer.prev_record is not None and buffer.history


# -- pipeline totality ---------------------------------------------------------------------

class ExplodingBackend:
    def query(self, prompt, image_ref, cycle_index):
        raise RuntimeError("socket burst")


class GarbageBackend:
    def query(self, prompt, image_ref, cycle_index):
        return "not even close"


def test_query_backend_wraps_foreign_exceptions():
    with pytest.raises(BackendError, match="socket burst"):
        query_backend("p", None, 0, ExplodingBackend())


def test_query_backend_rejects_non_text():
    class NumberBackend:
        def query(self, prompt, image_ref, cycle_index):
            return 7
    with pytest.raises(BackendError, match="expected text"):
        query_backend("p", None, 0, NumberBackend())


@pytest.mark.parametrize("mark", [1, 2, 3])
def test_a_record_names_the_cycles_own_instance(mark):
    cycle, buffer = make_cycle(0, "scene"), MemoryBuffer()
    record = localize(mark, cycle)
    assert GazeTargetRecord._fields == ("mark", "target", "held")
    assert record.target is cycle.instances[mark - 1] and record == (mark, record.target, False)
    buffer.advance(0, "scene", record)
    held = step_cycle(make_cycle(1, "void"), buffer, GarbageBackend())
    assert held.held and held.mark == mark and held.target is cycle.instances[mark - 1]


def test_failed_first_cycle_rests():
    buffer = MemoryBuffer()
    record = step_cycle(make_cycle(0, "scene"), buffer, ExplodingBackend())
    assert record is REST_RECORD
    assert record.held and record.mark is None and record.target is None


def test_failure_after_success_holds_previous_target():
    buffer = MemoryBuffer()
    scenario = demo_scenario({0: "TARGET: 1"})
    good = step_cycle(scenario.cycles[0], buffer, ScriptedBackend(scenario))
    assert good.target is scenario.cycles[0].instances[0] and not good.held
    assert good.target.instance_id == "c_mug"
    held = step_cycle(make_cycle(1, "scene"), buffer, GarbageBackend())
    assert held.held and held.target is good.target and held.mark == good.mark


def test_gaze_record_is_an_immutable_tuple():
    record = localize(2, make_cycle(0, "scene"))
    assert isinstance(record, tuple) and isinstance(REST_RECORD, tuple)
    for name in GazeTargetRecord._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(REST_RECORD, name, None)


FACELESS = (instance("p_solo", "person", (300.0, 80.0, 420.0, 460.0), 2.0),)


@pytest.mark.parametrize("instances, mark", [(None, 1), (None, 2), (None, 3), (FACELESS, 1)],
                         ids=["cup", "person", "toy", "faceless-person"])
@pytest.mark.parametrize("failing", ["backend", "parse", "empty scene"])
def test_failing_cycle_holds_every_field_of_the_previous_record(instances, mark, failing):
    buffer = MemoryBuffer()
    good = step_cycle(make_cycle(0, "scene", instances), buffer,
                      OutcomeBackend({0: f"TARGET: {mark}"}))
    assert good.mark == mark and not good.held
    backend = ExplodingBackend() if failing == "backend" else GarbageBackend()
    cycle = make_cycle(1, "void", instances=() if failing == "empty scene" else None)
    held = step_cycle(cycle, buffer, backend)
    assert held.held and buffer.prev_record is held
    for name in GazeTargetRecord._fields:
        if name != "held":
            assert getattr(held, name) is getattr(good, name), name
    assert held.summary() == good.summary() + " (held)"


def test_bundled_replay_failing_its_first_cycles_leaves_the_rest_record_unchanged():
    rest = GazeTargetRecord(mark=None, target=None, held=True)
    scenario = load_scenario(BUNDLED / "h1_point_cup.json")
    backend = ScriptedBackend(scenario)
    first, second = (cycle.index for cycle in scenario.cycles[:2])
    backend.responses[first] = backend.responses[second] = "no target"
    result = replay_scenario(scenario, backend)
    assert result.records[0] is REST_RECORD and result.records[1] == rest
    assert not result.records[2].held and result.correct
    assert REST_RECORD == rest and REST_RECORD.summary() == "gaze: rest position"
    assert REST_POINT == (1.0, 0.0, 0.0)


def test_empty_scene_is_survivable():
    buffer = MemoryBuffer()
    record = step_cycle(make_cycle(0, "void", instances=()), buffer,
                        GarbageBackend())
    assert record.held
    assert len(buffer.history) == 1 and "empty scene" in buffer.history[0]


class Raises:
    """A backend outcome: raise a fresh ``kind`` exception."""

    def __init__(self, kind):
        self.kind = kind


class OutcomeBackend:
    def __init__(self, outcomes):
        self.outcomes = outcomes

    def query(self, prompt, image_ref, cycle_index):
        outcome = self.outcomes[cycle_index]
        if isinstance(outcome, Raises):
            raise outcome.kind("backend trouble")
        return outcome


outcomes = st.one_of(
    answers,
    st.sampled_from([Exception, RuntimeError, ValueError, KeyError, TypeError,
                     OSError, TimeoutError, ZeroDivisionError, RecursionError,
                     BackendError, ResponseParseError, IndexError]).map(Raises),
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.binary(),
              st.lists(st.text(), max_size=2), st.dictionaries(st.text(), st.text(), max_size=2)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(outcomes, min_size=1, max_size=6))
def test_step_cycle_is_total_whatever_the_backend_does(script):
    buffer = MemoryBuffer()
    backend = OutcomeBackend(script)
    for index in range(len(script)):
        record = step_cycle(make_cycle(index, "scene"), buffer, backend)
        assert isinstance(record, GazeTargetRecord)
        assert record.held or record.mark in (1, 2, 3)
        assert buffer.prev_record is record
    assert len(buffer.history) == len(script)


# -- the module globals the benchmark wraps (bench/tracing.py, bench/workloads.py) --------

def _recorded(results, function):
    """``function``, appending each value it returns to ``results``."""
    def recording(*args, **kwargs):
        result = function(*args, **kwargs)
        results.append(result)
        return result
    return recording


class RecordingBackend(ScriptedBackend):
    """The scripted backend, keeping each query's prompt and image reference."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.queries = []

    def query(self, prompt, image_ref, cycle_index):
        self.queries.append((prompt, image_ref))
        return super().query(prompt, image_ref, cycle_index)


def test_replay_looks_step_cycle_up_in_its_module_on_every_cycle():
    # the benchmark times each cycle by replacing replay's step_cycle
    scenario = demo_scenario({0: "TARGET: 1", 1: "TARGET: 2", 2: "TARGET: 1", 3: "TARGET: 1"})
    steps = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay_mod, "step_cycle", _recorded(steps, step_cycle))
        result = replay_scenario(scenario, ScriptedBackend(scenario))
    assert len(steps) == len(scenario.cycles) and tuple(steps) == result.records


def test_step_cycle_calls_prompt_and_localize_through_pipeline_globals():
    # the benchmark counts the bytes of the first value synthesize_prompt returns and
    # the calls of localize, each by replacing the pipeline module's global
    scenario = demo_scenario({0: "TARGET: 1", 1: "no mark", 2: "TARGET: 2", 3: "TARGET: 9"})
    backend, prompts, localized = RecordingBackend(scenario), [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_mod, "synthesize_prompt", _recorded(prompts, synthesize_prompt))
        patch.setattr(pipeline_mod, "localize", _recorded(localized, localize))
        result = replay_scenario(scenario, backend)
    assert backend.queries == [(prompt, cycle.image_ref)
                               for (prompt, _), cycle in zip(prompts, scenario.cycles)]
    assert all(isinstance(prompt, str) for prompt, _ in backend.queries)
    assert len(localized) == 2 and localized == [r for r in result.records if not r.held]


def test_oversized_mark_holds_one_cycle_of_a_bundled_replay():
    scenario = load_scenario(BUNDLED / "h1_point_cup.json")
    cue = scenario.cue_cycle().index
    before = cue - 1
    backend = ScriptedBackend(scenario)
    backend.responses[before] = "TARGET: " + "1" * 5000
    result = replay_scenario(scenario, backend)
    assert result.records[before].held
    assert result.correct


def test_successful_cycle_record_is_complete():
    buffer = MemoryBuffer()
    scenario = demo_scenario({0: "TARGET: 3"})
    record = step_cycle(scenario.cycles[0], buffer, ScriptedBackend(scenario))
    assert record.mark == 3 and record.target is scenario.cycles[0].instances[2]
    assert record.target.instance_id == "t_ball"
    assert record.target.category == "toy" and not record.held
    assert record.target.box == (500.0, 300.0, 560.0, 360.0)
    assert record.summary() == "gaze: toy [3]"


# -- backends ----------------------------------------------------------------------------------

def test_scripted_backend_returns_canned_text_verbatim():
    scenario = demo_scenario({0: "  TARGET: 2 \n", 1: "TARGET: 1"})
    backend = ScriptedBackend(scenario)
    assert backend.query("ignored", None, 0) == "  TARGET: 2 \n"
    with pytest.raises(BackendError, match="cycle 3"):
        backend.query("ignored", None, 3)


def test_oracle_backend_answers_on_schedule():
    scenario = demo_scenario({})
    backend = OracleBackend(scenario, delay=1)
    marked = _ids(mark_order(demo_instances()))  # every cycle shows these
    # cue is cycle 1, expected c_mug (mark 1): correct answer lands at cycle 2
    assert backend.query("p", None, 2) == f"TARGET: {marked.index('c_mug') + 1}"
    for i in (0, 1, 3):
        answer = parse_response(backend.query("p", None, i), scenario.cycles[i])
        assert marked[answer - 1] != "c_mug"


def test_oracle_backend_validates_delay():
    with pytest.raises(ValueError):
        OracleBackend(demo_scenario({}), delay=0)


def test_request_body_matches_golden():
    config = RemoteConfig(endpoint="https://example.test/v1/chat/completions",
                          model="gaze-small")
    body = build_request(config, "where should the robot look?", "frames/001.png")
    golden = json.loads((DATA_DIR / "request_body.json").read_text(encoding="utf-8"))
    assert body == golden


def test_request_body_omits_absent_image():
    config = RemoteConfig(endpoint="https://example.test", model="m")
    body = build_request(config, "text only", None)
    assert len(body["messages"][0]["content"]) == 1
    assert body["temperature"] == 0


def test_remote_backend_preflight_failures(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    no_key = RemoteBackend(RemoteConfig(endpoint="https://example.test", model="m"))
    with pytest.raises(BackendError, match="no API key"):
        no_key.preflight()
    dead = RemoteBackend(RemoteConfig(endpoint="https://example.test", model="m",
                                      timeout=0.0, api_key="k"))
    with pytest.raises(BackendError, match="deadline"):
        dead.preflight()
    monkeypatch.setenv(API_KEY_ENV, "from-env")
    RemoteBackend(RemoteConfig(endpoint="https://example.test", model="m")).preflight()


@pytest.mark.parametrize("timeout, socket_takes_it", [
    (9.2e9, True), (9223372036.854774, True), (9223372036.854776, False), (1e300, False)])
def test_preflight_rejects_a_timeout_no_socket_takes(timeout, socket_takes_it):
    with socket.socket() as sock:  # a socket holds its timeout in int64 nanoseconds
        if socket_takes_it:
            sock.settimeout(timeout)
        else:
            with pytest.raises(OverflowError):
                sock.settimeout(timeout)
    backend = RemoteBackend(RemoteConfig(endpoint="https://example.test", model="m",
                                         timeout=timeout, api_key="k"))
    if socket_takes_it:
        backend.preflight()
    else:
        with pytest.raises(BackendError, match="longer than a socket can wait"):
            backend.preflight()


@pytest.mark.parametrize("endpoint, api_key, message", [
    ("http://example.test/v1", "secret\r\nX-Injected: 1", "Authorization header"),
    ("http://example.test/v1", "clé-secrète", "Authorization header"),
    ("http://bücher.test/v1", "secret", "Host header"),
    ("http://example.test/a b", "secret", "request target '/a b'"),
])
def test_preflight_refuses_a_request_head_it_cannot_send(endpoint, api_key, message):
    backend = RemoteBackend(RemoteConfig(endpoint=endpoint, model="m", api_key=api_key))
    with pytest.raises(BackendError, match=message) as exc:
        backend.preflight()
    assert api_key not in str(exc.value)  # a key is never shown


def test_remote_config_validation():
    with pytest.raises(ConfigError, match="unknown"):
        RemoteConfig.from_dict({"endpoint": "e", "model": "m", "retries": 3})
    with pytest.raises(ConfigError, match="requires"):
        RemoteConfig.from_dict({"model": "m"})
    with pytest.raises(ConfigError, match="JSON object"):
        RemoteConfig.from_dict(["endpoint", "model"])
    with pytest.raises(ConfigError, match="'timeout' must be a finite number"):
        RemoteConfig.from_dict({"endpoint": "e", "model": "m", "timeout": "slow"})
    cfg = RemoteConfig.from_dict({"endpoint": "e", "model": "m", "timeout": 0.7})
    assert cfg.timeout == 0.7


# -- scenario files ------------------------------------------------------------------------------

def test_scenario_round_trip(tmp_path):
    scenario = demo_scenario({0: "TARGET: 1", 2: "TARGET: 2"})
    path = tmp_path / "demo.json"
    write_scenario(scenario, path)
    back = load_scenario(path)
    assert scenario_to_doc(back) == scenario_to_doc(scenario)
    assert back.responses == scenario.responses
    assert back.cycles[1].expected_instance == "c_mug"


def test_scenario_rejects_bad_documents():
    good = scenario_to_doc(demo_scenario({}))
    with pytest.raises(DataError, match="schema"):
        scenario_from_doc({**good, "schema": "other"})
    bad_cycle = json.loads(json.dumps(good))
    bad_cycle["cycles"][1]["index"] = 5
    with pytest.raises(DataError, match="consecutive"):
        scenario_from_doc(bad_cycle)
    bad_box = json.loads(json.dumps(good))
    bad_box["cycles"][0]["instances"][0]["box"] = [700.0, 80.0, 720.0, 460.0]
    with pytest.raises(DataError, match="exceeds"):
        scenario_from_doc(bad_box)
    for not_object in ([], "scenario", 1, None):
        with pytest.raises(DataError, match="must be a JSON object"):
            scenario_from_doc(not_object)
    for responses in ([1], "abc", 2):
        with pytest.raises(DataError) as exc:
            scenario_from_doc({**good, "responses": responses}, origin="demo.json")
        assert str(exc.value) == ("demo.json: scenario field 'responses' must be an object of "
                                  f"strings, got {responses!r}")
    # a response key is str(i) of a cycle index, and its value is text: int()
    # read "02", " 2" and "2" alike, and the last of them won
    for responses, reason in [
        ({"2": "TARGET: 1", "02": "TARGET: 2"}, "canned response key '02' is not a cycle index"),
        ({" 2": "TARGET: 1"}, "canned response key ' 2' is not a cycle index"),
        ({"2.0": "TARGET: 1"}, "canned response key '2.0' is not a cycle index"),
        ({"-1": "TARGET: 1"}, "canned response key '-1' is not a cycle index"),
        ({"1_0": "TARGET: 1"}, "canned response key '1_0' is not a cycle index"),
        ({"\u0662": "TARGET: 1"}, "canned response key '\u0662' is not a cycle index"),
        ({"": "TARGET: 1"}, "canned response key '' is not a cycle index"),
        ({"4": "TARGET: 1"}, "canned response for out-of-range cycle 4"),
        # the message names the one bad response, not the whole object
        ({"2": 2}, "scenario field responses['2'] must be a string, got 2"),
        ({"2": None}, "scenario field responses['2'] must be a string, got None"),
        ({"1": "TARGET: 1", "2": ["TARGET: 1"]},
         "scenario field responses['2'] must be a string, got ['TARGET: 1']"),
    ]:
        with pytest.raises(DataError) as exc:
            scenario_from_doc({**good, "responses": responses}, origin="demo.json")
        assert str(exc.value) == f"demo.json: {reason}"
    assert scenario_from_doc({**good, "responses": {"3": "TARGET: 1"}}).responses == {
        3: "TARGET: 1"}
    for scenario_id in (5, ["a", 1], None, True):
        with pytest.raises(DataError) as exc:
            scenario_from_doc({**good, "scenario_id": scenario_id}, origin="demo.json")
        assert str(exc.value) == ("demo.json: scenario field 'scenario_id' must be a string, "
                                  f"got {scenario_id!r}")
    # one mistyped field each, in the first instance of cycle 0 or in cycle 1
    for where, key, value, reason in [
        ("instance", "id", 5, "cycles[0].instances[0] field 'id' must be a string, got 5"),
        ("instance", "id", None, "cycles[0].instances[0] field 'id' must be a string, got None"),
        ("instance", "category", ["person"],
         "cycles[0].instances[0] field 'category' must be a string, got ['person']"),
        ("instance", "box", [300.0, "80", 420.0, 460.0],
         "cycles[0].instances[0] field box[1] must be a finite number, got '80'"),
        ("instance", "box", [300, 80, True, 460],
         "cycles[0].instances[0] field box[2] must be a finite number, got True"),
        ("instance", "face_box", [340.0, 100.0, None, 150.0],
         "cycles[0].instances[0] field face_box[2] must be a finite number, got None"),
        # null is no value of an optional key: a record that leaves it out means no face box
        ("instance", "face_box", None,
         "cycles[0].instances[0] field 'face_box' must be a list of finite numbers, got None"),
        # used to fail with "int too large to convert to float", naming no field
        ("instance", "box", [300, 80, 10 ** 400, 460],
         "cycles[0].instances[0] field box[2] must be a finite number, "
         f"got {reprlib.repr(10 ** 400)}"),
        ("cycle", "index", 1.0, "cycles[1] field 'index' must be an integer, got 1.0"),
        ("cycle", "index", 2.7, "cycles[1] field 'index' must be an integer, got 2.7"),
        ("cycle", "index", True, "cycles[1] field 'index' must be an integer, got True"),
        ("cycle", "index", "1", "cycles[1] field 'index' must be an integer, got '1'"),
        ("cycle", "semantics", 7, "cycles[1] field 'semantics' must be a string, got 7"),
        ("cycle", "semantics", None, "cycles[1] field 'semantics' must be a string, got None"),
        ("cycle", "cue_onset", "false",
         "cycles[1] field 'cue_onset' must be true or false, got 'false'"),
        ("cycle", "cue_onset", 1, "cycles[1] field 'cue_onset' must be true or false, got 1"),
        # cycle 1 is the cue cycle: its expected instance must be one it shows
        ("cycle", "expected_instance", "nobody",
         "cycle 1: expected_instance 'nobody' is not an instance of the cycle"),
        ("cycle", "expected_instance", 5,
         "cycles[1] field 'expected_instance' must be a string, got 5"),
        ("cycle", "image_ref", 5, "cycles[1] field 'image_ref' must be a string, got 5"),
        # `nan <= 0` is false, so only an explicit check catches these
        ("camera", "cx", math.nan, "camera field 'cx' must be a finite number, got nan"),
        ("camera", "fx", math.inf, "camera field 'fx' must be a finite number, got inf"),
        ("camera", "fy", True, "camera field 'fy' must be a finite number, got True"),
        # a NaN width or height switched off every box-in-image check
        ("camera", "width", math.nan, "camera field 'width' must be an integer, got nan"),
        ("camera", "height", True, "camera field 'height' must be an integer, got True"),
        ("camera", "width", 640.0, "camera field 'width' must be an integer, got 640.0"),
        ("camera", "height", 0, "camera height must be an integer of at least 1, not 0"),
    ]:
        doc = json.loads(json.dumps(good))
        target = {"instance": doc["cycles"][0]["instances"][0], "cycle": doc["cycles"][1],
                  "camera": doc["camera"]}[where]
        target[key] = value
        with pytest.raises(DataError) as exc:
            scenario_from_doc(doc, origin="demo.json")
        message = str(exc.value)
        assert message.startswith("demo.json: ") and reason in message and "\n" not in message


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, True, False, "525.0", None],
                         ids=["huge", "minus-huge", "true", "false", "text", "null"])
@pytest.mark.parametrize("where, key", [("camera", "fx"), ("camera", "fy"), ("camera", "cx"),
                                        ("camera", "cy"), ("instance", "depth")])
def test_scenario_camera_and_depth_must_be_finite_json_numbers(where, key, value):
    # 10 ** 400 used to fail with "int too large to convert to float", naming no field
    doc = scenario_to_doc(demo_scenario({}))
    target = doc["camera"] if where == "camera" else doc["cycles"][0]["instances"][0]
    target[key] = value
    with pytest.raises(DataError) as exc:
        scenario_from_doc(doc, origin="demo.json")
    label = "camera" if where == "camera" else "cycles[0].instances[0]"
    # a long number is shown as reprlib abbreviates it
    assert str(exc.value) == (f"demo.json: {label} field {key!r} must be a finite number, "
                              f"got {reprlib.repr(value)}")


# Scenario documents for the oracle test. Box and depth values mix ints and
# floats and include 0, 0.0 and -0.0, which tuple equality would merge; each
# instance id comes in two records that differ only in those types, and the
# cycles draw from both, so records repeat within and across types.

def _numbers(lo, hi):
    numbers = st.one_of(st.integers(lo, hi), st.floats(lo, hi))
    return st.one_of(st.sampled_from([0, 0.0, -0.0]), numbers) if lo <= 0 else numbers


@st.composite
def _boxes(draw):
    left, top = draw(_numbers(0, 600)), draw(_numbers(0, 440))
    return [left, top, draw(_numbers(math.floor(left) + 1, 640)),
            draw(_numbers(math.floor(top) + 1, 480))]


def _retyped(value):
    """The same number with its other JSON type, or the other signed zero."""
    if isinstance(value, int):
        return float(value)
    return -value if value == 0 else value


@st.composite
def _instance_records(draw, iid):
    record = {"id": iid, "category": draw(st.sampled_from(["person", "cup"])),
              "box": draw(_boxes()), "depth": draw(st.one_of(st.integers(1, 3),
                                                             st.floats(0.1, 3.0)))}
    if draw(st.booleans()):
        record["face_box"] = draw(_boxes())
    retyped = {**record, "box": [_retyped(v) for v in record["box"]],
               "depth": _retyped(record["depth"])}
    if "face_box" in record:
        retyped["face_box"] = [_retyped(v) for v in record["face_box"]]
    return [record, retyped]


@st.composite
def _scenario_docs(draw):
    ids = [f"i{j}" for j in range(draw(st.integers(1, 4)))]
    records = {iid: draw(_instance_records(iid)) for iid in ids}
    n_cycles = draw(st.integers(1, 6))
    cycles = []
    for t in range(n_cycles):
        shown = draw(st.lists(st.sampled_from(ids), unique=True, min_size=int(t == 0)))
        cycles.append({"index": t, "semantics": f"scene {t}",
                       "instances": [records[iid][draw(st.integers(0, 1))] for iid in shown]})
    cue = draw(st.none() | st.integers(0, n_cycles - 1))
    if cue is not None:
        cycles[cue]["cue_onset"] = True
        if cycles[cue]["instances"]:
            cycles[cue]["expected_instance"] = cycles[cue]["instances"][0]["id"]
    answered = draw(st.lists(st.integers(0, n_cycles - 1), unique=True))
    doc = scenario_to_doc(demo_scenario({}))
    doc.update(regularity=draw(st.sampled_from(["H1", "H2", "H3", "H4"])), cycles=cycles,
               responses={str(t): f"TARGET: {t + 1}" for t in answered})
    return json.loads(json.dumps(doc))  # one object per record, as a parsed file has


def _some_instance(doc, data):
    shown = [inst for cycle in doc["cycles"] for inst in cycle["instances"]]
    return data.draw(st.sampled_from(shown))


def _swap(box, a, b):
    box[a], box[b] = box[b], box[a]


def _mistype(doc, data):
    """Give one key of one object of ``doc`` a value of the wrong JSON type."""
    _, _, obj, schema = data.draw(st.sampled_from(scenario_objects(doc)))
    key = data.draw(st.sampled_from(sorted(obj)))
    obj[key] = data.draw(st.sampled_from(WRONG_VALUES[schema.types[key]]))


# One fault each that both loaders detect, with the same message.
_SCENARIO_FAULTS = {
    "box_outside": lambda doc, data: _some_instance(doc, data)["box"].__setitem__(2, 700),
    "box_inverted": lambda doc, data: _swap(_some_instance(doc, data)["box"], 0, 2),
    "face_box_inverted": lambda doc, data: _some_instance(doc, data).update(
        face_box=[50, 60, 40.0, 90]),
    "box_three_entries": lambda doc, data: _some_instance(doc, data)["box"].pop(),
    "box_entry_not_a_number": lambda doc, data: _some_instance(doc, data)["box"].__setitem__(
        data.draw(st.integers(0, 3)), data.draw(bad_json_numbers())),
    "depth_not_positive": lambda doc, data: _some_instance(doc, data).update(
        depth=data.draw(st.sampled_from([0, 0.0, -0.0, -1.5, math.nan, math.inf]))),
    "empty_id": lambda doc, data: _some_instance(doc, data).update(id=""),
    "empty_category": lambda doc, data: _some_instance(doc, data).update(category=""),
    "missing_field": lambda doc, data: _some_instance(doc, data).pop(
        data.draw(st.sampled_from(["id", "category", "box", "depth"]))),
    "duplicate_id": lambda doc, data: doc["cycles"][0]["instances"].append(
        dict(doc["cycles"][0]["instances"][0])),
    "index_gap": lambda doc, data: doc["cycles"][-1].update(index=len(doc["cycles"])),
    "index_negative": lambda doc, data: doc["cycles"][0].update(index=-1),
    "expected_without_cue": lambda doc, data: doc["cycles"][0].update(
        cue_onset=False, expected_instance="i0"),
    "unknown_regularity": lambda doc, data: doc.update(regularity="H9"),
    "response_out_of_range": lambda doc, data: doc["responses"].update(
        {str(len(doc["cycles"])): "TARGET: 1"}),
    "camera_not_finite": lambda doc, data: doc["camera"].update(
        {data.draw(st.sampled_from(["fx", "fy", "cx", "cy"])):
         data.draw(st.sampled_from([math.nan, math.inf, -math.inf, True]))}),
    "camera_size_not_int": lambda doc, data: doc["camera"].update(
        {data.draw(st.sampled_from(["width", "height"])):
         data.draw(st.sampled_from([math.nan, True, 640.0, 0, -480]))}),
    "unknown_key": lambda doc, data: data.draw(st.sampled_from(scenario_objects(doc)))[2].update(
        {data.draw(st.sampled_from(["dpeth", "face_bx", "respones"])): 1}),
    "mistyped_field": _mistype,
}


def _fields(scenario):
    """Every field of ``scenario``, with each number's repr, so types and signs count."""
    return (scenario.scenario_id, scenario.regularity, scenario.description, scenario.responses,
            scenario.camera, [list(row) for row in scenario.base_from_camera.rotation],
            list(scenario.base_from_camera.translation),
            [(repr(c.index), c.semantics, c.image_ref, repr(c.cue_onset), c.expected_instance,
              [(i.instance_id, i.category, repr(i.box), repr(i.depth), repr(i.face_box))
               for i in c.instances])
             for c in scenario.cycles])


@settings(max_examples=300, deadline=None)
@given(_scenario_docs(), st.sampled_from([None, *_SCENARIO_FAULTS]), st.data())
def test_scenario_loader_matches_per_record_oracle(doc, fault, data):
    if fault is not None:
        _SCENARIO_FAULTS[fault](doc, data)
        with pytest.raises(DataError) as shared:
            scenario_from_doc(doc, origin="s.json")
        with pytest.raises(DataError) as per_record:
            scenario_from_doc_per_record(doc, origin="s.json")
        assert str(shared.value) == str(per_record.value)
        return
    scenario = scenario_from_doc(doc)
    assert _fields(scenario) == _fields(scenario_from_doc_per_record(doc))
    # entries share one Instance exactly when their JSON texts are equal
    built = {}
    for cdoc, cycle in zip(doc["cycles"], scenario.cycles):
        shown = {inst.instance_id: inst for inst in cycle.instances}  # in mark order, not the file's
        for idoc in cdoc["instances"]:
            built.setdefault(json.dumps(idoc), set()).add(id(shown[idoc["id"]]))
    assert all(len(ids) == 1 for ids in built.values())
    assert len({next(iter(ids)) for ids in built.values()}) == len(built)


def test_a_record_equal_to_an_earlier_one_but_for_its_keys_is_refused():
    # each cycle of the demo scenario repeats the records of cycle 0, which
    # the loader checks once; a later copy must not pass on that memo.
    # scenario_to_doc lists c_mug, p_anna, t_ball: the mark order.
    for extra, reason in [
        ({"dpeth": 2.0}, "unknown cycles[2].instances[0] fields: ['dpeth']"),
        ({"face_bx": [110, 210, 150, 230]},
         "unknown cycles[2].instances[0] fields: ['face_bx']"),
        # null is no value of an optional key
        ({"face_box": None},
         "cycles[2].instances[0] field 'face_box' must be a list of finite numbers, got None"),
    ]:
        doc = scenario_to_doc(demo_scenario({}))
        assert "face_box" not in doc["cycles"][2]["instances"][0]  # c_mug
        doc["cycles"][2]["instances"][0].update(extra)
        with pytest.raises(DataError) as exc:
            scenario_from_doc(doc, origin="demo.json")
        assert str(exc.value) == f"demo.json: {reason}"
    doc = scenario_to_doc(demo_scenario({}))
    doc["cycles"][3]["instances"][1]["dpeth"] = 2.0  # p_anna, which has a face box
    with pytest.raises(DataError, match=r"^demo\.json: unknown cycles\[3\]\.instances\[1\] "
                                        r"fields: \['dpeth'\]$"):
        scenario_from_doc(doc, origin="demo.json")


_JSON_ENTRIES = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.floats(allow_nan=False),
                         bad_json_numbers(), st.sampled_from([[], [1.5], {}, {"a": 1}, "", "x"]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_JSON_ENTRIES, max_size=6), _JSON_ENTRIES))
@example([10 ** 400, -10 ** 400])  # ints beyond a float whose exact sum is 0
@example([1e308, 1e308, -1e308])  # finite entries whose float sum overflows
@example([1, True])
def test_box_lists_follow_finite_floats_rule(value):
    # the schema's "list of finite numbers" runs in C; finite_float, entry by entry, is its rule
    expected = isinstance(value, list) and None not in map(finite_float, value)
    assert config_mod._ACCEPTS["list[float]"][2](value) == expected


def test_bundled_corpus_builds_each_distinct_instance_once():
    entries = [inst for scenario in load_scenario_dir(BUNDLED)
               for cycle in scenario.cycles for inst in cycle.instances]
    assert len(entries) == 247
    assert len({id(inst) for inst in entries}) == 42


def test_scenario_validates_structure():
    with pytest.raises(ValueError, match="cue_onset"):
        make_cycle(0, "s", expected_instance="c_mug")
    with pytest.raises(ValueError, match="regularity"):
        Scenario("x", "H9", (make_cycle(0, "s"),), {}, demo_camera(), identity_transform())
    with pytest.raises(ValueError, match="duplicate"):
        make_cycle(0, "s", instances=(
            instance("same", "cup", (10.0, 10.0, 60.0, 60.0), 1.0),
            instance("same", "cup", (80.0, 10.0, 130.0, 60.0), 1.0),
        ))
    # an instance built directly checks every box against its camera's image
    with pytest.raises(ValueError, match=r"^instance far box exceeds the 640x480 image$"):
        instance("far", "cup", (600, 10, 700, 60), 1.0)
    with pytest.raises(ValueError, match=r"^instance p face box is empty or inverted$"):
        instance("p", "person", (300, 80, 420, 460), 2.0, face_box=(380, 100, 340, 150))


def test_shared_instance_out_of_the_image_fails_at_the_first_cycle_showing_it():
    doc = scenario_to_doc(demo_scenario({}))
    for cdoc in doc["cycles"][2:]:
        cdoc["instances"].append({"id": "far", "category": "cup", "box": [600, 10, 700, 60],
                                  "depth": 1.0})
    doc = json.loads(json.dumps(doc))
    for load in (scenario_from_doc, scenario_from_doc_per_record):
        with pytest.raises(DataError) as raised:
            load(doc, origin="s.json")
        assert str(raised.value) == "s.json: cycle 2 instance far box exceeds the 640x480 image"


def test_bundled_scenarios_load_and_carry_metadata():
    scenarios = load_scenario_dir(BUNDLED)
    assert len(scenarios) == 12
    groups = {s.regularity for s in scenarios}
    assert groups == {"H1", "H2", "H3", "H4"}
    assert all(s.has_evaluation_metadata() for s in scenarios)
    with pytest.raises(DataError, match="no scenario files"):
        load_scenario_dir(BUNDLED.parent / "reasoner")


def test_corpus_builder_reproduces_bundled_files(tmp_path):
    # `PYTHONPATH=src python tests/scenario_corpus.py <dir>` regenerates the bundle
    written = write_corpus(tmp_path)
    assert sorted(p.name for p in written) == sorted(p.name for p in BUNDLED.glob("*.json"))
    for path in written:
        assert path.read_bytes() == (BUNDLED / path.name).read_bytes(), path.name


# -- replay scoring --------------------------------------------------------------------------------

def test_replay_scripted_bundle_is_all_correct():
    scenarios = load_scenario_dir(BUNDLED)
    rows, results, excluded = replay_evaluate(scenarios, ScriptedBackend)
    assert excluded == []
    assert [(r.regularity, r.clips, r.correct) for r in rows] == [
        ("H1", 3, 3), ("H2", 3, 3), ("H3", 3, 3), ("H4", 3, 3)]
    assert all(r.success_rate == 100.0 for r in rows)


def test_replay_oracle_delays_bracket_the_window():
    scenarios = load_scenario_dir(BUNDLED)
    for delay, expect in ((1, True), (2, True), (3, False)):
        rows, results, _ = replay_evaluate(
            scenarios, lambda s, d=delay: OracleBackend(s, delay=d))
        assert all(r.correct is expect for r in results), delay
        rate = 100.0 if expect else 0.0
        assert all(row.success_rate == rate for row in rows), delay


def test_replay_held_records_do_not_count():
    # expected target emitted at cue onset, then held through the window:
    # the window sees only held re-emissions, so the clip must score wrong
    scenario = demo_scenario({0: "TARGET: 3", 1: "TARGET: 1", 2: "mumble",
                              3: "mumble"})
    result = replay_scenario(scenario, ScriptedBackend(scenario))
    assert result.records[1].target.instance_id == "c_mug"
    assert not result.records[1].held
    assert result.records[2].held and result.records[2].target is result.records[1].target
    assert not result.correct


def test_replay_correct_at_second_window_cycle():
    scenario = demo_scenario({0: "TARGET: 3", 1: "TARGET: 3", 2: "TARGET: 3",
                              3: "TARGET: 1"})
    result = replay_scenario(scenario, ScriptedBackend(scenario))
    assert result.correct  # cue at 1, hit at 3 = cue + 2
    late = demo_scenario({0: "TARGET: 3", 1: "TARGET: 3", 2: "TARGET: 3",
                          3: "TARGET: 3"})
    assert not replay_scenario(late, ScriptedBackend(late)).correct


def test_replay_excludes_unscoreable_scenarios():
    plain = Scenario("no_cue", "H2", (make_cycle(0, "s"),), {0: "TARGET: 1"}, demo_camera(),
                     identity_transform())
    with pytest.warns(UserWarning, match="no_cue"):
        rows, results, excluded = replay_evaluate([plain], ScriptedBackend)
    assert excluded == ["no_cue"] and results == [] and rows == []


def test_replay_writes_cycle_log(tmp_path):
    scenario = demo_scenario({0: "TARGET: 1", 1: "TARGET: 2", 2: "TARGET: 1",
                              3: "TARGET: 1"})
    log = tmp_path / "cycles.jsonl"
    replay_evaluate([scenario], ScriptedBackend, log_path=log)
    lines = log.read_text().splitlines()
    assert len(lines) == 4
    docs = [json.loads(line) for line in lines]
    assert [d["cycle"] for d in docs] == [0, 1, 2, 3]
    assert docs[0]["instance"] == "c_mug"
    assert all("elapsed_s" in d for d in docs)


def _dumped_lines(text: str) -> list:
    """The lines of a cycle log, each checked to be what ``json.dumps`` writes for it."""
    lines = text.splitlines(keepends=True)
    for line in lines:
        assert line == json.dumps(json.loads(line)) + "\n", line
    return lines


def test_cycle_log_lines_are_what_json_dumps_writes(tmp_path):
    # the bundled files through the loader, and the builder's documents read in memory
    for name, scenarios in (("bundled", load_scenario_dir(BUNDLED)), ("built", build_corpus())):
        log = tmp_path / f"{name}.jsonl"
        replay_evaluate(scenarios, ScriptedBackend, log_path=log)
        lines = _dumped_lines(log.read_text(encoding="utf-8"))
        assert len(lines) == sum(len(s.cycles) for s in scenarios) == 70


_LOG_TEXT = st.text(st.sampled_from('ab"\\/\n\u00e9\u4e2d\U0001f600'), max_size=5)
# Placed with the demo camera, an instance centred on its column cx and below its row cy
# lands at base-frame x = 0.0 under one of these half turns and at x = -0.0 under the
# other: two points that compare equal but are distinct JSON texts.
_HALF_TURN = ((-1.0, -0.0, -0.0), (-0.0, -1.0, -0.0), (0.0, 0.0, 1.0))
_SIGNED_ZERO_TRANSFORMS = (RigidTransform(_HALF_TURN, (0.0, 0.0, 0.0)),
                           RigidTransform(_HALF_TURN, (-0.0, -0.0, -0.0)))
_ON_AXIS_BOX = (300, 250, 340, 300)
_ZERO_TWINS = tuple(instance("c", "cup", _ON_AXIS_BOX, 2.0, base_from_camera=transform)
                    for transform in _SIGNED_ZERO_TRANSFORMS)


@st.composite
def _log_boxes(draw):
    left, right = sorted(draw(st.lists(st.integers(0, 640), min_size=2, max_size=2,
                                       unique=True)))
    top, bottom = sorted(draw(st.lists(st.integers(0, 480), min_size=2, max_size=2,
                                       unique=True)))
    return (left, top, right, bottom)


_LOG_PLACEMENTS = st.tuples(st.just(demo_camera()) | _CAMERAS,
                            st.sampled_from(_SIGNED_ZERO_TRANSFORMS) | _TRANSFORMS)


@st.composite
def _log_records(draw):
    """Records over a few real instances, as a mark, held or rest record; marks may be None.

    Each instance comes with a twin, a distinct Instance built from the same values and
    so equal to it, placed with the same or another camera and transform."""
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        box = draw(st.just(_ON_AXIS_BOX) | _log_boxes())
        values = (draw(_LOG_TEXT.filter(bool)), draw(st.just("person") | _LOG_TEXT.filter(bool)),
                  box, draw(st.floats(0.1, 10.0)), draw(st.none() | st.just(box)))
        for camera, transform in (draw(_LOG_PLACEMENTS), draw(_LOG_PLACEMENTS)):
            targets.append(Instance(*values, camera=camera, base_from_camera=transform))
    records = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 5)) == 0:
            records.append(REST_RECORD)
            continue
        records.append(GazeTargetRecord(mark=draw(st.none() | st.integers(1, 10 ** 6)),
                                        target=draw(st.sampled_from(targets)),
                                        held=draw(st.booleans())))
    return records


@settings(max_examples=300, deadline=None)
@given(_LOG_TEXT, _log_records())
@example("s", [GazeTargetRecord(1, twin) for twin in _ZERO_TWINS] + [REST_RECORD])
def test_cycle_log_line_is_json_dumps_of_its_record(scenario_id, records):
    # Each target's text is encoded once and reused: a reused text must still be
    # exactly the record's, down to the sign of every zero, and an instance equal
    # to another, but placed elsewhere, gets its own text.
    scenario = Scenario(scenario_id, "H1", tuple(make_cycle(t, "s") for t in range(len(records))),
                        {}, demo_camera(), identity_transform())
    log, steps = io.StringIO(), iter(records)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay_mod, "step_cycle", lambda cycle, buffer, backend: next(steps))
        replay_scenario(scenario, None, log_fh=log)
    lines = _dumped_lines(log.getvalue())
    assert len(lines) == len(records)
    for t, (line, r) in enumerate(zip(lines, records)):
        target, rest = r.target, r.target is None
        assert line == json.dumps({
            "scenario": scenario_id, "cycle": t, "mark": r.mark,
            "instance": None if rest else target.instance_id,
            "category": None if rest else target.category,
            "point_2d": None if rest else target.point_2d,
            "point_3d": REST_POINT if rest else target.point_3d,
            "held": r.held, "face_fallback": not rest and target.face_fallback,
            "elapsed_s": json.loads(line)["elapsed_s"]}) + "\n"


def test_signed_zero_twins_are_equal_instances_at_distinct_points():
    # what the log test's example relies on
    first, second = _ZERO_TWINS
    assert first == second and first is not second
    assert first.point_3d == second.point_3d
    assert [math.copysign(1.0, twin.point_3d[0]) for twin in _ZERO_TWINS] == [1.0, -1.0]


class _FakeClock:
    """A monotonic clock that moves only when something advances it."""

    def __init__(self):
        self.now = 0.0

    def monotonic(self):
        return self.now

    def advancing(self, seconds, call):
        def advanced(*args, **kwargs):
            self.now += seconds
            return call(*args, **kwargs)
        return advanced


def test_cycle_log_elapsed_s_is_the_step_cycle_time_alone():
    # step_cycle takes 0.25 s on the fake clock; encoding the line's target, on its
    # first sighting and after, takes 1 s more, which elapsed_s must not count
    scenario = demo_scenario({0: "TARGET: 1", 1: "TARGET: 2", 2: "TARGET: 1",
                              3: "TARGET: 1"})
    clock, log = _FakeClock(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(replay_mod, "time", clock)
        patch.setattr(replay_mod, "step_cycle", clock.advancing(0.25, step_cycle))
        patch.setattr(replay_mod.json, "dumps", clock.advancing(1.0, replay_mod.json.dumps))
        replay_scenario(scenario, ScriptedBackend(scenario), log_fh=log)
    assert [json.loads(line)["elapsed_s"] for line in _dumped_lines(log.getvalue())] == [0.25] * 4


def test_cycle_log_failing_midway_keeps_previous_file(tmp_path):
    scenario = demo_scenario({0: "TARGET: 1", 1: "TARGET: 2", 2: "TARGET: 1",
                              3: "TARGET: 1"})
    log = tmp_path / "cycles.jsonl"
    replay_evaluate([scenario], ScriptedBackend, log_path=log)
    before = log.read_bytes()

    def failing_factory(s):
        if s is not scenario:
            raise RuntimeError("killed")
        return ScriptedBackend(s)

    # the first scenario logs its four cycles before the second one fails
    with pytest.raises(RuntimeError):
        replay_evaluate([scenario, demo_scenario({})], failing_factory, log_path=log)
    assert log.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cycles.jsonl"]


def test_success_table_failing_midway_keeps_previous_file(tmp_path):
    path = tmp_path / "table.csv"
    write_success_table([GroupRow("H1", 3, 3)], path)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        write_success_table([GroupRow("H1", 3, 2), object()], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_success_table_format(tmp_path):
    rows = [GroupRow("H1", 3, 3), GroupRow("H2", 3, 1)]
    path = tmp_path / "table.csv"
    write_success_table(rows, path)
    assert path.read_text() == (
        "regularity,clips,correct,success_rate\n"
        "H1,3,3,100.0\n"
        "H2,3,1,33.3\n"
    )
