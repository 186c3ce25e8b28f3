"""Hand-worked cases for the benchmark's oracles.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import math

import numpy as np
import pytest

import oracles

DEG = math.pi / 180.0


def test_yaw_turns_forward_axis_left():
    assert np.allclose(oracles.rotation(90 * DEG, 0.0) @ [1, 0, 0], [0, 1, 0])


def test_positive_pitch_tips_forward_axis_down():
    assert np.allclose(oracles.rotation(0.0, 90 * DEG) @ [1, 0, 0], [0, 0, -1])


def test_roll_turns_left_axis_up():
    assert np.allclose(oracles.rotation(0.0, 0.0, 90 * DEG) @ [0, 1, 0], [0, 0, 1])


def test_zyx_order_yaw_applied_last():
    # Rz(90) Ry(90): x -> (0, 0, -1) stays on z; y is untouched by Ry, then turns to -x.
    R = oracles.rotation(90 * DEG, 90 * DEG)
    assert np.allclose(R @ [1, 0, 0], [0, 0, -1])
    assert np.allclose(R @ [0, 1, 0], [-1, 0, 0])


@pytest.mark.parametrize("a, b, want", [
    (0.0, 30.0, 30.0), (-20.0, 45.0, 65.0), (170.0, -170.0, 20.0), (0.0, 180.0, 180.0),
])
def test_geodesic_between_yaws(a, b, want):
    got = oracles.geodesic(oracles.rotation(a * DEG, 0.0), oracles.rotation(b * DEG, 0.0))
    assert got == pytest.approx(want * DEG, abs=1e-7)


def test_geodesic_of_identical_rotations_is_zero_not_nan():
    R = oracles.rotation(0.3, -0.2, 0.1)
    assert oracles.geodesic(R, R) == pytest.approx(0.0, abs=1e-7)


def test_gaze_ray_adds_eye_and_head_yaw():
    ray = oracles.gaze_ray(30 * DEG, 0.0, 20 * DEG, 0.0, 0.0)
    assert np.allclose(ray, [math.cos(50 * DEG), math.sin(50 * DEG), 0.0])
    assert oracles.angle_between(ray, np.array([1.0, 0.0, 0.0])) == pytest.approx(50 * DEG)


def test_pose_errors_compare_target_poses():
    C = np.array([[0.1, 0.0, 0.2, 0.0, 0.0, 1.0, 0.0, 0.0]])
    Y = np.array([[0.1, 0.0, 0.3, 0.0, 0.0]])
    pred = np.array([[0.1 + 2 * DEG, 0.0, 0.3 - 5 * DEG, 0.0, 0.0]])
    eye, head = oracles.pose_errors_deg(C, pred, Y)
    assert eye[0] == pytest.approx(2.0) and head[0] == pytest.approx(5.0)


def _entry(rows):
    arr = np.array(rows, dtype=float)
    return {"shape": list(arr.shape), "data": arr.ravel().tolist()}


def _tiny_stage1(path):
    # Widths H=1, D=1, K=2: f_y = relu(y0), f_c = relu(target_x / 2),
    # z = f_y + f_c, codes at 0 and 2, h = z_q + 0.5, output relu(h) * [1..5].
    onehot = [[0.0]] * 8
    onehot[5] = [1.0]
    params = {
        "recon_encoder.0.W": [[1.0], [0.0], [0.0], [0.0], [0.0]], "recon_encoder.0.b": [0.0],
        "recon_encoder.1.W": [[1.0]], "recon_encoder.1.b": [0.0],
        "cond_encoder.0.W": onehot, "cond_encoder.0.b": [0.0],
        "cond_encoder.1.W": [[1.0]], "cond_encoder.1.b": [0.0],
        "fusion_in.0.W": [[1.0], [1.0]], "fusion_in.0.b": [0.0],
        "codebook": [[0.0], [2.0]],
        "fusion_out.0.W": [[1.0], [0.0]], "fusion_out.0.b": [0.5],
        "decoder.0.W": [[1.0]], "decoder.0.b": [0.0],
        "decoder.1.W": [[1.0]], "decoder.1.b": [0.0],
        "decoder.2.W": [[1.0, 2.0, 3.0, 4.0, 5.0]], "decoder.2.b": [0.0] * 5,
    }
    doc = {"params": {k: _entry(v) for k, v in params.items()},
           "metadata": {"model": {"target_scale": 2.0}, "best": {}}}
    path.write_text(json.dumps(doc))
    return oracles.VQVAEOracle(path)


def test_vqvae_forward_by_hand(tmp_path):
    vq = _tiny_stage1(tmp_path / "stage1.json")
    Y = np.array([[0.6, 9, 9, 9, 9], [0.5, 0, 0, 0, 0], [-3.0, 0, 0, 0, 0]])
    C = np.zeros((3, 8))
    C[:, 5] = [1.0, 1.0, 1.0]
    # z = 1.1 -> code 1; z = 1.0 ties between the codes -> smallest index 0; z = 0.5 -> 0.
    assert vq.encode(Y, C)[:, 0] == pytest.approx([1.1, 1.0, 0.5])
    assert vq.codes(Y, C).tolist() == [1, 0, 0]
    out = vq.decode(vq.codebook[vq.codes(Y, C)], C)
    assert out[0] == pytest.approx([2.5, 5.0, 7.5, 10.0, 12.5])
    assert out[1] == pytest.approx([0.5, 1.0, 1.5, 2.0, 2.5])


def test_prior_softmax_by_hand(tmp_path):
    # logits = [0, log 3] whatever the condition -> pi = [1/4, 3/4].
    params = {"0.W": [[0.0]] * 8, "0.b": [1.0], "1.W": [[1.0]], "1.b": [0.0],
              "2.W": [[0.0, math.log(3.0)]], "2.b": [0.0, 0.0]}
    path = tmp_path / "prior.json"
    path.write_text(json.dumps({"params": {k: _entry(v) for k, v in params.items()},
                                "metadata": {"model": {"target_scale": 2.0}, "best": {}}}))
    pi = oracles.PriorOracle(path).pi(np.ones((2, 8)))
    assert pi == pytest.approx(np.array([[0.25, 0.75], [0.25, 0.75]]))


def test_tv_bound_value():
    want = math.sqrt((10 * math.log(2) + 9 * math.log(10)) / 40000)
    assert oracles.tv_bound(20000, 10) == pytest.approx(want)
    assert 0.026 < want < 0.027


def test_marks_sort_by_category_then_left_edge_then_id():
    instances = [
        {"id": "b", "category": "person", "box": [50, 0, 90, 90]},
        {"id": "a", "category": "person", "box": [50, 0, 80, 80]},
        {"id": "z", "category": "cup", "box": [300, 0, 320, 20]},
        {"id": "c", "category": "person", "box": [10, 0, 40, 40]},
    ]
    got = {m: inst["id"] for m, inst in oracles.marks(instances).items()}
    assert got == {1: "z", 2: "c", 3: "a", 4: "b"}
    assert oracles.mark_of(instances, "b") == 4


CAMERA = {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0}
# camera z -> base x, camera x -> base -y, camera y -> base -z, raised 1 m.
TRANSFORM = {"rotation": [[0, 0, 1], [-1, 0, 0], [0, -1, 0]], "translation": [0, 0, 1]}


def test_back_projection_of_an_object():
    inst = {"id": "cup1", "category": "cup", "box": [400, 200, 440, 280], "depth": 2.0}
    point_2d, point_3d, fallback = oracles.localize(inst, CAMERA, TRANSFORM)
    # pixel (420, 240) at 2 m: camera (0.4, 0, 2) -> base (2, -0.4, 1).
    assert point_2d == (420.0, 240.0)
    assert point_3d == pytest.approx([2.0, -0.4, 1.0])
    assert fallback is False


def test_person_uses_face_box_or_falls_back_to_body():
    face = {"id": "p", "category": "person", "box": [220, 40, 420, 440], "depth": 1.0,
            "face_box": [300, 90, 340, 190]}
    _, point_3d, fallback = oracles.localize(face, CAMERA, TRANSFORM)
    # face center (320, 140): camera (0, -0.2, 1) -> base (1, 0, 1.2).
    assert point_3d == pytest.approx([1.0, 0.0, 1.2]) and fallback is False
    body = dict(face)
    del body["face_box"]
    _, point_3d, fallback = oracles.localize(body, CAMERA, TRANSFORM)
    # body center (320, 240): camera (0, 0, 1) -> base (1, 0, 1).
    assert point_3d == pytest.approx([1.0, 0.0, 1.0]) and fallback is True
