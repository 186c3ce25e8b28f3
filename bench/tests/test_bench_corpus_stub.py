"""The corpus generator's expectations and the loopback stub's request checks.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import http.client
import json
import subprocess
import sys
from pathlib import Path

import corpus
import stub

STUB = Path(__file__).resolve().parent.parent / "stub.py"


def test_corpus_size_and_schema(tmp_path):
    c = corpus.write_corpus(tmp_path, seed=7, n_scenarios=8, keep_prompts=True)
    assert c.stats["cycles"] == 8 * (corpus.MIN_CYCLES + corpus.MAX_CYCLES) // 2
    files = sorted(tmp_path.glob("*.json"))
    assert len(files) == 8
    doc = json.loads(files[0].read_text())
    assert doc["schema"] == "gazeshift-scenario" and doc["version"] == 1
    cues = [cyc for cyc in doc["cycles"] if cyc.get("cue_onset")]
    assert len(cues) == 1
    assert cues[0]["expected_instance"] in {i["id"] for i in cues[0]["instances"]}
    for cyc in doc["cycles"]:
        assert 0 <= len(cyc["instances"]) <= corpus.POOL_SIZE
        # Every non-empty cycle has a canned answer; empty scenes are never queried.
        assert (str(cyc["index"]) in doc["responses"]) == bool(cyc["instances"])
    assert sum(g[0] for g in c.groups.values()) == 8
    assert len(c.prompts) == c.stats["queried"]


def test_same_seed_same_corpus(tmp_path):
    corpus.write_corpus(tmp_path / "a", seed=3, n_scenarios=4, keep_prompts=False)
    corpus.write_corpus(tmp_path / "b", seed=3, n_scenarios=4, keep_prompts=False)
    for fa in sorted((tmp_path / "a").glob("*.json")):
        assert fa.read_bytes() == (tmp_path / "b" / fa.name).read_bytes()


def test_held_records_repeat_the_previous_target(tmp_path):
    c = corpus.write_corpus(tmp_path, seed=11, n_scenarios=20, keep_prompts=False)
    held = 0
    for records in c.records.values():
        prev = corpus.REST
        for rec in records:
            if rec["held"]:
                held += 1
                assert (rec["instance"], rec["mark"], rec["point_3d"]) == \
                    (prev["instance"], prev["mark"], prev["point_3d"])
            prev = rec
    assert held == c.stats["empty"] + c.stats["bad_answers"]


def _write_log(c, path, table, tamper=None):
    with open(path, "w") as fh:
        for sid, records in c.records.items():
            for t, rec in enumerate(records):
                line = {"scenario": sid, "cycle": t, "mark": rec["mark"],
                        "instance": rec["instance"], "held": rec["held"],
                        "face_fallback": rec["face_fallback"],
                        "point_3d": list(rec["point_3d"])}
                if tamper is not None and (sid, t) == tamper:
                    line["point_3d"][0] += 1e-3
                fh.write(json.dumps(line) + "\n")
    rows = ["regularity,clips,correct,success_rate"]
    rows += [f"{g},{n},{k},0.0" for g, (n, k) in sorted(c.groups.items())]
    Path(table).write_text("\n".join(rows) + "\n")


def test_check_log_accepts_expected_and_flags_a_moved_point(tmp_path):
    c = corpus.write_corpus(tmp_path / "s", seed=5, n_scenarios=4, keep_prompts=False)
    log, table = tmp_path / "cycles.jsonl", tmp_path / "table.csv"
    _write_log(c, log, table)
    assert corpus.check_log(c, log, table) == []
    _write_log(c, log, table, tamper=("s0001", 2))
    problems = corpus.check_log(c, log, table)
    assert len(problems) == 1 and "s0001 cycle 2: point_3d" in problems[0]


def _prompt(candidates, history):
    lines = [stub.INSTRUCTIONS, "", "Candidates:"]
    lines += [f"  [{m}] {cat} (id {iid}, box 1,2,3,4, depth 1.00 m)" for m, cat, iid in candidates]
    lines += ["", "Current scene:", "  something"]
    if history:
        lines += ["", f"History (last {history} cycles):"]
        lines += [f"  cycle {i}: x -> gaze: rest position" for i in range(history)]
    return "\n".join(lines)


def _body(prompt, image_ref, **overrides):
    doc = {"model": "m", "max_tokens": 64, "temperature": 0,
           "messages": [{"role": "user", "content": [
               {"type": "text", "text": prompt},
               {"type": "image_url", "image_url": {"url": image_ref}}]}]}
    doc.update(overrides)
    return json.dumps(doc).encode()


EXPECT = {"f/c03.png": {"answer": "TARGET: 2",
                        "candidates": [[1, "cup", "cup4"], [2, "person", "person0"]],
                        "history": 3}}
AUTH = {"authorization": "Bearer tok"}


def test_stub_accepts_a_matching_request():
    body = _body(_prompt(EXPECT["f/c03.png"]["candidates"], 3), "f/c03.png")
    assert stub.check_request(AUTH, body, EXPECT, "tok", "m", 64) == \
        ("f/c03.png", "TARGET: 2", None)


def test_stub_rejects_each_deviation():
    good = _prompt(EXPECT["f/c03.png"]["candidates"], 3)
    cases = [
        ({"authorization": "Bearer other"}, _body(good, "f/c03.png")),
        (AUTH, _body(good, "f/c03.png", model="x")),
        (AUTH, _body(good, "f/c03.png", temperature=0.7)),
        (AUTH, _body(good, "f/c03.png", max_tokens=10)),
        (AUTH, _body(good.replace("robot", "android", 1), "f/c03.png")),
        (AUTH, _body(_prompt([[1, "person", "person0"], [2, "cup", "cup4"]], 3), "f/c03.png")),
        (AUTH, _body(_prompt(EXPECT["f/c03.png"]["candidates"], 2), "f/c03.png")),
        (AUTH, _body(good, "f/c99.png")),
    ]
    for headers, body in cases:
        ref, answer, reason = stub.check_request(headers, body, EXPECT, "tok", "m", 64)
        assert answer is None and reason


def test_stub_serves_keep_alive_and_reports_counts(tmp_path):
    path = tmp_path / "expect.json"
    path.write_text(json.dumps(EXPECT))
    proc = subprocess.Popen([sys.executable, str(STUB), str(path), "tok", "m", "64"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        port = int(proc.stdout.readline().split()[1])
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        body = _body(_prompt(EXPECT["f/c03.png"]["candidates"], 3), "f/c03.png")
        for _ in range(2):
            conn.request("POST", stub.PATH, body=body, headers={"Authorization": "Bearer tok"})
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            assert resp.status == 200
            assert doc["choices"][0]["message"]["content"] == "TARGET: 2"
        conn.close()
        proc.stdin.close()
        stats = json.loads(proc.stdout.read().strip().splitlines()[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
    assert stats["connections"] == 1
    assert stats["requests"] == 2 and stats["rejected"] == 0
    assert stats["served_histogram"] == {"2": 1}
