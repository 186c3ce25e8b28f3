"""Rerun README's seed-0 walkthrough and a bundled replay; check their artifacts' SHA-256.

    python tools/seed0_hashes.py [DIR]

Runs ``gen-data``, ``train``, ``eval`` and ``sample --n 1000 --mode sample
--eye 0,0 --head 0,0,0 --target 1.5,0.8,0.2`` at the shipped defaults and
seed 0, then ``replay`` on the bundled scenarios with the ``scripted``,
``oracle`` and ``adversarial`` backends, through ``gazeshift.cli.main``, with
one BLAS thread, in a temporary directory (or under ``DIR``, which is kept).
It also reruns ``train --stage 2`` on a copy of the trained run without its
``prior.json``, and each replay a second time in the same process, into
``<replay>-again``. Last it replays the bundled scenarios once more with the
scripted backend, in process, through a backend that records every prompt
it is sent, and writes those prompts in order, one JSON string a line, to
``replay-prompts/prompts.jsonl``: where ``tests/data/prompt_first_cycle.txt``
pins one synthetic first cycle, this pins every bundled prompt, its
previous-gaze and history sections included. It prints each artifact's
SHA-256 and exits 1 if any
differs from ``EXPECTED``, if the ``--stage 2`` run's ``prior.json`` or
``metrics.csv`` hashes other than the ``train`` run's (README: ``--stage 1``
followed by ``--stage 2`` writes the same files as ``--stage both``; what a
network keeps from one run must not reach the next in the same process), or
if a second replay's ``cycles.jsonl`` or ``success_table.csv`` hashes other
than the first's: what a scenario's instances keep from one replay must not
reach the next. Last it prints each training stage's summed step, optimizer
and validation seconds from ``timings.jsonl``, which nothing checks. Each
replay's ``cycles.jsonl`` is hashed with each record's wall-clock
``elapsed_s`` removed, after re-encoding, so the hash cannot see how a line
is spelled: the script also exits 1 if any line as written differs from
``json.dumps`` of its own record, if a link between
artifacts is broken (``stage1.json``'s ``dataset_hash`` must be the SHA-256
of ``dataset.jsonl``, and ``prior.json``'s ``stage1_sha256`` that of
``stage1.json``), if a manifest does not record the ``subcommand`` and
``argv`` of the ``main`` call that wrote it, or if a manifest names an input
by another digest: the replay's ``inputs`` must map each bundled scenario
file to the SHA-256 of its bytes, and the ``--stage 2`` run's must name its
``stage1.json`` with that file's SHA-256. Every ``RuntimeWarning`` is an
error from the first command on, so an overflow or an invalid value anywhere
in the walkthrough fails the run instead of printing a line nothing reads.

It first prints the platform it runs on: numpy's version, the OpenBLAS core
numpy's bundled library runs (``SkylakeX``, ``Haswell``, ...) and numpy's
enabled SIMD targets. The model-path bytes depend on that platform, not
only on the code: another BLAS kernel or other SIMD loops round some
products and ``exp``/``log`` calls differently, and the dataset, the
trained weights and every report after them move. So this is not a Tier-1
test. ``EXPECTED`` is the one record of these bytes, measured on
``EXPECTED_PLATFORM``; where a hash moves on another platform, the script
says that the expected values belong to that platform. A change that moves
an artifact on purpose updates both here.
"""

import os

# Before numpy loads: a multithreaded BLAS may sum in another order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import ctypes
import hashlib
import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import gazeshift  # noqa: E402
from gazeshift.cli import main  # noqa: E402
from gazeshift.reasoner.replay import ScriptedBackend, replay_evaluate  # noqa: E402
from gazeshift.reasoner.scenario import load_scenario_dir  # noqa: E402

# The platform EXPECTED was measured on, as ``platform_line`` prints it.
EXPECTED_PLATFORM = ("numpy 2.4.6, OpenBLAS core SkylakeX, "
                     "SIMD X86_V2 X86_V3 X86_V4 AVX512_ICL AVX512_SPR")

EXPECTED = {
    "data/dataset.jsonl": "a3bf48b258413f4906c048384a449dc215942c271a26dcc46b42343788e946a7",
    "model/metrics.csv": "10d729c6674fd98c4bd1f79438a22d972f7e8c397688711c257589fd2631eca2",
    "model/stage1.json": "cce19123df0d8316f74487ad51d79f70a3b62c51a936826b75115b9bc5b8638f",
    "model/prior.json": "4ee0deee7b5817886d4f0e68fdc794f15854e6d79b9771c0d381edf595adf1d4",
    "eval/eval.json": "43562962e693ce299df59e9f14ed7f92db5de757d9f852092e85ab07651dedbe",
    "sample/samples.json": "4adb135587ed54db27544a5868193e4604e76eb8d9ea4c8be5a4152aa0a6527c",
    "replay/success_table.csv": "c8141e38ce61bf269f4e7431afd05a6d42f314c109ec6479b0d9ce4db499dab3",
    "replay/cycles.jsonl": "f86c54cb3fb1dde95f47a5340f14044928acad36825208fb704389ca12d7ae71",
    "replay-oracle/success_table.csv":
        "c8141e38ce61bf269f4e7431afd05a6d42f314c109ec6479b0d9ce4db499dab3",
    "replay-oracle/cycles.jsonl":
        "9ea35996566367063c677f4ff6a741f13240218ddb1181789d1f00840494a1fc",
    "replay-adversarial/success_table.csv":
        "bf5b571f20be86410a3418789feddd1f9e2fe1dfac2df801316265b841f231f3",
    "replay-adversarial/cycles.jsonl":
        "e28441c36e5ff2b9ef9698e339a9768dc6d3c7ca821e88cf3e791f3ef826b6b0",
    "replay-prompts/prompts.jsonl":
        "958fa8046ea12c69f03f4b75cef3e7074e694b5543e930c73dbb486b25f95c2d",
}

REPLAYS = ("replay", "replay-oracle", "replay-adversarial")
REPLAY_OUTPUTS = ("cycles.jsonl", "success_table.csv")
STAGE2_OUTPUTS = ("prior.json", "metrics.csv")  # what ``--stage 2`` writes as ``--stage both`` does
PHASES = ("step_s", "optimizer_s", "validation_s")  # the timed phases of a training epoch
BUNDLED = Path(gazeshift.__file__).parent / "scenarios"
PROMPTS = "replay-prompts/prompts.jsonl"


def platform_line() -> str:
    """numpy's version, the OpenBLAS core it runs and its enabled SIMD targets, as one line.

    The core is what ``scipy_openblas_get_corename64_`` in numpy's bundled
    OpenBLAS returns, "unknown" where no bundled library has that symbol.
    The targets are numpy's baseline and dispatch targets that run on this
    CPU, as ``NPY_DISABLE_CPU_FEATURES`` leaves them.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    core = "unknown"
    for library in sorted(Path(np.__file__).resolve().parents[1].glob("numpy.libs/*openblas*")):
        try:
            corename = ctypes.CDLL(str(library)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode("ascii", "replace")
        break
    targets = [target for target in (*umath.__cpu_baseline__, *umath.__cpu_dispatch__)
               if umath.__cpu_features__.get(target)]
    return f"numpy {np.__version__}, OpenBLAS core {core}, SIMD {' '.join(targets)}"


def commands(root: Path) -> list:
    """The argv of each ``main`` call of the walkthrough under ``root``, in order:
    README's four model commands, a ``train --stage 2`` and two replays with each
    offline backend. Each ends in its ``--out``, a directory of its own."""
    dataset = str(root / "data" / "dataset.jsonl")
    calls = [
        ["gen-data", "--seed", "0", "--out", str(root / "data")],
        ["train", "--dataset", dataset, "--seed", "0", "--out", str(root / "model")],
        # stage 2 alone, on a copy of the run that stage 1 wrote into, without its prior
        ["train", "--dataset", dataset, "--seed", "0", "--stage", "2",
         "--out", str(root / "stage2")],
        ["eval", "--dataset", dataset, "--run", str(root / "model"), "--out", str(root / "eval")],
        ["sample", "--run", str(root / "model"), "--n", "1000", "--mode", "sample",
         "--eye", "0,0", "--head", "0,0,0", "--target", "1.5,0.8,0.2",
         "--out", str(root / "sample")],
        ["replay", "--backend", "scripted", "--out", str(root / "replay")],
        ["replay", "--backend", "oracle", "--out", str(root / "replay-oracle")],
        ["replay", "--backend", "adversarial", "--out", str(root / "replay-adversarial")],
    ]
    return calls + [[*argv[:-1], f"{argv[-1]}-again"] for argv in calls if argv[0] == "replay"]


class RecordingBackend(ScriptedBackend):
    """The scripted backend, keeping every prompt it is sent in ``prompts``."""

    def __init__(self, scenario, prompts: list):
        super().__init__(scenario)
        self.prompts = prompts

    def query(self, prompt, image_ref, cycle_index):
        self.prompts.append(prompt)
        return super().query(prompt, image_ref, cycle_index)


def write_prompts(path: Path) -> None:
    """Replay the bundled scenarios with the scripted backend, in process, and write
    every prompt it was sent to ``path``, in order, one JSON string a line."""
    prompts = []
    replay_evaluate(load_scenario_dir(BUNDLED), lambda s: RecordingBackend(s, prompts))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(prompt) + "\n" for prompt in prompts), encoding="utf-8")


def walkthrough(root: Path) -> None:
    """Run ``commands(root)``, then ``write_prompts``; raises on a non-zero exit or a
    ``RuntimeWarning``."""
    warnings.simplefilter("error", RuntimeWarning)
    for argv in commands(root):
        if "--stage" in argv:
            shutil.copytree(root / "model", root / "stage2")
            (root / "stage2" / "prior.json").unlink()
        with contextlib.redirect_stdout(sys.stderr):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"gazeshift {argv[0]} exited {code}")
    write_prompts(root / PROMPTS)


def _content(path: Path) -> bytes:
    """The file's bytes; for ``cycles.jsonl``, its records re-encoded without ``elapsed_s``."""
    if path.name != "cycles.jsonl":
        return path.read_bytes()
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return "".join(json.dumps({k: v for k, v in rec.items() if k != "elapsed_s"}) + "\n"
                   for rec in records).encode("utf-8")


def respelled_lines(path: Path) -> list:
    """Numbers of the lines of a cycle log that differ from ``json.dumps`` of their record."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [n for n, line in enumerate(lines, 1) if line != json.dumps(json.loads(line))]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def broken_links(root: Path) -> list:
    """Each link whose recorded SHA-256 is not that of the file it names, as text."""
    stage1 = json.loads((root / "model" / "stage1.json").read_text(encoding="utf-8"))
    prior = json.loads((root / "model" / "prior.json").read_text(encoding="utf-8"))
    links = [("model/stage1.json metadata.dataset_hash", stage1["metadata"].get("dataset_hash"),
              "data/dataset.jsonl"),
             ("model/prior.json metadata.model.stage1_sha256",
              prior["metadata"]["model"].get("stage1_sha256"), "model/stage1.json")]
    return [f"{where} is {recorded!r}, not the SHA-256 of {name}"
            for where, recorded, name in links
            if recorded != _sha256(root / name)]


def manifest_faults(root: Path) -> list:
    """Each manifest of the walkthrough that does not record the ``subcommand`` and
    ``argv`` of the ``main`` call that wrote it, and each manifest input, of the
    replay and of the ``--stage 2`` run, that is missing or recorded with another
    digest than its file's, as text."""
    faults, manifests = [], {}
    for argv in commands(root):
        directory = Path(argv[-1]).name
        manifests[directory] = manifest = json.loads(
            (root / directory / "manifest.json").read_text(encoding="utf-8"))
        if (manifest["subcommand"], manifest["argv"]) != (argv[0], argv):
            faults.append(f"{directory}/manifest.json records {manifest['subcommand']!r} "
                          f"{manifest['argv']}, not the call {argv} that wrote it")
    bundled = sorted(BUNDLED.glob("*.json"))
    stage1 = root / "stage2" / "stage1.json"
    for directory, expected in (("replay", {str(p): _sha256(p) for p in bundled}),
                                ("stage2", {str(stage1): _sha256(stage1)})):
        inputs = manifests[directory]["inputs"]
        if directory == "replay" and inputs.keys() != expected.keys():
            faults.append(f"{directory}/manifest.json inputs name {sorted(inputs)}, "
                          f"not the {len(bundled)} bundled scenario files")
        faults += [f"{directory}/manifest.json records {path} as {inputs.get(path)!r}, "
                   f"not its SHA-256 {digest}"
                   for path, digest in expected.items() if inputs.get(path) != digest]
    return faults


def rerun_differences(root: Path) -> list:
    """Each output of a second replay whose content hashes other than the first's, as text."""
    differences = []
    for replay in REPLAYS:
        for name in REPLAY_OUTPUTS:
            first, again = (hashlib.sha256(_content(root / directory / name)).hexdigest()
                            for directory in (replay, f"{replay}-again"))
            if again != first:
                differences.append(f"{replay}-again/{name} is {again}, not {first} as in "
                                   f"{replay}/{name}")
    return differences


def stage2_differences(root: Path) -> list:
    """Each output of the ``--stage 2`` run whose SHA-256 is not that of the ``train`` run's,
    as text."""
    differences = []
    for name in STAGE2_OUTPUTS:
        first, again = (_sha256(root / directory / name) for directory in ("model", "stage2"))
        if again != first:
            differences.append(f"stage2/{name} is {again}, not {first} as in model/{name}")
    return differences


def check(root: Path) -> int:
    """Print the platform line and each artifact's SHA-256 (naming
    ``EXPECTED_PLATFORM`` where a hash moved on another platform); 1 if any
    differs from EXPECTED, a cycle-log line is not spelled as ``json.dumps``
    writes it, the ``--stage 2`` run or a
    second replay wrote other outputs than the first run, a link is broken, or a
    manifest records another call than its own or an input by another digest, else 0."""
    platform = platform_line()
    print(f"platform: {platform}")
    moved = 0
    for name, expected in EXPECTED.items():
        actual = hashlib.sha256(_content(root / name)).hexdigest()
        status = "ok" if actual == expected else f"MOVED (expected {expected})"
        moved += actual != expected
        print(f"{actual}  {name}  {status}")
    if moved and platform != EXPECTED_PLATFORM:
        print(f"the expected values belong to another platform: {EXPECTED_PLATFORM}")
    respelled = [f"{replay}/cycles.jsonl: {len(lines)} lines differ from json.dumps of their "
                 f"record, the first is line {lines[0]}"
                 for replay in REPLAYS
                 if (lines := respelled_lines(root / replay / "cycles.jsonl"))]
    # Each fault list, the prefix of its lines and the line printed when it is empty.
    checks = (
        (respelled, "", None),
        (rerun_differences(root), "rerun: ",
         f"reruns ok: each second replay wrote the first's {' and '.join(REPLAY_OUTPUTS)}"),
        (stage2_differences(root), "stage 2: ",
         f"stage 2 ok: train --stage 2 wrote the train run's {' and '.join(STAGE2_OUTPUTS)}"),
        (broken_links(root), "broken link: ",
         "links ok: stage1.json -> dataset.jsonl, prior.json -> stage1.json"),
        (manifest_faults(root), "manifest: ",
         f"manifests ok: each run's subcommand and argv ({len(commands(root))} runs), "
         "replay inputs, train --stage 2 inputs"),
    )
    faults = 0
    for lines, prefix, ok in checks:
        for line in lines:
            print(prefix + line)
        if ok and not lines:
            print(ok)
        faults += len(lines)
    return 1 if moved or faults else 0


def phase_times(root: Path) -> list:
    """Each stage's summed ``PHASES`` seconds in the ``train`` run's ``timings.jsonl``,
    as text: wall-clock figures, printed to show where training time went, never checked."""
    totals = {}
    for line in (root / "model" / "timings.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        stage = totals.setdefault(record["stage"], dict.fromkeys(PHASES, 0.0))
        for phase in PHASES:
            stage[phase] += record[phase]
    return [f"stage {stage} time: " + ", ".join(f"{phase} {seconds:.3f}" for phase, seconds
                                                in phases.items())
            for stage, phases in sorted(totals.items())]


def run(out: str | None) -> int:
    with contextlib.ExitStack() as stack:
        root = Path(out if out is not None else stack.enter_context(tempfile.TemporaryDirectory()))
        walkthrough(root)
        code = check(root)
        print("\n".join(phase_times(root)))
        return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1] if len(sys.argv) > 1 else None))
