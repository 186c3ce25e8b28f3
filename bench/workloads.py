"""The three workloads. Each drives ``gazeshift.cli.main`` in this process.

A workload returns a ``Run``: its timed figures, the operations it
attempted and saw fail, and the problems its output checks found. Peak
memory is the program's own. ``model-default`` reads this process's
``ru_maxrss`` right after its timed calls, before its checks load
anything; the replays, whose corpus and expectations this process holds,
run one more ``replay`` call in a fresh interpreter and take that
interpreter's ``ru_maxrss``.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus as corpus_mod
import oracles

WALKTHROUGH_SEED = 0      # README walkthrough seed of `gen-data` and `train`
STAGE2_MAX_GAP_DEG = 1.5  # acceptance criterion 4(c)
SAMPLE_DRAWS = 20000      # `sample --n`: about 2 s of draws
SAMPLE_CALLS = 3          # identical `sample` calls
INFER_ROUNDS = 100        # timed closed-loop passes over the 161 validation conditions
SCRIPTED_SCENARIOS = 100  # 3000 cycles
REMOTE_SCENARIOS = 12     # 360 cycles
SETUP_REPEATS = 5         # fresh interpreters timed for setup_s, after one warm-up
API_KEY = "bench-dummy-key"
REMOTE_MODEL = "bench-model"
MAX_TOKENS = 64           # the remote backend's default max_tokens

# Runs in a fresh interpreter: time the import of the CLI module and, given
# arguments, one CLI call (the program's own input preparation).
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import gazeshift.cli as cli
t1 = time.perf_counter()
out = {"import_s": t1 - t0, "prep_s": 0.0, "exit": 0}
if len(sys.argv) > 1:
    out["exit"] = cli.main(sys.argv[1:])
    out["prep_s"] = time.perf_counter() - t1
print(json.dumps(out))
"""

# Runs in a fresh interpreter: the CLI calls given as a JSON list of argument
# lists, in order, stopping at the first non-zero exit; prints the exit codes
# and the interpreter's peak resident set.
RSS_CHILD = """
import json, resource, sys
import gazeshift.cli as cli
exits = []
for argv in json.loads(sys.argv[1]):
    exits.append(cli.main(argv))
    if exits[-1] != 0:
        break
print(json.dumps({"exits": exits,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


@dataclass
class Run:
    figures: dict = field(default_factory=dict)   # end-to-end metric name -> value
    info: dict = field(default_factory=dict)      # printed, not gated
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    stub_stats: dict | None = None

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)
        return ok


class CliFailure(Exception):
    pass


def cli_call(run: Run, argv) -> float:
    """Wall time of one in-process CLI call; a non-zero exit is a failed operation."""
    from gazeshift import cli
    run.attempted += 1
    gc.collect()  # every call starts from a collected heap, outside the timing
    t0 = time.perf_counter()
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    elapsed = time.perf_counter() - t0
    if code != 0:
        run.failed += 1
        raise CliFailure(f"gazeshift {argv[0]} exited {code}")
    return elapsed


def normalized_call(run: Run, ctx, argv) -> tuple:
    """``(wall seconds, normalized seconds)`` of one CLI call (see ``probe.py``)."""
    wall, factor = ctx.probe.around(cli_call, run, argv)
    return wall, wall * factor


def measure_setup(run: Run, ctx, argv_for) -> None:
    """``setup_s``: median over fresh interpreters of import time plus the CLI call ``argv_for(i)``.

    Each interpreter's time is normalized by the probes taken while it ran.
    """
    totals, totals_norm = [], []
    for i in range(SETUP_REPEATS + 1):
        argv = [str(a) for a in argv_for(i)]
        proc, factor = ctx.probe.around(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, *argv], cwd=ctx.root, env=ctx.env,
            capture_output=True, text=True, timeout=120))
        if argv:
            run.attempted += 1
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            run.failed += int(bool(argv))
            raise CliFailure(f"setup interpreter failed: {proc.stderr.strip()[-300:]}")
        doc = json.loads(lines[-1])
        if doc["exit"] != 0:
            run.failed += 1
            raise CliFailure(f"setup call {argv} exited {doc['exit']}")
        if i > 0:  # the first interpreter writes the bytecode caches
            totals.append(doc["import_s"] + doc["prep_s"])
            totals_norm.append(totals[-1] * factor)
    run.figures["setup_s"] = statistics.median(totals_norm)
    run.info["setup_raw_s"] = statistics.median(totals)


def tail(durations, prefix) -> dict:
    """The median, p99 and highest percentile with at least ten samples beyond it, in us."""
    xs = sorted(durations)
    n = len(xs)
    k = n - 11  # ten samples lie above index k
    out = {f"{prefix}_samples": n, f"{prefix}_us_p50": statistics.median(xs) * 1e6}
    if n >= 40:
        out[f"{prefix}_us_p99"] = xs[math.ceil(0.99 * n) - 1] * 1e6
        out[f"{prefix}_tail_pct"] = 100.0 * (k + 1) / n
        out[f"{prefix}_tail_us"] = xs[k] * 1e6
    return out


def program_peak_rss(run: Run, ctx, calls) -> None:
    """Run ``calls`` in a fresh interpreter and record its peak RSS as ``peak_rss_mb``."""
    calls = [[str(a) for a in argv] for argv in calls]
    run.attempted += len(calls)
    proc = subprocess.run([sys.executable, "-c", RSS_CHILD, json.dumps(calls)], cwd=ctx.root,
                          env=ctx.env, capture_output=True, text=True, timeout=150)
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"exits": []}
    if len(doc["exits"]) != len(calls) or any(doc["exits"]):
        run.failed += len(calls) - doc["exits"].count(0)
        raise CliFailure(f"fresh-interpreter calls exited {doc['exits']}: "
                         f"{proc.stderr.strip()[-300:]}")
    run.figures["peak_rss_mb"] = doc["maxrss_kb"] / 1024.0


# -- model-default ---------------------------------------------------------------

def _read_dataset(path):
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rows = [json.loads(line) for line in fh]
    return header, rows


def _arrays(rows, split):
    C = np.array([r["theta_e"] + r["theta_h"] + r["target"] for r in rows if r["split"] == split])
    Y = np.array([r["delta_e"] + r["delta_h"] for r in rows if r["split"] == split])
    return C, Y


def check_dataset(run: Run, header, rows):
    g = header["generator"]
    n_train = sum(r["split"] == "train" for r in rows)
    run.check((len(rows), n_train, len(rows) - n_train) == (805, 644, 161),
              f"dataset split {len(rows)}/{n_train}/{len(rows) - n_train}, want 805/644/161")
    worst = 0.0
    limits = [g["eye_yaw_limit"], g["eye_pitch_limit"], g["head_yaw_limit"],
              g["head_pitch_limit"], g["head_roll_limit"]]
    for i, r in enumerate(rows):
        pose = [a + d for a, d in zip(r["theta_e"] + r["theta_h"], r["delta_e"] + r["delta_h"])]
        if any(abs(v) > lim + 1e-12 for v, lim in zip(pose, limits)):
            run.problems.append(f"dataset sample {i} breaks a mechanical limit")
        worst = max(worst, oracles.angle_between(oracles.gaze_ray(*pose), np.array(r["target"])))
    run.check(worst <= g["consistency_tol"],
              f"a gaze ray misses its target by {math.degrees(worst):.4f} deg")
    run.info["dataset_worst_miss_deg"] = math.degrees(worst)


def _stage_rows(path, stage):
    with open(path, encoding="utf-8", newline="") as fh:
        return [r for r in csv.DictReader(fh) if r["stage"] == stage]


def _mgd(C, pred, Y):
    eye, head = oracles.pose_errors_deg(C, pred, Y)
    return float(eye.mean()), float(head.mean())


def check_training(run: Run, model_dir: Path, data_path: Path, first_epoch):
    _, rows = _read_dataset(data_path)
    Cv, Yv = _arrays(rows, "val")
    vq = oracles.VQVAEOracle(model_dir / "stage1.json")
    prior = oracles.PriorOracle(model_dir / "prior.json")
    s1, s2 = vq.best, prior.best
    run.check(s1["val_eye_mgd_deg"] <= 6.0 and s1["val_head_mgd_deg"] <= 9.0,
              f"stage-1 best MGD {s1['val_eye_mgd_deg']:.2f}/{s1['val_head_mgd_deg']:.2f} "
              "above 6/9 deg")
    run.check(s1["val_eye_mgd_deg"] < first_epoch[0] and s1["val_head_mgd_deg"] < first_epoch[1],
              "stage-1 best epoch does not beat epoch 1")
    gap = (s2["val_eye_mgd_deg"] + s2["val_head_mgd_deg"]
           - s1["val_eye_mgd_deg"] - s1["val_head_mgd_deg"])
    run.check(gap <= STAGE2_MAX_GAP_DEG,
              f"stage-2 summed MGD {gap:.2f} deg above stage 1, more than {STAGE2_MAX_GAP_DEG}")
    run.info["stage2_gap_deg"] = gap

    codes_v = vq.codes(Yv, Cv)
    eye1, head1 = _mgd(Cv, vq.decode(vq.codebook[codes_v], Cv), Yv)
    pi_v = prior.pi(Cv)
    argmax = np.argmax(pi_v, axis=1)
    eye2, head2 = _mgd(Cv, vq.decode(vq.codebook[argmax], Cv), Yv)
    report = json.loads((model_dir.parent / "eval" / "eval.json").read_text(encoding="utf-8"))
    pairs = [("stage-1 best", s1, eye1, head1), ("stage-2 best", s2, eye2, head2),
             ("eval stage 1", report["stage1"], eye1, head1),
             ("eval stage 2", report["stage2"], eye2, head2)]
    for what, doc, eye, head in pairs:
        run.check(abs(doc["val_eye_mgd_deg"] - eye) <= 1e-6
                  and abs(doc["val_head_mgd_deg"] - head) <= 1e-6,
                  f"{what} MGD {doc['val_eye_mgd_deg']}/{doc['val_head_mgd_deg']} differs "
                  f"from the oracle {eye}/{head}")
    K = len(vq.codebook)
    run.check(report["stage1"]["codebook_utilization"] == len(set(codes_v.tolist())) / K,
              "eval codebook utilization differs from the oracle")
    run.check(abs(report["stage2"]["prior_top1_acc"] - float((argmax == codes_v).mean())) <= 1e-12,
              "eval top-1 agreement differs from the oracle")
    return vq, prior


def check_samples(run: Run, report, condition, vq, prior):
    C = np.array([condition])
    pi = prior.pi(C)[0]
    K = len(pi)
    run.check(np.max(np.abs(np.array(report["pi"]) - pi)) <= 1e-9, "sample pi differs from the oracle")
    codes = np.array([s["code"] for s in report["samples"]])
    run.check(len(codes) == SAMPLE_DRAWS, f"{len(codes)} draws, want {SAMPLE_DRAWS}")
    if not run.check(codes.min() >= 0 and codes.max() < K, "sample code out of range"):
        return
    decoded = vq.decode(vq.codebook[np.arange(K)], np.repeat(C, K, axis=0))
    for s in report["samples"]:
        alloc = np.radians(s["delta_eye_deg"] + s["delta_head_deg"])
        if np.max(np.abs(alloc - decoded[s["code"]])) > 1e-9:
            run.problems.append(f"draw of code {s['code']} differs from the oracle decoding")
            break
    freq = np.bincount(codes, minlength=K) / len(codes)
    tv = 0.5 * float(np.abs(freq - pi).sum())
    bound = oracles.tv_bound(len(codes), K)
    run.check(tv <= bound, f"draw frequencies off by TV {tv:.4f} > {bound:.4f}")
    run.info["sample_tv"] = tv


def _flag(values) -> str:
    # One "--name=v1,v2" value, so a leading minus is not read as an option.
    return ",".join(repr(float(v)) for v in values)


def _walkthrough(base: Path, seed: int, condition_flags) -> dict:
    """The README walkthrough's CLI calls, writing under ``base``."""
    data, model = base / "data" / "dataset.jsonl", base / "model"
    train = ["train", "--dataset", data, "--seed", WALKTHROUGH_SEED, "--out", model]
    return {
        "gen-data": ["gen-data", "--seed", WALKTHROUGH_SEED, "--out", data.parent],
        "stage1": [*train, "--stage", "1"],
        "stage2": [*train, "--stage", "2"],
        "eval": ["eval", "--dataset", data, "--run", model, "--out", base / "eval"],
        "sample": ["sample", "--run", model, "--n", SAMPLE_DRAWS, "--mode", "sample",
                   "--seed", seed, *condition_flags, "--out", base / "sample"],
    }


def model_default(run: Run, ctx) -> None:
    seed, out, env = ctx.seed, ctx.out, ctx.env
    rng = np.random.default_rng(seed)
    measure_setup(run, ctx,
                  lambda i: ["gen-data", "--seed", WALKTHROUGH_SEED, "--out", out / f"setup{i}"])
    from gazeshift import trainer
    from gazeshift.prior import ConditionalPrior
    from gazeshift.vqvae import ConditionalVQVAE, ConditionVector

    # A seeded condition inside the generator's ranges, in CLI units.
    eye = [rng.uniform(-15, 15), rng.uniform(-10, 10)]
    head = [rng.uniform(-30, 30), rng.uniform(-15, 15), rng.uniform(-4, 4)]
    r, az, el = rng.uniform(0.5, 3.0), rng.uniform(-1.2, 1.2), rng.uniform(-0.6, 0.6)
    target = [r * math.cos(el) * math.cos(az), r * math.cos(el) * math.sin(az), r * math.sin(el)]
    flags = [f"--eye={_flag(eye)}", f"--head={_flag(head)}", f"--target={_flag(target)}"]
    calls = _walkthrough(out, seed, flags)

    cli_call(run, calls["gen-data"])
    data_path = out / "data" / "dataset.jsonl"
    same = all((out / f"setup{i}" / "dataset.jsonl").read_bytes() == data_path.read_bytes()
               for i in range(SETUP_REPEATS + 1))
    run.check(same, "gen-data with one seed wrote different datasets")

    model = out / "model"
    stage1, stage1_norm = normalized_call(run, ctx, calls["stage1"])
    rows1 = _stage_rows(model / "metrics.csv", "1")
    run.check(len(rows1) == 200, f"{len(rows1)} stage-1 metric rows, want 200")
    first = (float(rows1[0]["val_eye_mgd_deg"]), float(rows1[0]["val_head_mgd_deg"]))
    stage2, stage2_norm = normalized_call(run, ctx, calls["stage2"])
    rows2 = _stage_rows(model / "metrics.csv", "2")
    run.check(len(rows2) == 100, f"{len(rows2)} stage-2 metric rows, want 100")
    eval_s = cli_call(run, calls["eval"])

    reports, walls, walls_norm = [], [], []
    for _ in range(SAMPLE_CALLS):
        wall, wall_norm = normalized_call(run, ctx, calls["sample"])
        walls.append(wall)
        walls_norm.append(wall_norm)
        reports.append(hashlib.sha256((out / "sample" / "samples.json").read_bytes()).digest())
    run.check(len(set(reports)) == 1, "sample with one seed wrote different reports")

    # Closed loop of single infer calls over the validation conditions.
    vq_model, _ = ConditionalVQVAE.load(model / "stage1.json")
    prior_model, _ = ConditionalPrior.load(model / "prior.json")
    header, rows = _read_dataset(data_path)
    Cv, _ = _arrays(rows, "val")
    conditions = [ConditionVector.from_input(c) for c in Cv]
    infer_rng = np.random.default_rng(seed)
    gc.collect()
    for c in conditions:  # warm-up
        trainer.infer(vq_model, prior_model, c, mode="sample", rng=infer_rng)
    # The probe is read between rounds; each round's latencies are scaled
    # by the readings on either side of it and any probe between them.
    latencies, latencies_norm, results = [], [], []
    perf = time.perf_counter
    before = ctx.probe.mark()
    for _ in range(INFER_ROUNDS):
        round_latencies = []
        for i, c in enumerate(conditions):
            t0 = perf()
            result = trainer.infer(vq_model, prior_model, c, mode="sample", rng=infer_rng)
            round_latencies.append(perf() - t0)
            results.append((i, result))
        after = ctx.probe.mark()
        factor = ctx.probe.factor(before, after)
        latencies.extend(round_latencies)
        latencies_norm.extend(x * factor for x in round_latencies)
        before = after
    run.attempted += len(conditions) + len(results)

    run.figures["job_norm_s"] = stage1_norm + stage2_norm
    run.figures["ops_per_norm_s"] = SAMPLE_DRAWS / statistics.median(walls_norm)
    run.figures["op_norm_us_p50"] = statistics.median(latencies_norm) * 1e6
    # Up to here this process has imported the program, made its calls and
    # held the infer results; the checks below load their own copies.
    run.figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.info.update(stage1_s=stage1, stage2_s=stage2, eval_s=eval_s, sample_walls_s=walls,
                    sample_draws_per_s=SAMPLE_DRAWS / statistics.median(walls),
                    **tail(latencies, "infer"))

    check_dataset(run, header, rows)
    vq, prior = check_training(run, model, data_path, first)
    report = json.loads((out / "sample" / "samples.json").read_text(encoding="utf-8"))
    condition = [math.radians(v) for v in eye + head[:3]] + target
    check_samples(run, report, condition, vq, prior)
    pi_v = prior.pi(Cv)
    K = pi_v.shape[1]
    decoded = [vq.decode(vq.codebook, np.repeat(Cv[i:i + 1], K, axis=0))
               for i in range(len(Cv))]
    for i, result in results:
        if not (0 <= result.code < K
                and np.max(np.abs(result.pi - pi_v[i])) <= 1e-9
                and np.max(np.abs(result.allocation.as_vector() - decoded[i][result.code])) <= 1e-9):
            run.problems.append(f"infer on validation condition {i} differs from the oracle")
            break


# -- replays -----------------------------------------------------------------------

def _time_step_cycle(starts, sink):
    """Time every cycle where the replay loop looks ``step_cycle`` up."""
    from gazeshift.reasoner import replay
    step = replay.step_cycle
    perf = time.perf_counter

    def timed(*args, **kwargs):
        t0 = perf()
        try:
            return step(*args, **kwargs)
        finally:
            sink.append(perf() - t0)
            starts.append(t0)

    replay.step_cycle = timed


def _replays(run: Run, ctx, corpus, argv, starts, durations):
    """Repeat whole replay calls until the run's seconds are used; check each one."""
    walls, walls_norm = [], []
    deadline = time.perf_counter() + ctx.seconds
    while not walls or time.perf_counter() < deadline:
        out = ctx.out / "replay"
        run.attempted += corpus.cycles
        wall, factor = ctx.probe.around(
            cli_call, run, ["replay", "--scenarios", corpus.directory, "--out", out, *argv])
        walls.append(wall)
        walls_norm.append(wall * factor)
        problems = corpus_mod.check_log(corpus, out / "cycles.jsonl", out / "success_table.csv")
        run.problems.extend(problems)
        if ctx.tracer is not None:
            ctx.tracer.count("reasoner.replay.cycles_jsonl_bytes",
                             os.path.getsize(out / "cycles.jsonl"))
    if not run.check(len(durations) == corpus.cycles * len(walls),
                     f"{len(durations)} cycles timed, want {corpus.cycles * len(walls)}"):
        return len(walls)
    job_norm = statistics.median(walls_norm)
    run.figures["job_norm_s"] = job_norm
    run.figures["ops_per_norm_s"] = corpus.cycles / job_norm
    # Each cycle is scaled by the probes taken around its own moment.
    middles = np.asarray(starts) + 0.5 * np.asarray(durations)
    durations_norm = np.asarray(durations) * ctx.probe.factors_at(middles)
    run.figures["op_norm_us_p50"] = float(np.median(durations_norm)) * 1e6
    run.info.update(replay_calls=len(walls), replay_walls_s=[round(w, 4) for w in walls],
                    cycles_per_s=corpus.cycles / statistics.median(walls),
                    probe_factors=[round(w / r, 4) for w, r in zip(walls_norm, walls)],
                    **tail(durations, "cycle"),
                    **{f"corpus_{k}": v for k, v in corpus.stats.items()})
    return len(walls)


def _cycle_durations(ctx):
    """``(starts, durations)`` lists that fill as cycles run."""
    if ctx.tracer is not None:
        name = "reasoner.pipeline.step_cycle"
        return ctx.tracer.starts[name], ctx.tracer.durations[name]
    starts, durations = [], []
    _time_step_cycle(starts, durations)
    return starts, durations


def replay_scripted(run: Run, ctx) -> None:
    measure_setup(run, ctx, lambda i: [])
    corpus = corpus_mod.write_corpus(ctx.out / "scenarios", ctx.seed, SCRIPTED_SCENARIOS,
                                     keep_prompts=False)
    argv = ["--backend", "scripted"]
    _replays(run, ctx, corpus, argv, *_cycle_durations(ctx))
    _fresh_replay(run, ctx, corpus, argv)


def _fresh_replay(run: Run, ctx, corpus, argv):
    """One more replay call, in a fresh interpreter for its peak RSS; its log is checked."""
    out = ctx.out / "fresh"
    run.attempted += corpus.cycles
    program_peak_rss(run, ctx, [["replay", "--scenarios", corpus.directory, "--out", out,
                                 *argv]])
    run.problems.extend(corpus_mod.check_log(corpus, out / "cycles.jsonl",
                                             out / "success_table.csv"))


class Stub:
    """The loopback chat-completions stub in a child process, with a config file for it."""

    def __init__(self, ctx, expectations: Path, name: str):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("stub.py")), str(expectations),
             API_KEY, REMOTE_MODEL, str(MAX_TOKENS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ctx.root)
        self.config = ctx.out / f"{name}.json"
        self.stats = None

    def __enter__(self):
        first = self.proc.stdout.readline().split()
        if len(first) != 2 or first[0] != "PORT":
            self._stop()
            raise CliFailure("the stub did not start")
        self.config.write_text(json.dumps({"backend": {
            "endpoint": f"http://127.0.0.1:{first[1]}/v1/chat/completions",
            "model": REMOTE_MODEL}}), encoding="utf-8")
        return self

    def _stop(self):
        try:  # closing its stdin tells the stub to report and exit
            return self.proc.communicate(timeout=30)[0].strip().splitlines()
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise CliFailure("the stub did not exit") from None

    def __exit__(self, exc_type, *exc):
        lines = self._stop()
        if exc_type is not None:
            return  # the failure inside the block is the one to report
        if not lines or not lines[-1].startswith("{"):
            raise CliFailure("the stub ended without reporting its counts")
        self.stats = json.loads(lines[-1])

    def check(self, run: Run, calls: int, queried: int):
        """One request per non-empty cycle per replay call, none rejected."""
        stats = self.stats
        run.check(stats["rejected"] == 0, f"stub rejected {stats['rejected']} requests: "
                                          f"{stats['reasons']}")
        run.check(stats["requests"] == calls * queried,
                  f"stub served {stats['requests']} requests, want {calls} x {queried}")
        run.check(stats["served_histogram"] == {str(calls): queried},
                  f"requests per non-empty cycle {stats['served_histogram']}, "
                  f"want {calls} each for {queried} cycles")


def replay_remote(run: Run, ctx) -> None:
    measure_setup(run, ctx, lambda i: [])
    corpus = corpus_mod.write_corpus(ctx.out / "scenarios", ctx.seed, REMOTE_SCENARIOS,
                                     keep_prompts=True)
    expectations = ctx.out / "expectations.json"
    expectations.write_text(json.dumps(corpus.prompts), encoding="utf-8")
    proxy_free = {"GAZESHIFT_API_KEY": API_KEY, "NO_PROXY": "127.0.0.1,localhost",
                  "no_proxy": "127.0.0.1,localhost"}
    os.environ.update(proxy_free)
    ctx.env.update(proxy_free)
    queried = corpus.stats["queried"]
    with Stub(ctx, expectations, "remote") as stub:
        calls = _replays(run, ctx, corpus, ["--backend", "remote", "--config", stub.config],
                         *_cycle_durations(ctx))
    stub.check(run, calls, queried)
    run.stub_stats = stub.stats
    run.info.update(stub_connections=stub.stats["connections"],
                    stub_service_s=stub.stats["service_s"])
    # The fresh-interpreter replay gets a stub of its own, so the counts
    # above (and the traced run's client overhead) cover the timed calls only.
    with Stub(ctx, expectations, "remote-fresh") as fresh_stub:
        _fresh_replay(run, ctx, corpus, ["--backend", "remote", "--config", fresh_stub.config])
    fresh_stub.check(run, 1, queried)


WORKLOADS = {
    "model-default": model_default,
    "replay-scripted": replay_scripted,
    "replay-remote": replay_remote,
}
