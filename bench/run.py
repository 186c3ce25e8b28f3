"""End-to-end benchmark of gazeshift: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``. Workloads: ``model-default``, ``replay-scripted``,
``replay-remote`` (see README.md). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``.
"""

import os

# One BLAS thread, set before numpy loads: the matrices are small and the
# box is shared, so extra threads add noise rather than speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "job_norm_s": "s", "ops_per_norm_s": "1/s",
                    "op_norm_us_p50": "us", "peak_rss_mb": "MB"}
RUNS_DIR = ".bench_runs"


@dataclass
class Context:
    root: Path
    out: Path
    seed: int
    seconds: float
    env: dict
    tracer: object = None
    probe: object = None


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "gazeshift" / "__init__.py").is_file():
        print(f"error: no gazeshift sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # One CPU for the whole run; the probe, the stub and every child
    # interpreter inherit it. On a shared VM a hand-off to a process on
    # another, idle vCPU waits for the host to schedule that vCPU, which made
    # loopback round trips and replay walls vary by a third between runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    (root / RUNS_DIR).mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / RUNS_DIR))

    import gazeshift.cli  # noqa: F401  (loads every layer before tracing wraps them)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    run = workloads.Run()
    t0 = time.perf_counter()
    with probe.Probe(root) as yardstick:
        ctx = Context(root, out, args.seed, args.seconds, env, tracer, yardstick)
        try:
            workloads.WORKLOADS[args.workload](run, ctx)
        except workloads.CliFailure as exc:
            run.problems.append(str(exc))
    run.info["run_s"] = time.perf_counter() - t0
    samples = sorted(yardstick.samples)
    if samples:
        run.info["probe_ms"] = {"n": len(samples), "min": samples[0] * 1e3,
                                "p50": statistics.median(samples) * 1e3,
                                "max": samples[-1] * 1e3}

    complete = set(END_TO_END_UNITS) <= set(run.figures)
    correct = complete and not run.problems and run.failed == 0
    print("figures: " + json.dumps({k: round(v, 6) for k, v in run.figures.items()}))
    print("info: " + json.dumps(run.info, default=str))
    if tracer is not None and tracer.missing:
        print("trace: not found: " + ", ".join(tracer.missing))
    for problem in run.problems[:20]:
        print(f"check failed: {problem}")
    if args.trace:
        units = tracing.metric_units()
        values = tracer.metrics(run.stub_stats)
        # The traced run's own end-to-end figures; against an untraced run
        # of the same seed they give the tracing overhead.
        for name in ("job_norm_s", "ops_per_norm_s", "op_norm_us_p50"):
            units[f"traced.{name}"] = END_TO_END_UNITS[name]
            values[f"traced.{name}"] = run.figures.get(name, 0.0)
    else:
        units = END_TO_END_UNITS
        values = run.figures
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    if correct:
        shutil.rmtree(out, ignore_errors=True)
    else:
        print(f"outputs kept in {out}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
