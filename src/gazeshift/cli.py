"""Command-line entry point: gen-data, train, eval, sample, replay.

Every subcommand accepts --out and returns what it read and wrote, which
``main`` writes as the run manifest next to its outputs. gen-data, train and
replay also read an optional JSON config file, --config (sections:
"generator", "training", "backend"; explicit flags win over file values);
gen-data, train and sample, which draw random numbers, take --seed. Either
flag is a usage error where it is not read. Failure classes map to distinct
exit codes: config 2, data 3, training 4 (also a model whose output is
unusable), backend 5, and 1 for any other, such as an unwritable --out.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from contextlib import closing, contextmanager
from dataclasses import replace
from pathlib import Path

# Whole modules, not names: the model layers and the reasoner's modules are
# lazy modules (see the package docstring), and importing a name from one
# would run it. Each runs on a command's first attribute access, so a command
# runs only the layers it reads: `gen-data` runs `datagen` and `so3` (and
# numpy), `train`, `eval` and `sample` the model layers, and `replay` the
# reasoner (`backends` only for the remote backend); `--help` and
# `--version` run none of them.
from . import __version__, datagen, reasoner, trainer, vqvae
from .atomic import open_atomic
from .config import Schema, check_object, parse_json
from .errors import BackendError, ConfigError, DataError, GazeshiftError, TrainingError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4
EXIT_BACKEND = 5

_EXIT_BY_ERROR = (
    (ConfigError, EXIT_CONFIG),
    (DataError, EXIT_DATA),
    (TrainingError, EXIT_TRAINING),
    (BackendError, EXIT_BACKEND),
)

CONFIG_SCHEMA = Schema({}, {"generator": "dict", "training": "dict", "backend": "dict"})
DIVERSITY_THRESHOLD = 0.05  # report codes the prior rates above 5%
_LIST_CHUNK = 1000  # list items per piece of iter_shared_items' text


def _indented(value, level: int) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` as it reads nested ``level`` deep."""
    # Strings escape their newlines, so every newline in the text is layout.
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)


def iter_shared_items(doc: dict):
    """The text of ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, in pieces.

    Each distinct object (by identity) in a top-level list value is encoded
    once, however often the list repeats it. A long list is yielded in
    chunks of ``_LIST_CHUNK`` items, each joined in one call, so the text
    held at once is bounded by a chunk rather than the whole list.
    """
    opening = "{"
    for key in sorted(doc):
        value = doc[key]
        yield f"{opening}\n  {json.dumps(key)}: "
        opening = ","
        if isinstance(value, list) and value:
            distinct = dict(zip(map(id, value), value))
            texts = {ident: _indented(item, 2) for ident, item in distinct.items()}
            separator = "[\n    "
            for start in range(0, len(value), _LIST_CHUNK):
                chunk = value[start:start + _LIST_CHUNK]
                yield separator + ",\n    ".join(map(texts.__getitem__, map(id, chunk)))
                separator = ",\n    "
            yield "\n  ]"
        else:
            yield _indented(value, 1)
    yield "{}\n" if opening == "{" else "\n}\n"


def write_json_atomic(doc: dict, path) -> None:
    """Write ``doc`` (string keys) as indented, key-sorted JSON, atomically."""
    with open_atomic(path) as fh:
        fh.writelines(iter_shared_items(doc))


def write_manifest(out_dir, subcommand: str, argv: list, record: dict, elapsed_s: float) -> Path:
    """Write ``manifest.json`` under ``out_dir`` and return its path.

    ``argv`` is the command's own arguments, as ``main`` was given them, and
    ``record`` what the command returned: its ``config``, ``inputs`` (each
    path mapped to the SHA-256 of the bytes it loaded), ``outputs`` (the
    paths it wrote, each of which must exist) and any keys of its own.
    """
    manifest = {**record, "subcommand": subcommand, "argv": argv, "version": __version__,
                "inputs": {str(p): digest for p, digest in record["inputs"].items()},
                "outputs": [str(p) for p in record["outputs"]],
                "elapsed_s": elapsed_s}
    path = Path(out_dir) / "manifest.json"
    for out in manifest["outputs"]:
        if not Path(out).exists():
            raise GazeshiftError(f"manifest names missing output {out}")
    write_json_atomic(manifest, path)
    return path


def load_config_file(path) -> dict:
    """The --config file at ``path`` as a ``CONFIG_SCHEMA`` object, or {} without one."""
    if path is None:
        return {}
    try:
        doc = parse_json(Path(path).read_text(encoding="utf-8"))
        check_object(doc, CONFIG_SCHEMA, "config")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return doc


def _read_section(doc: dict, section: str, cls, path):
    """``cls.from_dict`` of the ``section`` of the config file at ``path`` ({} where it has
    none); a fault in the section names the file, as every other config fault does."""
    try:
        return cls.from_dict(doc.get(section, {}))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _flag_floats(text: str, n: int, what: str) -> list:
    parts = text.split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} needs {n} comma-separated values, got {len(parts)}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


# -- subcommands: each returns its record for write_manifest ---------------------

def cmd_gen_data(args) -> dict:
    doc = load_config_file(args.config)
    config = _read_section(doc, "generator", datagen.GeneratorConfig, args.config)
    seed = 0 if args.seed is None else args.seed
    dataset = datagen.generate_dataset(seed=seed, config=config)
    dataset_path = Path(args.out) / "dataset.jsonl"
    dataset_hash = datagen.write_dataset(dataset, dataset_path)
    print(f"wrote {len(dataset.split)} samples "
          f"({dataset.split.count('train')} train / {dataset.split.count('val')} val) "
          f"to {dataset_path}")
    return {"config": {"seed": seed, "generator": config.to_dict()}, "inputs": {},
            "outputs": [dataset_path], "dataset_hash": dataset_hash}


def cmd_train(args) -> dict:
    doc = load_config_file(args.config)
    config = _read_section(doc, "training", trainer.TrainConfig, args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    dataset = datagen.read_dataset(args.dataset)
    record = trainer.run_training(dataset, config, args.out, stage=args.stage)
    for stage_key, best in record["best"].items():
        print(f"{stage_key}: best epoch {best['best_epoch']}, "
              f"val eye MGD {best['val_eye_mgd_deg']:.3f} deg, "
              f"val head MGD {best['val_head_mgd_deg']:.3f} deg")
    return {**record, "config": {"training": config.to_dict(), "stage": args.stage},
            "inputs": {args.dataset: dataset.sha256, **record["inputs"]}}


def cmd_eval(args) -> dict:
    import numpy as np

    dataset = datagen.read_dataset(args.dataset)
    model, prior, checkpoints = trainer.load_models(args.run)
    # The split's inputs, checked and normalised once, feed every pass below.
    Yv, Cv = trainer.dataset_arrays(dataset, "val")
    Yv, Xv = vqvae.model_inputs(Yv, Cv, model.config.target_scale)
    Rv = vqvae.target_rotations(Yv, Xv)
    eye1, head1, utilization = trainer.validate_stage1(model, Yv, Xv, Rv)
    preds = model.decode_codes(Xv)
    eye2, head2, top1, codes = trainer.validate_stage2(
        prior, Xv, trainer.CodeErrors.of(preds, Xv, Rv), trainer.record_codes(model, Yv, Xv))

    # How each code splits work between head and eyes, over validation
    # conditions that argmax-decode to it.
    per_code = {}
    for k in np.unique(codes).tolist():
        pred = preds[k, codes == k]
        head_mag = np.linalg.norm(pred[:, 2:4], axis=1)
        eye_mag = np.linalg.norm(pred[:, 0:2], axis=1)
        ratio = head_mag / np.maximum(head_mag + eye_mag, 1e-12)
        per_code[str(k)] = {"val_count": len(pred),
                            "mean_head_contribution": float(ratio.mean())}
    report = {
        "stage1": {"val_eye_mgd_deg": eye1, "val_head_mgd_deg": head1,
                   "codebook_utilization": utilization},
        "stage2": {"val_eye_mgd_deg": eye2, "val_head_mgd_deg": head2,
                   "prior_top1_acc": top1},
        "per_code": per_code,
    }
    report_path = Path(args.out) / "eval.json"
    write_json_atomic(report, report_path)
    print(f"stage1 val MGD eye {eye1:.3f} / head {head1:.3f} deg, utilization {utilization:.2f}")
    print(f"stage2 val MGD eye {eye2:.3f} / head {head2:.3f} deg, top-1 {top1:.3f}")
    print(f"report: {report_path}")
    return {"config": {}, "inputs": {args.dataset: dataset.sha256, **checkpoints},
            "outputs": [report_path]}


def cmd_sample(args) -> dict:
    import numpy as np

    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    model, prior, checkpoints = trainer.load_models(args.run)
    eye = _flag_floats(args.eye, 2, "--eye")
    head = _flag_floats(args.head, 3, "--head")
    target = _flag_floats(args.target, 3, "--target")
    condition = np.array([math.radians(v) for v in eye + head] + target)
    [violation] = datagen.condition_violations(condition[None, :])
    if violation is not None:
        raise ConfigError(violation)
    seed = 0 if args.seed is None else args.seed
    try:
        pi, codes, allocations = trainer.draw_allocations(
            model, prior, condition, args.mode, np.random.default_rng(seed), args.n)
    except ValueError as exc:  # the model's output, not the flags, is at fault
        raise TrainingError(f"cannot sample from {args.run}: {exc}") from exc
    drawn = {k: {"code": k,
                 "delta_eye_deg": [math.degrees(v) for v in row[:2]],
                 "delta_head_deg": [math.degrees(v) for v in row[2:]]}
             for k, row in allocations.items()}
    samples = [drawn[k] for k in codes.tolist()]
    diverse = {str(k): float(pi[k]) for k in range(len(pi)) if pi[k] > DIVERSITY_THRESHOLD}
    report = {
        "condition": {"eye_deg": eye, "head_deg": head, "target_m": target},
        "mode": args.mode,
        "seed": seed,
        "samples": samples,
        "pi": [float(p) for p in pi],
        "codes_above_threshold": diverse,
    }
    report_path = Path(args.out) / "samples.json"
    write_json_atomic(report, report_path)
    print(f"{args.n} draws ({args.mode}); codes with prior probability > "
          f"{DIVERSITY_THRESHOLD:.0%}: "
          f"{', '.join(f'{k} ({v:.1%})' for k, v in sorted(diverse.items())) or 'none'}")
    print(f"report: {report_path}")
    return {"config": {"seed": seed, "mode": args.mode, "n": args.n}, "inputs": checkpoints,
            "outputs": [report_path]}


@contextmanager
def _backend_factory(args, doc: dict):
    """Yield ``factory(scenario) -> backend`` for one replay run.

    The remote backend is one object for the whole run, and its connection
    closes when the run ends, however it ends.
    """
    kind = args.backend
    if kind == "scripted":
        yield reasoner.replay.ScriptedBackend
    elif kind == "oracle":
        yield lambda scenario: reasoner.replay.OracleBackend(scenario, delay=1)
    elif kind == "adversarial":
        yield lambda scenario: reasoner.replay.OracleBackend(scenario, delay=3)
    else:  # remote: argparse admits no other choice
        if "backend" not in doc:
            raise ConfigError("remote backend requires a 'backend' config section")
        config = _read_section(doc, "backend", reasoner.backends.RemoteConfig, args.config)
        with closing(reasoner.backends.RemoteBackend(config)) as backend:
            # Fail fast here: inside the replay loop every backend error is
            # absorbed by the per-cycle fallback, which would silently turn a
            # bad credential into a 0% run.
            backend.preflight()
            yield lambda scenario: backend


def cmd_replay(args) -> dict:
    doc = load_config_file(args.config)
    scenario_dir = args.scenarios or str(Path(__file__).parent / "scenarios")
    scenarios = reasoner.scenario.load_scenario_dir(scenario_dir)
    out_dir = Path(args.out)
    log_path = out_dir / "cycles.jsonl"
    with _backend_factory(args, doc) as factory:
        rows, results, excluded = reasoner.replay.replay_evaluate(scenarios, factory,
                                                                   log_path=log_path)
    table_path = out_dir / "success_table.csv"
    reasoner.replay.write_success_table(rows, table_path)
    for row in rows:
        print(f"{row.regularity}: {row.clips} clips, {row.correct} correct, "
              f"{row.success_rate:.1f}%")
    if excluded:
        print(f"excluded (no evaluation metadata): {', '.join(excluded)}")
    return {"config": {"backend": args.backend},
            "inputs": {s.origin: s.sha256 for s in scenarios},
            "outputs": [table_path, log_path], "excluded": excluded}


# -- argument wiring -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazeshift",
        description="Gaze-shift toolkit: synthetic data, two-stage training, "
                    "diverse sampling, and scripted gaze-reasoning replay.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seeded: bool = False, configured: bool = False):
        if seeded:
            p.add_argument("--seed", type=int, default=None, help="rng seed (default 0)")
        if configured:
            p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="runs/latest", help="output directory")

    p = sub.add_parser("gen-data", help="generate a synthetic gaze-shift dataset")
    common(p, seeded=True, configured=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run stage-1/stage-2 training")
    common(p, seeded=True, configured=True)
    p.add_argument("--dataset", required=True, help="dataset JSONL path")
    p.add_argument("--stage", choices=("1", "2", "both"), default="both")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate trained checkpoints on a dataset")
    common(p)
    p.add_argument("--dataset", required=True, help="dataset JSONL path")
    p.add_argument("--run", required=True, help="training output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sample", help="draw diverse allocations for one condition")
    common(p, seeded=True)
    p.add_argument("--run", required=True, help="training output directory")
    p.add_argument("--n", type=int, default=10, help="number of draws")
    p.add_argument("--mode", choices=("sample", "argmax"), default="sample")
    p.add_argument("--eye", default="0,0", help="current eye yaw,pitch (degrees)")
    p.add_argument("--head", default="0,0,0", help="current head yaw,pitch,roll (degrees)")
    p.add_argument("--target", default="1.5,0.8,0.2", help="gaze target x,y,z (metres)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("replay", help="replay scenarios through a backend")
    common(p, configured=True)
    p.add_argument("--scenarios", default=None,
                   help="scenario directory (default: bundled corpus)")
    p.add_argument("--backend", choices=("scripted", "oracle", "adversarial", "remote"),
                   default="scripted")
    p.set_defaults(func=cmd_replay)
    return parser


# The flags whose comma-separated numbers may start with a minus sign, and
# such a value: argparse takes "-30,5,0" after "--head" for a flag of its own.
_SIGNED_FLAGS = ("--eye", "--head", "--target")
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _join_signed_values(argv: list) -> list:
    """``argv`` with each ``--eye``/``--head``/``--target`` that is followed by a
    value starting with a minus sign and a digit or point joined to it by
    ``=``, the spelling argparse reads as that flag's value."""
    joined = []
    for token in argv:
        if joined and joined[-1] in _SIGNED_FLAGS and _SIGNED_VALUE.match(token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv=None) -> int:
    """Run the command ``argv`` names (``sys.argv[1:]`` when None) and write its manifest."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_join_signed_values(argv))
    try:
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {seed}")
        t0 = time.monotonic()
        record = args.func(args)
        write_manifest(args.out, args.subcommand, argv, record, time.monotonic() - t0)
        return EXIT_OK
    except (GazeshiftError, OSError) as exc:  # an OSError's text names its path
        print(f"error: {exc}", file=sys.stderr)
        for err_type, code in _EXIT_BY_ERROR:
            if isinstance(exc, err_type):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
