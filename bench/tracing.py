"""Spans around the public functions of each gazeshift layer, kept in memory.

``install`` replaces each traced function wherever a loaded gazeshift
module holds it, so names imported into another module (``trainer``
imports ``quantize_rows``, ``replay`` imports ``step_cycle``, ``cli``
imports ``load_scenario_dir`` and ``read_dataset``) are traced where the
caller looks them up. Methods are replaced on their class. A span's self
time is its duration minus the durations of the spans opened inside it.
"""

from __future__ import annotations

import math
import os
import sys
import time
import types
from collections import Counter, defaultdict

# layer -> (module, attribute path) of each traced function
TARGETS = {
    "so3": ("gazeshift.so3", ["geodesic_to_reference_with_grad", "rotation_zyx_derivs",
                              "rotation_zyx", "geodesic_rows"]),
    "nets": ("gazeshift.nets", ["DenseNetwork.forward", "DenseNetwork.backward", "adam_step",
                                "save_checkpoint", "load_checkpoint"]),
    "vqvae": ("gazeshift.vqvae", ["ConditionalVQVAE.loss_and_grads", "quantize_rows",
                                  "reconstruction_terms", "ConditionalVQVAE.encode_rows",
                                  "ConditionalVQVAE.decode_rows", "ConditionalVQVAE.decode"]),
    "prior": ("gazeshift.prior", ["focal_loss_rows", "ConditionalPrior.logits_rows",
                                  "ConditionalPrior.forward_rows", "sample_code"]),
    "trainer": ("gazeshift.trainer", ["validate_stage1", "validate_stage2", "best_snapshot",
                                      "infer"]),
    "datagen": ("gazeshift.datagen", ["generate_sample", "check_sample", "read_dataset"]),
    "cli": ("gazeshift.cli", ["write_manifest", "write_json_atomic"]),
    "reasoner.scenario": ("gazeshift.reasoner.scenario", ["load_scenario"]),
    "reasoner.pipeline": ("gazeshift.reasoner.pipeline", ["step_cycle", "mark_scene",
                                                          "synthesize_prompt", "parse_response",
                                                          "localize"]),
    "reasoner.backends": ("gazeshift.reasoner.backends", ["ScriptedBackend.query",
                                                          "RemoteBackend.query",
                                                          "RemoteBackend.preflight"]),
    "reasoner.replay": ("gazeshift.reasoner.replay", ["replay_scenario"]),
}

# Counters recorded beside the spans, with their units.
EXTRA = {
    "nets.save_checkpoint.bytes": "B",
    "nets.load_checkpoint.bytes": "B",
    "datagen.accepted_per_check": "ratio",
    "cli.write_manifest.bytes": "B",
    "cli.write_json_atomic.bytes": "B",
    "reasoner.scenario.load_scenario.bytes": "B",
    "reasoner.pipeline.step_cycle.p50_us": "us",
    "reasoner.pipeline.step_cycle.p99_us": "us",
    "reasoner.pipeline.prompt_bytes": "B",
    "reasoner.pipeline.localized_per_cycle": "ratio",
    "reasoner.backends.stub.connections": "count",
    "reasoner.backends.stub.requests": "count",
    "reasoner.backends.stub.service_s": "s",
    "reasoner.backends.RemoteBackend.client_overhead_s": "s",
    "reasoner.replay.cycles_jsonl_bytes": "B",
}


def span_names():
    return [f"{layer}.{path}" for layer, (_, paths) in TARGETS.items() for path in paths]


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA)
    return units


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.durations = defaultdict(list)  # inclusive span times, for percentiles
        self.starts = defaultdict(list)     # their start moments
        self.missing = []
        self._stack = []  # [name, time covered by child spans]

    def wrap(self, name, fn, hook=None, keep_durations=False):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        durations = self.durations[name] if keep_durations else None
        starts = self.starts[name] if keep_durations else None
        perf = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if durations is not None:
                    durations.append(dt)
                    starts.append(t0)
            if hook is not None:
                hook(self, result, args, kwargs, parent)
            return result

        return traced

    def install(self):
        hooks = {
            "nets.save_checkpoint": lambda t, r, a, k, p: t.count(
                "nets.save_checkpoint.bytes", _size(a[0] if a else k.get("path"))),
            "nets.load_checkpoint": lambda t, r, a, k, p: t.count(
                "nets.load_checkpoint.bytes", _size(a[0] if a else k.get("path"))),
            "datagen.check_sample": lambda t, r, a, k, p: t.count(
                "datagen.checks_in_generate", int(p == "datagen.generate_sample")),
            "cli.write_manifest": lambda t, r, a, k, p: t.count(
                "cli.write_manifest.bytes", _size(r)),
            "cli.write_json_atomic": lambda t, r, a, k, p: t.count(
                "cli.write_json_atomic.bytes", _size(a[1] if len(a) > 1 else k.get("path"))),
            "reasoner.scenario.load_scenario": lambda t, r, a, k, p: t.count(
                "reasoner.scenario.load_scenario.bytes", _size(a[0] if a else k.get("path"))),
            "reasoner.pipeline.synthesize_prompt": lambda t, r, a, k, p: t.count(
                "reasoner.pipeline.prompt_bytes", len(r[0].encode("utf-8"))),
        }
        for layer, (module_name, paths) in TARGETS.items():
            module = sys.modules[module_name]
            for path in paths:
                name = f"{layer}.{path}"
                if name == "trainer.best_snapshot":
                    self._install_snapshot(module, name)
                    continue
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapped = self.wrap(name, original, hooks.get(name),
                                    keep_durations=name == "reasoner.pipeline.step_cycle")
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("gazeshift") and mod is not None:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)

    def _install_snapshot(self, trainer, name):
        # The trainer keeps its best epoch by deep-copying the parameters and
        # the optimizer state; each copy is one call of this span.
        copy_module = getattr(trainer, "copy", None)
        if copy_module is None:
            self.missing.append(name)
            return
        shim = types.SimpleNamespace(**vars(copy_module))
        shim.deepcopy = self.wrap(name, copy_module.deepcopy)
        trainer.copy = shim

    def count(self, key, amount):
        self.counts[key] += amount

    def metrics(self, stub_stats=None):
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for key, unit in EXTRA.items():
            if unit == "B":
                out[key] = self.counts[key]
        checks = self.counts["datagen.checks_in_generate"]
        out["datagen.accepted_per_check"] = (
            self.calls["datagen.generate_sample"] / checks if checks else 0.0)
        cycles = self.calls["reasoner.pipeline.step_cycle"]
        out["reasoner.pipeline.localized_per_cycle"] = (
            self.calls["reasoner.pipeline.localize"] / cycles if cycles else 0.0)
        steps = sorted(self.durations["reasoner.pipeline.step_cycle"])
        for q in (50, 99):
            # nearest rank
            value = steps[math.ceil(q / 100 * len(steps)) - 1] * 1e6 if steps else 0.0
            out[f"reasoner.pipeline.step_cycle.p{q}_us"] = value
        stub = stub_stats or {}
        out["reasoner.backends.stub.connections"] = stub.get("connections", 0)
        out["reasoner.backends.stub.requests"] = stub.get("requests", 0)
        out["reasoner.backends.stub.service_s"] = stub.get("service_s", 0.0)
        # Inclusive query time minus the stub's own service time.
        query_s = self.self_s["reasoner.backends.RemoteBackend.query"] \
            + self.self_s["reasoner.backends.RemoteBackend.preflight"]
        out["reasoner.backends.RemoteBackend.client_overhead_s"] = (
            query_s - stub.get("service_s", 0.0) if stub else 0.0)
        return out
