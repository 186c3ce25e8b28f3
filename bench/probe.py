"""A fixed yardstick of the box's speed, timed in a child process of its own.

Usage: python3 probe.py

The box is a shared VM whose host slows it, at times nearly twofold, for
fractions of a second to minutes; the program's timings follow. So the
benchmark scales each timed call by how fast this probe ran while the call
ran: the normalized time is what the call would take on a box where one
probe takes ``REF_S``. The probe is fixed stdlib and numpy work that never
touches ``gazeshift``, and it runs in its own process, so nothing the
program does to the benchmark's heap changes it.

The process times one probe every ``PERIOD`` seconds on its own, and one
more reading (the median of ``ROUNDS`` probes) for each line read from
standard input. It answers each line with a JSON list of every probe
taken since its last answer, the fresh reading last, each as the
``time.perf_counter`` at its middle and its time, in seconds. It exits
when its standard input closes.
"""

from __future__ import annotations

import gc
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REF_S = 0.001   # one probe on this box, about; sets the scale of normalized times
PERIOD = 0.1    # seconds between the probes timed on the process's own
ROUNDS = 3
WINDOW = 0.15   # ``factors_at`` averages the probes this close to each moment


def work(a, b):
    """Interpreter work like a replay's (dicts, strings, JSON) and small matrix products like training's."""
    d = {f"k{i}": {"x": i, "y": i * 0.5, "s": str(i)} for i in range(150)}
    back = json.loads(json.dumps(d))
    sorted(back.values(), key=lambda v: -v["y"])
    "\n".join(f"[{i}] {v['s']} ({v['x']}, {v['y']:.2f})" for i, v in enumerate(back.values()))
    for _ in range(2):
        c = np.tanh(a @ b)
        a = a + 1e-3 * (c @ b.T)
    return a


def timed(a, b) -> list:
    """``[moment, seconds]`` of one probe.

    The time is CPU time of this thread: the host's slowdowns count in it,
    as the VM sees no steal, but a wait while the benchmark holds the CPU
    does not.
    """
    t0, c0 = time.perf_counter(), time.thread_time()
    work(a, b)
    c1, t1 = time.thread_time(), time.perf_counter()
    return [(t0 + t1) / 2, c1 - c0]


def serve() -> None:
    gc.disable()  # the probe's speed must not depend on when a collection falls
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 128)), rng.standard_normal((128, 128)) / 16
    pending = []
    due = time.perf_counter()
    while True:
        ready, _, _ = select.select([0], [], [], max(0.0, due - time.perf_counter()))
        if not ready:
            pending.append(timed(a, b))
            due = time.perf_counter() + PERIOD
            continue
        data = os.read(0, 4096)
        if not data:
            return
        for _ in range(data.count(b"\n")):
            readings = [timed(a, b) for _ in range(ROUNDS)]
            pending.append([readings[-1][0], statistics.median(r[1] for r in readings)])
            os.write(1, (json.dumps(pending) + "\n").encode())
            pending = []


class Probe:
    """The probe child, started on entry and stopped (and waited for) on exit.

    ``moments`` and ``samples`` hold the middle and the time of every
    probe, in the order taken: the periodic ones and the readings asked
    for with ``mark``.
    """

    def __init__(self, cwd):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__))], cwd=cwd,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.moments, self.samples = [], []

    def __enter__(self):
        self.mark()  # warm-up
        self.moments.clear()
        self.samples.clear()
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def mark(self) -> int:
        """Take a reading now; return its index in ``samples``."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the probe process ended")
        for moment, seconds in json.loads(line):
            self.moments.append(moment)
            self.samples.append(seconds)
        return len(self.samples) - 1

    def factor(self, start: int, end: int) -> float:
        """``REF_S`` over the probe time, averaged over ``samples[start:end + 1]``."""
        return statistics.fmean(REF_S / s for s in self.samples[start:end + 1])

    def factors_at(self, moments) -> np.ndarray:
        """``REF_S`` over the probe time, averaged over the probes within ``WINDOW`` of each moment.

        A moment with no probe that close takes the nearest probe.
        """
        at = np.asarray(self.moments)
        scale = np.cumsum([0.0] + [REF_S / s for s in self.samples])
        moments = np.asarray(moments, dtype=float)
        lo = np.searchsorted(at, moments - WINDOW)
        hi = np.searchsorted(at, moments + WINDOW, side="right")
        right = np.clip(np.searchsorted(at, moments), 0, len(at) - 1)
        left = np.maximum(right - 1, 0)
        nearest = np.where(moments - at[left] <= at[right] - moments, left, right)
        empty = hi == lo
        lo, hi = np.where(empty, nearest, lo), np.where(empty, nearest + 1, hi)
        return (scale[hi] - scale[lo]) / (hi - lo)

    def around(self, fn, *args):
        """``(fn(*args), factor)`` over the readings at either end and the probes between."""
        start = self.mark()
        result = fn(*args)
        return result, self.factor(start, self.mark())


if __name__ == "__main__":
    serve()
