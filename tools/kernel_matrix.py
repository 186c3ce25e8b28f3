"""Rerun Tier-1 and the seed-0 tool under two other CPU kernels; report what moves.

    python tools/kernel_matrix.py

Runs ``python -m pytest`` (Tier-1, as ROADMAP gives it) and
``tools/seed0_hashes.py`` once per variant, each variable set only in the
environment of those child processes:

  * ``OPENBLAS_CORETYPE=Haswell``: numpy's bundled OpenBLAS runs the kernel
    an AVX2-only CPU gets;
  * ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``: numpy's own
    loops run without AVX-512, and BLAS is left alone.

For each variant it prints Tier-1's pass and fail counts, the id of each
failing test, and which of the seed-0 tool's twelve hashes moved. The
model-path bytes depend on the kernels (see the seed-0 tool's docstring),
so a failure here is a report, not a verdict: the point is that a new
kernel assumption shows up when it is made. Exits 1 only if a child gave
no result it could read. Not part of Tier-1: it runs Tier-1 twice.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

VARIANTS = (
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
)

# The seed-0 tool prints one line per artifact: "<sha256>  <name>  ok" or "... MOVED (...)".
_HASH_LINE = re.compile(r"^[0-9a-f]{64}  (\S+)  (ok|MOVED)")
# pytest -rfE prints one "FAILED <id> - <reason>" or "ERROR <id> - <reason>" line per fault.
_FAULT_LINE = re.compile(r"^(FAILED|ERROR) (\S+)")
# pytest's last line counts the outcomes: "12 failed, 768 passed, 1 skipped in 80.12s".
_SUMMARY = re.compile(r"\d+ (passed|failed|errors?|skipped)\b")


def child_env(variant: dict) -> dict:
    """This process's environment with ``variant`` set and ``src`` first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, **variant, "PYTHONPATH": path}


def tier1(env: dict) -> tuple:
    """(pytest's summary line, failing test ids) of one Tier-1 run; (None, []) if it has none."""
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    summary = next((line for line in reversed(lines) if _SUMMARY.search(line)), None)
    if summary is None:
        return None, []
    return summary.strip("= "), [m.group(2) for m in map(_FAULT_LINE.match, lines) if m]


def seed0(env: dict) -> tuple:
    """(exit code, platform line, {artifact: moved}) of one seed-0 tool run."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "seed0_hashes.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    platform = next((line for line in lines if line.startswith("platform: ")), "platform: ?")
    hashes = {m.group(1): m.group(2) == "MOVED" for m in map(_HASH_LINE.match, lines) if m}
    return proc.returncode, platform, hashes


def main() -> int:
    unreadable = False
    for variant in VARIANTS:
        env = child_env(variant)
        print("== " + " ".join(f'{name}="{value}"' for name, value in variant.items()))
        summary, failing = tier1(env)
        unreadable |= summary is None
        print(f"tier-1: {summary or 'no summary line'}")
        for test_id in failing:
            print(f"  failed: {test_id}")
        code, platform, hashes = seed0(env)
        print(f"seed-0: exit {code}, {platform}")
        if len(hashes) != 12:
            unreadable = True
            print(f"  read {len(hashes)} hash lines, not 12")
        moved = [name for name, is_moved in hashes.items() if is_moved]
        print(f"  moved {len(moved)} of {len(hashes)}: {', '.join(moved) or 'none'}")
    return 1 if unreadable else 0


if __name__ == "__main__":
    sys.exit(main())
