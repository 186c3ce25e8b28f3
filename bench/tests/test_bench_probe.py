"""The speed probe's child process and the scale factors it gives.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import statistics
import time

import numpy as np

import probe


def test_probe_samples_on_its_own_and_scales(tmp_path):
    with probe.Probe(tmp_path) as p:
        start = p.mark()
        result, factor = p.around(time.sleep, 3 * probe.PERIOD)
    assert result is None
    assert all(0 < s < 1 for s in p.samples)
    assert p.moments == sorted(p.moments)
    # The readings at either end of the call and the periodic probes between.
    assert len(p.samples) - start >= 4
    assert factor == statistics.fmean(probe.REF_S / s for s in p.samples[start + 1:])
    assert p.proc.returncode == 0


def test_factors_at_average_the_probes_near_each_moment():
    p = object.__new__(probe.Probe)  # no child process: hand-made probes
    p.moments = [0.0, 0.1, 0.2, 1.0]
    p.samples = [probe.REF_S, probe.REF_S / 2, probe.REF_S / 4, probe.REF_S]
    got = p.factors_at([0.1, 0.5, 2.0, -1.0])
    # 0.1 sees all of the first three; 0.5 sees none and takes the nearest
    # (the probe at 0.2); 2.0 and -1.0 take the last and the first.
    np.testing.assert_allclose(got, [(1 + 2 + 4) / 3, 4.0, 1.0, 1.0])
