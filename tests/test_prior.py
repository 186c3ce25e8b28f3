"""Conditional prior: softmax, focal loss, motion consistency, sampling.

The motion-consistency term rides on the argmax code through the frozen
decoder, so wherever the argmax is locally constant the term is locally
constant in the prior parameters — the tests assert its finite difference
is exactly zero there, and that the training gradient is the focal
gradient alone. ``motion_consistency_rows`` below decodes the argmax code
batch by batch; it is the oracle for the per-code error tables
(``trainer.CodeErrors``) that stage-2 training and validation look up, and
the tests require the two to agree bit for bit.
"""

from __future__ import annotations

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazeshift.prior import (_DIST_ATOL, PROB_FLOOR, ConditionalPrior, PriorConfig,
                             check_distribution, focal_loss_rows, sample_code,
                             softmax_rows)
from gazeshift.trainer import CodeErrors, validate_stage2
from gazeshift.vqvae import (ConditionalVQVAE, VQVAEConfig, condition_inputs, pose_errors_rows,
                             target_rotations)
from datagen_oracles import EyePose, HeadPose, PoseCondition
from net_oracles import same_bits

FD_H = 1e-6
FD_REL = 1e-4


def small_prior(seed: int = 0) -> ConditionalPrior:
    return ConditionalPrior(PriorConfig(codebook_size=4, hidden_width=8), seed=seed)


def a_condition() -> PoseCondition:
    return PoseCondition(EyePose(0.1, -0.05), HeadPose(0.2, 0.1, 0.02),
                           [1.4, 0.6, 0.3])


def a_row() -> np.ndarray:
    """``a_condition()`` as one (1, 8) row of network inputs (``condition_inputs``)."""
    return condition_inputs(a_condition().as_input()[None, :], PriorConfig().target_scale)


def motion_consistency_rows(model, logits: np.ndarray, Y: np.ndarray, X: np.ndarray,
                            lambda_mc: float = 1.0) -> np.ndarray:
    """Per-row geodesic error of the most likely code's decoded allocation.

    ``model`` needs a ``codebook`` array and ``decode_rows(Zq, X)``; ``X``
    holds the condition rows as network inputs. Returns d_eye + lambda_mc *
    d_head against the true allocations ``Y``; the argmax makes the value
    piecewise constant in ``logits``.
    """
    pred = model.decode_rows(model.codebook[np.argmax(logits, axis=1)], X)
    d_eye, d_head = pose_errors_rows(pred, X, target_rotations(Y, X))
    return d_eye + lambda_mc * d_head


def focal_loss(pi: np.ndarray, index: int, gamma: float = 2.0) -> float:
    """Scalar reference: -(1 - pi[index])**gamma * log(pi[index]), floored."""
    pi, _ = check_distribution(pi)
    if not 0 <= index < len(pi):
        raise ValueError(f"code index {index} outside codebook of size {len(pi)}")
    p = float(pi[index])
    return -((1.0 - p) ** gamma) * math.log(max(p, PROB_FLOOR))


class FixedDecoder:
    """Decodes code k to a preset allocation, ignoring the condition."""

    def __init__(self, allocations):
        self._allocations = np.array(allocations, dtype=float)
        # one-hot codebook rows so codebook[k] identifies k
        self.codebook = np.eye(len(allocations))

    def decode_rows(self, Zq, X):
        return self._allocations[np.argmax(Zq, axis=1)]


def logits_for(code: int, k: int) -> np.ndarray:
    """One row of logits whose argmax is ``code``."""
    logits = np.zeros((1, k))
    logits[0, code] = 1.0
    return logits


def mc_rows(model, logits, c: PoseCondition, target_eye: EyePose,
            target_head: HeadPose, lambda_mc: float = 1.0) -> np.ndarray:
    """motion_consistency_rows for one condition and its true target poses."""
    X = condition_inputs(c.as_input()[None, :], VQVAEConfig().target_scale)
    Y = np.concatenate([target_eye.as_array() - c.eye.as_array(),
                        target_head.as_array() - c.head.as_array()])[None, :]
    return motion_consistency_rows(model, logits, Y, X, lambda_mc)


# -- softmax and distribution checks ----------------------------------------------

def test_softmax_uniform_at_zero_logits():
    pi = softmax_rows(np.zeros((2, 10)))
    np.testing.assert_allclose(pi, 0.1, atol=1e-15)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(5, 7)) * 3
    a = softmax_rows(logits)
    b = softmax_rows(logits + 17.0)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    pi = softmax_rows(np.array([[1000.0, 0.0, -1000.0]]))
    assert np.all(np.isfinite(pi))
    assert pi[0, 0] == pytest.approx(1.0)


def test_check_distribution_rejects_bad_inputs():
    with pytest.raises(ValueError):
        check_distribution(np.array([0.5, 0.6]))        # sums past 1
    with pytest.raises(ValueError):
        check_distribution(np.array([1.2, -0.2]))       # negative entry
    with pytest.raises(ValueError):
        check_distribution(np.full((2, 2), 0.25))       # not one row
    ok, total = check_distribution(np.full(4, 0.25))
    assert ok.shape == (4,) and total == 1.0


def check_distribution_four_pass(pi) -> np.ndarray:
    """The four-pass check (``isfinite``, ``< 0``, ``sum``, ``abs``) that
    ``check_distribution`` replaced, kept as its oracle; it prints the sum
    as a Python float, as ``check_distribution`` now does."""
    pi = np.asarray(pi, dtype=float)
    if pi.ndim != 1:
        raise ValueError(f"distribution has wrong shape {pi.shape}")
    if not np.isfinite(pi).all() or (pi < 0).any():
        raise ValueError("distribution entries must be finite and non-negative")
    if abs(float(pi.sum()) - 1.0) > _DIST_ATOL:
        raise ValueError(f"distribution sums to {float(pi.sum())!r}, not 1")
    return pi


def softmax_rows_three_temporaries(logits) -> np.ndarray:
    """The softmax ``softmax_rows`` replaced, kept as its oracle: a new array
    for the shifted logits, one for ``exp`` and one for the quotient."""
    logits = np.asarray(logits, dtype=float)
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _checked(check, pi) -> tuple:
    """What ``check`` makes of ``pi``, with every RuntimeWarning an error:
    ("ok", the checked array's dtype, shape and bytes) or (exception type, message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            checked = check(pi)
        except (ValueError, RuntimeWarning) as exc:
            return type(exc).__name__, str(exc)
    return "ok", checked.dtype, checked.shape, checked.tobytes()


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-300, -0.25, 1e308]
# added to one entry of a normalised pi: sums on both sides of the 1e-9 tolerance
_NUDGES = [0.0, 1e-12, -1e-12, 0.5e-9, -0.5e-9, 0.999e-9, -0.999e-9,
           1.001e-9, -1.001e-9, 2e-9, -2e-9, 0.1, -0.1]


@st.composite
def distributions(draw):
    """Candidate distributions: normalised rows, nudged around the tolerance,
    with special or arbitrary entries planted, as a 1-D array, a list, one 2-D
    row or column, or a 0-D array."""
    k = draw(st.integers(0, 12))
    pi = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k)), dtype=float)
    if k:
        pi /= pi.sum()
        pi[draw(st.integers(0, k - 1))] += draw(st.sampled_from(_NUDGES))
        for _ in range(draw(st.integers(0, 2))):
            pi[draw(st.integers(0, k - 1))] = draw(st.sampled_from(_SPECIAL) | st.floats())
    form = draw(st.sampled_from(["1-D", "1-D", "1-D", "list", "row", "column", "0-D"]))
    if form == "list":
        return pi.tolist()
    if form in ("row", "column"):
        return pi.reshape((1, -1) if form == "row" else (-1, 1))
    return np.array(pi[0] if k else 1.0) if form == "0-D" else pi


@settings(max_examples=1000, deadline=None)
@given(distributions())
@example(np.array([0.5, math.nan, 0.5]))
@example(np.array([0.5, math.inf, 0.5]))
@example(np.array([0.5, -math.inf, 1.5]))
@example(np.array([math.inf, -math.inf, 1.0]))
@example(np.array([-0.0, 0.25, 0.75]))
@example(np.array([1.25, -0.25]))
@example(np.array([0.5, 0.5 + 0.999e-9]))
@example(np.array([0.5, 0.5 + 1.001e-9]))
@example(np.array([0.5, 0.5 - 0.999e-9]))
@example(np.array([0.5, 0.5 - 1.001e-9]))
@example(np.array([1e308, 1e308]))
@example(np.array([]))
@example(np.full((2, 2), 0.25))
def test_check_distribution_accepts_and_refuses_as_the_four_pass_check(pi):
    expected = _checked(check_distribution_four_pass, pi)
    assert _checked(lambda p: check_distribution(p)[0], pi) == expected
    if expected[0] == "ok":
        checked, total = check_distribution(pi)
        assert same_bits(total, checked.sum())


@pytest.mark.parametrize("pi, message", [
    ([0.5, 0.4], "distribution sums to 0.9, not 1"),
    ([0.5, 0.5 + 1.001e-9], "distribution sums to 1.000000001001, not 1"),
    ([], "distribution sums to 0.0, not 1"),
    ([1e308, 1e308, -0.0], "distribution sums to inf, not 1"),
    ([0.5, math.nan, 0.5], "distribution entries must be finite and non-negative"),
    ([0.5, math.inf], "distribution entries must be finite and non-negative"),
    ([1.5, -math.inf], "distribution entries must be finite and non-negative"),
    ([1.25, -0.25], "distribution entries must be finite and non-negative"),
    ([[0.5, 0.5]], "distribution has wrong shape (1, 2)"),
])
def test_check_distribution_refusal_messages(pi, message):
    # the sum prints as a Python float, never as np.float64(...)
    with np.errstate(over="ignore"):
        for refuse in (check_distribution,
                       lambda p: sample_code(p, np.random.default_rng(0), 1)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                refuse(np.array(pi, dtype=float))


@pytest.mark.parametrize("pi", [[0.5, 0.5 + 0.999e-9], [0.5, 0.5 - 0.999e-9], [-0.0, 1.0]])
def test_check_distribution_accepts_within_the_tolerance(pi):
    checked, total = check_distribution(pi)
    assert isinstance(checked, np.ndarray) and same_bits(checked, np.array(pi))
    assert same_bits(total, checked.sum())


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-3, 1.0, 30.0, 700.0, 1e4]), st.booleans())
def test_softmax_rows_has_the_bits_of_the_three_temporary_formula(n, k, seed, scale, ties):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, k)) * scale
    if ties:  # repeated maxima and repeated values
        logits = np.round(logits / scale) * scale
    before = logits.copy()
    assert same_bits(softmax_rows(logits), softmax_rows_three_temporaries(logits))
    assert same_bits(logits, before)  # the caller's logits are never written to
    assert same_bits(softmax_rows(logits[0]), softmax_rows_three_temporaries(logits[0]))
    assert same_bits(softmax_rows(logits.tolist()), softmax_rows_three_temporaries(logits))


# -- focal loss ---------------------------------------------------------------------

def test_focal_loss_zero_at_certainty():
    pi = np.array([0.0, 1.0, 0.0])
    assert focal_loss(pi, 1, gamma=2.0) == 0.0


def test_focal_loss_reduces_to_cross_entropy_at_gamma_zero():
    pi = np.array([0.5, 0.5])
    assert focal_loss(pi, 0, gamma=0.0) == pytest.approx(math.log(2.0), abs=1e-12)


def test_focal_loss_down_weights_easy_examples():
    pi = np.array([0.5, 0.5])
    assert focal_loss(pi, 0, gamma=2.0) == pytest.approx(0.25 * math.log(2.0), abs=1e-12)


def test_focal_loss_floors_the_probability():
    pi = np.array([1.0, 0.0])
    val = focal_loss(pi, 1, gamma=2.0)
    assert val == pytest.approx(-math.log(1e-12), rel=1e-9)
    assert math.isfinite(val)


def test_focal_loss_rejects_bad_index():
    with pytest.raises(ValueError):
        focal_loss(np.array([0.5, 0.5]), 2)
    with pytest.raises(ValueError):
        focal_loss(np.array([0.5, 0.5]), -1)


def test_focal_loss_rows_matches_scalar():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(6, 5))
    labels = rng.integers(0, 5, size=6)
    mean, vals, _ = focal_loss_rows(logits, labels, gamma=2.0)
    pi = softmax_rows(logits)
    expected = [focal_loss(pi[i], int(labels[i]), gamma=2.0) for i in range(6)]
    np.testing.assert_allclose(vals, expected, atol=1e-12)
    assert mean == pytest.approx(np.mean(expected), abs=1e-12)


@pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0])
def test_focal_loss_rows_gradient_matches_fd(gamma):
    rng = np.random.default_rng(13)
    logits = rng.normal(size=(4, 5))
    labels = rng.integers(0, 5, size=4)
    _, _, dlogits = focal_loss_rows(logits, labels, gamma=gamma)
    for i in range(4):
        for j in range(5):
            step = np.zeros_like(logits)
            step[i, j] = FD_H
            up, _, _ = focal_loss_rows(logits + step, labels, gamma=gamma)
            down, _, _ = focal_loss_rows(logits - step, labels, gamma=gamma)
            fd = (up - down) / (2 * FD_H)
            assert dlogits[i, j] == pytest.approx(fd, rel=FD_REL, abs=1e-9), (i, j)


def test_focal_gradient_at_gamma_zero_is_cross_entropy():
    # gamma = 0 must reproduce softmax cross-entropy: (pi - onehot) / n
    rng = np.random.default_rng(17)
    logits = rng.normal(size=(3, 4))
    labels = np.array([2, 0, 3])
    _, _, dlogits = focal_loss_rows(logits, labels, gamma=0.0)
    pi = softmax_rows(logits)
    expected = pi.copy()
    expected[np.arange(3), labels] -= 1.0
    np.testing.assert_allclose(dlogits, expected / 3.0, atol=1e-12)


# -- motion consistency ----------------------------------------------------------------

def test_motion_consistency_zero_on_exact_match():
    c = a_condition()
    alloc = np.array([0.05, -0.02, 0.15, 0.08, -0.01])
    decoder = FixedDecoder([alloc])
    target_eye = EyePose(c.eye.yaw + 0.05, c.eye.pitch - 0.02)
    target_head = HeadPose(c.head.yaw + 0.15, c.head.pitch + 0.08, c.head.roll - 0.01)
    val = mc_rows(decoder, logits_for(0, 1), c, target_eye, target_head)[0]
    assert val == pytest.approx(0.0, abs=1e-7)


def test_motion_consistency_same_axis_oracle():
    # eye exact, head yaw off by 0.3 rad -> mc = lambda_mc * 0.3
    c = PoseCondition(EyePose(0, 0), HeadPose(0, 0, 0), [1.0, 0.0, 0.0])
    decoder = FixedDecoder([np.zeros(5)])
    val = mc_rows(decoder, logits_for(0, 1), c, EyePose(0, 0),
                  HeadPose(0.3, 0, 0), lambda_mc=2.0)[0]
    assert val == pytest.approx(0.6, abs=1e-9)


class FixedPrior:
    """A prior whose logits per row are given up front."""

    def __init__(self, logits):
        self.logits = logits

    def logits_rows(self, X):
        return self.logits


@pytest.mark.parametrize("n", [644, 170, 162, 161, 40])
@pytest.mark.parametrize("lambda_mc", [1.0, 0.7])
def test_code_error_tables_equal_per_batch_decoding(n, lambda_mc):
    """The gathered stage-2 values and validation MGDs equal the oracle bit for bit.

    At the shipped widths, up to the 644 rows of the shipped training
    split, which ``decode_codes`` decodes in one pass per code.
    """
    rng = np.random.default_rng(n)
    model = ConditionalVQVAE(VQVAEConfig(), seed=3)
    K = model.config.codebook_size
    C = np.concatenate([rng.uniform(-0.3, 0.3, (n, 5)), rng.uniform(0.5, 2.0, (n, 3))], axis=1)
    X = condition_inputs(C, model.config.target_scale)
    Y = rng.uniform(-0.6, 0.6, (n, 5))
    logits = rng.normal(size=(n, K)) * 3
    errors = CodeErrors.of(model.decode_codes(X), X, target_rotations(Y, X))
    # Training batches: a shuffle cut into batches of 32 and a short
    # remainder, plus batches of 2 and 3. Not single rows: numpy decodes a
    # one-row batch by a matrix-vector path whose last bits can differ.
    perm = rng.permutation(n)
    batches = [perm[i:i + 32] for i in range(0, n, 32)] + [perm[:2], perm[-3:]]
    for batch in (b for b in batches if len(b) > 1):
        d_eye, d_head = errors.at(batch, np.argmax(logits[batch], axis=1))
        oracle = motion_consistency_rows(model, logits[batch], Y[batch], X[batch], lambda_mc)
        assert np.array_equal(d_eye + lambda_mc * d_head, oracle)
    # Validation over all rows at once.
    labels = rng.integers(0, K, size=n)
    codes = np.argmax(logits, axis=1)
    d_eye, d_head = pose_errors_rows(model.decode_rows(model.codebook[codes], X), X,
                                     target_rotations(Y, X))
    expected = (math.degrees(float(d_eye.mean())), math.degrees(float(d_head.mean())),
                float((codes == labels).mean()))
    *metrics, got_codes = validate_stage2(FixedPrior(logits), X, errors, labels)
    assert tuple(metrics) == expected
    assert np.array_equal(got_codes, codes)


# -- the argmax blocks the consistency gradient ------------------------------------------

def test_consistency_term_has_exactly_zero_gradient_in_prior_params():
    """FD of the mc term in any prior parameter is 0.0 while argmax holds."""
    prior = small_prior(seed=1)
    frozen = ConditionalVQVAE(VQVAEConfig(codebook_size=4, latent_dim=3,
                                          hidden_width=8), seed=2)
    c, row = a_condition(), a_row()
    target_eye = EyePose(0.2, -0.1)
    target_head = HeadPose(0.3, 0.1, 0.0)

    def mc_of_phi() -> float:
        logits = prior.logits_rows(row)
        return float(mc_rows(frozen, logits, c, target_eye, target_head).mean())

    base_pi = prior.forward_rows(row)[0]
    base_code = int(np.argmax(base_pi))
    # the argmax must actually be locally constant for the property to apply
    gap = np.sort(base_pi)[-1] - np.sort(base_pi)[-2]
    assert gap > 1e-6
    base_mc = mc_of_phi()
    rng = np.random.default_rng(29)
    for name, p in prior.params().items():
        flat = p.ravel()
        for j in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[j]
            flat[j] = orig + FD_H
            up = mc_of_phi()
            assert int(np.argmax(prior.forward_rows(row))) == base_code
            flat[j] = orig - FD_H
            down = mc_of_phi()
            assert int(np.argmax(prior.forward_rows(row))) == base_code
            flat[j] = orig
            # not merely small: the term is locally constant, so the
            # difference is exactly zero
            assert up == base_mc and down == base_mc
            assert up - down == 0.0


def test_training_gradient_is_focal_gradient_alone():
    """FD of focal + eta*mc in the logits equals the focal-only gradient."""
    rng = np.random.default_rng(31)
    logits = rng.normal(size=(1, 4))
    label = 2
    frozen = ConditionalVQVAE(VQVAEConfig(codebook_size=4, latent_dim=3,
                                          hidden_width=8), seed=2)
    c = a_condition()
    target_eye, target_head = EyePose(0.2, -0.1), HeadPose(0.3, 0.1, 0.0)

    def objective(lg):
        # the stage-2 objective focal + eta * mc, at eta = 1
        focal, _, _ = focal_loss_rows(lg, np.array([label]), gamma=2.0)
        return focal + float(mc_rows(frozen, lg, c, target_eye, target_head).mean())

    _, _, dlogits = focal_loss_rows(logits, np.array([label]), gamma=2.0)
    for j in range(4):
        step = np.zeros_like(logits)
        step[0, j] = FD_H
        fd = (objective(logits + step) - objective(logits - step)) / (2 * FD_H)
        assert dlogits[0, j] == pytest.approx(fd, rel=FD_REL, abs=1e-9)


# -- sampling ------------------------------------------------------------------------------

def test_sample_code_one_hot_is_deterministic():
    pi = np.zeros(6)
    pi[4] = 1.0
    rng = np.random.default_rng(0)
    assert sample_code(pi, rng, 50).tolist() == [4] * 50


def test_sample_code_uniform_frequencies():
    pi = np.full(10, 0.1)
    rng = np.random.default_rng(7)
    draws = sample_code(pi, rng, 100_000)
    freq = np.bincount(draws, minlength=10) / draws.size
    np.testing.assert_allclose(freq, 0.1, atol=0.01)


def test_sample_code_seed_determinism():
    pi = np.array([0.2, 0.3, 0.5])
    a = sample_code(pi, np.random.default_rng(42), 5)
    b = sample_code(pi, np.random.default_rng(42), 5)
    assert a.tolist() == b.tolist()


def test_sample_code_rejects_invalid_distribution():
    with pytest.raises(ValueError):
        sample_code(np.array([0.5, 0.4]), np.random.default_rng(0), 1)
    with pytest.raises(ValueError):
        sample_code(np.array([0.5, 0.4]), np.random.default_rng(0), size=5)


@pytest.mark.parametrize("pi", [np.array([0.2, 0.3, 0.5]), np.eye(6)[4], np.full(10, 0.1),
                                np.random.default_rng(3).dirichlet(np.ones(10))])
@pytest.mark.parametrize("seed", [0, 11])
def test_sample_code_size_n_equals_n_single_draws(pi, seed):
    one, many = np.random.default_rng(seed), np.random.default_rng(seed)
    singles = [sample_code(pi, one, 1) for _ in range(500)]
    assert all(code.shape == (1,) for code in singles)
    drawn = sample_code(pi, many, 500)
    assert drawn.shape == (500,)
    assert drawn.tolist() == np.concatenate(singles).tolist()
    # both calls leave the generator in the same state
    assert one.random() == many.random()


def _pinned_distribution(seed: int):
    """K = 1..40 in turn; dense, one-hot, then with zero entries, each K twice."""
    k = 1 + seed % 40
    rng = np.random.default_rng(10_000 + seed)
    kind = (seed // 40) % 3
    if kind == 1:
        return k, np.eye(k)[rng.integers(k)]
    pi = rng.random(k)
    if kind == 2:
        pi[rng.random(k) < 0.4] = 0.0
        pi[rng.integers(k)] = 1.0
    return k, pi / pi.sum()


def test_sample_code_equals_generator_choice_draw_for_draw():
    # sample_code writes out numpy's inverse-CDF search; a numpy release that
    # changes Generator.choice must fail here, not drift silently.
    for seed in range(240):
        k, pi = _pinned_distribution(seed)
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for size in (1, 7, 1000):
            drawn = sample_code(pi, ours, size)
            expected = numpys.choice(k, size=size, p=pi / pi.sum())
            assert drawn.dtype == expected.dtype and drawn.shape == expected.shape
            assert np.array_equal(drawn, expected), (seed, size)
        assert ours.random() == numpys.random(), seed


# -- the prior network -----------------------------------------------------------------------

def test_prior_uniform_at_zero_parameters():
    prior = small_prior()
    prior.set_params({k: np.zeros_like(v) for k, v in prior.params().items()})
    pi = prior.forward_rows(a_row())
    assert pi.shape == (1, 4)
    np.testing.assert_allclose(pi, 0.25, atol=1e-15)


def test_prior_forward_is_a_distribution_and_deterministic():
    pi_a = small_prior(seed=9).forward_rows(a_row())
    pi_b = small_prior(seed=9).forward_rows(a_row())
    assert check_distribution(pi_a[0])[0].shape == (4,)
    np.testing.assert_array_equal(pi_a, pi_b)


def test_prior_config_validation():
    with pytest.raises(ValueError):
        PriorConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        PriorConfig(codebook_size=0)


def small_stage1(tmp_path):
    """The checkpoint of a small saved VQ-VAE, for pairing a prior with."""
    path = tmp_path / "stage1.json"
    ConditionalVQVAE(VQVAEConfig(codebook_size=4, latent_dim=3, hidden_width=8), seed=0).save(path)
    return ConditionalVQVAE.load(path)[1]


def test_prior_checkpoint_round_trip(tmp_path):
    prior = small_prior(seed=5)
    stage1 = small_stage1(tmp_path)
    path = tmp_path / "prior.json"
    digest = prior.save(path, stage1_sha256=stage1.sha256)
    loaded, ck = ConditionalPrior.load(path, stage1=stage1)
    assert ck.sha256 == digest
    assert ck.metadata["model"]["stage1_sha256"] == stage1.sha256
    assert all(same_bits(loaded.params()[name], p) for name, p in prior.params().items())
    assert loaded.config == prior.config
    np.testing.assert_array_equal(loaded.forward_rows(a_row()), prior.forward_rows(a_row()))


def _edit_checkpoint(path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


# metadata["model"] of each checkpoint kind, as save_model writes it: the
# fields both models share first, then the model's own, then the extras
MODEL_KEYS = {
    "conditional-vqvae": ["kind", "codebook_size", "hidden_width", "target_scale",
                          "latent_dim", "beta", "lambda_rc", "codebook_init_scale"],
    "conditional-prior": ["kind", "codebook_size", "hidden_width", "target_scale",
                          "gamma", "eta", "lambda_mc", "stage1_sha256"],
}
# The order checkpoints were written in before the shared fields moved first
# (priors of that time recorded their stage-1 link under another key).
EARLIER_MODEL_KEYS = {
    "conditional-vqvae": ["kind", "codebook_size", "latent_dim", "hidden_width", "beta",
                          "lambda_rc", "target_scale", "codebook_init_scale"],
    "conditional-prior": ["kind", "codebook_size", "hidden_width", "gamma", "eta",
                          "lambda_mc", "target_scale", "stage1_sha256"],
}


def _saved_small_models(tmp_path) -> dict:
    """{kind: (model, loader, path)} for a small VQ-VAE and prior saved under tmp_path."""
    vqvae = ConditionalVQVAE(VQVAEConfig(codebook_size=4, latent_dim=3, hidden_width=8), seed=0)
    prior = small_prior(seed=5)
    vqvae.save(tmp_path / "stage1.json")
    prior.save(tmp_path / "prior.json", stage1_sha256=vqvae.save(tmp_path / "stage1.json"))
    return {"conditional-vqvae": (vqvae, ConditionalVQVAE.load, tmp_path / "stage1.json"),
            "conditional-prior": (prior, ConditionalPrior.load, tmp_path / "prior.json")}


def test_checkpoint_model_keys_keep_their_order(tmp_path):
    for kind, (_, _, path) in _saved_small_models(tmp_path).items():
        assert list(json.loads(path.read_text())["metadata"]["model"]) == MODEL_KEYS[kind]


def test_checkpoint_with_model_keys_in_the_earlier_order_loads_alike(tmp_path):
    for kind, (model, load, path) in _saved_small_models(tmp_path).items():
        def reorder(doc):
            spec = doc["metadata"]["model"]
            doc["metadata"]["model"] = {name: spec[name] for name in EARLIER_MODEL_KEYS[kind]}
        _edit_checkpoint(path, reorder)
        assert list(json.loads(path.read_text())["metadata"]["model"]) == EARLIER_MODEL_KEYS[kind]
        loaded, _ = load(path)
        assert loaded.config == model.config
        loaded_params = loaded.params()
        assert list(loaded_params) == list(model.params())
        for name, value in model.params().items():
            assert same_bits(loaded_params[name], value), name


def test_prior_checkpoint_with_mc_gradient_is_refused(tmp_path):
    # the key had one value, "none", and no reader; a file of an older build
    # that still holds it is an unknown field, whatever its value
    path = tmp_path / "prior.json"
    small_prior(seed=5).save(path)
    assert "mc_gradient" not in json.loads(path.read_text())["metadata"]["model"]
    ConditionalPrior.load(path)
    for value in ("none", "gumbel"):
        small_prior(seed=5).save(path)
        _edit_checkpoint(path, lambda doc: doc["metadata"]["model"].update(mc_gradient=value))
        with pytest.raises(ValueError, match=r"unknown model config fields: \['mc_gradient'\]"):
            ConditionalPrior.load(path)


def test_prior_load_rejects_extra_or_misshapen_params(tmp_path):
    path = tmp_path / "prior.json"
    small_prior(seed=5).save(path)
    extra = {"shape": [1], "data": [0.0]}
    _edit_checkpoint(path, lambda doc: doc["params"].update({"3.W": extra}))
    with pytest.raises(ValueError, match="unexpected"):
        ConditionalPrior.load(path)
    small_prior(seed=5).save(path)
    _edit_checkpoint(path, lambda doc: doc["params"].update({"2.b": extra}))
    with pytest.raises(ValueError, match="shape"):
        ConditionalPrior.load(path)


def test_prior_load_rejects_stage1_sha256_mismatch(tmp_path):
    # the link is the stage-1 file's bytes: the same values re-indented, or
    # no link at all, do not pair
    stage1 = small_stage1(tmp_path)
    path = tmp_path / "prior.json"
    for stored in (None, "abc123", stage1.sha256):
        small_prior(seed=5).save(path, stage1_sha256=stored)
        ConditionalPrior.load(path)  # without a stage-1 model to pair, any link loads
        if stored == stage1.sha256:
            ConditionalPrior.load(path, stage1=stage1)
            continue
        with pytest.raises(ValueError, match=f"different first-stage model .*{stored!r}"):
            ConditionalPrior.load(path, stage1=stage1)
    stage1_path = tmp_path / "stage1.json"
    stage1_path.write_text(json.dumps(json.loads(stage1_path.read_text()), indent=1))
    respaced = ConditionalVQVAE.load(stage1_path)[1]
    assert all(same_bits(respaced.params[name], p) for name, p in stage1.params.items())
    with pytest.raises(ValueError, match="different first-stage model"):
        ConditionalPrior.load(path, stage1=respaced)


def test_prior_load_rejects_other_checkpoints(tmp_path):
    model = ConditionalVQVAE(VQVAEConfig(codebook_size=4, latent_dim=3,
                                         hidden_width=8), seed=0)
    path = tmp_path / "model.json"
    model.save(path)
    with pytest.raises(ValueError):
        ConditionalPrior.load(path)
