"""The per-batch training steps ``trainer._fit`` replaced, kept as an oracle.

Each step gathers its rows by the batch's indices, checks and normalises
them again (``model_inputs`` of the batch), and updates the
parameters with the whole-array Adam (``net_oracles.adam_whole_array``),
which divides by the bias correction at every step. The trained
parameters must match ``train_stage1`` and ``train_stage2`` bit for bit.
"""

from __future__ import annotations

import numpy as np

from gazeshift.prior import ConditionalPrior, focal_loss_rows
from gazeshift.trainer import CodeErrors, dataset_arrays, record_codes
from gazeshift.vqvae import ConditionalVQVAE, model_inputs, target_rotations
from net_oracles import adam_whole_array


def fit_reference(flat, n: int, epochs: int, rng, config, step) -> list:
    """Per epoch, (a copy of ``flat`` after it, the row-weighted mean loss terms).

    The shuffle, batch order and short last batch are those of ``_fit``;
    ``step(batch)`` returns (loss-term array, flat gradient). Each epoch's
    rate is counted here, ``lr * lr_decay ** (milestones <= epoch)``, not
    read from ``TrainConfig.lr_at``.
    """
    state = {"lr": config.lr, "weight_decay": config.weight_decay,
             "m": np.zeros(len(flat)), "v": np.zeros(len(flat)), "t": 0}
    epochs_done = []
    for epoch in range(epochs):
        passed = sum(1 for milestone in config.milestones if milestone <= epoch)
        state["lr"] = config.lr * config.lr_decay ** passed
        perm = rng.permutation(n)
        sums = 0.0
        for start in range(0, n, config.batch_size):
            batch = perm[start:start + config.batch_size]
            terms, grad = step(batch)
            adam_whole_array(state, flat, grad)
            sums = sums + terms * len(batch)
        epochs_done.append((flat.copy(), sums / n))
    return epochs_done


def stage1_reference(dataset, config) -> list:
    """``fit_reference`` of stage 1: (total, rec, embed, commit) terms per epoch."""
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    model = ConditionalVQVAE(config.vqvae_config(), seed=config.seed)
    Y, C = dataset_arrays(dataset, "train")
    R_true = target_rotations(Y, C)

    def step(batch):
        terms, grad = model.loss_and_grads(*model_inputs(Y[batch], C[batch], config.target_scale),
                                           R_true=R_true[batch])
        return np.array([terms.total, terms.rec, terms.embed, terms.commit]), grad

    return fit_reference(model.flat, len(Y), config.stage1_epochs,
                         np.random.default_rng(seeds[1]), config, step)


def stage2_reference(model, dataset, config) -> list:
    """``fit_reference`` of stage 2 against the frozen ``model``: (focal, mc) terms per epoch."""
    seeds = np.random.SeedSequence(config.seed).spawn(4)
    prior = ConditionalPrior(config.prior_config(), seed=config.seed + 1)
    Y, C = dataset_arrays(dataset, "train")
    Y, X = model_inputs(Y, C, config.target_scale)
    labels = record_codes(model, Y, X)
    errors = CodeErrors.of(model.decode_codes(X), X, target_rotations(Y, X))

    def step(batch):
        logits = prior.logits_rows(model_inputs(Y[batch], C[batch], config.target_scale)[1])
        focal, _, dlogits = focal_loss_rows(logits, labels[batch], config.gamma)
        d_eye, d_head = errors.at(batch, np.argmax(logits, axis=1))
        mc = float((d_eye + config.lambda_mc * d_head).mean())
        grad, _ = prior.net.backward(dlogits, input_grad=False)
        return np.array([focal, mc]), grad

    return fit_reference(prior.net.flat, len(C), config.stage2_epochs,
                         np.random.default_rng(seeds[3]), config, step)
