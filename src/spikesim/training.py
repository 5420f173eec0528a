"""Maximum-likelihood training and inference under the first-to-spike rule.

The classifier fires a decision as soon as any output neuron spikes.
Training maximizes the log probability that the labeled neuron is the
first to spike at some step within the presentation time, marginalized
over the decision step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .glm import (
    GlmModel,
    add_tap_contributions,
    draw_rasters,
    kernel_matrix,
    log_one_minus_sigmoid,
    log_sigmoid,
    sigmoid,
    signed_inputs,
    windowed_potentials_adjoint,
)
from .quantize import accuracies


#: train samples scored for each epoch's train accuracy; the test split is
#: always scored whole
TRAIN_EVAL_CAP = 2000


class TrainingDiverged(ArithmeticError):
    """Raised when the objective or gradient becomes non-finite."""


@dataclass
class TrainConfig:
    presentation_time: int
    window: int
    epochs: int = 200
    learning_rate: float = 0.05
    batch_size: int = 32
    seed: int = 0

    def validate(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning_rate must be finite and >= 0, not {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 1 <= self.window <= self.presentation_time:
            raise ValueError("need presentation_time >= window >= 1")


@dataclass
class EpochMetrics:
    epoch: int
    train_accuracy: float
    test_accuracy: float
    mean_loss: float


def _log_prob_series(u_tm, labels):
    """Log probability that the labeled neuron fires first, exactly at each step.

    u_tm: potentials, time-major (batch, T, n_outputs); labels: (batch,).
    Returns (batch, T) of log p_t: every competitor silent through step t,
    the labeled neuron silent before t and spiking at t.
    """
    silent = log_one_minus_sigmoid(u_tm)
    rows = np.arange(len(u_tm))
    silent_c = silent[rows, :, labels]  # (batch, T)
    fire_c = log_sigmoid(u_tm[rows, :, labels])
    s_all = np.cumsum(silent.sum(axis=2), axis=1)
    s_c = np.cumsum(silent_c, axis=1)
    s_c_prev = np.concatenate([np.zeros((u_tm.shape[0], 1)), s_c[:, :-1]], axis=1)
    return s_all - s_c + s_c_prev + fire_c


def _logsumexp(x, axis):
    m = np.max(x, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))).squeeze(axis)


def _batch_objective_and_gradient(kmat, biases, rasters, signs, labels):
    """Mean objective and its exact gradient over a minibatch.

    kmat is the glm.kernel_matrix of the kernels, (n_inputs, window *
    n_outputs), and biases (n_outputs,); rasters: (batch, n_inputs, T),
    signs: (batch, n_inputs), labels: (batch,).  Returns (grad_kmat,
    grad_gamma, mean_log_prob), grad_kmat in kmat's layout.  The signed
    input rows are built once, for the potentials of every step (one
    add_tap_contributions from step 0) and for the kernel gradient (its
    adjoint); the reduction order over the batch is fixed, so results are
    bit-reproducible at a fixed BLAS thread count.
    """
    b, _, duration = rasters.shape
    window = kmat.shape[1] // len(biases)

    inputs = signed_inputs(rasters, signs, 0, duration - 1)
    u = np.zeros((b, duration, len(biases)))
    add_tap_contributions(u, inputs, kmat, window, 0)
    u += biases

    ell = _log_prob_series(u, labels)              # (b, T)
    log_prob = _logsumexp(ell, axis=1)             # (b,)
    step_weight = np.exp(ell - log_prob[:, None])  # softmax over decision steps
    tail = np.cumsum(step_weight[:, ::-1], axis=1)[:, ::-1]

    d_u = -sigmoid(u) * tail[:, :, None]
    d_u[np.arange(b)[:, None], np.arange(duration)[None, :], labels[:, None]] += step_weight

    grad_gamma = d_u.sum(axis=(0, 1)) / b
    grad_kmat = windowed_potentials_adjoint(inputs, d_u, window)
    grad_kmat /= b
    return grad_kmat, grad_gamma, float(log_prob.mean())


def evaluate_float(model, magnitudes, signs, labels, rng) -> float:
    """Accuracy of stochastic first-to-spike inference with fresh encodings:
    the float model's in quantize.accuracies, which stops at each decision."""
    return float(accuracies(labels, magnitudes, signs, rng, 0, model=model)[0])


def train(train_data, test_data, config: TrainConfig):
    """Minibatch stochastic gradient ascent on the first-to-spike objective.

    train_data / test_data expose magnitudes() in [0, 1], signs(), and
    labels.  Spike rasters are re-drawn every epoch.  Returns the trained
    model and the per-epoch metrics trajectory.  After each epoch the model
    is scored on the first TRAIN_EVAL_CAP train samples and the whole test
    split, with draws from a child of the seed's SeedSequence, so scoring
    never moves SGD's stream or the model.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    score_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])

    mags = train_data.magnitudes()
    signs = train_data.signs()
    labels = np.asarray(train_data.labels)
    n_samples, n_inputs = mags.shape
    n_outputs = int(train_data.n_classes)

    model = GlmModel.zeros(n_inputs, n_outputs, config.presentation_time, config.window)
    kmat = kernel_matrix(model.weights)  # a view: SGD updates the weights through it

    test_mags = test_data.magnitudes()
    test_signs = test_data.signs()
    test_labels = np.asarray(test_data.labels)

    metrics = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n_samples)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n_samples, config.batch_size):
            idx = order[start : start + config.batch_size]
            rasters = draw_rasters(mags[idx], config.presentation_time, rng)
            grad_kmat, grad_gamma, mean_lp = _batch_objective_and_gradient(
                kmat, model.biases, rasters, signs[idx], labels[idx]
            )
            if not (np.isfinite(mean_lp) and np.isfinite(grad_kmat).all()
                    and np.isfinite(grad_gamma).all()):
                raise TrainingDiverged(
                    f"non-finite objective/gradient at epoch {epoch}, "
                    f"batch starting at {start} (log prob {mean_lp})"
                )
            grad_kmat *= config.learning_rate
            kmat += grad_kmat
            model.biases += config.learning_rate * grad_gamma
            epoch_loss += -mean_lp
            n_batches += 1

        train_acc = evaluate_float(model, mags[:TRAIN_EVAL_CAP], signs[:TRAIN_EVAL_CAP],
                                   labels[:TRAIN_EVAL_CAP], score_rng)
        test_acc = evaluate_float(model, test_mags, test_signs, test_labels, score_rng)
        metrics.append(
            EpochMetrics(epoch, train_acc, test_acc, epoch_loss / max(n_batches, 1))
        )
    return model, metrics
