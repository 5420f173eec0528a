"""Maximum-likelihood training and inference under the first-to-spike rule.

The classifier fires a decision as soon as any output neuron spikes.
Training maximizes the log probability that the labeled neuron is the
first to spike at some step within the presentation time, marginalized
over the decision step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .glm import (
    GlmModel,
    SpikeTrain,
    check_magnitudes,
    check_signs,
    draw_rasters,
    kernel_matrix,
    log_one_minus_sigmoid,
    log_sigmoid,
    membrane_series,
    sigmoid,
    windowed_potentials,
)


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
    train_eval_cap: int = 2000       # samples used for the per-epoch train accuracy
    test_eval_cap: int | None = None  # None: score the whole test split each epoch

    def validate(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 1 <= self.window <= self.presentation_time:
            raise ValueError("need presentation_time >= window >= 1")


@dataclass
class FtsDecision:
    """Outcome of one first-to-spike inference pass.

    decision_time is the 1-based step of the first output spike, or None
    when no neuron spiked within the presentation time and the fallback
    (argmax of the final potentials, lowest index on ties) was used.
    """

    predicted_class: int
    decision_time: int | None
    fallback_used: bool


@dataclass
class EpochMetrics:
    epoch: int
    train_accuracy: float
    test_accuracy: float
    mean_loss: float


def write_metrics_csv(path, metrics):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_acc", "test_acc", "mean_loss"])
        for m in metrics:
            writer.writerow(
                [m.epoch, f"{m.train_accuracy:.6f}", f"{m.test_accuracy:.6f}",
                 f"{m.mean_loss:.8f}"]
            )


def fts_log_prob(u, c: int, t: int) -> float:
    """Log probability that neuron c fires first, exactly at step t.

    u holds membrane potentials with shape (n_outputs, >= t), columns
    being steps 1..t..; the event requires every competitor silent
    through step t and the labeled neuron silent before t, spiking at t.
    """
    u = np.asarray(u, dtype=np.float64)
    n_outputs = u.shape[0]
    if not 0 <= c < n_outputs:
        raise IndexError(f"label {c} out of range for {n_outputs} outputs")
    if not 1 <= t <= u.shape[1]:
        raise IndexError(f"step {t} out of range for {u.shape[1]} steps")
    silent = log_one_minus_sigmoid(u[:, :t])
    total = silent.sum() - silent[c].sum()      # competitors quiet through t
    total += silent[c, : t - 1].sum()           # labeled quiet before t
    total += log_sigmoid(u[c, t - 1])           # labeled fires at t
    return float(total)


def _log_prob_series(u_tm, labels):
    """Vectorized fts_log_prob for every step.

    u_tm: potentials, time-major (batch, T, n_outputs); labels: (batch,).
    Returns (batch, T) of log p_t.
    """
    silent = log_one_minus_sigmoid(u_tm)
    lab = np.asarray(labels).reshape(-1, 1, 1)
    silent_c = np.take_along_axis(silent, lab, axis=2)[:, :, 0]  # (batch, T)
    fire_c = np.take_along_axis(log_sigmoid(u_tm), lab, axis=2)[:, :, 0]
    s_all = np.cumsum(silent.sum(axis=2), axis=1)
    s_c = np.cumsum(silent_c, axis=1)
    s_c_prev = np.concatenate([np.zeros((u_tm.shape[0], 1)), s_c[:, :-1]], axis=1)
    return s_all - s_c + s_c_prev + fire_c


def _logsumexp(x, axis):
    m = np.max(x, axis=axis, keepdims=True)
    return (m + np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True))).squeeze(axis)


def fts_objective(model: GlmModel, train: SpikeTrain, c: int) -> float:
    """Log probability of a first spike at the labeled neuron at any step."""
    u = membrane_series(model, train)  # (T, n_outputs)
    ell = _log_prob_series(u[None], np.array([c]))[0]
    return float(_logsumexp(ell, axis=0))


def _windows_batch(rasters, window):
    """Spike windows of a batch: (batch, n_inputs, T) -> (batch, T, n_inputs, window).

    out[b, t, j, d-1] = rasters[b, j, t-d], zero for t < d.
    """
    b, n_inputs, duration = rasters.shape
    out = np.zeros((b, duration, n_inputs, window), dtype=np.float64)
    for d in range(1, window + 1):
        out[:, d:, :, d - 1] = rasters[:, :, : duration - d].transpose(0, 2, 1)
    return out


def _batch_objective_and_gradient(model, rasters, signs, labels):
    """Mean objective and its exact gradient over a minibatch.

    rasters: (batch, n_inputs, T), signs: (batch, n_inputs), labels: (batch,).
    Returns (grad_w, grad_gamma, mean_log_prob).  The reduction order over
    the batch is fixed, so results are bit-reproducible.
    """
    b, n_inputs, duration = rasters.shape
    n_outputs = model.n_outputs
    n_basis = model.basis.shape[1]

    windows = _windows_batch(rasters, model.window)
    windows *= signs[:, None, :, None]
    identity = n_basis == model.window and np.array_equal(
        model.basis, np.eye(model.window, dtype=np.uint8)
    )
    projected = windows if identity else windows @ model.basis.astype(np.float64)

    flat = projected.reshape(b * duration, n_inputs * n_basis)
    w_mat = model.weights.transpose(0, 2, 1).reshape(n_inputs * n_basis, n_outputs)
    u = (flat @ w_mat).reshape(b, duration, n_outputs) + model.biases

    ell = _log_prob_series(u, labels)              # (b, T)
    log_prob = _logsumexp(ell, axis=1)             # (b,)
    step_weight = np.exp(ell - log_prob[:, None])  # softmax over decision steps
    tail = np.cumsum(step_weight[:, ::-1], axis=1)[:, ::-1]

    d_u = -sigmoid(u) * tail[:, :, None]
    d_u[np.arange(b)[:, None], np.arange(duration)[None, :], labels[:, None]] += (
        step_weight
    )

    grad_gamma = d_u.sum(axis=(0, 1)) / b
    grad_flat = flat.T @ d_u.reshape(b * duration, n_outputs) / b
    grad_w = grad_flat.reshape(n_inputs, n_basis, n_outputs).transpose(0, 2, 1)
    return grad_w, grad_gamma, float(log_prob.mean())


def fts_gradient(model: GlmModel, train: SpikeTrain, c: int):
    """Exact gradient of fts_objective w.r.t. (weights, biases)."""
    grad_w, grad_gamma, _ = _batch_objective_and_gradient(
        model,
        train.raster[None].astype(np.float64),
        train.sign[None].astype(np.float64),
        np.array([c]),
    )
    return grad_w, grad_gamma


def infer_fts_float(model: GlmModel, train: SpikeTrain, rng: np.random.Generator) -> FtsDecision:
    """Stochastic first-to-spike inference on the floating-point model.

    At every step each output neuron spikes with probability
    sigmoid(potential); the first step with any spike decides (lowest
    neuron index wins ties).  If nothing spikes, fall back to the argmax
    of the final-step potentials.
    """
    return _first_to_spike_float(membrane_series(model, train), rng)


def _first_to_spike_float(u, rng) -> FtsDecision:
    """The first-to-spike draw over potentials u (duration, n_outputs)."""
    p = sigmoid(u)
    for t in range(u.shape[0]):
        fired = rng.random(u.shape[1]) < p[t]
        if fired.any():
            return FtsDecision(int(np.argmax(fired)), t + 1, False)
    return FtsDecision(int(np.argmax(u[-1])), None, True)


def evaluate_float(model, magnitudes, signs, labels, rng, limit=None) -> float:
    """Accuracy of stochastic first-to-spike inference with fresh encodings.

    Each sample's raster is drawn just before its spike draws, so the rng
    stream interleaves them sample by sample, as infer_fts_float on a
    rate_encode'd train would.
    """
    n = len(labels) if limit is None else min(limit, len(labels))
    mags = check_magnitudes(magnitudes[:n])
    signs = check_signs(signs[:n])
    kmat = kernel_matrix(model.kernels())
    correct = 0
    for k in range(n):
        raster = draw_rasters(mags[k], model.presentation_time, rng)
        u = windowed_potentials(raster[None], signs[k : k + 1], kmat, model.window)[0]
        u += model.biases[None, :]
        correct += _first_to_spike_float(u, rng).predicted_class == labels[k]
    return correct / n if n else 0.0


def train(train_data, test_data, config: TrainConfig):
    """Minibatch stochastic gradient ascent on the first-to-spike objective.

    train_data / test_data expose magnitudes() in [0, 1], signs(), and
    labels.  Spike rasters are re-drawn every epoch.  Returns the trained
    model and the per-epoch metrics trajectory.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)

    mags = train_data.magnitudes()
    signs = train_data.signs()
    labels = np.asarray(train_data.labels)
    n_samples, n_inputs = mags.shape
    n_outputs = int(train_data.n_classes)

    model = GlmModel.zeros(
        n_inputs, n_outputs, config.presentation_time, config.window
    )

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
            batch_mags = mags[idx]
            rasters = (
                rng.random((len(idx), n_inputs, config.presentation_time))
                < batch_mags[:, :, None]
            ).astype(np.float64)
            grad_w, grad_gamma, mean_lp = _batch_objective_and_gradient(
                model, rasters, signs[idx].astype(np.float64), labels[idx]
            )
            if not (
                np.isfinite(mean_lp)
                and np.isfinite(grad_w).all()
                and np.isfinite(grad_gamma).all()
            ):
                raise TrainingDiverged(
                    f"non-finite objective/gradient at epoch {epoch}, "
                    f"batch starting at {start} (log prob {mean_lp})"
                )
            model.weights += config.learning_rate * grad_w
            model.biases += config.learning_rate * grad_gamma
            epoch_loss += -mean_lp
            n_batches += 1

        train_acc = evaluate_float(
            model, mags, signs, labels, rng, limit=config.train_eval_cap
        )
        test_acc = evaluate_float(
            model, test_mags, test_signs, test_labels, rng,
            limit=config.test_eval_cap,
        )
        metrics.append(
            EpochMetrics(epoch, train_acc, test_acc, epoch_loss / max(n_batches, 1))
        )
    return model, metrics
