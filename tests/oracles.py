"""Brute-force references for the vectorized datapath, used only by tests."""

from dataclasses import dataclass, field

import numpy as np


def spike_window(history, t: int, window: int) -> np.ndarray:
    """Activation pattern of one input at step t: spikes t-1 down to t-window.

    history[s] is the spike latched at step s+1; position 0 of the window
    is the most recent spike, zero-filled before the train starts.
    """
    if t < 1:
        raise ValueError("steps are 1-based")
    history = np.asarray(history, dtype=np.uint8)
    out = np.zeros(window, dtype=np.uint8)
    for d0 in range(window):
        idx = t - 2 - d0
        if idx >= 0:
            out[d0] = history[idx]
    return out


def unpack_memory(image):
    """Decode every used word line of a core image: (kernel_codes, gamma_codes)."""
    kernel, gamma = image.decoded()
    return kernel.copy(), gamma.copy()


def build_windows(raster: np.ndarray, window: int) -> np.ndarray:
    """Spike windows for every step of a raster.

    Returns W of shape (duration, n_inputs, window) where W[t-1, j, d-1]
    is channel j's spike d steps before step t (zero before the train
    starts).  Position 0 of a window is the most recent spike.
    """
    raster = np.asarray(raster, dtype=np.uint8)
    n_inputs, duration = raster.shape
    out = np.zeros((duration, n_inputs, window), dtype=np.uint8)
    for d in range(1, window + 1):
        # window tap d at step t sees the spike from step t-d
        out[d:, :, d - 1] = raster[:, : duration - d].T
    return out


def windowed_sums(raster, sign, kernels, dtype=np.float64) -> np.ndarray:
    """Kernel sums (duration, n_outputs) of one train: the window tensor
    contracted with the sign-flipped kernels by einsum, in `dtype`."""
    windows = build_windows(raster, kernels.shape[2]).astype(dtype)
    signed = np.asarray(kernels, dtype=dtype) * np.asarray(sign, dtype=dtype)[:, None, None]
    return np.einsum("tjd,jid->ti", windows, signed)


def quantized_potentials(qm, train):
    """Integer kernel sums and real membrane potentials for every step.

    Returns (kernel_sums, u_real): kernel_sums[t, i] is the signed sum of
    active weight codes (an integer in weight-step units, not saturated);
    u_real adds the dequantized bias.
    """
    from spikesim.glm import kernel_matrix, windowed_potentials

    sums = windowed_potentials(
        train.raster[None], train.sign[None], kernel_matrix(qm.w_codes), qm.window
    )[0]
    return sums.astype(np.int64), sums * qm.w_step + qm.dequant_biases()


def saturating_sums_loop(raster, sign, w_codes):
    """Every step's 18-bit accumulator values (duration, n_outputs): one
    clamped add per active word line, input-major then tap order."""
    from spikesim.quantize import ACC_LIMIT

    w_codes = np.asarray(w_codes, dtype=np.int64)
    n_inputs, n_outputs, window = w_codes.shape
    duration = raster.shape[1]
    out = np.zeros((duration, n_outputs), dtype=np.int64)
    for t in range(1, duration + 1):
        acc = np.zeros(n_outputs, dtype=np.int64)
        for j in range(n_inputs):
            for d0 in range(window):
                if t - 2 - d0 >= 0 and raster[j, t - 2 - d0]:
                    acc = np.clip(acc + int(sign[j]) * w_codes[j, :, d0],
                                  -ACC_LIMIT, ACC_LIMIT)
        out[t - 1] = acc
    return out


def infer_fts_quantized_loop(qm, train, lfsr_seed):
    """Per-step, per-neuron first-to-spike through the quantized datapath.

    Accumulator values from the line-by-line saturating loop; the 1.4.3
    clip, the PWL sigmoid and one 8-bit spike_decision per neuron per step
    in index order, the LFSR advancing one state per decision.
    Returns (predicted_class, decision_time or None).
    """
    from spikesim.quantize import clip_to_fixed, pwl_sigmoid, spike_decision

    sums = saturating_sums_loop(train.raster, train.sign, qm.w_codes)
    u_real = sums.astype(np.float64) * qm.w_step + qm.dequant_biases()[None, :]
    state = lfsr_seed
    u_codes = None
    for t in range(u_real.shape[0]):
        u_codes = clip_to_fixed(u_real[t])
        pwl = pwl_sigmoid(u_codes)
        fired = -1
        for i in range(qm.n_outputs):
            spike, state = spike_decision(int(pwl[i]), state)
            if spike and fired < 0:
                fired = i
        if fired >= 0:
            return fired, t + 1
    return int(np.argmax(u_codes)), None


def evaluate_quantized_loop(qm, magnitudes, signs, labels, seed):
    """Quantized accuracy with one rate_encode and one loop inference per sample."""
    from spikesim.glm import SpikeTrain, rate_encode
    from spikesim.quantize import derive_lfsr_seed

    rng = np.random.default_rng(seed)
    correct = 0
    for k in range(len(labels)):
        enc = rate_encode(magnitudes[k], qm.presentation_time, rng)
        train = SpikeTrain(raster=enc.raster, sign=signs[k])
        predicted, _ = infer_fts_quantized_loop(qm, train, derive_lfsr_seed(seed, k))
        correct += predicted == labels[k]
    return correct / len(labels)


def evaluate_float_loop(model, magnitudes, signs, labels, rng):
    """Float accuracy with one rate_encode and one infer_fts_float per sample."""
    from spikesim.glm import SpikeTrain, rate_encode, sigmoid

    correct = 0
    for k in range(len(labels)):
        enc = rate_encode(magnitudes[k], model.presentation_time, rng)
        sums = windowed_sums(enc.raster, signs[k], model.kernels())
        u = sums + model.biases[None, :]
        predicted = int(np.argmax(u[-1]))
        for t in range(u.shape[0]):
            fired = rng.random(model.n_outputs) < sigmoid(u[t])
            if fired.any():
                predicted = int(np.argmax(fired))
                break
        correct += predicted == labels[k]
    return correct / len(labels)


def first_to_spike_loop(image, qm, rasters, signs, lfsr_seeds):
    """One core_step per step and sample, stopping at the first spike: the
    step-level reference of core.first_to_spike_batch.

    Returns one (predicted_class, decision_time or 0 for the fallback,
    word lines read per executed step) per sample.
    """
    from spikesim.core import CoreState, core_step

    out = []
    for raster, sign, seed in zip(rasters, signs, lfsr_seeds):
        duration = raster.shape[1]
        state = CoreState.initial(image, qm, duration=duration, lfsr_seed=int(seed))
        reads = []
        for t in range(1, duration + 1):
            spikes, addrs = core_step(state, image, raster[:, t - 1], sign)
            reads.append(len(addrs))
            if spikes.any():
                out.append((int(np.argmax(spikes)), t, reads))
                break
        else:
            out.append((int(np.argmax(state.last_clipped)), 0, reads))
    return out


def simulate_rows_loop(qm, magnitudes, signs, labels, seed):
    """The decisions.csv and trace.csv rows `spikesim simulate` writes, as
    strings, from one rate_encode and one core_step loop per sample."""
    from spikesim.core import CoreGeometry, map_model_to_memory
    from spikesim.glm import rate_encode
    from spikesim.quantize import derive_lfsr_seed

    geom = CoreGeometry(n_inputs=qm.n_inputs, n_outputs=qm.n_outputs,
                        window=qm.window, bits=qm.bits)
    image = map_model_to_memory(qm, geom)
    rng = np.random.default_rng(seed)
    decisions, trace = [], []
    for k in range(len(labels)):
        raster = rate_encode(magnitudes[k], qm.presentation_time, rng).raster
        [(cls, t_d, reads)] = first_to_spike_loop(
            image, qm, [raster], [signs[k]], [derive_lfsr_seed(seed, k)]
        )
        t_d = t_d or -1
        decisions.append([str(v) for v in (k, labels[k], cls, t_d, int(t_d == -1),
                                           int(cls == labels[k]))])
        for step, n in enumerate(reads, start=1):
            last = step == len(reads)
            trace.append([str(k), str(step), str(n), str(int(last)),
                          str(cls) if last else "", str(t_d) if last else ""])
    return decisions, trace


@dataclass
class AccessTrace:
    """Word lines read per executed step, with the decision time."""

    addresses: list = field(default_factory=list)  # one int64 array per step
    decision_time: int | None = None

    @property
    def steps(self) -> int:
        return len(self.addresses)

    @property
    def reads_per_step(self):
        return [len(a) for a in self.addresses]

    @property
    def total_reads(self) -> int:
        return sum(len(a) for a in self.addresses)


def run_first_to_spike(image, train, qm, lfsr_seed: int = 1):
    """One sample through core.first_to_spike_batch, with the addresses
    each executed step reads: (FtsDecision, AccessTrace).

    Early termination skips the remaining steps (their word lines are never
    read); the no-spike fallback runs every step.
    """
    from spikesim.core import first_to_spike_batch, gather_active_wordlines
    from spikesim.training import FtsDecision

    predicted, decision_time, _ = first_to_spike_batch(
        image, qm, train.raster[None], train.sign[None], [lfsr_seed]
    )
    t_d = int(decision_time[0])
    windows = build_windows(train.raster, qm.window)
    trace = AccessTrace(decision_time=t_d or None)
    for t in range(1, (t_d or train.duration) + 1):
        trace.addresses.append(gather_active_wordlines(windows[t - 1], image.geometry))
    return FtsDecision(int(predicted[0]), t_d or None, t_d == 0), trace


def batch_objective_and_gradient_windows(model, rasters, signs, labels):
    """training._batch_objective_and_gradient over the window tensor
    (batch, T, n_inputs, window), projected through the basis: the
    gradient's reference.  Returns (grad_w, grad_gamma, mean_log_prob)."""
    from spikesim.glm import sigmoid
    from spikesim.training import _log_prob_series, _logsumexp

    b, n_inputs, duration = rasters.shape
    n_outputs = model.n_outputs
    n_basis = model.basis.shape[1]
    windows = np.stack([build_windows(r, model.window) for r in rasters]).astype(np.float64)
    windows *= signs[:, None, :, None]
    projected = windows @ model.basis.astype(np.float64)

    flat = projected.reshape(b * duration, n_inputs * n_basis)
    w_mat = model.weights.transpose(0, 2, 1).reshape(n_inputs * n_basis, n_outputs)
    u = (flat @ w_mat).reshape(b, duration, n_outputs) + model.biases

    ell = _log_prob_series(u, labels)
    log_prob = _logsumexp(ell, axis=1)
    step_weight = np.exp(ell - log_prob[:, None])
    tail = np.cumsum(step_weight[:, ::-1], axis=1)[:, ::-1]
    d_u = -sigmoid(u) * tail[:, :, None]
    d_u[np.arange(b)[:, None], np.arange(duration)[None, :], labels[:, None]] += step_weight

    grad_gamma = d_u.sum(axis=(0, 1)) / b
    grad_flat = flat.T @ d_u.reshape(b * duration, n_outputs) / b
    grad_w = grad_flat.reshape(n_inputs, n_basis, n_outputs).transpose(0, 2, 1)
    return grad_w, grad_gamma, float(log_prob.mean())
