"""Brute-force references for the vectorized datapath, used only by tests."""

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
    """Decode every used word line of a core image: (kernel_codes, gamma_codes).

    Each synapse field is a sign bit (1 = negative) then its magnitude bits,
    most significant first.
    """
    geom = image.geometry
    n_lines = geom.n_wordlines
    fields = image.bits[:n_lines].reshape(n_lines, geom.n_outputs, geom.bits).astype(np.int64)
    magnitude = fields[:, :, 1:] @ 2 ** np.arange(geom.bits - 2, -1, -1)
    codes = np.where(fields[:, :, 0] == 1, -magnitude, magnitude)
    return codes[: geom.n_kernel_lines], codes[geom.gamma_line]


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


def first_to_spike_loop(qm, rasters, signs, lfsr_seeds):
    """infer_fts_quantized_loop per sample on qm's own codes, with the word
    lines each executed step reads: its window popcount plus the bias line.
    The reference of core.first_to_spike_batch, which reads the array.

    Returns one (predicted_class, decision_time or 0 for the fallback,
    word lines read per executed step) per sample.
    """
    from spikesim.glm import SpikeTrain

    out = []
    for raster, sign, seed in zip(rasters, signs, lfsr_seeds):
        cls, t_d = infer_fts_quantized_loop(qm, SpikeTrain(raster, sign), int(seed))
        windows = build_windows(raster, qm.window)
        steps = t_d or raster.shape[1]  # the fallback runs every step
        out.append((cls, t_d or 0, [int(windows[t].sum()) + 1 for t in range(steps)]))
    return out


def simulate_rows_loop(qm, magnitudes, signs, labels, seed):
    """The decisions.csv and trace.csv rows `spikesim simulate` writes, as
    strings, from one rate_encode and one first_to_spike_loop per sample."""
    from spikesim.glm import rate_encode
    from spikesim.quantize import derive_lfsr_seed

    rng = np.random.default_rng(seed)
    decisions, trace = [], []
    for k in range(len(labels)):
        raster = rate_encode(magnitudes[k], qm.presentation_time, rng).raster
        [(cls, t_d, reads)] = first_to_spike_loop(
            qm, [raster], [signs[k]], [derive_lfsr_seed(seed, k)]
        )
        t_d = t_d or -1
        decisions.append([str(v) for v in (k, labels[k], cls, t_d, int(t_d == -1),
                                           int(cls == labels[k]))])
        for step, n in enumerate(reads, start=1):
            last = step == len(reads)
            trace.append([str(k), str(step), str(n), str(int(last)),
                          str(cls) if last else "", str(t_d) if last else ""])
    return decisions, trace


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
