"""Brute-force references for the vectorized datapath, used only by tests."""

import numpy as np


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


def infer_fts_quantized_loop(qm, train, lfsr_seed):
    """Per-step, per-neuron first-to-spike through the b-bit datapath.

    Potentials from the einsum oracle; one spike_decision per neuron per
    step in index order, the LFSR advancing one state per decision.
    Returns (predicted_class, decision_time or None).
    """
    from spikesim.quantize import (
        clip_to_fixed,
        membrane_format,
        pwl_sigmoid,
        spike_decision,
    )

    fmt = membrane_format(qm.bits)
    sums = windowed_sums(train.raster, train.sign, qm.w_codes, dtype=np.int64)
    u_real = sums.astype(np.float64) * qm.w_step + qm.dequant_biases()[None, :]
    state = lfsr_seed
    u_codes = None
    for t in range(u_real.shape[0]):
        u_codes = clip_to_fixed(u_real[t], fmt)
        pwl = pwl_sigmoid(u_codes << (3 - fmt.frac_bits)) >> (8 - qm.bits)
        fired = -1
        for i in range(qm.n_outputs):
            spike, state = spike_decision(int(pwl[i]), state, qm.bits)
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
