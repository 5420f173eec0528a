"""Brute-force references for the vectorized datapath, used only by tests."""

import struct

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


def device_bits(image) -> np.ndarray:
    """A core image's device array one bit per element: (device_rows,
    n_outputs * bits) of {0, 1}, unpacked from its packed rows."""
    return np.unpackbits(image.rows, axis=1, count=image.model.n_outputs * image.model.bits)


def unpack_memory(image):
    """Decode every used word line of a core image: (kernel_codes, gamma_codes),
    the n_inputs * window kernel lines and the bias line after them.

    Each synapse field is a sign bit (1 = negative) then its magnitude bits,
    most significant first.
    """
    qm = image.model
    n_lines = qm.n_inputs * qm.window + 1
    fields = device_bits(image)[:n_lines].reshape(n_lines, qm.n_outputs, qm.bits)
    magnitude = fields[:, :, 1:].astype(np.int64) @ 2 ** np.arange(qm.bits - 2, -1, -1)
    codes = np.where(fields[:, :, 0] == 1, -magnitude, magnitude)
    return codes[:-1], codes[-1]


def encode_rows_strided(fields, bits: int) -> np.ndarray:
    """Packed rows of b-bit fields, each field's bits most significant
    first: every field shifted to the top of its byte, unpacked, cut to its
    first b bits by a strided slice and packed again."""
    if bits == 8:
        return fields
    n_rows, n_outputs = fields.shape
    unpacked = np.unpackbits(fields << (8 - bits), axis=1)
    return np.packbits(unpacked.reshape(n_rows, n_outputs, 8)[:, :, :bits]
                       .reshape(n_rows, -1), axis=1)


def decode_rows_words(rows, bits: int, n_fields: int) -> np.ndarray:
    """The first n_fields codes of packed rows at any b as int16, field k
    read from the 16-bit word that starts at the byte holding its first
    bit: a sign bit (1 = negative) above b-1 magnitude bits."""
    words = np.zeros((rows.shape[0], rows.shape[1] + 1), dtype=np.uint16)
    words[:, :-1] = rows
    start = np.arange(n_fields) * bits
    shift = (16 - bits - start % 8).astype(np.uint16)
    fields = (words[:, start // 8] << 8 | words[:, start // 8 + 1]) >> shift
    mag = (fields & ((1 << (bits - 1)) - 1)).astype(np.int16)
    negative = ((fields >> (bits - 1)) & 1).astype(np.int16)
    return mag * (1 - 2 * negative)


def load_image(path):
    """Read a core_image.bin back as (header, rows): the 7-byte magic
    SPKIMG\\0, six little-endian uint32 (version 1, n_inputs, n_outputs,
    window, bits, 0), then each device row's bits packed eight to a byte,
    most significant first.  header holds the four sizes by name; there are
    as many rows as the least power of two that holds the kernel lines and
    the bias line."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:7] != b"SPKIMG\x00":
        raise ValueError("not a core memory image file")
    version, n_inputs, n_outputs, window, bits, _ = struct.unpack("<6I", data[7:31])
    if version != 1:
        raise ValueError(f"unsupported image version {version}")
    header = {"n_inputs": n_inputs, "n_outputs": n_outputs, "window": window, "bits": bits}
    n_rows = 1
    while n_rows < n_inputs * window + 1:
        n_rows *= 2
    rows = np.frombuffer(data[31:], dtype=np.uint8)
    if rows.size != n_rows * ((n_outputs * bits + 7) // 8):
        raise ValueError(f"{rows.size} bytes of rows for a {n_rows}-row array of {header}")
    return header, rows.reshape(n_rows, -1)


def build_windows(raster: np.ndarray, window: int) -> np.ndarray:
    """Spike windows for every step of a raster.

    Returns W of shape (duration, n_inputs, window) where W[t-1, j, d-1]
    is channel j's spike d steps before step t (zero before the train
    starts).  Position 0 of a window is the most recent spike.
    """
    raster = np.asarray(raster, dtype=np.uint8)
    n_inputs, duration = raster.shape
    out = np.zeros((duration, n_inputs, window), dtype=np.uint8)
    for d in range(1, min(window, duration) + 1):
        # window tap d at step t sees the spike from step t-d
        out[d:, :, d - 1] = raster[:, : duration - d].T
    return out


def windowed_potentials(rasters, signs, kmat: np.ndarray, window: int) -> np.ndarray:
    """Kernel sums of a batch of spike trains over all T steps at once,
    without the bias: the all-steps reference of the chunked first-to-spike
    loop.

    rasters is (batch, n_inputs, T), signs (batch, n_inputs) and kmat the
    kernel_matrix of the kernels K.  Returns u of shape (batch, T, n_outputs),
    in kmat's dtype, with u[b, t, i] = sum_d sum_j signs[b, j] rasters[b, j,
    t-d] K[j, i, d-1] over taps d = 1..window and t-d >= 0 (0-based steps):
    add_tap_contributions of every step's spikes at once.
    """
    from spikesim.glm import add_tap_contributions, signed_inputs

    batch, _, duration = np.shape(rasters)
    u = np.zeros((batch, duration, kmat.shape[1] // window), dtype=kmat.dtype)
    add_tap_contributions(u, signed_inputs(rasters, signs, 0, duration - 1, kmat.dtype),
                          kmat, window, 0)
    return u


def windowed_sums(raster, sign, kernels, dtype=np.float64) -> np.ndarray:
    """Kernel sums (duration, n_outputs) of one train: the window tensor
    contracted with the sign-flipped kernels by einsum, in `dtype`."""
    windows = build_windows(raster, kernels.shape[2]).astype(dtype)
    signed = np.asarray(kernels, dtype=dtype) * np.asarray(sign, dtype=dtype)[:, None, None]
    return np.einsum("tjd,jid->ti", windows, signed)


def draw_raster(mag, duration: int, rng) -> np.ndarray:
    """One sample's Bernoulli spike raster (n_inputs, duration): channel j
    spikes at each step with probability mag[j]."""
    mag = np.asarray(mag)
    return (rng.random((len(mag), duration)) < mag[:, None]).astype(np.uint8)


def round_ties_away_spec(x):
    """Nearest integer, ties away from zero, as sign(x) * floor(|x| + 0.5)."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def clip_to_fixed_spec(u):
    """1.4.3 codes of real potentials: round_ties_away_spec(8u) saturated
    to [-64, 63]."""
    return np.clip(round_ties_away_spec(np.asarray(u, dtype=np.float64) * 8),
                   -64, 63).astype(np.int64)


def wordline_reads_sum(rasters, window: int) -> np.ndarray:
    """Word lines read per step, (batch, T): the bias line plus the spikes
    latched 1..min(window, t - 1) steps before step t, each step's spikes
    summed in int64."""
    spikes = np.asarray(rasters).sum(axis=1, dtype=np.int64)
    latched = np.zeros((spikes.shape[0], spikes.shape[1] + 1), dtype=np.int64)
    np.cumsum(spikes, axis=1, out=latched[:, 1:])
    t = np.arange(spikes.shape[1])
    return 1 + latched[:, t] - latched[:, np.maximum(t - window, 0)]


def fts_log_prob(u, c: int, t: int) -> float:
    """Log probability that neuron c fires first, exactly at step t.

    u holds membrane potentials with shape (n_outputs, >= t), columns
    being steps 1..t..; the event requires every competitor silent
    through step t and the labeled neuron silent before t, spiking at t.
    """
    from spikesim.glm import log_one_minus_sigmoid, log_sigmoid

    u = np.asarray(u, dtype=np.float64)
    silent = log_one_minus_sigmoid(u[:, :t])
    total = silent.sum() - silent[c].sum()      # competitors quiet through t
    total += silent[c, : t - 1].sum()           # labeled quiet before t
    total += log_sigmoid(u[c, t - 1])           # labeled fires at t
    return float(total)


def lfsr_next(state: int) -> int:
    """One shift of the 16-bit Fibonacci LFSR with taps (16, 14, 13, 11).

    The feedback polynomial x^16 + x^14 + x^13 + x^11 + 1 is maximal
    length, so any nonzero state walks all 65535 nonzero states.
    """
    if not 0 < state <= 0xFFFF:
        raise ValueError("LFSR state must be a nonzero 16-bit value")
    bit = (state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1
    return (state >> 1) | (bit << 15)


def spike_decision(pwl: int, state: int):
    """Compare a PWL activation against the low byte of the LFSR state and
    advance the LFSR: (spike, next state)."""
    return pwl > (state & 0xFF), lfsr_next(state)


def dequant_biases(qm) -> np.ndarray:
    return qm.gamma_codes.astype(np.float64) * qm.gamma_step


def quantized_potentials(qm, raster, sign):
    """Integer kernel sums and real membrane potentials for every step.

    Returns (kernel_sums, u_real): kernel_sums[t, i] is the signed sum of
    active weight codes (an integer in weight-step units, not saturated);
    u_real adds the dequantized bias.
    """
    from spikesim.glm import kernel_matrix

    sums = windowed_potentials(
        raster[None], sign[None], kernel_matrix(qm.w_codes), qm.window
    )[0]
    return sums.astype(np.int64), sums * qm.w_step + dequant_biases(qm)


def kernel_sums_loop(qm, raster, sign, t):
    """Triple-loop integer evaluation of the windowed code sum at step t."""
    sums = []
    for i in range(qm.n_outputs):
        acc = 0
        for j in range(qm.n_inputs):
            for d in range(1, qm.window + 1):
                s = t - d
                if s >= 1 and raster[j, s - 1]:
                    acc += int(sign[j]) * int(qm.w_codes[j, i, d - 1])
        sums.append(acc)
    return np.array(sums, dtype=np.int64)


def saturating_sums_loop(raster, sign, w_codes):
    """Every step's 18-bit accumulator values (duration, n_outputs): one
    clamped add per word line, input-major then tap order, for all steps
    at once.  A step whose window leaves the line inactive adds zero, which
    the clamp leaves as it is."""
    from spikesim.quantize import ACC_LIMIT

    w_codes = np.asarray(w_codes, dtype=np.int64)
    n_inputs, n_outputs, window = w_codes.shape
    windows = build_windows(raster, window).astype(np.int64)  # (T, n_inputs, window)
    lines = (w_codes * np.asarray(sign, dtype=np.int64)[:, None, None]).transpose(0, 2, 1)
    # contributions[j * window + d0, t]: line (j, d0)'s signed codes at step t + 1
    contributions = (windows[:, :, :, None] * lines).reshape(
        raster.shape[1], n_inputs * window, n_outputs).transpose(1, 0, 2).copy()
    acc = np.zeros((raster.shape[1], n_outputs), dtype=np.int64)
    for line in contributions:
        acc += line
        np.minimum(acc, ACC_LIMIT, out=acc)
        np.maximum(acc, -ACC_LIMIT, out=acc)
    return acc


def datapath_sums(rasters, signs, kmat, window, exact):
    """Every step's 18-bit accumulator values (batch, T, n_outputs) as the
    quantized datapath sums them: its accumulator run chunk by chunk over
    all T steps, with no sample dropped at its decision."""
    from spikesim.quantize import CHUNK_STEPS, _Accumulator

    acc = _Accumulator(rasters, signs, kmat, window, exact)
    duration = np.shape(rasters)[2]
    return np.concatenate([acc.sums(t0, min(t0 + CHUNK_STEPS, duration))
                           for t0 in range(0, duration, CHUNK_STEPS)], axis=1)


def first_to_spike_quantized(qm, rasters, signs, lfsr_seeds, operands=None):
    """One quantized model's (predicted, decision_time) of a batch: the
    sweep of quantize.first_to_spike_sweep with that model alone."""
    from spikesim.quantize import first_to_spike_sweep

    predicted, decision_time = first_to_spike_sweep([qm], rasters, signs, lfsr_seeds, operands)
    return predicted[0], decision_time[0]


def infer_fts_quantized_loop(qm, raster, sign, lfsr_seed):
    """Per-step, per-neuron first-to-spike through the quantized datapath.

    Accumulator values from the line-by-line saturating loop; the 1.4.3
    clip, the PWL sigmoid and one 8-bit spike_decision per neuron per step
    in index order, the LFSR advancing one state per decision.
    Returns (predicted_class, decision_time or None).
    """
    from spikesim.quantize import clip_to_fixed, pwl_sigmoid

    sums = saturating_sums_loop(raster, sign, qm.w_codes)
    u_real = sums.astype(np.float64) * qm.w_step + dequant_biases(qm)[None, :]
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


def quantized_decisions_loop(qm, magnitudes, signs, seed):
    """(predicted, decision_time or 0) of every sample, with one draw_raster
    from default_rng(seed) and one loop inference per sample: the reference
    of a quantized model's decisions in quantize.decide_blocks."""
    from spikesim.quantize import derive_lfsr_seed

    rng = np.random.default_rng(seed)
    out = []
    for k in range(len(magnitudes)):
        raster = draw_raster(magnitudes[k], qm.presentation_time, rng)
        cls, t_d = infer_fts_quantized_loop(qm, raster, signs[k], derive_lfsr_seed(seed, k))
        out.append((cls, t_d or 0))
    return out


def evaluate_float_loop(model, magnitudes, signs, labels, rng):
    """Float accuracy with one draw_raster and one first-to-spike draw loop
    per sample: the reference of training.evaluate_float, in distribution."""
    from spikesim.glm import sigmoid

    correct = 0
    for k in range(len(labels)):
        raster = draw_raster(magnitudes[k], model.presentation_time, rng)
        sums = windowed_sums(raster, signs[k], model.weights)
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
    The reference of the core, which decides on the codes decoded from the
    array and counts reads with core.wordline_reads.

    Returns one (predicted_class, decision_time or 0 for the fallback,
    word lines read per executed step) per sample.
    """
    out = []
    for raster, sign, seed in zip(rasters, signs, lfsr_seeds):
        cls, t_d = infer_fts_quantized_loop(qm, raster, sign, int(seed))
        windows = build_windows(raster, qm.window)
        steps = t_d or raster.shape[1]  # the fallback runs every step
        out.append((cls, t_d or 0, [int(windows[t].sum()) + 1 for t in range(steps)]))
    return out


def simulate_rows_loop(qm, magnitudes, signs, labels, seed):
    """The decisions.csv and trace.csv rows `spikesim simulate` writes, as
    strings, from one draw_raster and one first_to_spike_loop per sample."""
    from spikesim.quantize import derive_lfsr_seed

    rng = np.random.default_rng(seed)
    decisions, trace = [], []
    for k in range(len(labels)):
        raster = draw_raster(magnitudes[k], qm.presentation_time, rng)
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


def model_objective_and_gradient(model, rasters, signs, labels):
    """training._batch_objective_and_gradient on the model's kernel matrix,
    with the kernel gradient laid out like the model's weights.  Returns
    (grad_w, grad_gamma, mean_log_prob)."""
    from spikesim.glm import kernel_matrix
    from spikesim.training import _batch_objective_and_gradient

    grad_kmat, grad_gamma, mean_lp = _batch_objective_and_gradient(
        kernel_matrix(model.weights), model.biases, np.asarray(rasters), signs,
        np.asarray(labels))
    grad_w = grad_kmat.reshape(model.n_inputs, model.window, model.n_outputs)
    return grad_w.transpose(0, 2, 1), grad_gamma, mean_lp


def batch_objective_and_gradient_windows(model, rasters, signs, labels):
    """model_objective_and_gradient over the window tensor (batch, T,
    n_inputs, window): the gradient's reference.  Returns (grad_w,
    grad_gamma, mean_log_prob)."""
    from spikesim.glm import sigmoid
    from spikesim.training import _log_prob_series, _logsumexp

    b, n_inputs, duration = rasters.shape
    n_outputs, window = model.n_outputs, model.window
    windows = np.stack([build_windows(r, window) for r in rasters]).astype(np.float64)
    windows *= signs[:, None, :, None]

    flat = windows.reshape(b * duration, n_inputs * window)
    w_mat = model.weights.transpose(0, 2, 1).reshape(n_inputs * window, n_outputs)
    u = (flat @ w_mat).reshape(b, duration, n_outputs) + model.biases

    ell = _log_prob_series(u, labels)
    log_prob = _logsumexp(ell, axis=1)
    step_weight = np.exp(ell - log_prob[:, None])
    tail = np.cumsum(step_weight[:, ::-1], axis=1)[:, ::-1]
    d_u = -sigmoid(u) * tail[:, :, None]
    d_u[np.arange(b)[:, None], np.arange(duration)[None, :], labels[:, None]] += step_weight

    grad_gamma = d_u.sum(axis=(0, 1)) / b
    grad_flat = flat.T @ d_u.reshape(b * duration, n_outputs) / b
    grad_w = grad_flat.reshape(n_inputs, window, n_outputs).transpose(0, 2, 1)
    return grad_w, grad_gamma, float(log_prob.mean())
