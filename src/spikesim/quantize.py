"""Hardware-exact quantization and the quantized datapath.

Covers the post-training uniform quantizer, the 1.4.3 fixed-point clip of
membrane potentials, the shift/add piecewise-linear sigmoid, the 16-bit
LFSR that samples output spikes, and _first_to_spike, the one chunked,
early-exit loop that decides every sample.  first_to_spike_sweep runs it
on the b-bit codes of every width of a sweep at once, in an 18-bit
saturating accumulator with one 8-bit neuron whatever b is, bit for bit
as the digital datapath; the float model runs it with a sigmoid neuron.
decide_blocks, the one scoring loop, decides a split a block at a time
with a float model and any quantized models; accuracies counts what it
decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .glm import (
    GlmModel,
    add_tap_contributions,
    encoded_chunks,
    first_spike,
    held_as_word_lines,
    kernel_matrix,
    sigmoid,
    signed_inputs,
    word_lines,
)

LFSR_MASK = 0xFFFF
LFSR_PERIOD = 2**16 - 1

#: synapse precisions the quantized datapath defines: b-bit codes of at
#: most a byte, read by one 8-bit neuron
DATAPATH_BITS = range(2, 9)

#: symmetric saturation bound of the 18-bit signed accumulator
ACC_LIMIT = 2**17 - 1

#: steps the first-to-spike loop sums between two decision checks, for the
#: quantized datapath and float scoring alike; 3 and 4 were fastest on the
#: benchmark's core-256 simulate, within noise
CHUNK_STEPS = 4


def round_ties_away(x):
    """Round to nearest integer, ties away from zero.  x + copysign(0.5, x)
    is +-(|x| + 0.5), rounded as in sign(x) * floor(|x| + 0.5)."""
    x = np.asarray(x, dtype=np.float64)
    return np.trunc(x + np.copysign(0.5, x))


#: code range of the neuron's 1.4.3 potentials: value = code / 8, over
#: [-8.0, +7.875]
U_MIN_CODE, U_MAX_CODE = -64, 63


def clip_to_fixed(u):
    """Saturate and round real potentials onto the 1.4.3 grid.

    Returns the integer codes (value = code / 8).  Rounding is to nearest
    with ties away from zero; out-of-range values saturate.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.isnan(u).any():
        raise ValueError("cannot clip NaN")
    return np.clip(round_ties_away(u * 8), U_MIN_CODE, U_MAX_CODE).astype(np.int64)


def _check_bits(bits: int):
    if bits not in DATAPATH_BITS:
        raise ValueError(
            f"the quantized datapath defines b in [{DATAPATH_BITS.start}, "
            f"{DATAPATH_BITS.stop - 1}], not {bits}"
        )


def quantize_uniform(values, bits: int, lo: float, hi: float) -> np.ndarray:
    """Sign-magnitude b-bit codes of values over the range [lo, hi].

    step = (hi - lo) / 2**(bits-1); codes are round(value / step), ties
    away from zero, clamped to +-(2**(bits-1) - 1), so value ~ code * step.
    A degenerate range (hi == lo) yields all-zero codes.
    """
    _check_bits(bits)
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    step = (hi - lo) / 2 ** (bits - 1)
    if step == 0.0:
        return np.zeros(values.shape, dtype=np.int16)
    bound = 2 ** (bits - 1) - 1
    return np.clip(round_ties_away(values / step), -bound, bound).astype(np.int16)


def _zero_inclusive_range(values):
    """[min(v, 0), max(v, 0)]: a range the symmetric code grid can cover."""
    return min(float(values.min()), 0.0), max(float(values.max()), 0.0)


@dataclass
class QuantizedModel:
    """b-bit sign-magnitude codes of kernels, held as word lines, and biases, plus scales."""

    bits: int
    w_codes: np.ndarray      # (n_inputs, n_outputs, window) int16
    gamma_codes: np.ndarray  # (n_outputs,) int16
    w_min: float
    w_max: float
    gamma_min: float
    gamma_max: float
    presentation_time: int
    window: int

    def __post_init__(self):
        _check_bits(self.bits)
        bound = 2 ** (self.bits - 1) - 1
        for name, what in (("w_codes", "weight"), ("gamma_codes", "bias")):
            # on the values as given: an int16 cast would wrap or truncate them
            codes = np.asarray(getattr(self, name))
            whole = np.issubdtype(codes.dtype, np.integer) or (np.round(codes) == codes).all()
            if codes.size and not (whole and -bound <= codes.min() and codes.max() <= bound):
                raise ValueError(f"{what} codes are not whole {self.bits}-bit "
                                 "sign-magnitude codes")
            setattr(self, name, codes)
        if self.w_codes.ndim != 3 or self.w_codes.shape[2] != self.window:
            raise ValueError(f"w_codes of shape {self.w_codes.shape} is not "
                             f"(n_inputs, n_outputs, window {self.window})")
        if min(self.n_inputs, self.n_outputs) < 1:
            raise ValueError(f"a {self.n_inputs}x{self.n_outputs} model; need at least "
                             "one input and one output")
        if self.gamma_codes.shape != (self.n_outputs,):
            raise ValueError(f"{self.gamma_codes.size} bias codes for {self.n_outputs} "
                             "outputs; need one per output")
        if not 1 <= self.window <= self.presentation_time:
            raise ValueError(f"window {self.window} with presentation_time "
                             f"{self.presentation_time}; need 1 <= window <= presentation_time")
        for name in ("w", "gamma"):
            lo, hi = getattr(self, f"{name}_min"), getattr(self, f"{name}_max")
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError(f"{name}_min {lo} and {name}_max {hi}; need finite "
                                 f"{name}_min <= {name}_max")
        self.w_codes = held_as_word_lines(self.w_codes, np.int16)
        self.gamma_codes = np.array(self.gamma_codes, dtype=np.int16)

    @property
    def n_inputs(self) -> int:
        return self.w_codes.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.w_codes.shape[1]

    @property
    def w_step(self) -> float:
        return (self.w_max - self.w_min) / 2 ** (self.bits - 1)

    @property
    def gamma_step(self) -> float:
        return (self.gamma_max - self.gamma_min) / 2 ** (self.bits - 1)


def quantize_model(model: GlmModel, bits: int) -> QuantizedModel:
    """Post-training quantization of a trained model's kernels, its weights.

    Kernels and biases are each quantized over their range widened to
    include zero, so the symmetric code grid covers every value (the
    zero-point rule of arXiv:1712.05877): biases that are all negative,
    or all equal, keep their values to within one step instead of
    collapsing.
    """
    w_min, w_max = _zero_inclusive_range(model.weights)
    gamma_min, gamma_max = _zero_inclusive_range(model.biases)
    return QuantizedModel(
        bits=bits,
        w_codes=quantize_uniform(model.weights, bits, w_min, w_max),
        gamma_codes=quantize_uniform(model.biases, bits, gamma_min, gamma_max),
        w_min=w_min,
        w_max=w_max,
        gamma_min=gamma_min,
        gamma_max=gamma_max,
        presentation_time=model.presentation_time,
        window=model.window,
    )


def pwl_sigmoid(code):
    """Shift/add piecewise-linear sigmoid on 1.4.3-style input codes.

    Input is the signed 8-bit code of x (value = code / 8, any of the 256
    byte patterns).  For x <= 0 the segment value is (1/2 + frac/4) >> |int|
    where int truncates toward zero and frac is the remaining negative
    fraction; positive inputs mirror through y(x) = 1 - y(-x).  The output
    is floor(y * 256) clamped to [0, 255], computed with integer shifts.
    """
    q = np.asarray(code, dtype=np.int64)
    if q.size and (q.min() < -128 or q.max() > 127):
        raise ValueError("input code outside signed 8-bit range")
    mag = np.abs(q)
    k = mag >> 3
    m = mag & 7
    numer = 128 - 8 * m
    neg_out = numer >> k
    pos_out = 256 - ((numer + (np.int64(1) << k) - 1) >> k)
    return np.where(q <= 0, neg_out, np.minimum(pos_out, 255))


#: pwl_sigmoid of every 1.4.3 code, indexed by the code: 0..63 at 0..63 and
#: -64..-1 at 64..127, where a negative index reads from the end
_PWL_TABLE = np.roll(pwl_sigmoid(np.arange(U_MIN_CODE, U_MAX_CODE + 1)), U_MIN_CODE)
_PWL_TABLE.flags.writeable = False


def derive_lfsr_seed(seed: int, index: int) -> int:
    """Deterministic nonzero 16-bit LFSR seed for sample `index` of a run."""
    x = (seed * 0x9E3779B1 + index * 0x85EBCA77 + 0xC2B2AE3D) & 0xFFFFFFFF
    x ^= x >> 16
    s = x & LFSR_MASK
    return s if s else 0x1D87


@cache
def _lfsr_table():
    """The LFSR's states in sequence order from state 1, and each state's
    position in it (-1 for the unreachable state 0).  Built once per process.

    State k is sum_i b[k + i] << i over the output bits b, which obey
    b[n + 16] = b[n] ^ b[n + 2] ^ b[n + 3] ^ b[n + 5].  Over GF(2) the
    recurrence holds at every power-of-two stride s as well, b[n + 16s] =
    b[n] ^ b[n + 2s] ^ b[n + 3s] ^ b[n + 5s], so a known prefix of 16s bits
    or more extends by 11s bits in one vector step.
    """
    n_bits = LFSR_PERIOD + 15
    bits = np.zeros(n_bits, dtype=np.uint8)
    bits[0] = 1  # state 1
    known = 16
    while known < n_bits:
        s = 1 << ((known // 16).bit_length() - 1)
        stop = min(known + 11 * s, n_bits)
        m = np.arange(known, stop) - 16 * s
        bits[known:stop] = bits[m] ^ bits[m + 2 * s] ^ bits[m + 3 * s] ^ bits[m + 5 * s]
        known = stop
    sequence = np.zeros(LFSR_PERIOD, dtype=np.uint16)
    for i in range(16):
        sequence |= bits[i : i + LFSR_PERIOD].astype(np.uint16) << i
    position = np.full(LFSR_MASK + 1, -1, dtype=np.int32)
    position[sequence] = np.arange(LFSR_PERIOD, dtype=np.int32)
    sequence.flags.writeable = False
    position.flags.writeable = False
    return sequence, position


def lfsr_run(states, n: int, skip: int = 0) -> np.ndarray:
    """n LFSR states from each start state on, after skipping `skip` of them.

    Returns shape np.shape(states) + (n,).  Element k is the state after
    skip + k shifts, so a run of n + 1 ends in the state that follows n
    draws, and lfsr_run(s, n, skip) is lfsr_run(s, skip + n)[..., skip:].
    """
    states = np.asarray(states, dtype=np.int64)
    if ((states <= 0) | (states > LFSR_MASK)).any():
        raise ValueError("LFSR state must be a nonzero 16-bit value")
    sequence, position = _lfsr_table()
    start = position[states].astype(np.int64) + skip
    return sequence.take(start[..., None] + np.arange(n), mode="wrap")


def datapath_operands(*w_codes):
    """The operands the quantized datapath sums for one or more models'
    kernel codes (n_inputs, n_outputs, window) of one shape: (kmat, exact).

    kmat is the glm.kernel_matrix, in float32, of the codes stacked along
    the output axis: model m's neuron i is output m * n_outputs + i of one
    wider model, so K[j, d * M * n_outputs + m * n_outputs + i] holds its
    tap d.  exact is True when no neuron's code magnitudes sum to more than
    ACC_LIMIT: then no running sum of any step can saturate, and the plain
    sum is the accumulator's for every input.  Raises ValueError when the
    codes differ in shape.

    float32 sums every step the datapath keeps exactly.  Each partial sum
    of a step's potential, in the GEMM or in the tap adds, is an integer no
    larger in magnitude than the step's |code| bound.  A step whose bound is
    at most ACC_LIMIT (below 2**24) therefore sums exactly in any order.  A
    step above it is summed again in int64, and its float32 bound cannot
    round down to ACC_LIMIT or below: it sums non-negative terms.  So does
    each neuron's |code| sum over kmat, which decides exact.
    """
    shapes = {np.shape(codes) for codes in w_codes}
    if len(shapes) != 1:
        raise ValueError(f"codes of shapes {sorted(shapes)} in one sweep; the models must "
                         "share one (n_inputs, n_outputs, window)")
    lines = np.concatenate([word_lines(codes) for codes in w_codes], axis=2, dtype=np.float32)
    n_inputs, window, _ = lines.shape
    kmat = lines.reshape(n_inputs, -1)
    magnitudes = np.abs(kmat).sum(axis=0).reshape(window, -1).sum(axis=0)
    return kmat, bool(magnitudes.max(initial=0) <= ACC_LIMIT)


class _Accumulator:
    """The kernel sums of a block of samples, float or the 18-bit
    accumulator's over codes, run a chunk of steps at a time with running
    potential buffers of shape (batch, T, n_outputs).

    sums(t0, t1) adds the taps of the spikes of steps t0 - 1 .. t1 - 2 and
    returns steps t0 .. t1 - 1's sums in float64, which no later spike
    reaches; keep(mask) drops the samples that need no more steps.  The sums
    are plain, unless the codes could saturate (exact False).  Then a second
    buffer over |codes| bounds each step's running sums, and the steps above
    ACC_LIMIT are summed again, one clamped add per line position in address
    order (input-major, then tap), all of a chunk's such steps together.  A
    neuron whose own bound stays within ACC_LIMIT never clamps, so the re-sum
    gives its plain sum.
    """

    def __init__(self, rasters, signs, kmat: np.ndarray, window: int, exact: bool):
        self.rasters, self.signs = np.asarray(rasters), np.asarray(signs)
        self.kmat, self.window, self.exact = kmat, window, exact
        batch, _, duration = self.rasters.shape
        self.u = np.zeros((batch, duration, kmat.shape[1] // window), dtype=kmat.dtype)
        if not exact:
            self.abs_kmat = np.abs(kmat)
            self.bound = np.zeros_like(self.u)
            self.lines = kmat.reshape(-1, self.u.shape[2]).astype(np.int64)  # by address

    def keep(self, mask):
        self.rasters, self.signs, self.u = self.rasters[mask], self.signs[mask], self.u[mask]
        if not self.exact:
            self.bound = self.bound[mask]

    def sums(self, t0: int, t1: int) -> np.ndarray:
        first, stop = max(t0 - 1, 0), t1 - 1
        if stop > first:
            inputs = signed_inputs(self.rasters, self.signs, first, stop, self.kmat.dtype)
            add_tap_contributions(self.u, inputs, self.kmat, self.window, first)
            if not self.exact:
                np.abs(inputs, out=inputs)
                add_tap_contributions(self.bound, inputs, self.abs_kmat, self.window, first)
        # float64, so that scaling by the step rounds as the float64
        # potentials do: a float32 product can round onto another 1.4.3 code
        sums = self.u[:, t0:t1].astype(np.float64)
        if not self.exact:
            ks, ts = np.nonzero(self.bound[:, t0:t1].max(axis=2) > ACC_LIMIT)
            if len(ks):
                sums[ks, ts] = self._saturating_sums(ks, ts + t0)
        return sums

    def _saturating_sums(self, ks, ts) -> np.ndarray:
        """Accumulator values of steps ts of samples ks, line by line."""
        n_inputs = self.rasters.shape[1]
        # active[p, j, d0]: line (j, d0) holds the spike latched d0 + 1 steps
        # before 0-based step ts[p]; the step's sign rides on it
        active = np.zeros((len(ks), n_inputs, self.window), dtype=np.int64)
        for d0 in range(self.window):
            valid = ts - 1 - d0 >= 0
            active[valid, :, d0] = self.rasters[ks[valid], :, ts[valid] - 1 - d0]
        active *= self.signs[ks][:, :, None]
        active = active.reshape(len(ks), -1)
        acc = np.zeros((len(ks), self.lines.shape[1]), dtype=np.int64)
        for a in np.flatnonzero(active.any(axis=0)):
            acc += active[:, a, None] * self.lines[a]
            np.clip(acc, -ACC_LIMIT, ACC_LIMIT, out=acc)
        return acc


def _first_to_spike(rasters, signs, kmat: np.ndarray, window: int, exact: bool, neuron,
                    n_models: int = 1):
    """The one first-to-spike loop: (predicted, decision_time) of a batch,
    each (n_models, batch) for n_models models stacked along kmat's outputs.

    An _Accumulator over kmat sums CHUNK_STEPS steps at a time.  neuron(live,
    t0, t1, acc) turns acc.sums(t0, t1), the sums of steps t0 .. t1 - 1 of
    the samples live, into (spikes, potentials) of every stacked output,
    taking the sums itself so that no frame holds them past its potentials;
    glm.first_spike decides each model.  A sample stays live until every
    model has decided it, and no step after that chunk is summed or passed
    to the neuron.  The fallback runs all T steps and has decision_time 0.
    """
    batch, _, duration = np.shape(rasters)
    predicted, decision_time = np.empty((2, n_models, batch), dtype=np.int64)
    live = np.arange(batch)  # samples some model has still to decide
    undecided = np.ones((batch, n_models), dtype=bool)  # of the live samples
    acc = _Accumulator(rasters, signs, kmat, window, exact)
    for t0 in range(0, duration, CHUNK_STEPS):
        t1 = min(t0 + CHUNK_STEPS, duration)
        spikes, potentials = neuron(live, t0, t1, acc)
        # one first_spike row per live sample and model
        rows = len(live) * n_models
        by_model = spikes.reshape(len(live), t1 - t0, n_models, -1).swapaxes(1, 2)
        chosen, when = first_spike(by_model.reshape(rows, t1 - t0, -1),
                                   potentials[:, -1].reshape(rows, -1))
        chosen, when = chosen.reshape(-1, n_models), when.reshape(-1, n_models)
        done = undecided & ((when > 0) | (t1 == duration))  # the fallback decides at T
        ks, ms = np.nonzero(done)
        samples, steps = live[ks], when[ks, ms]
        predicted[ms, samples] = chosen[ks, ms]
        decision_time[ms, samples] = np.where(steps > 0, steps + t0, 0)
        undecided ^= done
        needed = undecided.any(axis=1)
        if not needed.any():
            break
        if not needed.all():
            live, undecided = live[needed], undecided[needed]
            acc.keep(needed)
    return predicted, decision_time


def first_to_spike_sweep(qms, rasters, signs, lfsr_seeds, operands=None):
    """First-to-spike decisions of a batch by every quantized model of a
    sweep, in one pass through the datapath.

    qms share one shape (n_inputs, n_outputs, window).  rasters is (batch,
    n_inputs, T) of {0, 1}, signs (batch, n_inputs) of +-1 and lfsr_seeds
    one nonzero 16-bit seed per sample.  operands are the datapath_operands
    of the models' codes, built here unless given.  _first_to_spike sums the
    codes of the lines the spike windows select in the 18-bit saturating
    accumulator, every model's as one stacked model in one GEMM per chunk,
    and its neuron is the datapath's: each potential, that sum in its
    model's weight steps plus its dequantized bias (both in float64), clips
    to 1.4.3, goes through the PWL sigmoid table and is compared with the
    low 8 bits of the sample's LFSR, one draw per neuron per step in index
    order: step t's draws are states t*n_outputs .. (t+1)*n_outputs - 1 of
    its run.  Every model reads the same draws; only the codes depend on
    the model's bits.  A sample leaves the pass once every model has decided
    it.  The batch runs as one block, so its size bounds the memory of a
    chunk's GEMM operands.

    Returns (predicted, decision_time), each (len(qms), batch),
    decision_time 0 for the fallback.  Raises ValueError when the spike
    trains are not the models' n_inputs wide, or when there is not one
    sign per input and one seed per sample.
    """
    kmat, exact = operands or datapath_operands(*(qm.w_codes for qm in qms))
    n_outputs = qms[0].n_outputs
    w_step = np.repeat([qm.w_step for qm in qms], n_outputs)
    gamma_real = np.concatenate([qm.gamma_codes.astype(np.float64) * qm.gamma_step
                                 for qm in qms])
    rasters, signs, seeds = np.asarray(rasters), np.asarray(signs), np.asarray(lfsr_seeds)
    batch, n_inputs, _ = rasters.shape
    if n_inputs != qms[0].n_inputs:
        raise ValueError(f"spike train width {n_inputs} does not match the model's "
                         f"{qms[0].n_inputs} inputs")
    if signs.shape != (batch, n_inputs):
        raise ValueError(f"signs of shape {signs.shape} for spike trains of shape "
                         f"{rasters.shape}; need (batch, n_inputs) = {(batch, n_inputs)}")
    if seeds.shape != (batch,):
        raise ValueError(f"{seeds.size} LFSR seeds for a batch of {batch}; need one per sample")

    def neuron(live, t0, t1, acc):
        potentials = acc.sums(t0, t1)
        potentials *= w_step
        potentials += gamma_real
        u_codes = clip_to_fixed(potentials)
        draws = lfsr_run(seeds[live], (t1 - t0) * n_outputs, t0 * n_outputs) & 0xFF
        pwl = _PWL_TABLE[u_codes].reshape(len(live), t1 - t0, len(qms), n_outputs)
        return pwl > draws.reshape(len(live), t1 - t0, 1, n_outputs), u_codes

    return _first_to_spike(rasters, signs, kmat, qms[0].window, exact, neuron, len(qms))


def decide_blocks(split, rng, seed, qms=(), model=None):
    """First-to-spike decisions of a datasets.Dataset split by every model
    given, block by block, all on one encoding of it.  For each
    glm.encoded_chunks block the rng draws the rasters once, then a float
    model's spike uniforms, one per step and output: it decides through
    _first_to_spike on its float64 kernel_matrix, which never saturates,
    and a neuron spikes where its uniform falls below sigmoid of its
    potential.  The models in qms decide the same rasters together, in one
    first_to_spike_sweep per block on their datapath_operands, built once,
    with LFSR seed derive_lfsr_seed(seed, k) for sample k.  The models must
    share presentation_time and n_inputs, the quantized ones also n_outputs
    and window, and the split must have n_inputs features: ValueError
    before any draw.

    Yields (start, rasters, decisions) per block: decisions holds one
    (predicted, decision_time) per model, the float model's first.
    """
    models = ([model] if model is not None else []) + list(qms)
    if not models:
        raise ValueError("decide_blocks needs at least one model")
    duration, n_inputs = models[0].presentation_time, models[0].n_inputs
    if any(m.presentation_time != duration or m.n_inputs != n_inputs for m in models):
        raise ValueError("the models of one sweep must share presentation_time and n_inputs")
    if split.n_features != n_inputs:
        raise ValueError(f"a split of {split.n_features} features for models of "
                         f"{n_inputs} inputs; they must match")
    operands = datapath_operands(*(qm.w_codes for qm in qms)) if qms else None
    for start, rasters in encoded_chunks(split.magnitudes, duration, rng):
        stop = start + len(rasters)
        block_signs, decisions = split.signs[start:stop], []
        if model is not None:
            uniforms = rng.random((len(rasters), duration, model.n_outputs))

            def neuron(live, t0, t1, acc):
                u = acc.sums(t0, t1) + model.biases
                return uniforms[live, t0:t1] < sigmoid(u), u

            decisions += zip(*_first_to_spike(rasters, block_signs, kernel_matrix(model.weights),
                                              model.window, True, neuron))
        if qms:
            seeds = [derive_lfsr_seed(seed, k) for k in range(start, stop)]
            decisions += zip(*first_to_spike_sweep(qms, rasters, block_signs, seeds, operands))
        yield start, rasters, decisions


def accuracies(split, rng, seed, qms=(), model=None) -> np.ndarray:
    """The accuracy on the split's labels of every model decide_blocks
    decides, the float model's first; all zero on an empty split."""
    correct = np.zeros(len(qms) + (model is not None), dtype=np.int64)
    for start, rasters, decisions in decide_blocks(split, rng, seed, qms, model):
        truth = split.labels[start : start + len(rasters)]
        correct += [np.count_nonzero(predicted == truth) for predicted, _ in decisions]
    return correct / max(split.n_samples, 1)
