"""Hardware-exact quantization and the quantized datapath.

Covers the post-training uniform quantizer for weights and biases, the
signed fixed-point clip applied to membrane potentials, the shift/add
piecewise-linear sigmoid, the 16-bit LFSR used to sample output spikes,
and first_to_spike_quantized, the one routine that decides every quantized
sample: b-bit synapse codes summed in an 18-bit saturating accumulator,
then one fixed-width neuron (1.4.3 clip, PWL, 8-bit LFSR compare) whatever
b is.  Everything here is integer-exact so a software run reproduces the
digital datapath bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .glm import (
    GlmModel,
    check_signs,
    encoded_chunks,
    kernel_matrix,
    windowed_potentials,
)

LFSR_MASK = 0xFFFF
LFSR_PERIOD = 2**16 - 1

#: synapse precisions the quantized datapath defines: b-bit codes of at
#: most a byte, read by one 8-bit neuron
DATAPATH_BITS = range(2, 9)

#: symmetric saturation bound of the 18-bit signed accumulator
ACC_LIMIT = 2**17 - 1

#: element budget of one sub-block of first_to_spike_quantized, counted as
#: samples * T * max(window * n_outputs, n_inputs); bounds both operands of
#: the potential GEMM, its input rows and its tap tensor
BLOCK_ELEMENTS = 2**18


def round_ties_away(x):
    """Round to nearest integer, ties away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


@dataclass(frozen=True)
class FixedPointFormat:
    """Signed fixed-point layout: sign, integer and fractional bit widths.

    Values are code * 2**-frac_bits with codes spanning
    [-2**(int_bits-1+frac_bits), 2**(int_bits-1+frac_bits) - 1], i.e. the
    representable range is [-2**(int_bits-1), 2**(int_bits-1) - step].
    """

    sign_bits: int
    int_bits: int
    frac_bits: int

    def __post_init__(self):
        if self.sign_bits != 1 or self.int_bits < 1 or self.frac_bits < 0:
            raise ValueError("unsupported fixed-point layout")

    @property
    def width(self) -> int:
        return self.sign_bits + self.int_bits + self.frac_bits

    @property
    def step(self) -> float:
        return 2.0**-self.frac_bits

    @property
    def max_code(self) -> int:
        return 2 ** (self.int_bits - 1 + self.frac_bits) - 1

    @property
    def min_code(self) -> int:
        return -(2 ** (self.int_bits - 1 + self.frac_bits))

    @property
    def max_value(self) -> float:
        return self.max_code * self.step

    @property
    def min_value(self) -> float:
        return self.min_code * self.step


#: datapath format for clipped membrane potentials: range [-8.0, +7.875]
FMT_1_4_3 = FixedPointFormat(1, 4, 3)


def clip_to_fixed(u, fmt: FixedPointFormat = FMT_1_4_3):
    """Saturate and round a real value onto the fixed-point grid.

    Returns the integer code (value = code * fmt.step).  Rounding is to
    nearest with ties away from zero; out-of-range values saturate.
    """
    u = np.asarray(u, dtype=np.float64)
    if np.isnan(u).any():
        raise ValueError("cannot clip NaN")
    codes = round_ties_away(u / fmt.step)
    codes = np.clip(codes, fmt.min_code, fmt.max_code).astype(np.int64)
    if codes.ndim == 0:
        return int(codes)
    return codes


def quantize_uniform(values, bits: int, lo: float | None = None, hi: float | None = None):
    """Uniform quantizer with one bit reserved for the sign.

    step = (hi - lo) / 2**(bits-1); codes are round(value / step)
    clamped to +-(2**(bits-1) - 1); dequantized value = code * step.
    lo and hi default to the values' min and max.  A degenerate range
    (hi == lo) yields all-zero codes and step 0, as does bits=1 (zero
    magnitude bits; runs but collapses every code).
    """
    if not 1 <= bits <= 16:
        raise ValueError("bits must be in [1, 16]")
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    lo = float(values.min()) if lo is None else lo
    hi = float(values.max()) if hi is None else hi
    step = (hi - lo) / 2 ** (bits - 1)
    if step == 0.0:
        return np.zeros(values.shape, dtype=np.int16), 0.0
    bound = 2 ** (bits - 1) - 1
    codes = np.clip(round_ties_away(values / step), -bound, bound).astype(np.int16)
    return codes, step


def _zero_inclusive_range(values):
    """[min(v, 0), max(v, 0)]: a range the symmetric code grid can cover."""
    return min(float(values.min()), 0.0), max(float(values.max()), 0.0)


@dataclass
class QuantizedModel:
    """Sign-magnitude b-bit codes for kernels and biases, plus their scales."""

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
        self.w_codes = np.asarray(self.w_codes, dtype=np.int16)
        self.gamma_codes = np.asarray(self.gamma_codes, dtype=np.int16)
        bound = 2 ** (self.bits - 1) - 1
        if np.abs(self.w_codes).max(initial=0) > bound:
            raise ValueError(f"weight codes exceed {self.bits}-bit sign-magnitude")
        if np.abs(self.gamma_codes).max(initial=0) > bound:
            raise ValueError(f"bias codes exceed {self.bits}-bit sign-magnitude")
        if self.w_codes.shape[2] != self.window:
            raise ValueError("w_codes tap dimension must equal window")

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

    def dequant_weights(self) -> np.ndarray:
        return self.w_codes.astype(np.float64) * self.w_step

    def dequant_biases(self) -> np.ndarray:
        return self.gamma_codes.astype(np.float64) * self.gamma_step


def quantize_model(model: GlmModel, bits: int) -> QuantizedModel:
    """Post-training quantization of a trained model's expanded kernels.

    Kernels and biases are each quantized over their range widened to
    include zero, so the symmetric code grid covers every value (the
    zero-point rule of arXiv:1712.05877): biases that are all negative,
    or all equal, keep their values to within one step instead of
    collapsing.
    """
    kernels = model.kernels()
    w_min, w_max = _zero_inclusive_range(kernels)
    gamma_min, gamma_max = _zero_inclusive_range(model.biases)
    w_codes, _ = quantize_uniform(kernels, bits, w_min, w_max)
    gamma_codes, _ = quantize_uniform(model.biases, bits, gamma_min, gamma_max)
    return QuantizedModel(
        bits=bits,
        w_codes=w_codes,
        gamma_codes=gamma_codes,
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
    out = np.where(q <= 0, neg_out, np.minimum(pos_out, 255))
    if out.ndim == 0:
        return int(out)
    return out.astype(np.int64)


def lfsr_next(state: int) -> int:
    """One shift of the 16-bit Fibonacci LFSR with taps (16, 14, 13, 11).

    The feedback polynomial x^16 + x^14 + x^13 + x^11 + 1 is maximal
    length, so any nonzero state walks all 65535 nonzero states.
    """
    if not 0 < state <= LFSR_MASK:
        raise ValueError("LFSR state must be a nonzero 16-bit value")
    bit = (state ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1
    return (state >> 1) | (bit << 15)


def derive_lfsr_seed(seed: int, index: int) -> int:
    """Deterministic nonzero 16-bit LFSR seed for sample `index` of a run."""
    x = (seed * 0x9E3779B1 + index * 0x85EBCA77 + 0xC2B2AE3D) & 0xFFFFFFFF
    x ^= x >> 16
    s = x & LFSR_MASK
    return s if s else 0x1D87


def spike_decision(pwl: int, state: int, compare_bits: int = 8):
    """Compare a PWL activation against the LFSR and advance it.

    A spike is issued when the activation strictly exceeds the low
    `compare_bits` bits of the current LFSR state; one decision consumes
    one LFSR step.
    """
    mask = (1 << compare_bits) - 1
    spike = pwl > (state & mask)
    return bool(spike), lfsr_next(state)


@cache
def _lfsr_table():
    """The LFSR's states in sequence order from state 1, and each state's
    position in it (-1 for the unreachable state 0).  Built once per process.
    """
    sequence = np.empty(LFSR_PERIOD, dtype=np.uint16)
    state = 1
    for k in range(LFSR_PERIOD):
        sequence[k] = state
        state = lfsr_next(state)
    position = np.full(LFSR_MASK + 1, -1, dtype=np.int32)
    position[sequence] = np.arange(LFSR_PERIOD, dtype=np.int32)
    sequence.flags.writeable = False
    position.flags.writeable = False
    return sequence, position


def lfsr_run(states, n: int) -> np.ndarray:
    """The n LFSR states from each start state on, the start state first.

    Returns shape np.shape(states) + (n,).  Element k is the state after k
    shifts, so a run of n + 1 ends in the state that follows n draws.
    """
    states = np.asarray(states, dtype=np.int64)
    if ((states <= 0) | (states > LFSR_MASK)).any():
        raise ValueError("LFSR state must be a nonzero 16-bit value")
    sequence, position = _lfsr_table()
    start = position[states].astype(np.int64)
    return sequence[(start[..., None] + np.arange(n)) % LFSR_PERIOD]


def saturating_sum(contrib: np.ndarray) -> np.ndarray:
    """Sequential 18-bit saturating accumulation down the word-line axis.

    The fast path applies when no running sum ever leaves the 18-bit
    range, where plain summation is exact.
    """
    if contrib.shape[0] == 0:
        return np.zeros(contrib.shape[1], dtype=np.int64)
    running = np.cumsum(contrib, axis=0)
    if abs(running).max() <= ACC_LIMIT:
        return running[-1]
    acc = np.zeros(contrib.shape[1], dtype=running.dtype)
    for row in contrib:
        acc = np.clip(acc + row, -ACC_LIMIT, ACC_LIMIT)
    return acc


def datapath_operands(w_codes, gamma_codes):
    """The operands first_to_spike_quantized sums: (kmat, gamma_codes, exact).

    kmat is the glm.kernel_matrix of the kernel codes (n_inputs, n_outputs,
    window).  exact is True when no neuron's code magnitudes sum to more
    than ACC_LIMIT: then no running sum of any step can saturate, and the
    plain sum is the accumulator's for every input.
    """
    magnitudes = np.abs(w_codes).sum(axis=0, dtype=np.int64).sum(axis=1)
    exact = bool(magnitudes.max(initial=0) <= ACC_LIMIT)
    return kernel_matrix(w_codes), np.asarray(gamma_codes, dtype=np.int64), exact


def _accumulator_sums(rasters, signs, kmat: np.ndarray, window: int, exact: bool):
    """Every step's 18-bit accumulator values of a block: (batch, T, n_outputs).

    The plain windowed sums, unless the model could saturate.  Then a GEMM
    over |codes| bounds each step's running sums, and the steps above
    ACC_LIMIT are summed again, line by line, in address order (input-major,
    then tap).
    """
    sums = windowed_potentials(rasters, signs, kmat, window)
    if exact:
        return sums
    bound = windowed_potentials(rasters, np.ones(signs.shape), np.abs(kmat), window)
    lines = kmat.reshape(kmat.shape[0], window, -1)
    for k, t0 in zip(*np.nonzero(bound.max(axis=2) > ACC_LIMIT)):
        # column d0 holds the spike latched d0 + 1 steps before step t0 + 1
        js, ds = np.nonzero(rasters[k][:, t0 - 1 - np.arange(min(window, t0))])
        sums[k, t0] = saturating_sum(lines[js, ds] * signs[k][js, None])
    return sums


def first_to_spike_quantized(qm: QuantizedModel, rasters, signs, lfsr_seeds,
                             operands=None):
    """First-to-spike decisions of a batch through the quantized datapath.

    rasters is (batch, n_inputs, T) of {0, 1}, signs (batch, n_inputs) of
    +-1 and lfsr_seeds one nonzero 16-bit seed per sample.  operands are
    the datapath_operands of the codes to sum, qm's own by default.  At each
    step the codes of the lines the spike windows select sum in the 18-bit
    saturating accumulator; the potential, that sum in weight steps plus
    the dequantized bias, clips to 1.4.3, goes through the PWL sigmoid and
    is compared with the low 8 bits of the sample's LFSR, one draw per
    neuron per step in index order, so step t's draws are states
    t*n_outputs .. (t+1)*n_outputs - 1 of its run.  The first step with a
    spike decides (lowest index wins ties); when nothing spikes, the argmax
    of the final clipped potentials does.  Only the codes depend on
    qm.bits.  Samples run in sub-blocks of at most BLOCK_ELEMENTS.

    Returns (predicted, decision_time), decision_time 0 for the fallback.
    """
    if qm.bits not in DATAPATH_BITS:
        raise ValueError(
            f"the quantized datapath defines b in [{DATAPATH_BITS.start}, "
            f"{DATAPATH_BITS.stop - 1}], not {qm.bits}"
        )
    kmat, gamma_codes, exact = operands or datapath_operands(qm.w_codes, qm.gamma_codes)
    gamma_real = gamma_codes.astype(np.float64) * qm.gamma_step
    rasters, signs = np.asarray(rasters), np.asarray(signs)
    seeds = np.asarray(lfsr_seeds)
    batch, n_inputs, duration = rasters.shape
    predicted = np.empty(batch, dtype=np.int64)
    decision_time = np.empty(batch, dtype=np.int64)
    block = max(1, BLOCK_ELEMENTS // (duration * max(qm.window * qm.n_outputs, n_inputs)))
    for lo in range(0, batch, block):
        part = slice(lo, lo + block)
        sums = _accumulator_sums(rasters[part], signs[part], kmat, qm.window, exact)
        u_codes = clip_to_fixed(sums * qm.w_step + gamma_real)
        draws = lfsr_run(seeds[part], duration * qm.n_outputs).reshape(u_codes.shape)
        spikes = pwl_sigmoid(u_codes) > (draws & 0xFF)
        fired = spikes.any(axis=2)                        # (part, T)
        first = fired.argmax(axis=1)
        rows = np.arange(len(first))
        decided = fired[rows, first]
        predicted[part] = np.where(
            decided, spikes[rows, first].argmax(axis=1), u_codes[:, -1].argmax(axis=1)
        )
        decision_time[part] = np.where(decided, first + 1, 0)
    return predicted, decision_time


def evaluate_quantized(qm, magnitudes, signs, labels, seed, limit=None) -> float:
    """Accuracy of quantized first-to-spike inference with fresh encodings.

    The rng draws only the rasters, so they are drawn and scored in blocks
    of samples; sample k decides on LFSR seed derive_lfsr_seed(seed, k).
    """
    n = len(labels) if limit is None else min(limit, len(labels))
    rng = np.random.default_rng(seed)
    signs = check_signs(signs[:n])
    operands = datapath_operands(qm.w_codes, qm.gamma_codes)
    correct = 0
    for start, rasters in encoded_chunks(magnitudes[:n], qm.presentation_time, rng):
        stop = start + len(rasters)
        seeds = [derive_lfsr_seed(seed, k) for k in range(start, stop)]
        predicted, _ = first_to_spike_quantized(
            qm, rasters, signs[start:stop], seeds, operands
        )
        correct += int(np.count_nonzero(predicted == np.asarray(labels[start:stop])))
    return correct / n if n else 0.0
