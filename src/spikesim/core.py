"""Word-line-accurate simulation of one accelerator core.

The synaptic store is a binary device array addressed by word line: each
input neuron owns `window` word lines (one per delay tap), each holding
the b-bit sign-magnitude codes of that tap's weights for every output
neuron, packed output-major.  One extra always-read line holds the bias
codes.  A step gathers the word lines selected by the input spike
windows, accumulates their codes in an 18-bit saturating integer
accumulator, clips the scaled potential to the 1.4.3 fixed-point format,
applies the PWL sigmoid and draws one spike decision per output neuron
from the shared LFSR.  Inference stops at the first output spike.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .glm import SpikeTrain
from .quantize import (
    FMT_1_4_3,
    QuantizedModel,
    clip_to_fixed,
    lfsr_run,
    pwl_sigmoid,
)
from .training import FtsDecision

#: symmetric saturation bound of the 18-bit signed accumulator
ACC_LIMIT = 2**17 - 1

_IMAGE_MAGIC = b"SPKIMG\x00"
_IMAGE_VERSION = 1


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


@dataclass(frozen=True)
class CoreGeometry:
    """Physical core dimensions.  The default maps a 256x256 network with
    a 7-tap window and 8-bit synapses onto a 2048x2048 device array."""

    n_inputs: int = 256
    n_outputs: int = 256
    window: int = 7
    bits: int = 8

    def __post_init__(self):
        if min(self.n_inputs, self.n_outputs, self.window) < 1:
            raise ValueError("geometry dimensions must be positive")
        if not 2 <= self.bits <= 16:
            raise ValueError("bits must be in [2, 16]")

    @property
    def word_width(self) -> int:
        return self.n_outputs * self.bits

    @property
    def n_kernel_lines(self) -> int:
        return self.n_inputs * self.window

    @property
    def gamma_line(self) -> int:
        return self.n_kernel_lines

    @property
    def n_wordlines(self) -> int:
        return self.n_kernel_lines + 1

    @property
    def device_rows(self) -> int:
        return _next_pow2(self.n_wordlines)


@dataclass
class CoreMemoryImage:
    """Binary device array: one row of word_width bits per word line."""

    geometry: CoreGeometry
    bits: np.ndarray  # (device_rows, word_width) of {0, 1}

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        expect = (self.geometry.device_rows, self.geometry.word_width)
        if self.bits.shape != expect:
            raise ValueError(f"image shape {self.bits.shape} != {expect}")
        self._decoded = None

    def decoded(self):
        """Cached (kernel_codes, gamma_codes) decode of the whole array."""
        if self._decoded is None:
            geom = self.geometry
            codes = _decode_rows(self.bits[: geom.n_wordlines], geom.bits)
            self._decoded = (
                codes[: geom.n_kernel_lines].astype(np.int64),
                codes[geom.gamma_line].astype(np.int64),
            )
        return self._decoded


def _encode_rows(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack signed codes (n_rows, n_outputs) into sign-magnitude bit rows.

    Per synapse: 1 sign bit (1 = negative) followed by bits-1 magnitude
    bits, most significant first.
    """
    n_rows, n_outputs = codes.shape
    out = np.zeros((n_rows, n_outputs * bits), dtype=np.uint8)
    mag = np.abs(codes.astype(np.int64))
    out[:, 0::bits] = (codes < 0).astype(np.uint8)
    for k in range(bits - 1):
        shift = bits - 2 - k
        out[:, 1 + k :: bits] = ((mag >> shift) & 1).astype(np.uint8)
    return out


def _decode_rows(rows: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of _encode_rows: bit rows back to signed integer codes."""
    n_rows, width = rows.shape
    n_outputs = width // bits
    mag = np.zeros((n_rows, n_outputs), dtype=np.int64)
    for k in range(bits - 1):
        shift = bits - 2 - k
        mag += rows[:, 1 + k :: bits].astype(np.int64) << shift
    sign = np.where(rows[:, 0::bits] == 1, -1, 1)
    return sign * mag


def map_model_to_memory(qm: QuantizedModel, geom: CoreGeometry) -> CoreMemoryImage:
    """Pack a quantized model into the device array.

    Word line j*window + d holds tap d's codes of input j for all
    outputs; the bias line comes last.  The packing is bijective over
    the model region, so unpack_model recovers every code exactly.
    """
    if qm.bits != geom.bits:
        raise ValueError(f"model is {qm.bits}-bit but geometry holds {geom.bits}-bit synapses")
    if qm.n_inputs > geom.n_inputs or qm.n_outputs > geom.n_outputs:
        raise ValueError(
            f"model {qm.n_inputs}x{qm.n_outputs} exceeds geometry "
            f"{geom.n_inputs}x{geom.n_outputs}"
        )
    if qm.window > geom.window:
        raise ValueError(f"model window {qm.window} exceeds geometry window {geom.window}")

    codes = np.zeros((geom.device_rows, geom.n_outputs), dtype=np.int64)
    for d in range(qm.window):
        rows = np.arange(qm.n_inputs) * geom.window + d
        codes[rows, : qm.n_outputs] = qm.w_codes[:, :, d]
    codes[geom.gamma_line, : qm.n_outputs] = qm.gamma_codes
    return CoreMemoryImage(geometry=geom, bits=_encode_rows(codes, geom.bits))


def unpack_memory(image: CoreMemoryImage):
    """Decode every used word line: (kernel_codes, gamma_codes)."""
    kernel, gamma = image.decoded()
    return kernel.copy(), gamma.copy()


def unpack_model(image: CoreMemoryImage, n_inputs: int, n_outputs: int, window: int):
    """Recover the (w_codes, gamma_codes) of a mapped model, code for code."""
    geom = image.geometry
    kernel, gamma = image.decoded()
    w_codes = np.zeros((n_inputs, n_outputs, window), dtype=np.int16)
    for d in range(window):
        rows = np.arange(n_inputs) * geom.window + d
        w_codes[:, :, d] = kernel[rows, :n_outputs]
    return w_codes, gamma[:n_outputs].astype(np.int16)


def save_image(path, image: CoreMemoryImage):
    geom = image.geometry
    header = _IMAGE_MAGIC + struct.pack(
        "<6I", _IMAGE_VERSION, geom.n_inputs, geom.n_outputs, geom.window, geom.bits, 0
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.packbits(image.bits, axis=1).tobytes())


def load_image(path) -> CoreMemoryImage:
    with open(path, "rb") as fh:
        magic = fh.read(len(_IMAGE_MAGIC))
        if magic != _IMAGE_MAGIC:
            raise ValueError("not a core memory image file")
        version, n_inputs, n_outputs, window, bits, _ = struct.unpack("<6I", fh.read(24))
        if version != _IMAGE_VERSION:
            raise ValueError(f"unsupported image version {version}")
        geom = CoreGeometry(n_inputs=n_inputs, n_outputs=n_outputs, window=window, bits=bits)
        raw = fh.read()
    packed_width = (geom.word_width + 7) // 8
    expect = geom.device_rows * packed_width
    if len(raw) != expect:
        raise ValueError(f"image payload is {len(raw)} bytes, expected {expect}")
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(geom.device_rows, packed_width)
    bits = np.unpackbits(packed, axis=1)[:, : geom.word_width]
    return CoreMemoryImage(geometry=geom, bits=bits)


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


def gather_active_wordlines(windows: np.ndarray, geom: CoreGeometry) -> np.ndarray:
    """Word-line addresses selected by the current spike windows.

    windows is (n_active_inputs, model_window).  Kernel addresses come out
    strictly increasing (input-major, tap order); the bias line is always
    appended last.
    """
    js, ds = np.nonzero(windows)
    addrs = js.astype(np.int64) * geom.window + ds
    return np.concatenate([addrs, [geom.gamma_line]])


@dataclass
class AccessTrace:
    """Word lines read per executed step, with per-sample decision time."""

    addresses: list = field(default_factory=list)  # one int64 array per step
    decision_time: int | None = None

    def record(self, addrs: np.ndarray):
        self.addresses.append(addrs)

    @property
    def steps(self) -> int:
        return len(self.addresses)

    @property
    def reads_per_step(self):
        return [len(a) for a in self.addresses]

    @property
    def total_reads(self) -> int:
        return sum(len(a) for a in self.addresses)


@dataclass
class CoreState:
    """Mutable per-sample state: shift registers, accumulators, LFSR."""

    geometry: CoreGeometry
    n_active_inputs: int
    n_active_outputs: int
    active_window: int        # configured spike-window width (<= geometry window)
    w_step: float
    gamma_step: float
    lfsr_state: int
    history: np.ndarray       # (n_active_inputs, duration) latched spikes
    accumulators: np.ndarray  # (n_active_outputs,) int64, 18-bit saturating
    last_clipped: np.ndarray  # (n_active_outputs,) 1.4.3 codes of step t
    step: int = 0

    @classmethod
    def initial(cls, image: CoreMemoryImage, qm: QuantizedModel, duration: int,
                lfsr_seed: int = 1):
        if not 0 < lfsr_seed <= 0xFFFF:
            raise ValueError("LFSR seed must be a nonzero 16-bit value")
        return cls(
            geometry=image.geometry,
            n_active_inputs=qm.n_inputs,
            n_active_outputs=qm.n_outputs,
            active_window=qm.window,
            w_step=qm.w_step,
            gamma_step=qm.gamma_step,
            lfsr_state=lfsr_seed,
            history=np.zeros((qm.n_inputs, duration), dtype=np.uint8),
            accumulators=np.zeros(qm.n_outputs, dtype=np.int64),
            last_clipped=np.zeros(qm.n_outputs, dtype=np.int64),
        )


def _saturating_sum(contrib: np.ndarray) -> np.ndarray:
    """Sequential 18-bit saturating accumulation down the word-line axis.

    The fast path applies when no running sum ever leaves the 18-bit
    range, where plain summation is exact.
    """
    if contrib.shape[0] == 0:
        return np.zeros(contrib.shape[1], dtype=np.int64)
    running = np.cumsum(contrib, axis=0)
    if abs(running).max() <= ACC_LIMIT:
        return running[-1]
    acc = np.zeros(contrib.shape[1], dtype=np.int64)
    for row in contrib:
        acc = np.clip(acc + row, -ACC_LIMIT, ACC_LIMIT)
    return acc


def core_step(state: CoreState, image: CoreMemoryImage, input_spikes_t, signs):
    """Advance the core by one step.

    Latches the incoming spikes, reads the active word lines plus the
    bias line, accumulates sign-adjusted codes with 18-bit saturation,
    clips the scaled potential to 1.4.3, applies the PWL sigmoid and
    draws one spike per active output neuron in index order from the
    shared LFSR.  Returns (output_spikes, addresses_read).
    """
    geom = state.geometry
    state.step += 1
    t = state.step
    state.history[:, t - 1] = input_spikes_t

    windows = np.zeros((state.n_active_inputs, geom.window), dtype=np.uint8)
    for d0 in range(min(state.active_window, t - 1)):
        windows[:, d0] = state.history[:, t - 2 - d0]

    addrs = gather_active_wordlines(windows, geom)
    kernel_codes, gamma_codes = image.decoded()

    kernel_addrs = addrs[:-1]
    selected = kernel_codes[kernel_addrs][:, : state.n_active_outputs]
    line_signs = np.asarray(signs, dtype=np.int64)[kernel_addrs // geom.window]
    state.accumulators = _saturating_sum(selected * line_signs[:, None])

    gamma_real = gamma_codes[: state.n_active_outputs].astype(np.float64) * state.gamma_step
    u_real = state.accumulators.astype(np.float64) * state.w_step + gamma_real
    state.last_clipped = clip_to_fixed(u_real, FMT_1_4_3)
    pwl = pwl_sigmoid(state.last_clipped)

    run = lfsr_run(state.lfsr_state, state.n_active_outputs + 1)
    spikes = (pwl > (run[:-1] & 0xFF)).astype(np.uint8)
    state.lfsr_state = int(run[-1])
    return spikes, addrs


def run_first_to_spike(
    image: CoreMemoryImage,
    train: SpikeTrain,
    qm: QuantizedModel,
    lfsr_seed: int = 1,
):
    """Present one sample and stop at the first output spike.

    Early termination skips the remaining steps entirely (their word
    lines are never read).  If no neuron spikes within the presentation
    time, the decision falls back to the argmax of the final clipped
    potentials (lowest index on ties).
    """
    if train.n_inputs != qm.n_inputs:
        raise ValueError("spike train width does not match the mapped model")
    state = CoreState.initial(image, qm, duration=train.duration, lfsr_seed=lfsr_seed)
    trace = AccessTrace()
    for t in range(1, train.duration + 1):
        spikes, addrs = core_step(state, image, train.raster[:, t - 1], train.sign)
        trace.record(addrs)
        if spikes.any():
            trace.decision_time = t
            return FtsDecision(int(np.argmax(spikes)), t, False), trace
    return FtsDecision(int(np.argmax(state.last_clipped)), None, True), trace


def latency_cdf(decisions, horizon: int):
    """Cumulative fraction of samples decided by each step.

    Returns (cdf, no_spike_fraction) where cdf[t-1] is the fraction with
    a first spike at step <= t; fallback decisions fill the no-spike
    bucket.  cdf[-1] + no_spike_fraction == 1.
    """
    decisions = list(decisions)
    if not decisions:
        raise ValueError("need at least one decision")
    counts = np.zeros(horizon, dtype=np.int64)
    no_spike = 0
    for d in decisions:
        if d.decision_time is None:
            no_spike += 1
        else:
            counts[d.decision_time - 1] += 1
    cdf = np.cumsum(counts) / len(decisions)
    return cdf, no_spike / len(decisions)
