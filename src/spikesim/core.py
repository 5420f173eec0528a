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

first_to_spike_batch runs a block of samples at once through
quantize.first_to_spike_quantized, the datapath the quantized evaluator
scores, on the codes decoded from the array, and counts the word lines each
step reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .quantize import (
    DATAPATH_BITS,
    QuantizedModel,
    datapath_operands,
    first_to_spike_quantized,
)

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
        if self.bits not in DATAPATH_BITS:
            raise ValueError(
                f"bits must be in [{DATAPATH_BITS.start}, {DATAPATH_BITS.stop - 1}], "
                f"not {self.bits}"
            )

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
        self._operands = {}

    def model_operands(self, n_inputs: int, n_outputs: int, window: int):
        """Cached quantize.datapath_operands of the mapped model region's
        codes, decoded from the array (see unpack_model)."""
        key = (n_inputs, n_outputs, window)
        if key not in self._operands:
            self._operands[key] = datapath_operands(*unpack_model(self, *key))
        return self._operands[key]


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
    """Inverse of _encode_rows: bit rows back to signed int16 codes."""
    n_rows, width = rows.shape
    mag = np.zeros((n_rows, width // bits), dtype=np.int16)
    for k in range(bits - 1):
        shift = bits - 2 - k
        mag += rows[:, 1 + k :: bits].astype(np.int16) << shift
    return np.where(rows[:, 0::bits] == 1, -mag, mag)


def _check_fits(qm: QuantizedModel, geom: CoreGeometry):
    """Raise ValueError unless qm's codes fit geom's array: the same synapse
    width and no more inputs, outputs or taps."""
    if qm.bits != geom.bits:
        raise ValueError(f"model is {qm.bits}-bit but geometry holds {geom.bits}-bit synapses")
    if qm.n_inputs > geom.n_inputs or qm.n_outputs > geom.n_outputs:
        raise ValueError(
            f"model {qm.n_inputs}x{qm.n_outputs} exceeds geometry "
            f"{geom.n_inputs}x{geom.n_outputs}"
        )
    if qm.window > geom.window:
        raise ValueError(f"model window {qm.window} exceeds geometry window {geom.window}")


def map_model_to_memory(qm: QuantizedModel, geom: CoreGeometry) -> CoreMemoryImage:
    """Pack a quantized model into the device array.

    Word line j*window + d holds tap d's codes of input j for all
    outputs; the bias line comes last.  The packing is bijective over
    the model region, so unpack_model recovers every code exactly.
    """
    _check_fits(qm, geom)
    codes = np.zeros((geom.device_rows, geom.n_outputs), dtype=np.int64)
    for d in range(qm.window):
        rows = np.arange(qm.n_inputs) * geom.window + d
        codes[rows, : qm.n_outputs] = qm.w_codes[:, :, d]
    codes[geom.gamma_line, : qm.n_outputs] = qm.gamma_codes
    return CoreMemoryImage(geometry=geom, bits=_encode_rows(codes, geom.bits))


def unpack_model(image: CoreMemoryImage, n_inputs: int, n_outputs: int, window: int):
    """Recover the (w_codes, gamma_codes) of a mapped model, code for code,
    decoding only the model's word lines and output columns."""
    geom = image.geometry
    columns = slice(0, n_outputs * geom.bits)
    w_codes = np.empty((n_inputs, n_outputs, window), dtype=np.int16)
    for d in range(window):
        lines = slice(d, n_inputs * geom.window, geom.window)  # tap d of every input
        w_codes[:, :, d] = _decode_rows(image.bits[lines, columns], geom.bits)
    gamma = image.bits[geom.gamma_line : geom.gamma_line + 1, columns]
    return w_codes, _decode_rows(gamma, geom.bits)[0]


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


def _wordline_reads(rasters: np.ndarray, window: int) -> np.ndarray:
    """Word lines each step reads, the bias line included: (batch, T).

    Step t reads one line per spike latched 1..min(window, t - 1) steps
    before it, plus the bias line.
    """
    spikes = rasters.sum(axis=1, dtype=np.int64)  # (batch, T) spikes per step
    latched = np.zeros((spikes.shape[0], spikes.shape[1] + 1), dtype=np.int64)
    np.cumsum(spikes, axis=1, out=latched[:, 1:])
    t = np.arange(spikes.shape[1])
    return 1 + latched[:, t] - latched[:, np.maximum(t - window, 0)]


def first_to_spike_batch(image: CoreMemoryImage, qm: QuantizedModel, rasters,
                         signs, lfsr_seeds):
    """First-to-spike decisions of a batch of samples on the core.

    rasters is (batch, n_inputs, T) of {0, 1}, signs (batch, n_inputs) of
    +-1 and lfsr_seeds one nonzero 16-bit seed per sample.  The samples
    decide through quantize.first_to_spike_quantized on the codes decoded
    from the device array, which must hold qm (see map_model_to_memory):
    a model wider than the image, or of another synapse width, is a
    ValueError.

    Returns (predicted, decision_time, reads): decision_time is 0 for the
    no-spike fallback, and reads[k, t-1] is the number of word lines step
    t of sample k reads, bias line included.  Only steps up to the
    decision (all T for the fallback) execute on the core.
    """
    _check_fits(qm, image.geometry)
    rasters = np.asarray(rasters)
    if rasters.shape[1] != qm.n_inputs:
        raise ValueError("spike train width does not match the mapped model")
    predicted, decision_time = first_to_spike_quantized(
        qm, rasters, signs, lfsr_seeds,
        image.model_operands(qm.n_inputs, qm.n_outputs, qm.window),
    )
    return predicted, decision_time, _wordline_reads(rasters, qm.window)


def latency_cdf(decision_time, horizon: int):
    """Cumulative fraction of samples decided by each step.

    decision_time holds one decision step per sample, 0 for the no-spike
    fallback, as first_to_spike_batch returns it.  Returns (cdf,
    no_spike_fraction) where cdf[t-1] is the fraction with a first spike at
    step <= t.  cdf[-1] + no_spike_fraction == 1.
    """
    decision_time = np.asarray(decision_time, dtype=np.int64)
    if decision_time.size == 0:
        raise ValueError("need at least one decision")
    counts = np.bincount(decision_time, minlength=horizon + 1)
    return np.cumsum(counts[1:]) / decision_time.size, counts[0] / decision_time.size
