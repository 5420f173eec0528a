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
    """Binary device array: one row of word_width bits per word line, packed
    eight to a byte, most significant first, the last byte zero-padded.
    These are the bytes core_image.bin stores after its header."""

    geometry: CoreGeometry
    rows: np.ndarray  # (device_rows, ceil(word_width / 8)) uint8

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.uint8)
        expect = (self.geometry.device_rows, (self.geometry.word_width + 7) // 8)
        if self.rows.shape != expect:
            raise ValueError(f"image shape {self.rows.shape} != {expect}")
        self._operands = {}

    def model_operands(self, n_inputs: int, n_outputs: int, window: int):
        """Cached quantize.datapath_operands of the mapped model region's
        codes, decoded from the array (see unpack_model)."""
        key = (n_inputs, n_outputs, window)
        if key not in self._operands:
            self._operands[key] = datapath_operands(*unpack_model(self, *key))
        return self._operands[key]


def _fields(codes, bits: int) -> np.ndarray:
    """Signed codes as sign-magnitude fields, one uint8 each: 1 sign bit
    (1 = negative) above bits-1 magnitude bits."""
    codes = np.asarray(codes)
    return np.abs(codes).astype(np.uint8) | ((codes < 0).astype(np.uint8) << (bits - 1))


def _encode_rows(fields: np.ndarray, bits: int) -> np.ndarray:
    """Packed rows of b-bit fields (n_rows, n_outputs): each field's bits,
    most significant first.  At b=8 the fields are the bytes; below it they
    are unpacked whole, left-aligned in their bytes, and packed again
    without the pad bits below them."""
    if bits == 8:
        return fields
    n_rows, n_outputs = fields.shape
    unpacked = np.unpackbits(fields << (8 - bits), axis=1)
    return np.packbits(unpacked.reshape(n_rows, n_outputs, 8)[:, :, :bits]
                       .reshape(n_rows, -1), axis=1)


def _decode_rows(rows: np.ndarray, bits: int, n_fields: int) -> np.ndarray:
    """Inverse of _encode_rows over _fields: the first n_fields codes of
    packed rows as signed int16.  Field k is read from the 16-bit word that
    starts at the byte holding its first bit."""
    words = np.zeros((rows.shape[0], rows.shape[1] + 1), dtype=np.uint16)
    words[:, :-1] = rows
    start = np.arange(n_fields) * bits
    shift = (16 - bits - start % 8).astype(np.uint16)
    fields = ((words[:, start // 8] << 8) | words[:, start // 8 + 1]) >> shift
    mag = (fields & ((1 << (bits - 1)) - 1)).astype(np.int16)
    negative = ((fields >> (bits - 1)) & 1).astype(np.int16)
    return mag * (1 - 2 * negative)


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
    fields = np.zeros((geom.device_rows, geom.n_outputs), dtype=np.uint8)
    lines = fields[: geom.n_kernel_lines].reshape(geom.n_inputs, geom.window, geom.n_outputs)
    lines[: qm.n_inputs, : qm.window, : qm.n_outputs] = _fields(
        qm.w_codes.transpose(0, 2, 1), geom.bits)
    fields[geom.gamma_line, : qm.n_outputs] = _fields(qm.gamma_codes, geom.bits)
    return CoreMemoryImage(geometry=geom, rows=_encode_rows(fields, geom.bits))


def unpack_model(image: CoreMemoryImage, n_inputs: int, n_outputs: int, window: int):
    """Recover the (w_codes, gamma_codes) of a mapped model, code for code,
    decoding the word lines up to the bias line in the bytes that hold the
    model's output columns."""
    geom = image.geometry
    rows = image.rows[: geom.n_wordlines, : (n_outputs * geom.bits + 7) // 8]
    codes = _decode_rows(rows, geom.bits, n_outputs)
    lines = codes[: geom.n_kernel_lines].reshape(geom.n_inputs, geom.window, n_outputs)
    w_codes = lines[:n_inputs, :window].transpose(0, 2, 1)
    return np.ascontiguousarray(w_codes), codes[geom.gamma_line]


def save_image(path, image: CoreMemoryImage):
    """Write core_image.bin: the magic, six little-endian uint32 (version,
    n_inputs, n_outputs, window, bits, 0), then the packed rows."""
    geom = image.geometry
    header = _IMAGE_MAGIC + struct.pack(
        "<6I", _IMAGE_VERSION, geom.n_inputs, geom.n_outputs, geom.window, geom.bits, 0
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.rows.tobytes())


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
