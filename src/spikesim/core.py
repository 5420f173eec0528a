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

map_model_to_memory packs a model into the array, and the core decides
through quantize.first_to_spike_sweep, the one quantized datapath, on
unpack_model of it, the model decoded from the array; wordline_reads
counts the word lines each step reads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .glm import kernel_matrix, word_lines
from .quantize import QuantizedModel

_IMAGE_MAGIC = b"SPKIMG\x00"
_IMAGE_VERSION = 1


@dataclass
class CoreMemoryImage:
    """A quantized model's binary device array: one row of n_outputs * bits
    bits per word line, packed eight to a byte, most significant first, the
    last byte zero-padded.  It has as many rows as the least power of two
    above the bias line's address n_inputs * window: 2048 for a 256-input,
    7-tap model.  core_image.bin stores these bytes after its header."""

    model: QuantizedModel
    rows: np.ndarray  # (device_rows, ceil(n_outputs * bits / 8)) uint8


def _fields(codes, bits: int) -> np.ndarray:
    """Signed codes as sign-magnitude fields, one uint8 each: 1 sign bit
    (1 = negative) above bits-1 magnitude bits."""
    codes = np.asarray(codes)
    return np.abs(codes).astype(np.uint8) | ((codes < 0).astype(np.uint8) << (bits - 1))


def _encode_rows(fields: np.ndarray, bits: int) -> np.ndarray:
    """Packed rows of b-bit fields (n_rows, n_outputs): each field's bits,
    most significant first.  At b=8 the fields are the bytes.  Below it,
    each run of 8 fields fills b bytes: field k of a run is shifted into
    place in a 64-bit word, one field position at a time for every row and
    run, and the low b bytes of each big-endian word are the run's bytes."""
    if bits == 8:
        return fields
    n_rows, n_fields = fields.shape
    words = np.zeros((n_rows, -(-n_fields // 8)), dtype=np.uint64)
    for k in range(8):
        column = fields[:, k::8]
        words[:, : column.shape[1]] |= column.astype(np.uint64) << (bits * (7 - k))
    runs = words.astype(">u8").view(np.uint8).reshape(n_rows, -1, 8)[:, :, 8 - bits :]
    return runs.reshape(n_rows, -1)[:, : -(-n_fields * bits // 8)]


def _decode_rows(rows: np.ndarray, bits: int, n_fields: int) -> np.ndarray:
    """Inverse of _encode_rows over _fields: the first n_fields codes of
    packed rows as row-major int16.  At b=8 field k is byte k of its row.
    Below it, field k is read from the 16-bit word that starts at the byte
    holding its first bit (take, where an index along axis 1 would return
    the fields column-major)."""
    if bits == 8:
        fields = rows[:, :n_fields]
    else:
        words = np.zeros((rows.shape[0], rows.shape[1] + 1), dtype=np.uint16)
        words[:, :-1] = rows
        start = np.arange(n_fields) * bits
        shift = (16 - bits - start % 8).astype(np.uint16)
        fields = (words.take(start // 8, axis=1) << 8
                  | words.take(start // 8 + 1, axis=1)) >> shift
    mag = (fields & ((1 << (bits - 1)) - 1)).astype(np.int16)
    negative = ((fields >> (bits - 1)) & 1).astype(np.int16)
    return mag * (1 - 2 * negative)


def map_model_to_memory(qm: QuantizedModel) -> CoreMemoryImage:
    """Pack a quantized model into its device array.

    Word line j*window + d holds tap d's codes of input j for all
    outputs; the bias line comes last.  The packing is bijective, so
    unpack_model recovers every code exactly.
    """
    n_lines = qm.n_inputs * qm.window
    fields = np.zeros((1 << n_lines.bit_length(), qm.n_outputs), dtype=np.uint8)
    fields[:n_lines] = _fields(kernel_matrix(qm.w_codes, np.int16), qm.bits).reshape(n_lines, -1)
    fields[n_lines] = _fields(qm.gamma_codes, qm.bits)
    return CoreMemoryImage(model=qm, rows=_encode_rows(fields, qm.bits))


def unpack_model(image: CoreMemoryImage) -> QuantizedModel:
    """The model the array holds: image.model with the codes decoded from
    word lines 0 .. n_inputs * window, the bias line last."""
    qm = image.model
    n_lines = qm.n_inputs * qm.window
    codes = _decode_rows(image.rows[: n_lines + 1], qm.bits, qm.n_outputs)
    lines = codes[:n_lines].reshape(qm.n_inputs, qm.window, qm.n_outputs)
    return replace(qm, w_codes=word_lines(lines), gamma_codes=codes[n_lines])


def save_image(path, image: CoreMemoryImage):
    """Write core_image.bin: the magic, six little-endian uint32 (version,
    n_inputs, n_outputs, window, bits, 0), then the packed rows."""
    qm = image.model
    header = _IMAGE_MAGIC + struct.pack(
        "<6I", _IMAGE_VERSION, qm.n_inputs, qm.n_outputs, qm.window, qm.bits, 0
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.rows.tobytes())


def wordline_reads(rasters: np.ndarray, window: int) -> np.ndarray:
    """Word lines each step of a batch reads on the core, the bias line
    included: reads[k, t-1] for step t of sample k, shape (batch, T).

    Step t reads one line per spike latched 1..min(window, t - 1) steps
    before it, plus the bias line.  Only steps up to the decision (all T
    for the fallback) execute.  The spikes of each step are counted in one
    float32 GEMV against ones, exact while a count, at most n_inputs, is
    below 2**24.
    """
    spikes = np.ones(rasters.shape[1], dtype=np.float32) @ rasters  # (batch, T)
    latched = np.zeros((spikes.shape[0], spikes.shape[1] + 1), dtype=np.int64)
    np.cumsum(spikes, axis=1, dtype=np.int64, out=latched[:, 1:])
    t = np.arange(spikes.shape[1])
    return 1 + latched[:, t] - latched[:, np.maximum(t - window, 0)]


def latency_cdf(decision_time, horizon: int):
    """Cumulative fraction of samples decided by each step.

    decision_time holds one decision step per sample, 0 for the no-spike
    fallback, as quantize.first_to_spike_sweep returns it per model.
    Returns (cdf, no_spike_fraction) where cdf[t-1] is the fraction with a
    first spike at step <= t.  cdf[-1] + no_spike_fraction == 1.
    """
    decision_time = np.asarray(decision_time, dtype=np.int64)
    if decision_time.size == 0:
        raise ValueError("need at least one decision")
    counts = np.bincount(decision_time, minlength=horizon + 1)
    return np.cumsum(counts[1:]) / decision_time.size, counts[0] / decision_time.size
