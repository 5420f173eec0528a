"""The benchmark's own reading of spikesim's files and integer datapath.

Nothing here imports spikesim: the output checks compare the program against
these independent computations.  The datapath follows the documented core:
word line j*window + d holds tap d of input j, the bias line is always read,
codes accumulate input-major in an 18-bit saturating accumulator, the
potential is clipped to 1.4.3, passed through the shift/add PWL sigmoid and
compared with the low 8 bits of a 16-bit Fibonacci LFSR (taps 16, 14, 13,
11), one draw per output per step in index order.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}
HAR_NAMES = {
    "train": ("X_train.txt", "y_train.txt"),
    "test": ("X_test.txt", "y_test.txt"),
}

ACC_LIMIT = 2**17 - 1
FMT_MIN_CODE, FMT_MAX_CODE = -64, 63  # 1.4.3: [-8.0, +7.875] in steps of 1/8


# ---------------------------------------------------------------- file formats

def read_artifact(path) -> dict:
    """Parse a model artifact: magic, version, JSON header, payload, CRC-32."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"SPKM" or len(blob) < 16:
        raise ValueError(f"{path}: not a model artifact")
    body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(body) != crc:
        raise ValueError(f"{path}: checksum mismatch")
    version, header_len = struct.unpack("<II", body[4:12])
    header = json.loads(body[12:12 + header_len])
    payload = body[12 + header_len:]
    arrays = {}
    for name, f in header["fields"].items():
        raw = payload[f["offset"]:f["offset"] + f["nbytes"]]
        arrays[name] = np.frombuffer(raw, dtype=f["dtype"]).reshape(f["shape"])
    return {"kind": header["kind"], "version": version, "ints": header["ints"],
            "arrays": arrays}


def read_idx(path) -> np.ndarray:
    """IDX images as (count, rows*cols) uint8, or labels as (count,) int64."""
    blob = Path(path).read_bytes()
    (magic,) = struct.unpack(">I", blob[:4])
    if magic == 0x803:
        count, rows, cols = struct.unpack(">III", blob[4:16])
        return np.frombuffer(blob[16:], dtype=np.uint8).reshape(count, rows * cols)
    if magic == 0x801:
        (count,) = struct.unpack(">I", blob[4:8])
        return np.frombuffer(blob[8:8 + count], dtype=np.uint8).astype(np.int64)
    raise ValueError(f"{path}: bad IDX magic {magic:#x}")


def read_text_matrix(path) -> np.ndarray:
    """Whitespace text rows, each token parsed with Python's float()."""
    with open(path) as fh:
        return np.array([[float(tok) for tok in line.split()]
                         for line in fh if line.strip()])


def held_out_inputs(data_dir, dataset: str):
    """(magnitudes, signs, labels) of the test split, normalized as documented.

    Digits pixels scale by 255 and are all positive.  Text features scale
    their magnitudes per feature by the train split's min and max; a feature
    with no spread gets magnitude 0; signs are kept apart.
    """
    data_dir = Path(data_dir)
    if dataset == "digits":
        images = read_idx(data_dir / IDX_NAMES["test"][0]).astype(np.float64)
        labels = read_idx(data_dir / IDX_NAMES["test"][1])
        return images / 255.0, np.ones(images.shape, dtype=np.int64), labels
    train = np.abs(read_text_matrix(data_dir / HAR_NAMES["train"][0]))
    test = read_text_matrix(data_dir / HAR_NAMES["test"][0])
    labels = read_text_matrix(data_dir / HAR_NAMES["test"][1])[:, 0].astype(np.int64) - 1
    lo, hi = train.min(axis=0), train.max(axis=0)
    span = hi - lo
    mags = (np.abs(test) - lo) / np.where(span > 0, span, 1.0)
    mags[:, span <= 0] = 0.0
    return np.clip(mags, 0.0, 1.0), np.where(test < 0, -1, 1), labels


def rasters(magnitudes, duration: int, seed: int, count: int):
    """The first `count` Bernoulli spike rasters simulate draws for `seed`.

    simulate draws one (n_inputs, duration) uniform block per sample, in
    sample order, from one generator seeded with the run seed.
    """
    rng = np.random.default_rng(seed)
    return [(rng.random((magnitudes.shape[1], duration)) < magnitudes[k][:, None])
            .astype(np.uint8) for k in range(count)]


# ---------------------------------------------------------------- quantizer

def round_half_away(x):
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_with_zero(values, bits: int):
    """Uniform b-bit codes over [min(v, 0), max(v, 0)]: (codes, lo, hi).

    step = (hi - lo) / 2**(bits-1) and codes clamp to +-(2**(bits-1) - 1),
    the artifact's convention; widening the range to include zero keeps
    one-signed values (such as all-negative biases) from saturating.
    """
    values = np.asarray(values, dtype=np.float64)
    lo, hi = min(float(values.min()), 0.0), max(float(values.max()), 0.0)
    step = (hi - lo) / 2 ** (bits - 1)
    bound = 2 ** (bits - 1) - 1
    if step == 0.0:
        return np.zeros(values.shape, dtype=np.int64), lo, hi
    return np.clip(round_half_away(values / step), -bound, bound).astype(np.int64), lo, hi


# ---------------------------------------------------------------- datapath

def lfsr_next(state: int) -> int:
    """Fibonacci LFSR x^16 + x^14 + x^13 + x^11 + 1, shifting right."""
    bit = ((state >> 0) ^ (state >> 2) ^ (state >> 3) ^ (state >> 5)) & 1
    return (state >> 1) | (bit << 15)


def lfsr_seed(seed: int, index: int) -> int:
    """Per-sample LFSR seed simulate derives from the run seed."""
    x = (seed * 0x9E3779B1 + index * 0x85EBCA77 + 0xC2B2AE3D) & 0xFFFFFFFF
    x ^= x >> 16
    return (x & 0xFFFF) or 0x1D87


def clip_143(u):
    """Round to 1/8 (ties away from zero) and saturate to the 1.4.3 range."""
    return np.clip(round_half_away(np.asarray(u) * 8.0), FMT_MIN_CODE,
                   FMT_MAX_CODE).astype(np.int64)


def pwl(code):
    """PWL sigmoid of 1.4.3 codes as floor(256*y), y from shifts and adds.

    For x = -(k + m/8) <= 0, y = (1/2 - m/32) / 2**k; for x > 0,
    y = 1 - y(-x), clamped below 256.
    """
    code = np.asarray(code, dtype=np.int64)
    k, m = np.abs(code) // 8, np.abs(code) % 8
    numer = 128 - 8 * m
    ceil_div = -(-numer // (1 << k))
    return np.where(code <= 0, numer >> k, np.minimum(256 - ceil_div, 255))


def saturating_sum(rows: np.ndarray) -> np.ndarray:
    """Add rows in order, saturating every partial sum at +-(2**17 - 1)."""
    acc = np.zeros(rows.shape[1], dtype=np.int64)
    running = np.cumsum(rows, axis=0) if len(rows) else rows
    if len(rows) == 0 or np.abs(running).max() <= ACC_LIMIT:
        return acc + (running[-1] if len(rows) else 0)
    for row in rows:
        acc = np.clip(acc + row, -ACC_LIMIT, ACC_LIMIT)
    return acc


def first_to_spike(w_codes, gamma_codes, w_step, gamma_step, raster, sign, seed):
    """One sample through the integer core: (class, decision step or -1, reads).

    reads[t-1] counts the word lines read at step t: one per active
    (input, tap) pair plus the bias line.  With no spike by the end of the
    raster, the class is the argmax of the last clipped potentials.
    """
    w_codes = np.asarray(w_codes, dtype=np.int64)
    n_in, n_out, window = w_codes.shape
    gamma = np.asarray(gamma_codes, dtype=np.int64) * gamma_step
    sign = np.asarray(sign, dtype=np.int64)
    state, reads, codes = seed, [], None
    for t in range(1, raster.shape[1] + 1):
        taps = np.zeros((n_in, window), dtype=np.uint8)
        for d in range(min(window, t - 1)):
            taps[:, d] = raster[:, t - 2 - d]  # tap d sees the spike of step t-1-d
        js, ds = np.nonzero(taps)              # input-major, then tap order
        reads.append(len(js) + 1)
        acc = saturating_sum(sign[js, None] * w_codes[js, :, ds])
        codes = clip_143(acc * w_step + gamma)
        act = pwl(codes)
        fired = -1
        for i in range(n_out):
            if act[i] > (state & 0xFF) and fired < 0:
                fired = i
            state = lfsr_next(state)
        if fired >= 0:
            return fired, t, reads
    return int(np.argmax(codes)), -1, reads
