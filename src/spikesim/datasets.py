"""Dataset ingestion, scaling and model-artifact persistence.

Loaders parse the big-endian IDX image/label container and the
whitespace/comma text format used by the activity-recognition corpus.
A split is scaled once and checked once, when it is built: per-feature
min-max scaling of magnitudes by bounds that the loader passes in (fixed
for pixels, the train split's for activity features), with the signs kept
separately so negative features can flip weight signs during accumulation.
Every later stage reads a split as Dataset built it, unchecked.
"""

from __future__ import annotations

import gzip
import json
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .glm import GlmModel
from .quantize import QuantizedModel

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
HAR_CLASSES = 6

_ARTIFACT_MAGIC = b"SPKM"
_ARTIFACT_VERSION = 1


class DataFormatError(ValueError):
    """Raised when an input file does not match its declared format."""


class ArtifactError(ValueError):
    """Raised when a model artifact is unreadable or corrupted."""


@dataclass
class Dataset:
    """One split as the network reads it, checked when it is built."""

    magnitudes: np.ndarray  # (n_samples, n_features) float64 in [0, 1]
    signs: np.ndarray       # (n_samples, n_features) int8, +1 or -1
    labels: np.ndarray      # (n_samples,) class indices
    split: str
    n_classes: int

    def __post_init__(self):
        """The one check of a split, on the values as given: the casts
        below would wrap or truncate signs and labels."""
        magnitudes, signs, labels = map(np.asarray, (self.magnitudes, self.signs, self.labels))
        if magnitudes.ndim != 2 or signs.shape != magnitudes.shape:
            raise DataFormatError(f"magnitudes of shape {magnitudes.shape} but signs of shape "
                                  f"{signs.shape}; need both (n_samples, n_features)")
        if labels.shape != magnitudes.shape[:1]:
            raise DataFormatError(f"{len(magnitudes)} samples but labels of shape "
                                  f"{labels.shape}; need one label per sample")
        if magnitudes.size and not (0 <= magnitudes.min() and magnitudes.max() <= 1):
            raise DataFormatError(_magnitude_fault(magnitudes))
        if not (np.abs(signs) == 1).all():
            raise DataFormatError("sign entries must be +1 or -1")
        whole = np.issubdtype(labels.dtype, np.integer) or (np.round(labels) == labels).all()
        if labels.size and not (whole and 0 <= labels.min() and labels.max() < self.n_classes):
            raise DataFormatError(f"labels must be whole class indices in "
                                  f"0..{self.n_classes - 1}")
        self.magnitudes = magnitudes.astype(np.float64, copy=False)
        self.signs = signs.astype(np.int8, copy=False)
        self.labels = labels.astype(np.int64, copy=False)

    @classmethod
    def scaled(cls, features, labels, split: str, n_classes: int, lo, hi) -> Dataset:
        """The split of raw features: |x| min-max scaled by the per-feature
        bounds lo..hi and clipped into [0, 1] (0 where hi <= lo), and signs
        -1 where x < 0, else +1.  In place, to allocate one float array."""
        features = np.asarray(features)
        span = hi - lo
        safe = np.where(span > 0, span, 1.0)
        scaled = np.abs(features, dtype=np.float64)
        scaled -= lo
        scaled /= safe
        scaled[:, span <= 0] = 0.0
        return cls(np.clip(scaled, 0.0, 1.0, out=scaled),
                   1 - 2 * (features < 0).astype(np.int8), labels, split, n_classes)

    @property
    def n_samples(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_features(self) -> int:
        return self.magnitudes.shape[1]


def _magnitude_fault(magnitudes) -> str:
    """What puts magnitudes outside [0, 1]: a non-finite value, or the
    channel of the value furthest out."""
    magnitudes = magnitudes.astype(np.float64)
    if not np.isfinite(magnitudes).all():
        return "magnitudes contain non-finite values"
    worst = np.unravel_index(np.argmax(np.maximum(magnitudes - 1, -magnitudes)),
                             magnitudes.shape)
    value = magnitudes[worst]
    return (f"channel {worst[-1]} has magnitude {value:g} {'> 1' if value > 1 else '< 0'}; "
            "normalize first")


def _take(path, data, start, n, what):
    """data[start:start + n], or a DataFormatError if data ends before that."""
    if len(data) < start + n:
        raise DataFormatError(
            f"{path}: truncated while reading {what} "
            f"(wanted {n} bytes, got {len(data) - start})"
        )
    return data[start : start + n]


def _read_idx(path, expected_magic, n_dims, what):
    """The dimensions and the flat uint8 payload of an IDX file, from one
    read of the file, decompressed whole if it starts with the gzip magic."""
    data = Path(path).read_bytes()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise DataFormatError(
                f"{path}: corrupt gzip stream while reading {what}: {exc}") from None
    view = memoryview(data)  # its slices share the buffer
    (magic,) = struct.unpack(">I", _take(path, view, 0, 4, "magic"))
    if magic != expected_magic:
        raise DataFormatError(
            f"{path}: bad magic 0x{magic:08x} at offset 0, "
            f"expected 0x{expected_magic:08x}"
        )
    dims = struct.unpack(f">{n_dims}I", _take(path, view, 4, 4 * n_dims, "dimensions"))
    payload = _take(path, view, 4 + 4 * n_dims, math.prod(dims), f"{dims[0]} {what}")
    return dims, np.frombuffer(payload, dtype=np.uint8)


def write_idx_images(path, images: np.ndarray, rows: int, cols: int):
    """Pack a (count, rows*cols) uint8 matrix into the IDX container."""
    images = np.asarray(images, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, len(images), rows, cols))
        fh.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray):
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        fh.write(labels.tobytes())


def load_digits(images_path, labels_path, split: str) -> Dataset:
    """Handwritten-digit split from IDX image/label files.

    Pixels are non-negative, so they scale by the fixed bounds 0..255 and
    every sign is +1.
    """
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "images")
    _, labels = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "labels")
    if count != len(labels):
        raise DataFormatError(
            f"{images_path} holds {count} images but "
            f"{labels_path} holds {len(labels)} labels"
        )
    return Dataset.scaled(pixels.reshape(count, rows * cols), labels, split, 10,
                          np.zeros(rows * cols), np.full(rows * cols, 255.0))


def _read_text(path) -> str:
    """The whole of a text file; a DataFormatError names it when it cannot
    be decoded."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not a text file: {exc}") from None


def _parse_features(features_path) -> np.ndarray:
    """The (rows, width) features of a text file, parsed in one np.loadtxt
    call over the lines of the comma-normalised text.  When that fails,
    finds a value that is not finite, or returns fewer rows than the file
    has non-blank lines, the line scan parses the file again and names the
    offending line.  loadtxt skips blank lines only, so the one non-blank
    line it can drop is a line of nothing but commas: the lines are counted
    only when the text holds a comma."""
    text = _read_text(features_path)
    if text and not text.isspace():
        try:
            features = np.loadtxt(text.replace(",", " ").split("\n"), ndmin=2,
                                  comments=None)
        except ValueError:
            features = None
        if (features is not None and np.isfinite(features).all()
                and ("," not in text or len(features)
                     == sum(1 for line in text.split("\n") if line.strip()))):
            return features
    return _scan_features(features_path, text)


def _scan_features(features_path, text) -> np.ndarray:
    """_parse_features line by line: a DataFormatError names the file and the
    line of the first ragged row, non-number or non-finite value."""
    rows, linenos = [], []
    width = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        tokens = line.replace(",", " ").split()
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise DataFormatError(
                f"{features_path}:{lineno}: row has {len(tokens)} fields, "
                f"expected {width}"
            )
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError as exc:
            raise DataFormatError(f"{features_path}:{lineno}: {exc}") from None
        linenos.append(lineno)
    if not rows:
        raise DataFormatError(f"{features_path}: no feature rows")
    features = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise DataFormatError(
            f"{features_path}:{linenos[row]}: field {col + 1} is "
            f"{features[row, col]:g}, not a finite number"
        )
    return features


def _check_widths(train_width: int, test_width: int):
    if train_width != test_width:
        raise DataFormatError(f"the train split has {train_width} features "
                              f"but the test split has {test_width}")


def load_har(train_paths, test_paths):
    """The (train, test) splits of the activity-recognition corpus, each
    from a (features, labels) pair of text file paths.

    Both splits scale by the train split's per-feature |x| bounds, so they
    must be as wide.
    """
    (x_train, y_train), (x_test, y_test) = (_read_har_split(*paths)
                                            for paths in (train_paths, test_paths))
    _check_widths(x_train.shape[1], x_test.shape[1])
    train_mags = np.abs(x_train)
    lo, hi = train_mags.min(axis=0), train_mags.max(axis=0)
    return (Dataset.scaled(x_train, y_train, "train", HAR_CLASSES, lo, hi),
            Dataset.scaled(x_test, y_test, "test", HAR_CLASSES, lo, hi))


def _read_har_split(features_path, labels_path):
    """The raw (features, labels) of one activity-recognition split.

    Features may be whitespace- or comma-separated and must be finite;
    labels are one integer per line in 1..HAR_CLASSES, mapped to 0-based.
    """
    features = _parse_features(features_path)

    labels = []
    for lineno, line in enumerate(_read_text(labels_path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            label = int(line.strip())
        except ValueError:
            raise DataFormatError(
                f"{labels_path}:{lineno}: label {line.strip()!r} is not an integer"
            ) from None
        if not 1 <= label <= HAR_CLASSES:
            raise DataFormatError(
                f"{labels_path}:{lineno}: unknown label {label}, "
                f"expected 1..{HAR_CLASSES}"
            )
        labels.append(label - 1)

    if len(features) != len(labels):
        raise DataFormatError(
            f"{features_path} holds {len(features)} rows but "
            f"{labels_path} holds {len(labels)} labels"
        )
    return features, np.array(labels, dtype=np.int64)


def make_synthetic(n_samples: int, n_features: int = 16, n_classes: int = 4,
                   seed: int = 0, noise: float = 0.05, split: str = "train",
                   sample_seed: int | None = None) -> Dataset:
    """Deterministic prototype-based separable dataset for demos and tests.

    The class prototypes come from `seed`.  The samples follow from the
    same generator, or from their own one seeded with `sample_seed`, so
    splits that share `seed` but not `sample_seed` are one task.
    """
    rng = np.random.default_rng(seed)
    protos = rng.uniform(0.1, 0.9, size=(n_classes, n_features))
    if sample_seed is not None:
        rng = np.random.default_rng(sample_seed)
    labels = rng.integers(0, n_classes, size=n_samples)
    features = protos[labels] + rng.normal(scale=noise, size=(n_samples, n_features))
    features = np.clip(features, 0.0, 1.0)
    return Dataset.scaled(features, labels, split, n_classes,
                          np.zeros(n_features), np.ones(n_features))


@dataclass
class ModelArtifact:
    kind: str          # "glm" or "quantized"
    model: object
    provenance: dict


# artifact kind -> (model class, header ints, payload arrays and their dtypes
# in payload order); `scales` holds the four bounds named in _SCALES, and a
# glm's `basis` is always the window's identity: its weights are its kernels
_KINDS = {
    "glm": (GlmModel, ("n_inputs", "n_outputs", "presentation_time", "window"),
            {"weights": "<f8", "biases": "<f8", "basis": "|u1"}),
    "quantized": (QuantizedModel, ("bits", "presentation_time", "window"),
                  {"w_codes": "<i2", "gamma_codes": "<i2", "scales": "<f8"}),
}
_SCALES = ("w_min", "w_max", "gamma_min", "gamma_max")


def save_model(path, model, provenance: dict | None = None):
    """Write a model artifact: header, little-endian payload, checksum."""
    kind = next((k for k, row in _KINDS.items() if isinstance(model, row[0])), None)
    if kind is None:
        raise ArtifactError(f"cannot serialize {type(model).__name__}")
    _, ints, dtypes = _KINDS[kind]
    manifest, payload = {}, bytearray()
    for name, dtype in dtypes.items():
        value = ([getattr(model, s) for s in _SCALES] if name == "scales"
                 else np.eye(model.window) if name == "basis" else getattr(model, name))
        arr = np.ascontiguousarray(value, dtype=dtype)
        manifest[name] = {"dtype": dtype, "shape": list(arr.shape),
                          "offset": len(payload), "nbytes": arr.nbytes}
        payload += arr.tobytes()
    header = json.dumps({"kind": kind, "ints": {n: getattr(model, n) for n in ints},
                         "fields": manifest, "provenance": provenance or {}},
                        sort_keys=True).encode()
    blob = (_ARTIFACT_MAGIC + struct.pack("<II", _ARTIFACT_VERSION, len(header))
            + header + bytes(payload))
    Path(path).write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))


def _header_entry(path, header, *keys):
    """header[keys[0]][keys[1]]..., or an ArtifactError naming what it lacks."""
    for depth, key in enumerate(keys):
        if not isinstance(header, dict) or key not in header:
            raise ArtifactError(f"{path}: header has no {'.'.join(keys[:depth + 1])}")
        header = header[key]
    return header


def load_model(path) -> ModelArtifact:
    """Read a model artifact against _KINDS: ArtifactError if it cannot be
    or holds a basis other than the identity, the model class's own
    ValueError if the model it holds is inconsistent."""
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != _ARTIFACT_MAGIC:
        raise ArtifactError(f"{path}: not a model artifact")
    if zlib.crc32(blob[:-4]) != struct.unpack("<I", blob[-4:])[0]:
        raise ArtifactError(f"{path}: checksum mismatch, file is corrupted")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != _ARTIFACT_VERSION:
        raise ArtifactError(f"{path}: unsupported artifact version {version}")
    header, payload = blob[12 : 12 + header_len], memoryview(blob)[12 + header_len : -4]
    try:
        header = json.loads(header)
    except ValueError:
        raise ArtifactError(f"{path}: header is not JSON") from None
    kind = _header_entry(path, header, "kind")
    if type(kind) is not str or kind not in _KINDS:
        raise ArtifactError(f"{path}: unknown artifact kind {kind!r}")
    cls, ints, dtypes = _KINDS[kind]
    fields = {name: _header_entry(path, header, "ints", name) for name in ints}
    if any(type(value) is not int for value in fields.values()):
        raise ArtifactError(f"{path}: header ints {fields} are not all integers")
    for name, dtype in dtypes.items():
        found, shape, at, nbytes = (_header_entry(path, header, "fields", name, key)
                                    for key in ("dtype", "shape", "offset", "nbytes"))
        if found != dtype:
            raise ArtifactError(f"{path}: field {name} is stored as {found!r}, not {dtype!r}")
        try:  # unlike a slice's start, frombuffer's offset cannot be negative
            fields[name] = np.frombuffer(payload[: at + nbytes], dtype, offset=at).reshape(shape)
            if name == "scales":
                fields.update(zip(_SCALES, fields.pop(name).reshape(4).tolist()))
        except (TypeError, ValueError):
            raise ArtifactError(f"{path}: cannot read field {name} of shape {shape} "
                                "from the payload") from None
    if kind == "glm":
        basis, window = fields.pop("basis"), fields["window"]
        if basis.shape != (window, window) or not np.array_equal(basis, np.eye(window)):
            raise ArtifactError(f"{path}: basis is not the identity of the {window}-step "
                                "window; only expanded kernels are supported")
    return ModelArtifact(kind=kind, model=cls(**fields),
                         provenance=_header_entry(path, header, "provenance"))
