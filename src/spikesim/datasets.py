"""Dataset ingestion, normalization and model-artifact persistence.

Loaders parse the big-endian IDX image/label container and the
whitespace/comma text format used by the activity-recognition corpus.
Normalization is per-feature min-max scaling of magnitudes, fitted on
the training split only; signs are preserved separately so negative
features can flip weight signs during accumulation.
"""

from __future__ import annotations

import gzip
import io
import json
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .glm import GlmModel
from .quantize import QuantizedModel

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

_ARTIFACT_MAGIC = b"SPKM"
_ARTIFACT_VERSION = 1


class DataFormatError(ValueError):
    """Raised when an input file does not match its declared format."""


class ArtifactError(ValueError):
    """Raised when a model artifact is unreadable or corrupted."""


@dataclass
class Dataset:
    features: np.ndarray  # (n_samples, n_features) raw values
    labels: np.ndarray    # (n_samples,) class indices
    split: str
    n_classes: int
    norm_min: np.ndarray | None = None  # per-feature |x| minimum (train stats)
    norm_max: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if len(self.features) != len(self.labels):
            raise DataFormatError(
                f"{len(self.features)} samples but {len(self.labels)} labels"
            )
        if len(self.labels) and not (
            0 <= self.labels.min() and self.labels.max() < self.n_classes
        ):
            raise DataFormatError("labels out of range for declared class count")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def magnitudes(self) -> np.ndarray:
        """Normalized magnitudes in [0, 1] using the attached train stats."""
        if self.norm_min is None or self.norm_max is None:
            raise ValueError(f"{self.split} split has no normalization stats")
        span = self.norm_max - self.norm_min
        safe = np.where(span > 0, span, 1.0)
        scaled = (np.abs(self.features) - self.norm_min) / safe
        scaled[:, span <= 0] = 0.0
        return np.clip(scaled, 0.0, 1.0)

    def signs(self) -> np.ndarray:
        return np.where(self.features < 0, -1, 1).astype(np.int8)


def fit_normalization(train: Dataset):
    """Per-feature min/max of magnitudes, from the training split alone."""
    if train.split != "train":
        raise ValueError("normalization statistics must come from the train split")
    mags = np.abs(train.features)
    return mags.min(axis=0), mags.max(axis=0)


def normalize_splits(train: Dataset, test: Dataset):
    """Attach train-split statistics to both splits (test is never read)."""
    mn, mx = fit_normalization(train)
    train.norm_min, train.norm_max = mn, mx
    test.norm_min, test.norm_max = mn.copy(), mx.copy()
    return train, test


@contextmanager
def _open_maybe_gzip(path):
    """The file opened once for reading, through gzip if it starts with the
    gzip magic."""
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == b"\x1f\x8b"
        fh.seek(0)
        if gzipped:
            with gzip.GzipFile(fileobj=fh, mode="rb") as gz:
                yield gz
        else:
            yield fh


def _read_exact(fh, n, path, what):
    try:
        data = fh.read(n)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise DataFormatError(f"{path}: corrupt gzip stream while reading {what}: {exc}") from None
    if len(data) != n:
        raise DataFormatError(
            f"{path}: truncated while reading {what} "
            f"(wanted {n} bytes, got {len(data)})"
        )
    return data


def _read_idx_header(fh, path, expected_magic, n_dims):
    magic = struct.unpack(">I", _read_exact(fh, 4, path, "magic"))[0]
    if magic != expected_magic:
        raise DataFormatError(
            f"{path}: bad magic 0x{magic:08x} at offset 0, "
            f"expected 0x{expected_magic:08x}"
        )
    return struct.unpack(f">{n_dims}I", _read_exact(fh, 4 * n_dims, path, "dimensions"))


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into a (count, rows*cols) uint8 matrix."""
    with _open_maybe_gzip(path) as fh:
        count, rows, cols = _read_idx_header(fh, path, IDX_IMAGES_MAGIC, 3)
        raw = _read_exact(fh, count * rows * cols, path, f"{count} images")
    return np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    with _open_maybe_gzip(path) as fh:
        (count,) = _read_idx_header(fh, path, IDX_LABELS_MAGIC, 1)
        raw = _read_exact(fh, count, path, f"{count} labels")
    return np.frombuffer(raw, dtype=np.uint8).astype(np.int64)


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

    Pixels are non-negative, so normalization is fixed to the full byte
    range and every sign is +1.
    """
    features = load_idx_images(images_path).astype(np.float64)
    labels = load_idx_labels(labels_path)
    if len(features) != len(labels):
        raise DataFormatError(
            f"{images_path} holds {len(features)} images but "
            f"{labels_path} holds {len(labels)} labels"
        )
    n_features = features.shape[1]
    return Dataset(
        features=features,
        labels=labels,
        split=split,
        n_classes=10,
        norm_min=np.zeros(n_features),
        norm_max=np.full(n_features, 255.0),
    )


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
    call over the comma-normalised text.  When that fails, finds a value
    that is not finite, or returns fewer rows than the file has non-blank
    lines (a line of nothing but commas, which loadtxt would skip), the
    line scan parses the file again and names the offending line."""
    text = _read_text(features_path)
    if text.strip():
        try:
            features = np.loadtxt(io.StringIO(text.replace(",", " ")), ndmin=2,
                                  comments=None)
        except ValueError:
            features = None
        if (features is not None and np.isfinite(features).all()
                and len(features) == sum(1 for line in text.split("\n") if line.strip())):
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


def load_har(features_path, labels_path, split: str, n_classes: int = 6) -> Dataset:
    """Activity-recognition split from delimited text feature/label files.

    Features may be whitespace- or comma-separated and must be finite;
    labels are one integer per line in 1..n_classes (mapped to 0-based).
    Signs are preserved; normalization stats are fitted later on the train
    split.
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
        if not 1 <= label <= n_classes:
            raise DataFormatError(
                f"{labels_path}:{lineno}: unknown label {label}, "
                f"expected 1..{n_classes}"
            )
        labels.append(label - 1)

    if len(features) != len(labels):
        raise DataFormatError(
            f"{features_path} holds {len(features)} rows but "
            f"{labels_path} holds {len(labels)} labels"
        )
    return Dataset(
        features=features,
        labels=np.array(labels, dtype=np.int64),
        split=split,
        n_classes=n_classes,
    )


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
    return Dataset(
        features=features,
        labels=labels,
        split=split,
        n_classes=n_classes,
        norm_min=np.zeros(n_features),
        norm_max=np.ones(n_features),
    )


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
