"""Dataset ingestion, normalization and model-artifact persistence.

Loaders parse the big-endian IDX image/label container and the
whitespace/comma text format used by the activity-recognition corpus.
Normalization is per-feature min-max scaling of magnitudes, fitted on
the training split only; signs are preserved separately so negative
features can flip weight signs during accumulation.
"""

from __future__ import annotations

import gzip
import json
import struct
import zlib
from dataclasses import dataclass

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


def _open_maybe_gzip(path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exact(fh, n, path, what):
    data = fh.read(n)
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
    dims = struct.unpack(
        f">{n_dims}I", _read_exact(fh, 4 * n_dims, path, "dimensions")
    )
    return dims


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


def load_har(features_path, labels_path, split: str, n_classes: int = 6) -> Dataset:
    """Activity-recognition split from delimited text feature/label files.

    Features may be whitespace- or comma-separated and must be finite;
    labels are one integer per line in 1..n_classes (mapped to 0-based).
    Signs are preserved; normalization stats are fitted later on the train
    split.
    """
    rows, linenos = [], []
    width = None
    with open(features_path) as fh:
        for lineno, line in enumerate(fh, start=1):
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
    features = np.array(rows, dtype=np.float64).reshape(len(rows), width or 0)
    if not np.isfinite(features).all():
        row, col = np.argwhere(~np.isfinite(features))[0]
        raise DataFormatError(
            f"{features_path}:{linenos[row]}: field {col + 1} is "
            f"{features[row, col]:g}, not a finite number"
        )

    labels = []
    with open(labels_path) as fh:
        for lineno, line in enumerate(fh, start=1):
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

    if len(rows) != len(labels):
        raise DataFormatError(
            f"{features_path} holds {len(rows)} rows but "
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


def _artifact_fields(model):
    if isinstance(model, GlmModel):
        ints = {
            "n_inputs": model.n_inputs,
            "n_outputs": model.n_outputs,
            "presentation_time": model.presentation_time,
            "window": model.window,
        }
        arrays = {
            "weights": np.ascontiguousarray(model.weights, dtype="<f8"),
            "biases": np.ascontiguousarray(model.biases, dtype="<f8"),
            "basis": np.ascontiguousarray(model.basis, dtype="u1"),
        }
        return "glm", ints, arrays
    if isinstance(model, QuantizedModel):
        ints = {
            "bits": model.bits,
            "presentation_time": model.presentation_time,
            "window": model.window,
        }
        arrays = {
            "w_codes": np.ascontiguousarray(model.w_codes, dtype="<i2"),
            "gamma_codes": np.ascontiguousarray(model.gamma_codes, dtype="<i2"),
            "scales": np.array(
                [model.w_min, model.w_max, model.gamma_min, model.gamma_max],
                dtype="<f8",
            ),
        }
        return "quantized", ints, arrays
    raise ArtifactError(f"cannot serialize {type(model).__name__}")


def save_model(path, model, provenance: dict | None = None):
    """Write a model artifact: header, little-endian payload, checksum."""
    kind, ints, arrays = _artifact_fields(model)
    manifest = {}
    payload = bytearray()
    for name, arr in arrays.items():
        data = arr.tobytes()
        manifest[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": len(payload),
            "nbytes": len(data),
        }
        payload.extend(data)
    header = json.dumps(
        {"kind": kind, "ints": ints, "fields": manifest,
         "provenance": provenance or {}},
        sort_keys=True,
    ).encode()
    blob = (
        _ARTIFACT_MAGIC
        + struct.pack("<II", _ARTIFACT_VERSION, len(header))
        + header
        + bytes(payload)
    )
    with open(path, "wb") as fh:
        fh.write(blob)
        fh.write(struct.pack("<I", zlib.crc32(blob)))


def load_model(path) -> ModelArtifact:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != _ARTIFACT_MAGIC:
        raise ArtifactError(f"{path}: not a model artifact")
    body, crc_bytes = blob[:-4], blob[-4:]
    if zlib.crc32(body) != struct.unpack("<I", crc_bytes)[0]:
        raise ArtifactError(f"{path}: checksum mismatch, file is corrupted")
    version, header_len = struct.unpack("<II", body[4:12])
    if version != _ARTIFACT_VERSION:
        raise ArtifactError(f"{path}: unsupported artifact version {version}")
    header = json.loads(body[12 : 12 + header_len].decode())
    payload = body[12 + header_len :]

    arrays = {}
    for name, field in header["fields"].items():
        start, nbytes = field["offset"], field["nbytes"]
        arrays[name] = np.frombuffer(payload[start : start + nbytes],
                                     dtype=field["dtype"]).reshape(field["shape"])

    ints = header["ints"]
    if header["kind"] == "glm":
        model = GlmModel(
            n_inputs=ints["n_inputs"],
            n_outputs=ints["n_outputs"],
            presentation_time=ints["presentation_time"],
            window=ints["window"],
            weights=arrays["weights"].astype(np.float64),
            biases=arrays["biases"].astype(np.float64),
            basis=arrays["basis"].astype(np.uint8),
        )
    elif header["kind"] == "quantized":
        scales = arrays["scales"].astype(np.float64)
        model = QuantizedModel(
            bits=ints["bits"],
            w_codes=arrays["w_codes"].astype(np.int16),
            gamma_codes=arrays["gamma_codes"].astype(np.int16),
            w_min=float(scales[0]), w_max=float(scales[1]),
            gamma_min=float(scales[2]), gamma_max=float(scales[3]),
            presentation_time=ints["presentation_time"],
            window=ints["window"],
        )
    else:
        raise ArtifactError(f"{path}: unknown artifact kind {header['kind']!r}")
    return ModelArtifact(kind=header["kind"], model=model,
                         provenance=header["provenance"])
