import gzip
import hashlib
import re
import struct
import zlib

import numpy as np
import pytest

from spikesim import datasets
from spikesim.cli import EXIT_DATA, main
from spikesim.datasets import (
    ArtifactError,
    DataFormatError,
    Dataset,
    fit_normalization,
    load_digits,
    load_har,
    load_model,
    make_synthetic,
    normalize_splits,
    save_model,
    write_idx_images,
    write_idx_labels,
)
from spikesim.glm import GlmModel
from spikesim.quantize import QuantizedModel, quantize_model


def write_digit_files(tmp_path, n=12, rows=4, cols=3, gz=False):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(n, rows * cols)).astype(np.uint8)
    labels = rng.integers(0, 10, size=n).astype(np.uint8)
    img_path = tmp_path / ("img.idx" + (".gz" if gz else ""))
    lab_path = tmp_path / ("lab.idx" + (".gz" if gz else ""))
    img_bytes = struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes()
    lab_bytes = struct.pack(">II", 0x801, n) + labels.tobytes()
    if gz:
        img_path.write_bytes(gzip.compress(img_bytes))
        lab_path.write_bytes(gzip.compress(lab_bytes))
    else:
        img_path.write_bytes(img_bytes)
        lab_path.write_bytes(lab_bytes)
    return img_path, lab_path, images, labels


class TestIdxLoading:
    def test_plain_and_gzip_roundtrip(self, tmp_path):
        for gz in (False, True):
            img, lab, images, labels = write_digit_files(tmp_path, gz=gz)
            ds = load_digits(img, lab, "train")
            assert ds.n_samples == 12
            assert ds.n_features == 12
            assert np.array_equal(ds.features, images.astype(np.float64))
            assert np.array_equal(ds.labels, labels)
            assert ds.n_classes == 10

    def test_writer_parses_back(self, tmp_path):
        images = np.arange(24, dtype=np.uint8).reshape(2, 12)
        labels = np.array([3, 7], dtype=np.uint8)
        write_idx_images(tmp_path / "i.idx", images, 4, 3)
        write_idx_labels(tmp_path / "l.idx", labels)
        ds = load_digits(tmp_path / "i.idx", tmp_path / "l.idx", "test")
        assert np.array_equal(ds.features, images)
        assert ds.labels.tolist() == [3, 7]

    def test_pixel_normalization_divides_by_255(self, tmp_path):
        img, lab, images, _ = write_digit_files(tmp_path)
        ds = load_digits(img, lab, "train")
        assert np.allclose(ds.magnitudes(), images / 255.0)
        assert np.all(ds.signs() == 1)

    def test_bad_magic_reports_offset(self, tmp_path):
        img, lab, _, _ = write_digit_files(tmp_path)
        corrupt = bytearray(img.read_bytes())
        corrupt[3] = 0x99
        img.write_bytes(bytes(corrupt))
        with pytest.raises(DataFormatError, match="offset 0"):
            load_digits(img, lab, "train")

    def test_truncated_payload_rejected(self, tmp_path):
        img, lab, _, _ = write_digit_files(tmp_path)
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(DataFormatError, match="truncated"):
            load_digits(img, lab, "train")

    def test_count_mismatch_rejected(self, tmp_path):
        img, _, _, _ = write_digit_files(tmp_path)
        write_idx_labels(tmp_path / "short.idx", np.zeros(5, dtype=np.uint8))
        with pytest.raises(DataFormatError, match="labels"):
            load_digits(img, tmp_path / "short.idx", "train")


def write_har_files(tmp_path, n=10, width=5, delim=" "):
    rng = np.random.default_rng(1)
    features = rng.normal(size=(n, width))
    labels = rng.integers(1, 7, size=n)
    feat_path = tmp_path / "X.txt"
    lab_path = tmp_path / "y.txt"
    with open(feat_path, "w") as fh:
        for row in features:
            fh.write(delim.join(f"{v: .6f}" for v in row) + "\n")
    with open(lab_path, "w") as fh:
        for label in labels:
            fh.write(f"{label}\n")
    return feat_path, lab_path, features, labels


def uci_field(v):
    """v as the UCI HAR files write it: %.7e with a three-digit exponent,
    right-aligned in 16 columns."""
    mantissa, exponent = f"{v:.7e}".split("e")
    return f"{mantissa}e{int(exponent):+04d}".rjust(16)


def scan_not_run(*args):
    raise AssertionError("the line scan ran")


class TestHarLoading:
    def test_whitespace_and_comma_delimiters(self, tmp_path):
        for delim in (" ", ","):
            feat, lab, features, labels = write_har_files(tmp_path, delim=delim)
            ds = load_har(feat, lab, "train")
            assert np.allclose(ds.features, features, atol=1e-6)
            assert np.array_equal(ds.labels, labels - 1)
            assert ds.n_classes == 6

    def test_signs_preserved_for_negative_features(self, tmp_path):
        feat, lab, features, _ = write_har_files(tmp_path)
        ds = load_har(feat, lab, "train")
        assert np.array_equal(ds.signs() == -1, ds.features < 0)

    def test_ragged_row_reports_line_number(self, tmp_path):
        feat, lab, _, _ = write_har_files(tmp_path)
        with open(feat, "a") as fh:
            fh.write("0.1 0.2\n")
        with pytest.raises(DataFormatError, match=":11:"):
            load_har(feat, lab, "train")

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_value_reports_line_number(self, tmp_path, token):
        feat, lab, _, _ = write_har_files(tmp_path)
        lines = feat.read_text().splitlines(keepends=True)
        fields = lines[3].split()
        fields[2] = token
        lines[3] = " ".join(fields) + "\n"
        feat.write_text("".join(lines))
        with pytest.raises(DataFormatError, match=r":4: field 3 is (-?inf|nan),"):
            load_har(feat, lab, "train")

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_feature_file_without_rows_rejected(self, tmp_path, text):
        feat, lab = tmp_path / "X.txt", tmp_path / "y.txt"
        feat.write_text(text)
        lab.write_text("")
        with pytest.raises(DataFormatError, match="X.txt: no feature rows"):
            load_har(feat, lab, "train")

    @pytest.mark.parametrize("last_row", ["-1E+2 3 .5", "-1E+2 3 1_0"])
    def test_mixed_text_parses_as_python_floats(self, tmp_path, last_row):
        # blank lines, mixed delimiters, exponents and signs; digit
        # underscores are read by Python's float alone, so the line scan
        # parses that file
        text = "\n".join(["1e-3, +2.5  -0.0", "", "  \t", "7,8.125e2 , 9", last_row])
        feat, lab = tmp_path / "X.txt", tmp_path / "y.txt"
        feat.write_text(text)
        lab.write_text("1\n2\n3\n")
        want = [[float(t) for t in row.replace(",", " ").split()]
                for row in text.split("\n") if row.strip()]
        ds = load_har(feat, lab, "train")
        assert ds.features.dtype == np.float64
        assert ds.features.tolist() == want

    def test_errors_name_lines_counted_with_blank_ones(self, tmp_path):
        feat, lab = tmp_path / "X.txt", tmp_path / "y.txt"
        lab.write_text("1\n1\n")
        feat.write_text("1 2\n\n\n3 x\n")
        with pytest.raises(DataFormatError,
                           match=r"X.txt:4: could not convert string to float: 'x'"):
            load_har(feat, lab, "train")
        feat.write_text("1 2\n\n3 4 5\n")
        with pytest.raises(DataFormatError, match=r"X.txt:3: row has 3 fields, expected 2"):
            load_har(feat, lab, "train")
        # a row of nothing but commas is a row of 0 fields, not a blank line
        feat.write_text("1,2\n,,,\n3,4\n")
        with pytest.raises(DataFormatError, match=r"X.txt:2: row has 0 fields, expected 2"):
            load_har(feat, lab, "train")

    def test_blank_lines_do_not_send_the_file_to_the_line_scan(self, tmp_path, monkeypatch):
        # loadtxt skips blank lines, so they leave its row count whole
        feat, lab, _, _ = write_har_files(tmp_path)
        text = "\n" + feat.read_text().replace("\n", "\n \t\n", 3) + "\n\n"
        feat.write_text(text)
        want = datasets._scan_features(feat, text)
        monkeypatch.setattr(datasets, "_scan_features", scan_not_run)
        assert np.array_equal(load_har(feat, lab, "train").features, want)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_comma_free_blank_lines_do_not_send_the_file_to_the_line_scan(
            self, tmp_path, monkeypatch, newline):
        # loadtxt's blank lines are Python's: every whitespace character but
        # the line ends, which the text-mode read makes "\n"
        feat, lab, _, _ = write_har_files(tmp_path)
        blank = "".join(c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\r\n")
        lines = feat.read_text().split("\n")
        feat.write_bytes(newline.join(["", *lines[:4], blank, "", *lines[4:], "\t"]).encode())
        assert "," not in feat.read_text()
        want = datasets._scan_features(feat, feat.read_text())
        monkeypatch.setattr(datasets, "_scan_features", scan_not_run)
        assert load_har(feat, lab, "train").features.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", ["uci", "crlf", "cr", "no_final_newline", "commas",
                                        "wide"])
    def test_features_equal_the_line_scan_bit_for_bit(self, tmp_path, monkeypatch, layout):
        # loadtxt and Python's float both round every decimal correctly
        rng = np.random.default_rng(3)
        shape = (6, 561) if layout == "wide" else (12, 7)
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-9, 9, size=shape)
        values[0, :4] = [-0.0, 5e-324, 1.7976931348623157e308, 2.8858451e-1]
        values[1, :3] = [1.234e-100, -9.87e150, -2.2e-310]
        sep, end = {"uci": ("", "\n"), "crlf": ("", "\r\n"), "cr": ("", "\r"),
                    "no_final_newline": ("", ""), "commas": (",", "\n"),
                    "wide": (" ", "\n")}[layout]
        field = uci_field if sep == "" else "{:.7e}".format
        rows = [sep.join(map(field, row)) for row in values]
        feat, lab = tmp_path / "X.txt", tmp_path / "y.txt"
        feat.write_bytes(((end or "\n").join(rows) + end).encode())
        lab.write_text("1\n" * len(values))
        want = datasets._scan_features(feat, feat.read_text())
        monkeypatch.setattr(datasets, "_scan_features", scan_not_run)
        got = load_har(feat, lab, "train").features
        assert got.shape == want.shape == shape
        assert got.tobytes() == want.tobytes()

    def test_unknown_label_rejected(self, tmp_path):
        feat, lab, _, _ = write_har_files(tmp_path)
        with open(lab) as fh:
            lines = fh.readlines()
        lines[2] = "9\n"
        with open(lab, "w") as fh:
            fh.writelines(lines)
        with pytest.raises(DataFormatError, match="unknown label 9"):
            load_har(feat, lab, "train")


class TestNormalization:
    def test_stats_come_from_train_split_only(self, tmp_path):
        train = Dataset(
            features=np.array([[0.5, -2.0], [1.0, 4.0]]),
            labels=np.array([0, 1]),
            split="train", n_classes=2,
        )
        test = Dataset(
            features=np.array([[3.0, -8.0]]),  # outside the train range
            labels=np.array([0]),
            split="test", n_classes=2,
        )
        normalize_splits(train, test)
        assert np.array_equal(train.norm_max, [1.0, 4.0])
        assert np.array_equal(test.norm_max, [1.0, 4.0])
        # out-of-range test magnitudes clip into [0, 1]
        assert test.magnitudes().max() == 1.0
        assert np.all(train.magnitudes() <= 1.0)
        assert np.all(train.magnitudes() >= 0.0)

    def test_fit_refuses_non_train_split(self):
        ds = make_synthetic(4, split="test")
        with pytest.raises(ValueError):
            fit_normalization(ds)

    def test_degenerate_feature_maps_to_zero(self):
        train = Dataset(
            features=np.array([[2.0, 1.0], [2.0, 3.0]]),
            labels=np.array([0, 1]),
            split="train", n_classes=2,
        )
        train.norm_min, train.norm_max = fit_normalization(train)
        assert np.all(train.magnitudes()[:, 0] == 0.0)

    def test_synthetic_is_deterministic(self):
        a = make_synthetic(20, seed=5)
        b = make_synthetic(20, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert a.magnitudes().max() <= 1.0

    def test_synthetic_splits_with_one_seed_share_the_task(self):
        train = make_synthetic(400, seed=5, noise=0.01)
        test = make_synthetic(400, seed=5, noise=0.01, sample_seed=6, split="test")
        assert not np.array_equal(train.labels, test.labels)
        for c in range(train.n_classes):
            centre = train.features[train.labels == c].mean(axis=0)
            other = test.features[test.labels == c].mean(axis=0)
            assert np.abs(centre - other).max() < 0.01
        # without sample_seed the samples follow the prototypes' generator
        again = make_synthetic(400, seed=5, noise=0.01)
        assert np.array_equal(again.features, train.features)


def build_models(rng):
    model = GlmModel(
        n_inputs=3, n_outputs=4, presentation_time=6, window=2,
        weights=rng.normal(size=(3, 4, 2)),
        biases=rng.normal(size=4),
    )
    return model, quantize_model(model, 5)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestArtifacts:
    def test_float_model_roundtrip(self, tmp_path):
        # the bytes hold the window's identity basis after the biases
        model, _ = build_models(np.random.default_rng(2))
        path = tmp_path / "model.bin"
        save_model(path, model, {"seed": 42, "epochs": 10})
        assert sha256_of(path) == (
            "ae6b8ae6673f9c361c9050028093d5a93bb0ed652d5f1e87bcf4e030ce638310")
        assert path.read_bytes()[-8:-4] == bytes([1, 0, 0, 1])
        artifact = load_model(path)
        assert artifact.kind == "glm"
        assert artifact.provenance == {"seed": 42, "epochs": 10}
        assert np.array_equal(artifact.model.weights, model.weights)
        assert np.array_equal(artifact.model.biases, model.biases)
        assert artifact.model.window == model.window
        assert artifact.model.presentation_time == 6

    def test_basis_other_than_the_identity_is_rejected(self, tmp_path, capsys):
        # a float model's weights are its kernels: a binary basis [[1, 1],
        # [0, 1]] in place of the 2-tap identity, under a valid CRC32
        model, _ = build_models(np.random.default_rng(2))
        path = tmp_path / "model.bin"
        save_model(path, model)
        body = path.read_bytes()[:-8] + bytes([1, 1, 0, 1])
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        message = (f"{path}: basis is not the identity of the 2-step window; "
                   "only expanded kernels are supported")
        with pytest.raises(ArtifactError, match=re.escape(message)):
            load_model(path)
        out = tmp_path / "q"
        assert main(["quantize", "--dataset", "synthetic", "--out", str(out),
                     "--model", str(path)]) == EXIT_DATA
        assert capsys.readouterr().err == f"spikesim: data error: {message}\n"
        assert not out.exists()

    def test_quantized_model_roundtrip_preserves_every_code(self, tmp_path):
        rng = np.random.default_rng(3)
        _, qm = build_models(rng)
        path = tmp_path / "model_q.bin"
        save_model(path, qm, {"bits": 5})
        assert sha256_of(path) == (
            "595b56593ef3f1fecbf7777fcdefbaa71629c5759c9d43aaaa4e565bec60c82e")
        loaded = load_model(path).model
        assert isinstance(loaded, QuantizedModel)
        assert np.array_equal(loaded.w_codes, qm.w_codes)
        assert np.array_equal(loaded.gamma_codes, qm.gamma_codes)
        assert loaded.w_min == qm.w_min
        assert loaded.w_max == qm.w_max
        assert loaded.gamma_min == qm.gamma_min
        assert loaded.gamma_max == qm.gamma_max
        assert loaded.bits == 5

    def test_tampered_byte_fails_checksum(self, tmp_path):
        rng = np.random.default_rng(4)
        model, _ = build_models(rng)
        path = tmp_path / "model.bin"
        save_model(path, model)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            load_model(path)

    def test_wrong_magic_and_version_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(ArtifactError, match="not a model artifact"):
            load_model(path)

        rng = np.random.default_rng(5)
        model, _ = build_models(rng)
        good = tmp_path / "model.bin"
        save_model(good, model)
        blob = bytearray(good.read_bytes())
        blob[4] = 99  # version field
        import struct as _struct
        import zlib as _zlib

        body = bytes(blob[:-4])
        good.write_bytes(body + _struct.pack("<I", _zlib.crc32(body)))
        with pytest.raises(ArtifactError, match="version"):
            load_model(good)
