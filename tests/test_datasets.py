import gzip
import hashlib
import re
import struct
import zlib

import numpy as np
import pytest

from spikesim import datasets
from spikesim.cli import EXIT_DATA, _load_split_pair, main
from spikesim.datasets import (
    ArtifactError,
    DataFormatError,
    Dataset,
    load_digits,
    load_model,
    make_synthetic,
    save_model,
    write_idx_images,
    write_idx_labels,
)
from spikesim.glm import ENCODE_CHUNK, GlmModel
from spikesim.quantize import QuantizedModel, quantize_model
from spikesim.training import evaluate_float


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
            assert np.array_equal(ds.magnitudes, images / 255.0)
            assert np.array_equal(ds.labels, labels)
            assert ds.n_classes == 10

    def test_writer_parses_back(self, tmp_path):
        images = np.arange(24, dtype=np.uint8).reshape(2, 12)
        labels = np.array([3, 7], dtype=np.uint8)
        write_idx_images(tmp_path / "i.idx", images, 4, 3)
        write_idx_labels(tmp_path / "l.idx", labels)
        ds = load_digits(tmp_path / "i.idx", tmp_path / "l.idx", "test")
        assert np.array_equal(ds.magnitudes * 255.0, images)
        assert ds.labels.tolist() == [3, 7]

    def test_pixel_normalization_divides_by_255(self, tmp_path):
        img, lab, images, _ = write_digit_files(tmp_path)
        ds = load_digits(img, lab, "train")
        assert np.allclose(ds.magnitudes, images / 255.0)
        assert ds.signs.dtype == np.int8
        assert np.all(ds.signs == 1)

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

    @pytest.mark.parametrize("gz", [False, True])
    @pytest.mark.parametrize("keep, what, wanted", [(2, "magic", 4), (10, "dimensions", 12)])
    def test_file_shorter_than_its_header_reports_truncation(self, tmp_path, gz, keep, what,
                                                              wanted):
        # 2 bytes of the magic, or the magic and 6 of the 12 dimension bytes
        img, lab, _, _ = write_digit_files(tmp_path)
        head = img.read_bytes()[:keep]
        img.write_bytes(gzip.compress(head) if gz else head)
        got = keep if what == "magic" else keep - 4
        with pytest.raises(DataFormatError, match=re.escape(
                f"{img}: truncated while reading {what} (wanted {wanted} bytes, got {got})")):
            load_digits(img, lab, "train")

    def test_gzip_file_of_two_members_loads(self, tmp_path):
        img, lab, images, labels = write_digit_files(tmp_path)
        for path in (img, lab):
            raw = path.read_bytes()
            path.write_bytes(gzip.compress(raw[:13]) + gzip.compress(raw[13:]))
        ds = load_digits(img, lab, "train")
        assert np.array_equal(ds.magnitudes, images / 255.0)
        assert np.array_equal(ds.labels, labels)

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
            got, got_labels = datasets._read_har_split(feat, lab)
            assert np.allclose(got, features, atol=1e-6)
            assert np.array_equal(got_labels, labels - 1)

    def test_signs_preserved_for_negative_features(self, tmp_path):
        feat, lab, features, _ = write_har_files(tmp_path)
        got, labels = datasets._read_har_split(feat, lab)
        ds = Dataset.scaled(got, labels, "train", 6, np.zeros(5), np.ones(5))
        assert np.array_equal(ds.signs == -1, got < 0)

    def test_ragged_row_reports_line_number(self, tmp_path):
        feat, lab, _, _ = write_har_files(tmp_path)
        with open(feat, "a") as fh:
            fh.write("0.1 0.2\n")
        with pytest.raises(DataFormatError, match=":11:"):
            datasets._read_har_split(feat, lab)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_value_reports_line_number(self, tmp_path, token):
        feat, lab, _, _ = write_har_files(tmp_path)
        lines = feat.read_text().splitlines(keepends=True)
        fields = lines[3].split()
        fields[2] = token
        lines[3] = " ".join(fields) + "\n"
        feat.write_text("".join(lines))
        with pytest.raises(DataFormatError, match=r":4: field 3 is (-?inf|nan),"):
            datasets._read_har_split(feat, lab)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_feature_file_without_rows_rejected(self, tmp_path, text):
        feat, lab = tmp_path / "X.txt", tmp_path / "y.txt"
        feat.write_text(text)
        lab.write_text("")
        with pytest.raises(DataFormatError, match="X.txt: no feature rows"):
            datasets._read_har_split(feat, lab)

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
        got, _ = datasets._read_har_split(feat, lab)
        assert got.dtype == np.float64
        assert got.tolist() == want

    def test_errors_name_lines_counted_with_blank_ones(self, tmp_path):
        feat, lab = tmp_path / "X.txt", tmp_path / "y.txt"
        lab.write_text("1\n1\n")
        feat.write_text("1 2\n\n\n3 x\n")
        with pytest.raises(DataFormatError,
                           match=r"X.txt:4: could not convert string to float: 'x'"):
            datasets._read_har_split(feat, lab)
        feat.write_text("1 2\n\n3 4 5\n")
        with pytest.raises(DataFormatError, match=r"X.txt:3: row has 3 fields, expected 2"):
            datasets._read_har_split(feat, lab)
        # a row of nothing but commas is a row of 0 fields, not a blank line
        feat.write_text("1,2\n,,,\n3,4\n")
        with pytest.raises(DataFormatError, match=r"X.txt:2: row has 0 fields, expected 2"):
            datasets._read_har_split(feat, lab)

    def test_blank_lines_do_not_send_the_file_to_the_line_scan(self, tmp_path, monkeypatch):
        # loadtxt skips blank lines, so they leave its row count whole
        feat, lab, _, _ = write_har_files(tmp_path)
        text = "\n" + feat.read_text().replace("\n", "\n \t\n", 3) + "\n\n"
        feat.write_text(text)
        want = datasets._scan_features(feat, text)
        monkeypatch.setattr(datasets, "_scan_features", scan_not_run)
        assert np.array_equal(datasets._read_har_split(feat, lab)[0], want)

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
        assert datasets._read_har_split(feat, lab)[0].tobytes() == want.tobytes()

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
        got = datasets._read_har_split(feat, lab)[0]
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
            datasets._read_har_split(feat, lab)


class TestNormalization:
    def test_stats_come_from_train_split_only(self, tmp_path):
        # the test split's 3.0 and -8.0 lie outside the train range
        data = tmp_path / "data"
        data.mkdir()
        for split, rows, labels in (("train", "0.5 -2.0\n1.0 4.0\n", "1\n2\n"),
                                    ("test", "3.0 -8.0\n", "1\n")):
            (data / f"X_{split}.txt").write_text(rows)
            (data / f"y_{split}.txt").write_text(labels)
        train, test = _load_split_pair("har", str(data), 0, None)
        assert train.magnitudes.tolist() == [[0.0, 0.0], [1.0, 1.0]]
        # out-of-range test magnitudes clip into [0, 1]
        assert test.magnitudes.tolist() == [[1.0, 1.0]]
        assert test.signs.tolist() == [[1, -1]]
        # --limit cuts the scaled splits: the bounds still span both train rows
        train, test = _load_split_pair("har", str(data), 0, 1)
        assert train.magnitudes.tolist() == [[0.0, 0.0]]
        assert test.magnitudes.tolist() == [[1.0, 1.0]]

    def test_degenerate_feature_maps_to_zero(self):
        # feature 0 was constant 2.0 where the bounds came from, so the 5.0
        # reads 0 as well
        features = np.array([[2.0, 1.0], [5.0, 3.0]])
        ds = Dataset.scaled(features, [0, 1], "test", 2, np.array([2.0, 1.0]),
                            np.array([2.0, 3.0]))
        assert ds.magnitudes.tolist() == [[0.0, 0.0], [0.0, 1.0]]

    def test_synthetic_is_deterministic(self):
        a = make_synthetic(20, seed=5)
        b = make_synthetic(20, seed=5)
        assert np.array_equal(a.magnitudes, b.magnitudes)
        assert np.array_equal(a.labels, b.labels)
        assert 0.0 <= a.magnitudes.min() and a.magnitudes.max() <= 1.0
        assert np.all(a.signs == 1)

    def test_synthetic_splits_with_one_seed_share_the_task(self):
        train = make_synthetic(400, seed=5, noise=0.01)
        test = make_synthetic(400, seed=5, noise=0.01, sample_seed=6, split="test")
        assert not np.array_equal(train.labels, test.labels)
        for c in range(train.n_classes):
            centre = train.magnitudes[train.labels == c].mean(axis=0)
            other = test.magnitudes[test.labels == c].mean(axis=0)
            assert np.abs(centre - other).max() < 0.01
        # without sample_seed the samples follow the prototypes' generator
        again = make_synthetic(400, seed=5, noise=0.01)
        assert np.array_equal(again.magnitudes, train.magnitudes)


class TestDatasetChecks:
    """Dataset's construction is the one check of a split, on the values
    as given, before they are cast."""

    def test_magnitudes_and_signs_of_different_shapes_rejected(self):
        with pytest.raises(DataFormatError, match=r"magnitudes of shape \(2, 3\) but signs "
                                                  r"of shape \(2, 2\)"):
            Dataset(np.zeros((2, 3)), np.ones((2, 2)), [0, 1], "train", 2)

    @pytest.mark.parametrize("n_samples, signs_shape", [(1, (5,)), (10, (9, 5))],
                             ids=["one_dim_signs", "signs_for_9_of_10"])
    def test_signs_of_another_shape_rejected(self, n_samples, signs_shape):
        with pytest.raises(DataFormatError, match=re.escape(
                f"magnitudes of shape ({n_samples}, 5) but signs of shape {signs_shape}")):
            Dataset(np.zeros((n_samples, 5)), np.ones(signs_shape), np.zeros(n_samples),
                    "test", 1)

    def test_need_one_label_per_sample(self):
        with pytest.raises(DataFormatError, match=r"10 samples but labels of shape \(20,\); "
                                                  "need one label per sample"):
            Dataset(np.zeros((10, 5)), np.ones((10, 5)), np.zeros(20), "test", 1)

    def test_magnitudes_need_a_sample_axis_and_a_feature_axis(self):
        with pytest.raises(DataFormatError, match=r"magnitudes of shape \(5,\) but signs of "
                                                  r"shape \(5,\); need both \(n_samples, "
                                                  r"n_features\)"):
            Dataset(np.zeros(5), np.ones(5), np.zeros(5), "test", 1)

    @pytest.mark.parametrize("value, message", [
        (np.nan, "magnitudes contain non-finite values"),
        (np.inf, "magnitudes contain non-finite values"),
        (1.5, "channel 2 has magnitude 1.5 > 1; normalize first"),
        (-1.5, "channel 2 has magnitude -1.5 < 0; normalize first"),
    ])
    def test_rejects_magnitudes_out_of_range_and_non_finite(self, value, message):
        mags = np.full((3, 4), 0.5)
        mags[1, 2] = value
        with pytest.raises(DataFormatError, match=re.escape(message)):
            Dataset(mags, np.ones((3, 4)), np.zeros(3), "test", 1)

    @pytest.mark.parametrize("signs", [
        [1, -1, 1], [1.0, -1.0], np.array([[1, -1], [-1, -1]], dtype=np.int8), [True],
        [1, 0, -1], [2], [-2.0], [0.5], [1.0000001], [np.nan], [np.inf],
        np.array([-128], dtype=np.int8),
    ])
    def test_signs_are_accepted_exactly_when_all_are_plus_or_minus_one(self, signs):
        signs = np.atleast_2d(signs)
        mags, labels = np.zeros(signs.shape), np.zeros(len(signs))
        if np.isin(signs, (-1, 1)).all():
            ds = Dataset(mags, signs, labels, "test", 1)
            assert ds.signs.dtype == np.int8 and np.array_equal(ds.signs, signs)
        else:
            with pytest.raises(DataFormatError, match="sign entries must be"):
                Dataset(mags, signs, labels, "test", 1)

    @pytest.mark.parametrize("signs", [np.array([255, 1, 1], dtype=np.uint8), [1.5, 1, 1]])
    def test_signs_that_a_cast_would_make_plus_or_minus_one_rejected(self, signs):
        # an int8 cast made 255 -1 and truncated 1.5 to 1
        with pytest.raises(DataFormatError, match="sign entries must be"):
            Dataset(np.zeros((1, 3)), np.atleast_2d(signs), [0], "test", 2)

    @pytest.mark.parametrize("labels", [[0, 1.7], [0, np.nan], [0, 2], [-1, 0]])
    def test_labels_must_be_whole_class_indices(self, labels):
        # an int64 cast made 1.7 the class 1
        with pytest.raises(DataFormatError, match=r"labels must be whole class indices in 0\.\.1"):
            Dataset(np.zeros((2, 3)), np.ones((2, 3)), labels, "test", 2)

    def test_whole_float_labels_are_class_indices(self):
        ds = Dataset(np.zeros((2, 3)), np.ones((2, 3)), [1.0, 0.0], "test", 2)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]

    @pytest.mark.parametrize("bad_value", [1.5, np.nan])
    def test_whole_split_is_validated_before_any_draw(self, bad_value):
        # a bad value in the last encoding block stops scoring before the
        # first block is drawn
        model = GlmModel.zeros(2, 2, 4, 2)
        mags = np.full((ENCODE_CHUNK + 2, 2), 0.5)
        mags[-1, 1] = bad_value
        rng = np.random.default_rng(41)
        state = rng.bit_generator.state
        with pytest.raises(DataFormatError):
            evaluate_float(model, mags, np.ones(mags.shape), np.zeros(len(mags)), rng)
        assert rng.bit_generator.state == state


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
