import csv
import gzip
import hashlib
import json
import os
import struct
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spikesim.cli
from spikesim.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _load_split_pair, main
from spikesim.core import map_model_to_memory, unpack_model
from spikesim.datasets import load_model, save_model, write_idx_images
from spikesim.glm import (
    GlmModel,
    draw_rasters,
    first_spike,
    kernel_matrix,
    sigmoid,
)
from spikesim.perf import default_config
from spikesim.quantize import QuantizedModel, derive_lfsr_seed

from corpora import write_digit_corpus, write_har_corpus
from oracles import first_to_spike_quantized, simulate_rows_loop, windowed_potentials


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_run")
    code = main([
        "train", "--dataset", "synthetic", "--out", str(out), "--seed", "11",
        "--epochs", "3", "--T", "4", "--tau", "4", "--batch-size", "16",
    ])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def multi_block_run(tmp_path_factory):
    """A 150-sample IDX test split, three encoding blocks, a hand-built float
    model of its 25 inputs and that model's 5..8-bit sweep at seed 6:
    (data dir, float artifact, quantize dir)."""
    root = tmp_path_factory.mktemp("multi_block_run")
    data = write_digit_corpus(root / "data", n_train=10, n_test=150)
    rng = np.random.default_rng(66)
    model = GlmModel(n_inputs=25, n_outputs=10, presentation_time=6, window=4,
                     weights=rng.normal(0.0, 1.0, size=(25, 10, 4)),
                     biases=rng.normal(-4.0, 0.5, size=10))
    save_model(root / "model_float.bin", model, {"seed": 66})
    assert main(["quantize", "--dataset", "digits", "--data-dir", str(data),
                 "--seed", "6", "--out", str(root / "q"), "--bits", "5,6,7,8",
                 "--model", str(root / "model_float.bin")]) == EXIT_OK
    return data, root / "model_float.bin", root / "q"


class TestTrainCommand:
    def test_writes_artifact_metrics_and_config(self, trained_run):
        assert (trained_run / "model_float.bin").exists()
        metrics = (trained_run / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "epoch,train_acc,test_acc,mean_loss"
        assert len(metrics) == 4  # header + 3 epochs
        config = json.loads((trained_run / "run_config.json").read_text())
        assert config["command"] == "train"
        assert config["seed"] == 11
        artifact = load_model(trained_run / "model_float.bin")
        assert artifact.kind == "glm"
        assert artifact.provenance["epochs"] == 3

    def test_zero_epochs_is_usage_error(self, tmp_path):
        code = main([
            "train", "--dataset", "synthetic", "--out", str(tmp_path / "x"),
            "--epochs", "0", "--T", "4", "--tau", "4",
        ])
        assert code == EXIT_USAGE

    def test_digits_without_data_dir_is_usage_error(self, tmp_path):
        code = main([
            "train", "--dataset", "digits", "--out", str(tmp_path / "x"),
            "--epochs", "1", "--T", "4", "--tau", "4",
        ])
        assert code == EXIT_USAGE

    def test_quick_start_generalises_to_the_test_split(self, tmp_path):
        # the README quick start: test accuracy well above chance (0.25),
        # because both synthetic splits come from one set of prototypes
        out = tmp_path / "quick"
        assert main([
            "train", "--dataset", "synthetic", "--out", str(out), "--epochs", "30",
            "--lr", "0.2", "--T", "8", "--tau", "8", "--seed", "1",
        ]) == EXIT_OK
        final = (out / "metrics.csv").read_text().splitlines()[-1].split(",")
        assert float(final[2]) >= 0.5

    def test_non_finite_har_feature_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "har"
        data.mkdir()
        for split in ("train", "test"):
            rows = [" ".join(["0.5"] * 4)] * 6
            if split == "train":
                rows[4] = "0.5 nan 0.5 0.5"
            (data / f"X_{split}.txt").write_text("\n".join(rows) + "\n")
            (data / f"y_{split}.txt").write_text("1\n2\n3\n4\n5\n6\n")
        code = main([
            "train", "--dataset", "har", "--data-dir", str(data),
            "--out", str(tmp_path / "x"), "--epochs", "1", "--T", "4", "--tau", "4",
        ])
        assert code == EXIT_DATA
        assert "X_train.txt:5:" in capsys.readouterr().err

    def test_empty_har_feature_file_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "har"
        data.mkdir()
        (data / "X_train.txt").write_text("0.5 0.25 -0.5 1.0\n" * 6)
        (data / "y_train.txt").write_text("1\n2\n3\n4\n5\n6\n")
        (data / "X_test.txt").write_text("")
        (data / "y_test.txt").write_text("")
        code = main([
            "train", "--dataset", "har", "--data-dir", str(data),
            "--out", str(tmp_path / "x"), "--epochs", "1", "--T", "4", "--tau", "4",
        ])
        assert code == EXIT_DATA
        assert "X_test.txt: no feature rows" in capsys.readouterr().err

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(self, tmp_path, capsys, lr):
        out = tmp_path / "x"
        code = main([
            "train", "--dataset", "synthetic", "--out", str(out),
            "--epochs", "1", "--T", "4", "--tau", "4", "--lr", lr,
        ])
        assert code == EXIT_USAGE
        assert "learning_rate must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_flag_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--no-such-flag"])
        assert code == EXIT_USAGE


class TestQuantizeCommand:
    def test_sweep_writes_artifacts_and_csv(self, trained_run, tmp_path):
        out = tmp_path / "quant"
        code = main([
            "quantize", "--dataset", "synthetic", "--out", str(out),
            "--model", str(trained_run / "model_float.bin"),
            "--bits", "5,8", "--seed", "11",
        ])
        assert code == EXIT_OK
        assert (out / "model_q5.bin").exists()
        assert (out / "model_q8.bin").exists()
        rows = (out / "accuracy_vs_bits.csv").read_text().splitlines()
        assert rows[0] == "bits,test_acc,float_baseline"
        assert len(rows) == 3
        q5 = load_model(out / "model_q5.bin")
        assert q5.kind == "quantized"
        assert q5.model.bits == 5

    def test_bits_outside_the_datapath_are_usage_errors(self, trained_run, tmp_path):
        # the b-bit datapath is defined for b in 2..8 only
        for bits in ("8,9", "1,2", "16", "5,5", "8,5,8"):
            out = tmp_path / f"quant_{bits.replace(',', '_')}"
            code = main([
                "quantize", "--dataset", "synthetic", "--out", str(out),
                "--model", str(trained_run / "model_float.bin"), "--bits", bits,
            ])
            assert code == EXIT_USAGE
            assert not list(out.glob("model_q*.bin"))

    def test_out_with_other_widths_is_usage_error_before_writing(self, trained_run, tmp_path,
                                                                 capsys):
        out = tmp_path / "quant"
        argv = ["quantize", "--dataset", "synthetic", "--out", str(out),
                "--model", str(trained_run / "model_float.bin"), "--seed", "11"]
        assert main([*argv, "--bits", "7,8"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main([*argv, "--bits", "5"]) == EXIT_USAGE
        assert ("--out " + str(out) + " holds model_q7.bin, model_q8.bin, widths not in "
                "--bits") in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # the same widths in any order, or more widths, may reuse the directory
        assert main([*argv, "--bits", "8,7"]) == EXIT_OK
        assert main([*argv, "--bits", "8"]) == EXIT_USAGE
        assert main([*argv, "--bits", "5,7,8"]) == EXIT_OK

    def test_sweep_accuracy_does_not_degrade_with_more_bits(self, tmp_path):
        # well-trained models: 8-bit accuracy should match or beat 5-bit
        # within sampling noise.  Seeds 3 and 7 caught a b-bit neuron that
        # scored b=5 above both float and b=8.
        for seed in ("2", "3", "7"):
            out_t, out_q = tmp_path / f"train{seed}", tmp_path / f"quant{seed}"
            assert main([
                "train", "--dataset", "synthetic", "--out", str(out_t), "--seed", seed,
                "--epochs", "100", "--lr", "0.2", "--T", "6", "--tau", "6",
            ]) == EXIT_OK
            assert main([
                "quantize", "--dataset", "synthetic", "--out", str(out_q),
                "--model", str(out_t / "model_float.bin"), "--bits", "5,8",
                "--seed", seed,
            ]) == EXIT_OK
            rows = (out_q / "accuracy_vs_bits.csv").read_text().splitlines()[1:]
            acc = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
            float_acc = float(rows[0].split(",")[2])
            assert float_acc >= 0.8, seed  # the premise: the model did learn the task
            assert acc[8] >= acc[5] - 0.05, (seed, acc)

    def test_float_baseline_and_sweep_decide_the_same_rasters(self, multi_block_run):
        # per block: its rasters, then the float model's spike uniforms, and
        # every width decides those rasters with the LFSR seeds of seed 6
        data, float_path, quant = multi_block_run
        _, test_ds = _load_split_pair("digits", str(data), 6, None)
        mags, signs, labels = test_ds.magnitudes, test_ds.signs, test_ds.labels
        model = load_model(float_path).model
        qms = [load_model(quant / f"model_q{bits}.bin").model for bits in (5, 6, 7, 8)]
        rng = np.random.default_rng(6)
        correct = np.zeros(5, dtype=np.int64)
        for start in range(0, 150, 64):
            stop = min(start + 64, 150)
            rasters = draw_rasters(mags[start:stop], 6, rng)
            u = windowed_potentials(rasters, signs[start:stop],
                                    kernel_matrix(model.weights), 4) + model.biases
            uniforms = rng.random((stop - start, 6, 10))
            decided = [first_spike(uniforms < sigmoid(u), u[:, -1])[0]]
            seeds = [derive_lfsr_seed(6, k) for k in range(start, stop)]
            decided += [first_to_spike_quantized(qm, rasters, signs[start:stop], seeds)[0]
                        for qm in qms]
            correct += [np.count_nonzero(d == labels[start:stop]) for d in decided]
        float_acc, *accs = correct / 150
        rows = (quant / "accuracy_vs_bits.csv").read_text().splitlines()
        assert rows[1:] == [f"{bits},{acc:.6f},{float_acc:.6f}"
                            for bits, acc in zip((5, 6, 7, 8), accs)]

    def test_missing_model_is_data_error(self, tmp_path):
        code = main([
            "quantize", "--dataset", "synthetic", "--out", str(tmp_path / "q"),
            "--model", str(tmp_path / "missing.bin"),
        ])
        assert code == EXIT_DATA

    def test_quantized_artifact_rejected_as_input(self, trained_run, tmp_path):
        out = tmp_path / "quant3"
        main([
            "quantize", "--dataset", "synthetic", "--out", str(out),
            "--model", str(trained_run / "model_float.bin"), "--bits", "5",
        ])
        code = main([
            "quantize", "--dataset", "synthetic", "--out", str(tmp_path / "q4"),
            "--model", str(out / "model_q5.bin"),
        ])
        assert code == EXIT_USAGE


@pytest.fixture(scope="module")
def quantized_run(trained_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("quant_run")
    code = main([
        "quantize", "--dataset", "synthetic", "--out", str(out),
        "--model", str(trained_run / "model_float.bin"),
        "--bits", "8", "--seed", "11",
    ])
    assert code == EXIT_OK
    return out


class TestSimulateCommand:
    def test_outputs_and_determinism(self, quantized_run, tmp_path):
        args = [
            "simulate", "--dataset", "synthetic",
            "--model", str(quantized_run / "model_q8.bin"), "--seed", "11",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        for name in ("trace.csv", "decisions.csv", "latency_cdf.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_trace_schema_and_row_structure(self, quantized_run, tmp_path):
        out = tmp_path / "sim1"
        code = main([
            "simulate", "--dataset", "synthetic", "--out", str(out),
            "--model", str(quantized_run / "model_q8.bin"),
            "--seed", "3", "--limit", "1",
        ])
        assert code == EXIT_OK
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == "sample_id,step,wordlines_read,decided,class,t_d"
        body = [r.split(",") for r in rows[1:]]
        assert all(r[0] == "0" for r in body)  # single sample
        assert [int(r[1]) for r in body] == list(range(1, len(body) + 1))
        assert [r[3] for r in body].count("1") == 1  # exactly one deciding row
        assert body[-1][3] == "1"

    def test_latency_cdf_is_monotone(self, quantized_run, tmp_path):
        out = tmp_path / "sim2"
        main([
            "simulate", "--dataset", "synthetic", "--out", str(out),
            "--model", str(quantized_run / "model_q8.bin"), "--seed", "5",
        ])
        rows = (out / "latency_cdf.csv").read_text().splitlines()[1:]
        cdf = [float(r.split(",")[1]) for r in rows]
        assert cdf == sorted(cdf)
        assert cdf[-1] <= 1.0

    def test_prints_both_step_4_shares(self, quantized_run, tmp_path, capsys):
        # cdf_all[3] and cdf_correct[3], the paper's "test performance in 4 steps"
        out = tmp_path / "sim3"
        assert main([
            "simulate", "--dataset", "synthetic", "--out", str(out),
            "--model", str(quantized_run / "model_q8.bin"), "--seed", "5",
        ]) == EXIT_OK
        _, cdf_all, cdf_correct = (out / "latency_cdf.csv").read_text().splitlines()[4].split(",")
        assert (f"fraction decided within 4 steps: {float(cdf_all):.4f}; "
                f"of the correct decisions: {float(cdf_correct):.4f}") in capsys.readouterr().out

    @staticmethod
    def _simulate_8_bit(tmp_path, data_args, w_codes, gamma_codes, seed=0, T=6, window=4):
        """simulate on a hand-built 8-bit artifact; its bias codes of +-127
        clip to the 1.4.3 rails: (decisions rows, trace rows, latency_cdf
        rows), each row a dict of its CSV fields."""
        qm = QuantizedModel(bits=8, w_codes=w_codes, gamma_codes=gamma_codes,
                            w_min=-1.0, w_max=1.0, gamma_min=-10.0, gamma_max=10.0,
                            presentation_time=T, window=window)
        artifact, out = tmp_path / "model_q8.bin", tmp_path / "sim"
        save_model(artifact, qm, {"bits": 8})
        assert main(["simulate", *data_args, "--model", str(artifact), "--seed", str(seed),
                     "--out", str(out)]) == EXIT_OK
        return [list(csv.DictReader((out / name).read_text().splitlines()))
                for name in ("decisions.csv", "trace.csv", "latency_cdf.csv")]

    def test_silent_inputs_read_only_the_bias_line(self, tmp_path):
        data = write_digit_corpus(tmp_path / "data", n_train=10, n_test=40)
        write_idx_images(data / "t10k-images-idx3-ubyte", np.zeros((40, 25), np.uint8), 5, 5)
        rng = np.random.default_rng(7)
        decisions, trace, _ = self._simulate_8_bit(
            tmp_path, ["--dataset", "digits", "--data-dir", str(data)],
            rng.integers(-127, 128, size=(25, 10, 4)), rng.integers(-50, -20, size=10))
        assert {row["wordlines_read"] for row in trace} == {"1"}
        steps = [6 if row["fallback"] == "1" else int(row["decision_time"]) for row in decisions]
        assert [int(row["sample_id"]) for row in trace] == np.repeat(range(40), steps).tolist()

    def test_biases_at_the_floor_never_fire(self, tmp_path):
        decisions, trace, cdf = self._simulate_8_bit(
            tmp_path, ["--dataset", "synthetic"], np.zeros((16, 4, 4)), np.full(4, -127))
        assert len(decisions) == 64
        assert {(row["fallback"], row["decision_time"]) for row in decisions} == {("1", "-1")}
        assert [(row["sample_id"], row["step"], row["decided"], row["t_d"]) for row in trace] == [
            (str(k), str(t), str(int(t == 6)), "-1" if t == 6 else "")
            for k in range(64) for t in range(1, 7)]
        assert {row["cdf_all"] for row in cdf} == {"0.000000"}

    # the one synthetic test sample, by seed, whose four step-1 LFSR bytes
    # are all 0xFF: PWL(7.875) = 255 is not above them
    STEP_1_SILENT = {0: [], 1: [60], 2: [], 3: []}

    @pytest.mark.parametrize("seed", STEP_1_SILENT)
    def test_dominant_biases_decide_at_step_1_on_the_bias_line(self, tmp_path, seed):
        decisions, trace, cdf = self._simulate_8_bit(
            tmp_path, ["--dataset", "synthetic"], np.zeros((16, 4, 4)), np.full(4, 127),
            seed=seed)
        late = [int(row["sample_id"]) for row in decisions if row["decision_time"] != "1"]
        assert late == self.STEP_1_SILENT[seed]
        first_rows = [row for row in trace if row["step"] == "1"]
        assert len(first_rows) == 64
        for row, decision in zip(first_rows, decisions):
            if int(row["sample_id"]) not in late:
                assert row == {"sample_id": decision["sample_id"], "step": "1",
                               "wordlines_read": "1", "decided": "1",
                               "class": decision["predicted"], "t_d": "1"}
        assert len(trace) == 64 + sum(int(decisions[k]["decision_time"]) - 1 for k in late)
        assert float(cdf[0]["cdf_all"]) == (64 - len(late)) / 64

    def test_rows_match_the_step_loop_at_every_precision(self, trained_run, tmp_path):
        quant = tmp_path / "quant"
        assert main([
            "quantize", "--dataset", "synthetic", "--out", str(quant),
            "--model", str(trained_run / "model_float.bin"), "--bits", "5,6,7,8",
            "--seed", "11",
        ]) == EXIT_OK
        _, test_ds = _load_split_pair("synthetic", None, 4, None)
        for bits in (5, 6, 7, 8):
            out = tmp_path / f"sim_q{bits}"
            model = quant / f"model_q{bits}.bin"
            assert main([
                "simulate", "--dataset", "synthetic", "--out", str(out),
                "--model", str(model), "--seed", "4",
            ]) == EXIT_OK
            decisions, trace = simulate_rows_loop(
                load_model(model).model, test_ds.magnitudes, test_ds.signs,
                test_ds.labels, seed=4,
            )
            with open(out / "decisions.csv", newline="") as fh:
                assert list(csv.reader(fh))[1:] == decisions
            with open(out / "trace.csv", newline="") as fh:
                assert list(csv.reader(fh))[1:] == trace

    @pytest.mark.parametrize("bits", [5, 8])
    def test_rows_match_the_step_loop_on_a_split_of_several_blocks(self, multi_block_run,
                                                                   tmp_path, bits):
        # the rng draws the rasters only: the stream the benchmark replays
        data, _, quant = multi_block_run
        model = quant / f"model_q{bits}.bin"
        assert main(["simulate", "--dataset", "digits", "--data-dir", str(data),
                     "--seed", "9", "--out", str(tmp_path), "--model", str(model)]) == EXIT_OK
        _, test_ds = _load_split_pair("digits", str(data), 9, None)
        decisions, trace = simulate_rows_loop(
            load_model(model).model, test_ds.magnitudes, test_ds.signs,
            test_ds.labels, seed=9,
        )
        with open(tmp_path / "decisions.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == decisions
        with open(tmp_path / "trace.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == trace

    def test_decides_on_the_codes_read_back_from_its_array(self, multi_block_run, tmp_path,
                                                            monkeypatch):
        # an array whose bytes are not the artifact's codes: the busiest
        # input's tap-1 line is negated and two bias codes swap places
        data, _, quant = multi_block_run
        model = quant / "model_q8.bin"
        _, test_ds = _load_split_pair("digits", str(data), 9, None)
        busiest = int(np.argmax(test_ds.magnitudes.sum(axis=0)))
        images = []

        def tampered(qm):
            image = map_model_to_memory(qm)
            w_codes, gamma_codes = qm.w_codes.copy(), qm.gamma_codes.copy()
            w_codes[busiest, :, 0] *= -1
            gamma_codes[[0, 1]] = gamma_codes[[1, 0]]
            forged = map_model_to_memory(replace(qm, w_codes=w_codes, gamma_codes=gamma_codes))
            lines = [busiest * qm.window, qm.n_inputs * qm.window]  # tap 1, the bias
            image.rows[lines] = forged.rows[lines]
            images.append(image)
            return image

        argv = ["simulate", "--dataset", "digits", "--data-dir", str(data), "--seed", "9",
                "--model", str(model)]
        assert main(argv + ["--out", str(tmp_path / "plain")]) == EXIT_OK
        monkeypatch.setattr("spikesim.cli.map_model_to_memory", tampered)
        assert main(argv + ["--out", str(tmp_path / "tampered")]) == EXIT_OK
        decisions, trace = simulate_rows_loop(
            unpack_model(images[0]), test_ds.magnitudes, test_ds.signs, test_ds.labels,
            seed=9,
        )
        with open(tmp_path / "tampered" / "decisions.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == decisions
        with open(tmp_path / "tampered" / "trace.csv", newline="") as fh:
            assert list(csv.reader(fh))[1:] == trace
        for name in ("decisions.csv", "trace.csv"):
            assert ((tmp_path / "tampered" / name).read_bytes()
                    != (tmp_path / "plain" / name).read_bytes())

    def test_nine_bit_artifact_is_usage_error(self, tmp_path):
        # a quantized model, like --bits, accepts only the datapath's 2..8:
        # load_model refuses the artifact before --out exists
        qm = QuantizedModel(
            bits=8, w_codes=np.full((16, 4, 4), 100), gamma_codes=np.zeros(4),
            w_min=-1.0, w_max=1.0, gamma_min=-1.0, gamma_max=1.0,
            presentation_time=6, window=4,
        )
        qm.bits = 9
        artifact = tmp_path / "model_q9.bin"
        save_model(artifact, qm, {"bits": 9})
        code = main([
            "simulate", "--dataset", "synthetic", "--out", str(tmp_path / "s"),
            "--model", str(artifact),
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("field, value, message", [
        ("gamma_codes", np.zeros(6), "6 bias codes for 4 outputs"),
        ("presentation_time", 2, "window 3 with presentation_time 2"),
        ("w_codes", np.zeros((16, 4)), "w_codes of shape (16, 4)"),
        ("w_max", np.nan, "w_min -1.0 and w_max nan"),
        ("gamma_min", -np.inf, "gamma_min -inf and gamma_max 1.0"),
        ("w_max", -2.0, "w_min -1.0 and w_max -2.0; need finite w_min <= w_max"),
    ], ids=["six_biases_for_four_outputs", "window_past_T", "two_dim_kernels",
            "nan_w_max", "minus_inf_gamma_min", "w_min_above_w_max"])
    def test_misshapen_artifact_is_usage_error(self, tmp_path, capsys, field, value,
                                               message):
        # no float model has this shape: load_model refuses the artifact
        # before --out exists, naming the mismatch
        qm = QuantizedModel(
            bits=8, w_codes=np.zeros((16, 4, 3)), gamma_codes=np.zeros(4),
            w_min=-1.0, w_max=1.0, gamma_min=-1.0, gamma_max=1.0,
            presentation_time=4, window=3,
        )
        setattr(qm, field, value)
        artifact = tmp_path / "model_q8.bin"
        save_model(artifact, qm, {"bits": 8})
        code = main([
            "simulate", "--dataset", "synthetic", "--out", str(tmp_path / "s"),
            "--model", str(artifact),
        ])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    UNREADABLE = {
        "no_fields": "header has no fields",
        "glm_without_n_outputs": "header has no ints.n_outputs",
        "empty_payload": "cannot read field w_codes of shape [16, 4, 3] from the payload",
        "weights_as_f4": "field weights is stored as '<f4', not '<f8'",
        "biases_at_negative_offset": "cannot read field biases of shape [4] from the payload",
        "header_not_json": "header is not JSON",
        "unhashable_kind": "unknown artifact kind ['glm']",
        "glm_window_as_text": "header ints {'n_inputs': 16, 'n_outputs': 4, "
                              "'presentation_time': 4, 'window': '3'} are not all integers",
    }

    @pytest.mark.parametrize("case", UNREADABLE)
    def test_unreadable_artifact_is_data_error(self, tmp_path, capsys, case):
        # a valid magic, version and CRC32 around a header or payload that
        # cannot be read against its kind's fields: load_model refuses it
        # before --out exists, naming the file
        if case in ("no_fields", "empty_payload"):
            model = QuantizedModel(
                bits=8, w_codes=np.zeros((16, 4, 3)), gamma_codes=np.zeros(4),
                w_min=-1.0, w_max=1.0, gamma_min=-1.0, gamma_max=1.0,
                presentation_time=4, window=3,
            )
        else:
            model = GlmModel(n_inputs=16, n_outputs=4, presentation_time=4, window=3,
                             weights=np.zeros((16, 4, 3)), biases=np.zeros(4))
        artifact = tmp_path / "model.bin"
        save_model(artifact, model)
        blob = artifact.read_bytes()
        (size,) = struct.unpack("<I", blob[8:12])
        header, payload = json.loads(blob[12 : 12 + size]), blob[12 + size : -4]
        if case == "no_fields":
            del header["fields"]
        elif case == "glm_without_n_outputs":
            del header["ints"]["n_outputs"]
        elif case == "empty_payload":
            payload = b""
        elif case == "weights_as_f4":
            header["fields"]["weights"]["dtype"] = "<f4"
        elif case == "biases_at_negative_offset":
            header["fields"]["biases"]["offset"] = -40  # a slice would read near the end
        elif case == "unhashable_kind":
            header["kind"] = ["glm"]
        elif case == "glm_window_as_text":
            header["ints"]["window"] = "3"
        text = json.dumps(header, sort_keys=True).encode()
        if case == "header_not_json":
            text = text[:-1]
        body = blob[:4] + struct.pack("<II", 1, len(text)) + text + payload
        artifact.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        code = main([
            "simulate", "--dataset", "synthetic", "--out", str(tmp_path / "s"),
            "--model", str(artifact),
        ])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == (
            f"spikesim: data error: {artifact}: {self.UNREADABLE[case]}\n")
        assert not (tmp_path / "s").exists()

    def test_float_artifact_rejected(self, trained_run, tmp_path):
        code = main([
            "simulate", "--dataset", "synthetic", "--out", str(tmp_path / "s"),
            "--model", str(trained_run / "model_float.bin"),
        ])
        assert code == EXIT_USAGE


class TestPerfCommand:
    def test_report_files_and_content(self, tmp_path):
        out = tmp_path / "perf"
        code = main(["perf", "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "perf_report.txt").read_text()
        assert "25.6 GSOPS" in text
        assert "64 GSOPS" in text
        report = json.loads((out / "perf_report.json").read_text())
        assert report["step_energy_nj"]["memory"] == 195.275
        assert (out / "perf_config.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "p1", tmp_path / "p2"
        main(["perf", "--out", str(out_a)])
        main(["perf", "--out", str(out_b)])
        assert (out_a / "perf_report.json").read_bytes() == (
            out_b / "perf_report.json"
        ).read_bytes()
        assert (out_a / "perf_report.txt").read_bytes() == (
            out_b / "perf_report.txt"
        ).read_bytes()

    def test_malformed_config_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 99}')
        code = main(["perf", "--out", str(tmp_path / "p"), "--perf-config", str(bad)])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("content, message", [
        (b'{"version": 1,', "not JSON: Expecting property name enclosed in double quotes"),
        (b"\xff{}", "not a text file: 'utf-8' codec can't decode byte 0xff in position 0"),
    ])
    def test_config_that_is_not_json_is_data_error(self, tmp_path, capsys, content, message):
        # the decoders' messages name no file: the command names it
        bad, out = tmp_path / "bad.json", tmp_path / "p"
        bad.write_bytes(content)
        assert main(["perf", "--out", str(out), "--perf-config", str(bad)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"spikesim: data error: {bad}: {message}")
        assert not out.exists()

    # SHA-256 of the default config's outputs
    PINNED = {
        "perf_report.json": "89f193cb323cef5c9a0eb7a509c104ace8cc660732c4601755c5ced6027e640f",
        "perf_report.txt": "54ce89208947d0ab51fa51d4f55069d63e4643b205e4a5b3e2953b21ee95ab1d",
        "perf_config.json": "7e921d51b82644873f0ef62cc3f5e1b2dd696171e666f47d0971dbc49708e690",
    }

    def test_default_outputs_are_pinned(self, tmp_path):
        out = tmp_path / "perf"
        assert main(["perf", "--out", str(out)]) == EXIT_OK
        for name, digest in self.PINNED.items():
            assert _sha256((out / name).read_bytes()) == digest, name

    @staticmethod
    def _run_with(tmp_path, edits):
        """`perf` on the default config after `edits`, dotted key paths to
        new values (None deletes the key); returns the exit code and the
        output directory."""
        config = default_config()
        for path, value in edits.items():
            *parents, key = path.split(".")
            entry = config
            for parent in parents:
                entry = entry[parent]
            if value is None:
                del entry[key]
            else:
                entry[key] = value
        bad = tmp_path / "perf.json"
        bad.write_text(json.dumps(config))
        out = tmp_path / "p"
        return main(["perf", "--out", str(out), "--perf-config", str(bad)]), out

    @pytest.mark.parametrize("path", [
        "avg_active_wordlines", "technologies.stt_ram", "logic_by_bits.5",
        "technologies.sram", "technologies.sram.memory_by_bits.7", "logic_by_bits.8",
    ])
    def test_config_missing_a_key_is_usage_error(self, tmp_path, capsys, path):
        # each key compute_report reads: both technologies, every precision
        # of either under both, its logic_by_bits entry and the 8-bit logic
        code, out = self._run_with(tmp_path, {path: None})
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"spikesim: usage error: perf config missing '{path}'\n"
        assert not list(out.glob("perf_report.*"))

    def test_step_energy_needs_the_8_bit_logic(self, tmp_path, capsys):
        # the neuron is 8-bit at every synapse precision, so a config
        # without precision 8 still needs logic_by_bits.8 for the step energy
        code, out = self._run_with(tmp_path, {
            "logic_by_bits.8": None,
            "technologies.sram.memory_by_bits.8": None,
            "technologies.stt_ram.memory_by_bits.8": None,
        })
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "spikesim: usage error: perf config missing 'logic_by_bits.8'\n"
        )
        assert not list(out.glob("perf_report.*"))

    @pytest.mark.parametrize("path, value", [
        ("technologies.stt_ram.clock_mhz", "250"),
        ("overheads.routing", "0.1"),
        ("technologies.sram.memory_by_bits.6.power_mw", float("nan")),
        ("avg_active_wordlines", True),
        ("technologies.stt_ram.memory_by_bits.5.area_mm2", -0.5),
    ])
    def test_config_value_not_a_number_is_usage_error(self, tmp_path, capsys, path, value):
        code, out = self._run_with(tmp_path, {path: value})
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"spikesim: usage error: perf config '{path}' must be a ")
        assert err.endswith(f" number, not {value!r}\n") and err.count("\n") == 1
        assert not list(out.glob("perf_report.*"))


@pytest.fixture(scope="module")
def digits_run(tmp_path_factory):
    """A 25-feature IDX corpus, a float model trained on it and its 8-bit
    quantization."""
    root = tmp_path_factory.mktemp("digits_run")
    data = write_digit_corpus(root / "data", n_train=24, n_test=12)
    common = ["--dataset", "digits", "--data-dir", str(data), "--seed", "2"]
    assert main(["train", *common, "--out", str(root / "t"), "--epochs", "1",
                 "--T", "4", "--tau", "4"]) == EXIT_OK
    assert main(["quantize", *common, "--out", str(root / "q"), "--bits", "8",
                 "--model", str(root / "t" / "model_float.bin")]) == EXIT_OK
    return data, root / "t" / "model_float.bin", root / "q" / "model_q8.bin"


@pytest.mark.parametrize("command", [
    "train", "quantize", "simulate", "perf",
    "train --seed -1", "quantize --seed -1", "simulate --seed -1", "perf --seed -1",
])
def test_rejected_command_creates_no_output_directory(trained_run, digits_run, tmp_path,
                                                      capsys, command):
    # each command checks its arguments before it creates --out
    out = tmp_path / "out"
    bad_config = tmp_path / "bad.json"
    bad_config.write_text('{"version": 99}')
    model = str(trained_run / "model_float.bin")
    data, digits_float, digits_q8 = (str(p) for p in digits_run)
    digits = ["--dataset", "digits", "--data-dir", data, "--seed", "-1"]
    argv = {
        "train": ["train", "--dataset", "synthetic", "--epochs", "1", "--lr", "nan"],
        "quantize": ["quantize", "--dataset", "synthetic", "--model", model, "--bits", "9"],
        "simulate": ["simulate", "--dataset", "synthetic", "--model", model],
        "perf": ["perf", "--perf-config", str(bad_config)],
        "train --seed -1": ["train", *digits, "--epochs", "1", "--T", "4", "--tau", "4"],
        "quantize --seed -1": ["quantize", *digits, "--model", digits_float],
        "simulate --seed -1": ["simulate", *digits, "--model", digits_q8],
        "perf --seed -1": ["perf", "--seed", "-1"],
    }[command]
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    if "--seed" in command:
        assert capsys.readouterr().err.endswith(
            "spikesim: usage error: argument --seed: must be an integer >= 0, not '-1'\n")


@pytest.mark.parametrize("argv, message", [
    (["perf", "--out", "F"], "cannot create --out F: File exists"),
    (["train", "--epochs", "1", "--out", "F/sub"], "cannot create --out F/sub: Not a directory"),
])
def test_out_that_cannot_be_a_directory_is_usage_error(tmp_path, argv, message):
    # in a fresh process, so that an escaping exception would print its traceback
    (tmp_path / "F").write_text("")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    run = subprocess.run([sys.executable, "-m", "spikesim.cli", *argv], cwd=tmp_path,
                         env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_USAGE
    assert run.stderr == f"spikesim: usage error: {message}\n"
    assert (tmp_path / "F").read_text() == ""


@pytest.mark.parametrize("argv", [
    ["quantize", "--model"], ["simulate", "--model"], ["perf", "--perf-config"],
])
def test_input_that_is_a_directory_is_data_error(tmp_path, capsys, argv):
    directory, out = tmp_path / "a_directory", tmp_path / "out"
    directory.mkdir()
    assert main([*argv, str(directory), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("spikesim: data error: ") and err.endswith(f": '{directory}'\n")
    assert not out.exists()


@pytest.mark.parametrize("damage", ["truncated", "unknown_method", "corrupt_deflate",
                                    "trailing_bytes"])
def test_damaged_gzip_idx_file_is_data_error(tmp_path, capsys, damage):
    # gzip's own errors name no file: the loader names it
    data = write_digit_corpus(tmp_path / "data", n_train=12, n_test=6)
    plain = data / "t10k-images-idx3-ubyte"
    gz = gzip.compress(plain.read_bytes())
    damaged = data / "t10k-images-idx3-ubyte.gz"
    damaged.write_bytes({
        "truncated": gz[: len(gz) // 2],
        "unknown_method": gz[:2] + bytes(30),
        "corrupt_deflate": gz[:10] + bytes(b ^ 0xFF for b in gz[10:-8]) + gz[-8:],
        # bytes after the member that are not another member
        "trailing_bytes": gz + b"not gzip",
    }[damage])
    plain.unlink()
    out = tmp_path / "out"
    assert main(["train", "--dataset", "digits", "--data-dir", str(data), "--epochs", "1",
                 "--T", "4", "--tau", "4", "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(
        f"spikesim: data error: {damaged}: corrupt gzip stream while reading ")
    assert not out.exists()


@pytest.mark.parametrize("name", ["X_test.txt", "y_train.txt"])
def test_har_file_that_is_not_utf8_is_data_error(tmp_path, capsys, name):
    data = write_har_corpus(tmp_path / "data", n_train=12, n_test=6)
    path = data / name
    path.write_bytes(path.read_bytes()[:-1] + b"\xff\n")
    out = tmp_path / "out"
    assert main(["train", "--dataset", "har", "--data-dir", str(data), "--epochs", "1",
                 "--T", "4", "--tau", "4", "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err.startswith(
        f"spikesim: data error: {path}: not a text file: 'utf-8' codec can't decode byte 0xff")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "quantize", "simulate"])
def test_empty_test_split_is_data_error(digits_run, tmp_path, capsys, command):
    data = write_digit_corpus(tmp_path / "data", n_train=12, n_test=0)
    _, digits_float, digits_q8 = digits_run
    extra = {
        "train": ["--epochs", "1", "--T", "4", "--tau", "4"],
        "quantize": ["--model", str(digits_float)],
        "simulate": ["--model", str(digits_q8)],
    }[command]
    out = tmp_path / "out"
    assert main([command, "--dataset", "digits", "--data-dir", str(data),
                 "--out", str(out), *extra]) == EXIT_DATA
    assert capsys.readouterr().err == "spikesim: data error: the test split has no samples\n"
    assert not out.exists()


@pytest.mark.parametrize("command, dataset", [
    ("train", "digits"), ("train", "har"), ("quantize", "digits"), ("simulate", "digits"),
])
def test_splits_of_different_widths_are_data_error(digits_run, tmp_path, capsys,
                                                   command, dataset):
    # a 5x5 train IDX with a 4x4 t10k IDX, or 12 HAR features with 11
    if dataset == "digits":
        data = write_digit_corpus(tmp_path / "data", n_train=12, n_test=6, test_side=4)
        widths = (25, 16)
    else:
        data = write_har_corpus(tmp_path / "data", n_train=20, n_test=10, test_features=11)
        widths = (12, 11)
    _, digits_float, digits_q8 = digits_run
    extra = {
        "train": ["--epochs", "1", "--T", "4", "--tau", "4"],
        "quantize": ["--model", str(digits_float)],
        "simulate": ["--model", str(digits_q8)],
    }[command]
    out = tmp_path / "out"
    assert main([command, "--dataset", dataset, "--data-dir", str(data),
                 "--out", str(out), *extra]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"spikesim: data error: the train split has {widths[0]} features "
        f"but the test split has {widths[1]}\n")
    assert not out.exists()


def test_quantize_rejects_a_model_of_another_input_count(trained_run, digits_run,
                                                         tmp_path, capsys):
    # a 16-input model on 25-feature data, as simulate rejects it
    out = tmp_path / "out"
    assert main([
        "quantize", "--dataset", "digits", "--data-dir", str(digits_run[0]),
        "--out", str(out), "--model", str(trained_run / "model_float.bin"),
    ]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "spikesim: usage error: model expects 16 inputs but dataset has 25 features\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "quantize", "simulate", "perf"])
def test_run_config_records_every_argument(digits_run, tmp_path, command):
    # every field of run_config.json, null where the command lacks the flag
    data, digits_float, digits_q8 = (str(p) for p in digits_run)
    perf_config = tmp_path / "perf.json"
    perf_config.write_text(json.dumps(default_config()))
    digits = ["--dataset", "digits", "--data-dir", data]
    argv, recorded = {
        "train": (["train", *digits, "--seed", "9", "--limit", "12", "--epochs", "2",
                   "--T", "5", "--tau", "3", "--lr", "0.1", "--batch-size", "4"],
                  {"seed": 9, "limit": 12, "epochs": 2, "presentation_time": 5,
                   "window": 3, "learning_rate": 0.1, "batch_size": 4}),
        "quantize": (["quantize", *digits, "--seed", "4", "--limit", "10",
                      "--model", digits_float, "--bits", "7,3"],
                     {"seed": 4, "limit": 10, "model_path": digits_float, "bits": [7, 3]}),
        "simulate": (["simulate", *digits, "--seed", "2", "--limit", "9",
                      "--model", digits_q8],
                     {"seed": 2, "limit": 9, "model_path": digits_q8}),
        "perf": (["perf", "--seed", "6", "--perf-config", str(perf_config)],
                 {"seed": 6, "perf_config_path": str(perf_config)}),
    }[command]
    out = tmp_path / "out"
    assert main([*argv, "--out", f"{out}/"]) == EXIT_OK
    expected = dict.fromkeys(
        ["dataset", "data_dir", "epochs", "presentation_time", "window", "bits",
         "limit", "model_path", "perf_config_path", "learning_rate", "batch_size"])
    if command != "perf":
        expected.update(dataset="digits", data_dir=data)
    expected.update(recorded, command=command, out_dir=str(out))
    assert len(expected) == 14
    assert json.loads((out / "run_config.json").read_text()) == expected


class TestParserReuse:
    """main builds its parser once per process and looks each command up
    when it runs."""

    # train, a usage error, then quantize and simulate of what train wrote;
    # --out and --model are relative, so run_config.json and the quantized
    # artifacts' source field name the same paths in every working directory
    COMMANDS = [
        ["train", "--out", "t", "--seed", "4", "--epochs", "2", "--T", "4", "--tau", "3"],
        ["quantize", "--out", "bad", "--model", "t/model_float.bin", "--bits", "5,9"],
        ["quantize", "--out", "q", "--seed", "4", "--model", "t/model_float.bin",
         "--bits", "5,8"],
        ["simulate", "--out", "s", "--seed", "4", "--model", "q/model_q5.bin"],
    ]

    @staticmethod
    def files(root):
        return {str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    def test_one_process_writes_what_separate_processes_write(self, tmp_path, monkeypatch,
                                                             capsys):
        one, separate = tmp_path / "one", tmp_path / "separate"
        one.mkdir()
        separate.mkdir()
        builds = []
        build_parser = spikesim.cli.build_parser
        monkeypatch.setattr(spikesim.cli, "build_parser",
                            lambda: builds.append(1) or build_parser())
        spikesim.cli._parser.cache_clear()
        monkeypatch.chdir(one)
        in_process = []
        for argv in self.COMMANDS:
            code = main(argv)
            in_process.append((code, *capsys.readouterr()))
        monkeypatch.undo()
        assert len(builds) == 1
        assert [code for code, _, _ in in_process] == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK]

        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        fresh = []
        for argv in self.COMMANDS:
            run = subprocess.run([sys.executable, "-m", "spikesim.cli", *argv], cwd=separate,
                                 env=env, capture_output=True, text=True)
            fresh.append((run.returncode, run.stdout, run.stderr))
        assert in_process == fresh
        assert self.files(one) == self.files(separate)
        assert {"t/model_float.bin", "q/model_q5.bin", "s/trace.csv"} <= set(self.files(one))

    def test_a_command_replaced_after_the_first_call_runs(self, trained_run, tmp_path,
                                                          monkeypatch):
        assert main(["simulate", "--model", str(trained_run / "model_float.bin"),
                     "--out", str(tmp_path / "s")]) == EXIT_USAGE
        ran = []
        monkeypatch.setattr(spikesim.cli, "cmd_simulate",
                            lambda args: ran.append(args) or 42)
        assert main(["simulate", "--model", "q.bin", "--out", str(tmp_path / "s")]) == 42
        assert [(args.command, args.model) for args in ran] == [("simulate", "q.bin")]


def _sha256(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk).tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    """A hand-built float artifact through `quantize` and `simulate`: the
    outputs the datapath must keep, as SHA-256 digests of the bytes."""

    FLOAT = "678054ec4f38bb1e052747a4e47d55f8d867645f4059cfaa82522660414fd2fb"
    CODES = {  # w_codes, gamma_codes, then w_min, w_max, gamma_min, gamma_max
        5: "8ec1dac4963b3518d3c8b8cf923540eb9498712deee07d8722380be7569295d4",
        6: "a7f5a1d71d6fd1e85a6debc9da574165b706d373e027ccc3dca7ca5a2f627fd7",
        7: "16b859ec4fcd36713ce7f720c59de37090077f8f32ea34e92b3acad737d7d3ff",
        8: "56fbe52d9209b6e233ad3cc6ae3eb3f9f87784694d6dda25e4c73acbb73880ff",
    }
    SIMULATE = {
        5: {
            "decisions.csv": "4738682e36f3dd86bfa3f0a5471dc5d810267cf960a68304e45c4daad3553ff1",
            "trace.csv": "f3f1e8ac62b2f87cad85f8ea3c21b6061fffc60c64e29567f855c60b184bc6aa",
            "latency_cdf.csv": "d2f8ff1b692d1ebc32413d77d0b10eb60ebebd7cb087ec1323728a7491901a0a",
            "core_image.bin": "caee3045d344310b0421a46c1fc4db64979d64799f3b3573441d3347defb490c",
        },
        8: {
            "decisions.csv": "fdbedc69f1fb7a69b85c67402772a28f372d69c8b3fff2c8282b171420c9be57",
            "trace.csv": "5a41cfb95ea3a3b4099b5f1de47fc430aaf34411182b18e9cf64a9fcb0f9b5b1",
            "latency_cdf.csv": "540f8ae03fe37f9cd3111b47e85c15f8b97d47bb13bd55b48ab4ce5aa13f3f5a",
            "core_image.bin": "b27b687976f06dc63667a7f5eac4dd20b5cdceb1699e49d002244dca1e0a6b3e",
        },
    }

    def test_quantize_and_simulate_outputs_are_pinned(self, tmp_path):
        # kernels that favour each class's prototype (the synthetic task of
        # seed 3), plus noise, and biases near -5: decisions spread over steps
        rng = np.random.default_rng(2024)
        protos = np.random.default_rng(3).uniform(0.1, 0.9, size=(4, 16))
        centred = (protos - protos.mean(axis=0)).T
        model = GlmModel(
            n_inputs=16, n_outputs=4, presentation_time=8, window=6,
            weights=4.0 * centred[:, :, None] + rng.normal(0.0, 0.3, size=(16, 4, 6)),
            biases=rng.normal(-5.0, 0.3, size=4),
        )
        save_model(tmp_path / "model_float.bin", model, {"seed": 2024})
        assert _sha256((tmp_path / "model_float.bin").read_bytes()) == self.FLOAT
        quant = tmp_path / "q"
        assert main([
            "quantize", "--dataset", "synthetic", "--out", str(quant), "--seed", "3",
            "--model", str(tmp_path / "model_float.bin"), "--bits", "5,6,7,8",
        ]) == EXIT_OK
        rows = (quant / "accuracy_vs_bits.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["0.515625"] * 4
        assert rows[-1] == "8,0.468750,0.515625"
        for bits, digest in self.CODES.items():
            qm = load_model(quant / f"model_q{bits}.bin").model
            scales = np.array([qm.w_min, qm.w_max, qm.gamma_min, qm.gamma_max])
            assert _sha256(qm.w_codes, qm.gamma_codes, scales) == digest, bits
        for bits, files in self.SIMULATE.items():
            out = tmp_path / f"s{bits}"
            assert main([
                "simulate", "--dataset", "synthetic", "--out", str(out), "--seed", "3",
                "--model", str(quant / f"model_q{bits}.bin"),
            ]) == EXIT_OK
            for name, digest in files.items():
                assert _sha256((out / name).read_bytes()) == digest, (bits, name)


class TestPinnedTraining:
    """`train`'s outputs as SHA-256 digests: the README quick start, and a
    signed HAR corpus of 20 train samples in minibatches of 8, so the last
    batch is ragged."""

    PINNED = {
        "quick_start": ("5df60f4548628f9cc91ee34d99cc1dc4d72259f0cc29a507a7643254f6977b8b",
                        "6fcd33bd5613b8a84ec0bb12ce40ee523aecfe57dbb3b5377528a6b86e70ca0c"),
        "har": ("749f8ca7955e565c2eafc7ba6234ce914b0cd475190ab1028bb219b4b8c46f92",
                "9d784a29c5494c50548f0ee4cb9aa1dd6be92b2294ccccd631278c263c0d95a3"),
    }

    @staticmethod
    def runs(root):
        har = write_har_corpus(root / "har_data", n_train=20, n_test=10)
        return {
            "quick_start": ["--dataset", "synthetic", "--epochs", "30", "--lr", "0.2",
                            "--T", "8", "--tau", "8", "--seed", "1"],
            "har": ["--dataset", "har", "--data-dir", str(har), "--epochs", "3",
                    "--T", "6", "--tau", "3", "--batch-size", "8", "--seed", "1"],
        }

    @staticmethod
    def outputs(out):
        return [(out / name).read_bytes() for name in ("model_float.bin", "metrics.csv")]

    def test_train_outputs_are_pinned(self, tmp_path):
        for name, args in self.runs(tmp_path).items():
            out = tmp_path / name
            assert main(["train", "--out", str(out), *args]) == EXIT_OK
            assert tuple(map(_sha256, self.outputs(out))) == self.PINNED[name], name

    def test_blas_thread_count_does_not_move_the_pins(self, tmp_path):
        # fresh processes, since OpenBLAS reads its thread count at load
        src = Path(__file__).resolve().parent.parent / "src"
        for name, args in self.runs(tmp_path).items():
            got = {}
            for threads in ("1", "2", "4"):
                out = tmp_path / f"{name}_{threads}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
                subprocess.run([sys.executable, "-m", "spikesim.cli", "train", "--out", str(out),
                                *args], env=env, check=True, capture_output=True)
                got[threads] = self.outputs(out)
            assert got["1"] == got["2"] == got["4"], name
