import csv
import hashlib
import json

import numpy as np
import pytest

from spikesim.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, _load_split_pair, main
from spikesim.datasets import load_model, save_model
from spikesim.glm import GlmModel
from spikesim.quantize import QuantizedModel

from oracles import simulate_rows_loop


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("train_run")
    code = main([
        "train", "--dataset", "synthetic", "--out", str(out), "--seed", "11",
        "--epochs", "3", "--T", "4", "--tau", "4", "--batch-size", "16",
    ])
    assert code == EXIT_OK
    return out


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
        for bits in ("8,9", "1,2", "16"):
            out = tmp_path / f"quant_{bits.replace(',', '_')}"
            code = main([
                "quantize", "--dataset", "synthetic", "--out", str(out),
                "--model", str(trained_run / "model_float.bin"), "--bits", bits,
            ])
            assert code == EXIT_USAGE
            assert not list(out.glob("model_q*.bin"))

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
                load_model(model).model, test_ds.magnitudes(), test_ds.signs(),
                test_ds.labels, seed=4,
            )
            with open(out / "decisions.csv", newline="") as fh:
                assert list(csv.reader(fh))[1:] == decisions
            with open(out / "trace.csv", newline="") as fh:
                assert list(csv.reader(fh))[1:] == trace

    def test_nine_bit_artifact_is_usage_error(self, tmp_path):
        # the core geometry, like --bits, accepts only the datapath's 2..8
        qm = QuantizedModel(
            bits=9, w_codes=np.full((16, 4, 4), 200), gamma_codes=np.zeros(4),
            w_min=-1.0, w_max=1.0, gamma_min=-1.0, gamma_max=1.0,
            presentation_time=6, window=4,
        )
        artifact = tmp_path / "model_q9.bin"
        save_model(artifact, qm, {"bits": 9})
        code = main([
            "simulate", "--dataset", "synthetic", "--out", str(tmp_path / "s"),
            "--model", str(artifact),
        ])
        assert code == EXIT_USAGE
        assert not (tmp_path / "s" / "decisions.csv").exists()

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


def _sha256(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else np.ascontiguousarray(chunk).tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    """A hand-built float artifact through `quantize` and `simulate`: the
    outputs the datapath must keep, as SHA-256 digests of the bytes."""

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
        },
        8: {
            "decisions.csv": "fdbedc69f1fb7a69b85c67402772a28f372d69c8b3fff2c8282b171420c9be57",
            "trace.csv": "5a41cfb95ea3a3b4099b5f1de47fc430aaf34411182b18e9cf64a9fcb0f9b5b1",
            "latency_cdf.csv": "540f8ae03fe37f9cd3111b47e85c15f8b97d47bb13bd55b48ab4ce5aa13f3f5a",
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
        quant = tmp_path / "q"
        assert main([
            "quantize", "--dataset", "synthetic", "--out", str(quant), "--seed", "3",
            "--model", str(tmp_path / "model_float.bin"), "--bits", "5,6,7,8",
        ]) == EXIT_OK
        rows = (quant / "accuracy_vs_bits.csv").read_text().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["0.437500"] * 4
        assert rows[-1] == "8,0.468750,0.437500"
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
