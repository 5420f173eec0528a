import json

import pytest

from spikesim.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from spikesim.datasets import load_model


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
        # well-trained model: 8-bit accuracy should match or beat 5-bit
        # within sampling noise
        out_t = tmp_path / "sweep_train"
        assert main([
            "train", "--dataset", "synthetic", "--out", str(out_t), "--seed", "2",
            "--epochs", "100", "--lr", "0.2", "--T", "6", "--tau", "6",
        ]) == EXIT_OK
        out_q = tmp_path / "sweep_quant"
        assert main([
            "quantize", "--dataset", "synthetic", "--out", str(out_q),
            "--model", str(out_t / "model_float.bin"), "--bits", "5,8",
            "--seed", "2",
        ]) == EXIT_OK
        rows = (out_q / "accuracy_vs_bits.csv").read_text().splitlines()[1:]
        acc = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        float_acc = float(rows[0].split(",")[2])
        assert float_acc >= 0.8  # the premise: the model did learn the task
        assert acc[8] >= acc[5] - 0.05

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
