"""scripts/run_full.py end to end on tiny corpora of both formats."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

from corpora import write_digit_corpus, write_har_corpus

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_full.py"


@pytest.mark.parametrize("dataset, write, T, reference", [
    ("digits", write_digit_corpus, 8, "0.935"),
    ("har", write_har_corpus, 16, "0.945"),
])
def test_train_quantize_simulate_and_summary(tmp_path, dataset, write, T, reference):
    data = write(tmp_path / "data", n_train=30, n_test=30)
    out = tmp_path / "run"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--dataset", dataset, "--data-dir", str(data),
         "--out", str(out), "--epochs", "1", "--limit", "20"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for step in ("train", "quantize", "simulate"):
        config = json.loads((out / step / "run_config.json").read_text())
        assert (config["command"], config["dataset"], config["limit"]) == (step, dataset, 20)
    assert json.loads((out / "train" / "run_config.json").read_text())["window"] == T
    with open(out / "quantize" / "accuracy_vs_bits.csv") as fh:
        float_acc = float(next(csv.DictReader(fh))["float_baseline"])
    summary = done.stdout.split(f"\n=== {dataset} full-run summary ===\n")[1].splitlines()
    assert summary[0] == f"float test accuracy:        {float_acc:.4f}  (reference ~{reference})"
    assert [line.split(":")[0] for line in summary[1:]] == [
        "5-bit accuracy drop", "decided within 4 steps", "correct within 4 steps"]
