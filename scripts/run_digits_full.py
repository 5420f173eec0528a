#!/usr/bin/env python3
"""Full handwritten-digit benchmark reproduction.

Trains the first-to-spike network at T=8, tau=8 for 200 epochs on the
complete 60k/10k IDX corpus, sweeps synapse precisions 5..8 through the
quantized datapath, and measures the decision-latency CDF on the core
simulator.  Expect about two hours on one core of a 2-core Xeon server with
one BLAS thread: an epoch takes about 36 s, 1875 SGD minibatches of 32 at
about 18 ms each plus 12k first-to-spike evaluations at about 0.13 ms each.

Reference points this run should land near:
  float test accuracy   ~0.935
  5-bit accuracy        within 2 points of float
  decided within 4 steps ~0.75 of samples

Usage:
  python scripts/run_digits_full.py --data-dir /path/to/idx-files --out runs/digits
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spikesim.cli import main as spikesim_main  # noqa: E402


def run(argv) -> int:
    code = spikesim_main(argv)
    if code != 0:
        print(f"step failed with exit code {code}: {argv}", file=sys.stderr)
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--out", default="runs/digits_full")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--limit", type=int, default=None,
                    help="cap the splits for a quick smoke run")
    args = ap.parse_args()

    out = Path(args.out)
    common = ["--dataset", "digits", "--data-dir", args.data_dir,
              "--seed", str(args.seed)]
    if args.limit is not None:
        common += ["--limit", str(args.limit)]

    code = run(["train", *common, "--out", str(out / "train"),
                "--epochs", str(args.epochs), "--T", "8", "--tau", "8"])
    if code:
        return code
    code = run(["quantize", *common, "--out", str(out / "quantize"),
                "--model", str(out / "train" / "model_float.bin"),
                "--bits", "5,6,7,8"])
    if code:
        return code
    code = run(["simulate", *common, "--out", str(out / "simulate"),
                "--model", str(out / "quantize" / "model_q8.bin")])
    if code:
        return code

    with open(out / "quantize" / "accuracy_vs_bits.csv") as fh:
        rows = list(csv.DictReader(fh))
    float_acc = float(rows[0]["float_baseline"])
    acc5 = next(float(r["test_acc"]) for r in rows if r["bits"] == "5")
    with open(out / "simulate" / "latency_cdf.csv") as fh:
        cdf4 = next(
            float(r["cdf_all"]) for r in csv.DictReader(fh) if r["t"] == "4"
        )

    print("\n=== digit benchmark summary ===")
    print(f"float test accuracy:        {float_acc:.4f}  (reference ~0.935)")
    print(f"5-bit accuracy drop:        {float_acc - acc5:+.4f} (reference <= 0.02)")
    print(f"decided within 4 steps:     {cdf4:.4f}  (reference ~0.75)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
