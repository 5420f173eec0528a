#!/usr/bin/env python3
"""Full activity-recognition benchmark reproduction.

Trains at T=16, tau=16 for 200 epochs on the ~7k/3k feature corpus and
sweeps synapse precisions 5..8 through the quantized datapath (b-bit codes
into the same 8-bit neuron).  Reference: float test accuracy ~0.945, 5-bit
synapses within 2 points.

Usage:
  python scripts/run_har_full.py --data-dir /path/to/har --out runs/har
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spikesim.cli import main as spikesim_main  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--out", default="runs/har_full")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--limit", type=int, default=None)
    args = ap.parse_args()

    out = Path(args.out)
    common = ["--dataset", "har", "--data-dir", args.data_dir,
              "--seed", str(args.seed)]
    if args.limit is not None:
        common += ["--limit", str(args.limit)]

    code = spikesim_main(["train", *common, "--out", str(out / "train"),
                          "--epochs", str(args.epochs), "--T", "16", "--tau", "16"])
    if code:
        return code
    code = spikesim_main(["quantize", *common, "--out", str(out / "quantize"),
                          "--model", str(out / "train" / "model_float.bin"),
                          "--bits", "5,6,7,8"])
    if code:
        return code

    with open(out / "quantize" / "accuracy_vs_bits.csv") as fh:
        rows = list(csv.DictReader(fh))
    float_acc = float(rows[0]["float_baseline"])
    acc5 = next(float(r["test_acc"]) for r in rows if r["bits"] == "5")
    print("\n=== activity-recognition summary ===")
    print(f"float test accuracy: {float_acc:.4f}  (reference ~0.945)")
    print(f"5-bit accuracy drop: {float_acc - acc5:+.4f} (reference <= 0.02)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
