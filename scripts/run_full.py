#!/usr/bin/env python3
"""Full-scale reproduction on one corpus: train, quantize, simulate.

Trains the first-to-spike network for 200 epochs on the complete corpus,
sweeps synapse precisions 5..8 through the quantized datapath (b-bit codes
into the same 8-bit neuron), runs the 8-bit model on the core simulator and
prints one summary next to the paper's reference points:

  digits  T=8, tau=8 on the 60k/10k IDX corpus; float test accuracy ~0.935.
          About 25 minutes on one core of a 2-core Xeon server with one BLAS
          thread: an epoch takes about 8 s, 1875 SGD minibatches of 32 at
          about 3.5 ms each, then scoring of 2000 train and all 10k test
          samples in blocks of 64 at about 0.08 ms a sample.
  har     T=16, tau=16 on the ~7k/3k feature corpus; float ~0.945.

On both, 5-bit synapses should land within 2 points of float; quantize
decides the float baseline and every width on the same rasters, so the drop
is paired sample for sample. On digits,
~0.75 of the correct decisions should be made by step 4 (cdf_correct[3],
the paper's "75% of the test performance in 4 steps").

Usage:
  python scripts/run_full.py --dataset digits --data-dir /path/to/idx --out runs/digits
  python scripts/run_full.py --dataset har --data-dir /path/to/har --out runs/har
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spikesim.cli import main as spikesim  # noqa: E402

# dataset -> (T, tau, reference float test accuracy)
DATASETS = {"digits": (8, 8, 0.935), "har": (16, 16, 0.945)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--dataset", choices=sorted(DATASETS), required=True)
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--out", default=None, help="defaults to runs/<dataset>_full")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--limit", type=int, default=None,
                    help="cap the splits for a quick smoke run")
    args = ap.parse_args(argv)
    T, tau, reference_acc = DATASETS[args.dataset]
    out = Path(args.out or f"runs/{args.dataset}_full")
    common = ["--dataset", args.dataset, "--data-dir", args.data_dir,
              "--seed", str(args.seed)]
    if args.limit is not None:
        common += ["--limit", str(args.limit)]

    steps = [
        ["train", "--epochs", str(args.epochs), "--T", str(T), "--tau", str(tau)],
        ["quantize", "--model", str(out / "train" / "model_float.bin"),
         "--bits", "5,6,7,8"],
        ["simulate", "--model", str(out / "quantize" / "model_q8.bin")],
    ]
    for command, *flags in steps:
        step = [command, *common, "--out", str(out / command), *flags]
        code = spikesim(step)
        if code:
            print(f"step failed with exit code {code}: {step}", file=sys.stderr)
            return code

    with open(out / "quantize" / "accuracy_vs_bits.csv") as fh:
        rows = list(csv.DictReader(fh))
    float_acc = float(rows[0]["float_baseline"])
    acc5 = next(float(r["test_acc"]) for r in rows if r["bits"] == "5")
    with open(out / "simulate" / "latency_cdf.csv") as fh:
        step4 = next(r for r in csv.DictReader(fh) if r["t"] == "4")

    print(f"\n=== {args.dataset} full-run summary ===")
    print(f"float test accuracy:        {float_acc:.4f}  (reference ~{reference_acc})")
    print(f"5-bit accuracy drop:        {float_acc - acc5:+.4f} (reference <= 0.02; "
          "same rasters as the float baseline)")
    print(f"decided within 4 steps:     {float(step4['cdf_all']):.4f}  (cdf_all[3])")
    print(f"correct within 4 steps:     {float(step4['cdf_correct']):.4f}  "
          "(cdf_correct[3]; digits reference ~0.75)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
