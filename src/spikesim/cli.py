"""Batch command-line interface: train, quantize, simulate, perf.

Every command resolves its configuration (including the one seed that
drives all randomness), writes it as run_config.json next to the
outputs, and emits deterministic CSV/JSON files: reruns with the same
arguments at a fixed BLAS thread count produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    CoreGeometry,
    first_to_spike_batch,
    latency_cdf,
    map_model_to_memory,
    save_image,
)
from .datasets import (
    ArtifactError,
    DataFormatError,
    load_digits,
    load_har,
    load_model,
    make_synthetic,
    normalize_splits,
    save_model,
)
from .glm import check_signs, encoded_chunks
from .perf import (
    compute_report,
    default_config,
    load_config,
    render_report,
    save_config,
)
from .quantize import (
    DATAPATH_BITS,
    derive_lfsr_seed,
    evaluate_quantized,
    quantize_model,
)
from .training import (
    TrainConfig,
    TrainingDiverged,
    evaluate_float,
    train,
    write_metrics_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    dataset: str | None
    data_dir: str | None
    out_dir: str
    seed: int
    epochs: int | None
    presentation_time: int | None
    window: int | None
    bits: list | None
    limit: int | None
    model_path: str | None
    perf_config_path: str | None
    learning_rate: float | None = None
    batch_size: int | None = None


def _write_run_config(out_dir: Path, config: RunConfig):
    with open(out_dir / "run_config.json", "w") as fh:
        json.dump(asdict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


_DIGIT_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _find_file(data_dir: Path, stem: str) -> Path:
    for variant in (stem, stem + ".gz", stem.replace("-idx", ".idx")):
        candidate = data_dir / variant
        if candidate.exists():
            return candidate
    raise DataFormatError(f"could not find {stem}[.gz] under {data_dir}")


def _load_split_pair(dataset: str, data_dir: str | None, seed: int, limit: int | None):
    if dataset == "synthetic":
        # one task: the test split reuses the train split's class prototypes
        train_ds = make_synthetic(256, seed=seed, split="train")
        test_ds = make_synthetic(64, seed=seed, sample_seed=seed + 1, split="test")
    elif dataset == "digits":
        if data_dir is None:
            raise UsageError("--data-dir is required for the digits dataset")
        root = Path(data_dir)
        pairs = {}
        for split, (img_stem, lab_stem) in _DIGIT_NAMES.items():
            pairs[split] = load_digits(
                _find_file(root, img_stem), _find_file(root, lab_stem), split
            )
        train_ds, test_ds = pairs["train"], pairs["test"]
    elif dataset == "har":
        if data_dir is None:
            raise UsageError("--data-dir is required for the har dataset")
        root = Path(data_dir)

        def har_file(split, prefix):
            for candidate in (root / f"{prefix}_{split}.txt",
                              root / split / f"{prefix}_{split}.txt"):
                if candidate.exists():
                    return candidate
            raise DataFormatError(f"could not find {prefix}_{split}.txt under {root}")

        train_ds = load_har(har_file("train", "X"), har_file("train", "y"), "train")
        test_ds = load_har(har_file("test", "X"), har_file("test", "y"), "test")
        normalize_splits(train_ds, test_ds)
    else:
        raise UsageError(f"unknown dataset {dataset!r}")

    if limit is not None:
        if limit < 1:
            raise UsageError("--limit must be >= 1")
        for ds in (train_ds, test_ds):
            ds.features = ds.features[:limit]
            ds.labels = ds.labels[:limit]
    return train_ds, test_ds


def cmd_train(args) -> int:
    out_dir = Path(args.out)
    config = RunConfig(
        command="train", dataset=args.dataset, data_dir=args.data_dir,
        out_dir=str(out_dir), seed=args.seed, epochs=args.epochs,
        presentation_time=args.T, window=args.tau, bits=None, limit=args.limit,
        model_path=None, perf_config_path=None,
        learning_rate=args.lr, batch_size=args.batch_size,
    )
    train_ds, test_ds = _load_split_pair(args.dataset, args.data_dir, args.seed,
                                         args.limit)
    train_config = TrainConfig(
        presentation_time=args.T, window=args.tau, epochs=args.epochs,
        learning_rate=args.lr, batch_size=args.batch_size, seed=args.seed,
    )
    try:
        train_config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_run_config(out_dir, config)
    model, metrics = train(train_ds, test_ds, train_config)
    save_model(
        out_dir / "model_float.bin", model,
        {"seed": args.seed, "epochs": args.epochs, "T": args.T, "tau": args.tau,
         "dataset": args.dataset},
    )
    write_metrics_csv(out_dir / "metrics.csv", metrics)
    final = metrics[-1]
    print(f"trained {args.epochs} epochs on {args.dataset}: "
          f"train_acc={final.train_accuracy:.4f} test_acc={final.test_accuracy:.4f}")
    print(f"wrote {out_dir / 'model_float.bin'} and {out_dir / 'metrics.csv'}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    out_dir = Path(args.out)
    bits_list = _parse_bits(args.bits)
    config = RunConfig(
        command="quantize", dataset=args.dataset, data_dir=args.data_dir,
        out_dir=str(out_dir), seed=args.seed, epochs=None,
        presentation_time=None, window=None, bits=bits_list, limit=args.limit,
        model_path=args.model, perf_config_path=None,
    )
    artifact = load_model(args.model)
    if artifact.kind != "glm":
        raise UsageError(f"{args.model} holds a {artifact.kind} model; "
                         "quantize needs a float artifact")
    model = artifact.model
    _, test_ds = _load_split_pair(args.dataset, args.data_dir, args.seed, args.limit)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_run_config(out_dir, config)
    mags, signs, labels = test_ds.magnitudes(), test_ds.signs(), test_ds.labels
    float_acc = evaluate_float(
        model, mags, signs, labels, np.random.default_rng(args.seed)
    )
    qms = [quantize_model(model, bits) for bits in bits_list]
    accs = evaluate_quantized(qms, mags, signs, labels, seed=args.seed)
    for bits, qm, acc in zip(bits_list, qms, accs):
        save_model(
            out_dir / f"model_q{bits}.bin", qm,
            {"seed": args.seed, "bits": bits, "dataset": args.dataset,
             "source": str(args.model)},
        )
        print(f"b={bits}: accuracy={acc:.4f} (float baseline {float_acc:.4f})")

    with open(out_dir / "accuracy_vs_bits.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["bits", "test_acc", "float_baseline"])
        for bits, acc in zip(bits_list, accs):
            writer.writerow([bits, f"{acc:.6f}", f"{float_acc:.6f}"])
    print(f"wrote {out_dir / 'accuracy_vs_bits.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    out_dir = Path(args.out)
    config = RunConfig(
        command="simulate", dataset=args.dataset, data_dir=args.data_dir,
        out_dir=str(out_dir), seed=args.seed, epochs=None,
        presentation_time=None, window=None, bits=None, limit=args.limit,
        model_path=args.model, perf_config_path=None,
    )
    artifact = load_model(args.model)
    if artifact.kind != "quantized":
        raise UsageError(f"{args.model} holds a {artifact.kind} model; "
                         "simulate needs a quantized artifact")
    qm = artifact.model
    _, test_ds = _load_split_pair(args.dataset, args.data_dir, args.seed, args.limit)
    if test_ds.n_features != qm.n_inputs:
        raise UsageError(
            f"model expects {qm.n_inputs} inputs but dataset has "
            f"{test_ds.n_features} features"
        )

    geom = CoreGeometry(n_inputs=qm.n_inputs, n_outputs=qm.n_outputs,
                        window=qm.window, bits=qm.bits)
    image = map_model_to_memory(qm, geom)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_image(out_dir / "core_image.bin", image)

    _write_run_config(out_dir, config)
    mags, labels = test_ds.magnitudes(), test_ds.labels
    signs = check_signs(test_ds.signs())
    rng = np.random.default_rng(args.seed)

    decisions, correct = [], []
    with open(out_dir / "decisions.csv", "w", newline="") as dec_fh, open(
        out_dir / "trace.csv", "w", newline=""
    ) as trace_fh:
        dec_writer = csv.writer(dec_fh, lineterminator="\n")
        dec_writer.writerow(
            ["sample_id", "true_label", "predicted", "decision_time",
             "fallback", "correct"]
        )
        trace_writer = csv.writer(trace_fh, lineterminator="\n")
        trace_writer.writerow(
            ["sample_id", "step", "wordlines_read", "decided", "class", "t_d"]
        )
        for start, rasters in encoded_chunks(mags, qm.presentation_time, rng):
            stop = start + len(rasters)
            seeds = [derive_lfsr_seed(args.seed, k) for k in range(start, stop)]
            predicted, decision_time, reads = first_to_spike_batch(
                image, qm, rasters, signs[start:stop], seeds
            )
            decisions += decision_time.tolist()
            correct += (predicted == labels[start:stop]).tolist()
            dec_rows, trace_rows = [], []
            for k, cls, t_d, sample_reads in zip(
                range(start, stop), predicted.tolist(), decision_time.tolist(),
                reads.tolist(),
            ):
                steps = t_d or len(sample_reads)  # the fallback runs every step
                t_csv = t_d or -1
                dec_rows.append(
                    [k, labels[k], cls, t_csv, int(t_d == 0), int(cls == labels[k])]
                )
                trace_rows += [[k, step, n, 0, "", ""]
                               for step, n in enumerate(sample_reads[: steps - 1], start=1)]
                trace_rows.append([k, steps, sample_reads[steps - 1], 1, cls, t_csv])
            dec_writer.writerows(dec_rows)
            trace_writer.writerows(trace_rows)

    horizon = qm.presentation_time
    cdf_all, no_spike = latency_cdf(decisions, horizon)
    correct = np.array(correct)
    if correct.any():
        cdf_correct, _ = latency_cdf(np.array(decisions)[correct], horizon)
    else:
        cdf_correct = np.zeros(horizon)
    with open(out_dir / "latency_cdf.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "cdf_all", "cdf_correct"])
        for t in range(horizon):
            writer.writerow([t + 1, f"{cdf_all[t]:.6f}", f"{cdf_correct[t]:.6f}"])

    print(f"simulated {len(labels)} samples: accuracy={correct.mean():.4f} "
          f"no_spike={no_spike:.4f}")
    if horizon >= 4:
        print(f"fraction decided within 4 steps: {cdf_all[3]:.4f}; "
              f"of the correct decisions: {cdf_correct[3]:.4f}")
    print(f"wrote decisions.csv, trace.csv, latency_cdf.csv under {out_dir}")
    return EXIT_OK


def cmd_perf(args) -> int:
    out_dir = Path(args.out)
    config = RunConfig(
        command="perf", dataset=None, data_dir=None, out_dir=str(out_dir),
        seed=args.seed, epochs=None, presentation_time=None, window=None,
        bits=None, limit=None, model_path=None,
        perf_config_path=args.perf_config,
    )
    perf_config = (
        load_config(args.perf_config) if args.perf_config else default_config()
    )
    report = compute_report(perf_config)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_run_config(out_dir, config)
    save_config(out_dir / "perf_config.json", perf_config)
    with open(out_dir / "perf_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    text = render_report(report)
    (out_dir / "perf_report.txt").write_text(text)
    print(text, end="")
    print(f"wrote perf_report.json and perf_report.txt under {out_dir}")
    return EXIT_OK


def _parse_bits(text: str):
    try:
        bits = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--bits expects integers, got {text!r}") from None
    lo, hi = DATAPATH_BITS.start, DATAPATH_BITS.stop - 1
    if not bits or any(b not in DATAPATH_BITS for b in bits):
        raise UsageError(f"--bits values must be in [{lo}, {hi}]")
    return bits


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spikesim",
        description="Train, quantize, simulate and benchmark probabilistic "
                    "first-to-spike networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_dataset=True):
        if with_dataset:
            p.add_argument("--dataset", choices=("digits", "har", "synthetic"),
                           default="synthetic")
            p.add_argument("--data-dir", default=None)
            p.add_argument("--limit", type=int, default=None,
                           help="cap both splits at N samples")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p_train = sub.add_parser("train", help="train a float model")
    add_common(p_train)
    p_train.add_argument("--epochs", type=int, default=200)
    p_train.add_argument("--T", type=int, default=8, dest="T",
                         help="presentation time in steps")
    p_train.add_argument("--tau", type=int, default=8, help="spike window length")
    p_train.add_argument("--lr", type=float, default=0.05)
    p_train.add_argument("--batch-size", type=int, default=32)
    p_train.set_defaults(func=cmd_train)

    p_quant = sub.add_parser("quantize", help="sweep synapse precisions")
    add_common(p_quant)
    p_quant.add_argument("--model", required=True, help="float model artifact")
    p_quant.add_argument("--bits", default="5,6,7,8",
                         help="comma-separated precisions to evaluate")
    p_quant.set_defaults(func=cmd_quantize)

    p_sim = sub.add_parser("simulate", help="run the core simulator")
    add_common(p_sim)
    p_sim.add_argument("--model", required=True, help="quantized model artifact")
    p_sim.set_defaults(func=cmd_simulate)

    p_perf = sub.add_parser("perf", help="throughput/power/area report")
    add_common(p_perf, with_dataset=False)
    p_perf.add_argument("--perf-config", default=None,
                        help="JSON config (defaults to the built-in calibration)")
    p_perf.set_defaults(func=cmd_perf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"spikesim: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataFormatError, ArtifactError, FileNotFoundError) as exc:
        print(f"spikesim: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"spikesim: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"spikesim: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
