"""Batch command-line interface: train, quantize, simulate, perf.

Every command resolves its configuration (including the one seed that
drives all randomness), writes it as run_config.json next to the
outputs, and emits deterministic CSV/JSON files, all through _write_csv
and _write_json: reruns with the same arguments at a fixed BLAS thread
count produce byte-identical outputs.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .core import latency_cdf, map_model_to_memory, save_image, unpack_model, wordline_reads
from .datasets import (
    ArtifactError,
    DataFormatError,
    _check_widths,
    _read_text,
    load_digits,
    load_har,
    load_model,
    make_synthetic,
    save_model,
)
from .perf import compute_report, default_config, render_report
from .quantize import DATAPATH_BITS, accuracies, decide_blocks, quantize_model
from .training import TrainConfig, TrainingDiverged, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(ValueError):
    pass


# run_config.json field -> the parsed argument it records; a command
# without that argument records null
_RUN_CONFIG_FIELDS = {
    "command": "command", "dataset": "dataset", "data_dir": "data_dir",
    "seed": "seed", "epochs": "epochs", "presentation_time": "T",
    "window": "tau", "bits": "bits", "limit": "limit", "model_path": "model",
    "perf_config_path": "perf_config", "learning_rate": "lr",
    "batch_size": "batch_size",
}


def _write_csv(path, header, rows):
    """Write one CSV output: the header row, then the rows, each ending in LF."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, obj):
    """Write one JSON output: indent 2, sorted keys, a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _create_out(args) -> Path:
    """Create --out and write run_config.json into it.  Each command calls
    this after its last argument check, so a rejected command leaves no
    output directory behind.  A path that cannot be a directory, such as
    an existing file, is a usage error."""
    out_dir = Path(args.out)
    config = {field: getattr(args, dest, None)
              for field, dest in _RUN_CONFIG_FIELDS.items()}
    config["out_dir"] = str(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create --out {out_dir}: {exc.strerror}") from None
    _write_json(out_dir / "run_config.json", config)
    return out_dir


_DIGIT_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def _find(root: Path, *names: str) -> Path:
    """The first of root/name that exists."""
    for name in names:
        if (root / name).exists():
            return root / name
    raise DataFormatError(f"could not find {' or '.join(names)} under {root}")


def _load_split_pair(dataset: str, data_dir: str | None, seed: int, limit: int | None):
    if dataset == "synthetic":
        # one task: the test split reuses the train split's class prototypes
        train_ds = make_synthetic(256, seed=seed, split="train")
        test_ds = make_synthetic(64, seed=seed, sample_seed=seed + 1, split="test")
    elif data_dir is None:
        raise UsageError(f"--data-dir is required for the {dataset} dataset")
    elif dataset == "digits":
        root = Path(data_dir)
        train_ds, test_ds = (
            load_digits(*(_find(root, stem, stem + ".gz", stem.replace("-idx", ".idx"))
                          for stem in stems), split)
            for split, stems in _DIGIT_NAMES.items()
        )
    elif dataset == "har":
        root = Path(data_dir)
        train_ds, test_ds = load_har(*(
            [_find(root, f"{prefix}_{split}.txt", f"{split}/{prefix}_{split}.txt")
             for prefix in ("X", "y")]
            for split in ("train", "test")
        ))
    else:
        raise UsageError(f"unknown dataset {dataset!r}")
    _check_widths(train_ds.n_features, test_ds.n_features)

    for ds in (train_ds, test_ds):
        ds.magnitudes, ds.signs, ds.labels = (
            ds.magnitudes[:limit], ds.signs[:limit], ds.labels[:limit])
        if ds.n_samples == 0:
            raise DataFormatError(f"the {ds.split} split has no samples")
    return train_ds, test_ds


def _model_and_test_split(args, kind: str):
    """The --model artifact's model, checked to be a `kind` model that takes
    as many inputs as the test split has features, and that split."""
    artifact = load_model(args.model)
    if artifact.kind != kind:
        wanted = "float" if kind == "glm" else kind
        raise UsageError(f"{args.model} holds a {artifact.kind} model; "
                         f"{args.command} needs a {wanted} artifact")
    _, test_ds = _load_split_pair(args.dataset, args.data_dir, args.seed, args.limit)
    if test_ds.n_features != artifact.model.n_inputs:
        raise UsageError(
            f"model expects {artifact.model.n_inputs} inputs but dataset has "
            f"{test_ds.n_features} features"
        )
    return artifact.model, test_ds


def cmd_train(args) -> int:
    train_config = TrainConfig(
        presentation_time=args.T, window=args.tau, epochs=args.epochs,
        learning_rate=args.lr, batch_size=args.batch_size, seed=args.seed,
    )
    train_config.validate()
    train_ds, test_ds = _load_split_pair(args.dataset, args.data_dir, args.seed,
                                         args.limit)

    out_dir = _create_out(args)
    model, metrics = train(train_ds, test_ds, train_config)
    save_model(
        out_dir / "model_float.bin", model,
        {"seed": args.seed, "epochs": args.epochs, "T": args.T, "tau": args.tau,
         "dataset": args.dataset},
    )
    _write_csv(out_dir / "metrics.csv", ["epoch", "train_acc", "test_acc", "mean_loss"],
               ([m.epoch, f"{m.train_accuracy:.6f}", f"{m.test_accuracy:.6f}",
                 f"{m.mean_loss:.8f}"] for m in metrics))
    final = metrics[-1]
    print(f"trained {args.epochs} epochs on {args.dataset}: "
          f"train_acc={final.train_accuracy:.4f} test_acc={final.test_accuracy:.4f}")
    print(f"wrote {out_dir / 'model_float.bin'} and {out_dir / 'metrics.csv'}")
    return EXIT_OK


def cmd_quantize(args) -> int:
    model, test_ds = _model_and_test_split(args, "glm")
    # accuracy_vs_bits.csv lists --bits only, so another sweep's artifacts
    # beside it would pass for this one's
    swept = {f"model_q{bits}.bin" for bits in args.bits}
    stale = sorted(p.name for p in Path(args.out).glob("model_q*.bin") if p.name not in swept)
    if stale:
        raise UsageError(f"--out {args.out} holds {', '.join(stale)}, widths not in "
                         "--bits; use another --out or remove them")

    out_dir = _create_out(args)
    qms = [quantize_model(model, bits) for bits in args.bits]
    # the float baseline and every width decide the same rasters
    float_acc, *accs = accuracies(test_ds, np.random.default_rng(args.seed), args.seed,
                                  qms, model)
    for bits, qm, acc in zip(args.bits, qms, accs):
        save_model(
            out_dir / f"model_q{bits}.bin", qm,
            {"seed": args.seed, "bits": bits, "dataset": args.dataset,
             "source": str(args.model)},
        )
        print(f"b={bits}: accuracy={acc:.4f} (float baseline {float_acc:.4f})")

    _write_csv(out_dir / "accuracy_vs_bits.csv", ["bits", "test_acc", "float_baseline"],
               ([bits, f"{acc:.6f}", f"{float_acc:.6f}"] for bits, acc in zip(args.bits, accs)))
    print(f"wrote {out_dir / 'accuracy_vs_bits.csv'}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    qm, test_ds = _model_and_test_split(args, "quantized")
    image = map_model_to_memory(qm)

    out_dir = _create_out(args)
    save_image(out_dir / "core_image.bin", image)
    labels = test_ds.labels
    blocks = [
        (predicted, decision_time, wordline_reads(rasters, qm.window))
        for _, rasters, [(predicted, decision_time)] in decide_blocks(
            test_ds, np.random.default_rng(args.seed), args.seed, [unpack_model(image)])
    ]
    predicted, decision_time, reads = (np.concatenate(parts) for parts in zip(*blocks))
    correct, fallback = predicted == labels, decision_time == 0
    t_csv = np.where(fallback, -1, decision_time)

    _write_csv(out_dir / "decisions.csv",
               ["sample_id", "true_label", "predicted", "decision_time", "fallback", "correct"],
               zip(range(len(labels)), labels.tolist(), predicted.tolist(), t_csv.tolist(),
                   fallback.astype(int).tolist(), correct.astype(int).tolist()))

    def trace_rows():
        for k, (cls, t_d, sample_reads) in enumerate(
            zip(predicted.tolist(), t_csv.tolist(), reads.tolist())
        ):
            steps = t_d if t_d > 0 else len(sample_reads)  # the fallback runs every step
            yield from ([k, step, n, 0, "", ""]
                        for step, n in enumerate(sample_reads[: steps - 1], start=1))
            yield [k, steps, sample_reads[steps - 1], 1, cls, t_d]

    _write_csv(out_dir / "trace.csv",
               ["sample_id", "step", "wordlines_read", "decided", "class", "t_d"], trace_rows())

    horizon = qm.presentation_time
    cdf_all, no_spike = latency_cdf(decision_time, horizon)
    if correct.any():
        cdf_correct, _ = latency_cdf(decision_time[correct], horizon)
    else:
        cdf_correct = np.zeros(horizon)
    _write_csv(out_dir / "latency_cdf.csv", ["t", "cdf_all", "cdf_correct"],
               ([t + 1, f"{cdf_all[t]:.6f}", f"{cdf_correct[t]:.6f}"] for t in range(horizon)))

    print(f"simulated {len(labels)} samples: accuracy={correct.mean():.4f} "
          f"no_spike={no_spike:.4f}")
    if horizon >= 4:
        print(f"fraction decided within 4 steps: {cdf_all[3]:.4f}; "
              f"of the correct decisions: {cdf_correct[3]:.4f}")
    print(f"wrote decisions.csv, trace.csv, latency_cdf.csv under {out_dir}")
    return EXIT_OK


def cmd_perf(args) -> int:
    try:
        perf_config = (json.loads(_read_text(args.perf_config)) if args.perf_config
                       else default_config())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{args.perf_config}: not JSON: {exc}") from None
    report = compute_report(perf_config)

    out_dir = _create_out(args)
    _write_json(out_dir / "perf_config.json", perf_config)
    _write_json(out_dir / "perf_report.json", report)
    text = render_report(report)
    (out_dir / "perf_report.txt").write_text(text)
    print(text, end="")
    print(f"wrote perf_report.json and perf_report.txt under {out_dir}")
    return EXIT_OK


def _int_at_least(lo: int):
    """An argparse type: an integer >= lo."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lo - 1
        if value < lo:
            raise argparse.ArgumentTypeError(
                f"must be an integer >= {lo}, not {text!r}")
        return value
    return parse


def _bits(text: str) -> list:
    """An argparse type: comma-separated precisions of the datapath."""
    try:
        bits = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects integers, not {text!r}") from None
    lo, hi = DATAPATH_BITS.start, DATAPATH_BITS.stop - 1
    if not bits or any(b not in DATAPATH_BITS for b in bits):
        raise argparse.ArgumentTypeError(f"values must be in [{lo}, {hi}]")
    if len(set(bits)) < len(bits):
        raise argparse.ArgumentTypeError(f"lists a precision more than once: {text!r}")
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
            p.add_argument("--limit", type=_int_at_least(1), default=None,
                           help="cap both splits at N samples")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=_int_at_least(0), default=0)

    p_train = sub.add_parser("train", help="train a float model")
    add_common(p_train)
    p_train.add_argument("--epochs", type=int, default=200)
    p_train.add_argument("--T", type=int, default=8, dest="T",
                         help="presentation time in steps")
    p_train.add_argument("--tau", type=int, default=8, help="spike window length")
    p_train.add_argument("--lr", type=float, default=0.05)
    p_train.add_argument("--batch-size", type=int, default=32)

    p_quant = sub.add_parser("quantize", help="sweep synapse precisions")
    add_common(p_quant)
    p_quant.add_argument("--model", required=True, help="float model artifact")
    p_quant.add_argument("--bits", type=_bits, default="5,6,7,8",
                         help="comma-separated precisions to evaluate")

    p_sim = sub.add_parser("simulate", help="run the core simulator")
    add_common(p_sim)
    p_sim.add_argument("--model", required=True, help="quantized model artifact")

    p_perf = sub.add_parser("perf", help="throughput/power/area report")
    add_common(p_perf, with_dataset=False)
    p_perf.add_argument("--perf-config", default=None,
                        help="JSON config (defaults to the built-in calibration)")
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: a parse leaves no state."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command.  cmd_<command> is looked up when it runs, so a
    function that replaces it in this module after the parser was built
    still runs."""
    try:
        args = _parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except (DataFormatError, ArtifactError, OSError) as exc:
        print(f"spikesim: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingDiverged as exc:
        print(f"spikesim: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # UsageError among them
        print(f"spikesim: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
