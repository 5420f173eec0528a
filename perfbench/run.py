"""Pipeline benchmark: spikesim's train -> quantize -> simulate, in process.

Usage (from the repository root):

    python3 perfbench/run.py --workload digits|har|core-256|all \
        --seed N --seconds S --trace 0|1

One workload runs in this process: it writes its inputs from the seed (timed
as set-up), then repeats whole rounds of train, quantize (b = 5..8) and
simulate through ``spikesim.cli.main`` until S seconds have passed, checking
every command's outputs each round.  The last line of standard output is one
JSON object with the operations attempted and failed and the metrics: the
end-to-end rates with ``--trace 0``, the per-layer spans and counts with
``--trace 1``.  ``--workload all`` runs each workload in its own process.

The end-to-end times are given at a reference machine speed: a fixed
calibration kernel, which uses nothing of spikesim, runs just before every
timed call, and each round's times are scaled by
REFERENCE_CALIBRATION_S over the median kernel time of that round.  The
2-core shared host this benchmark was written on changes speed by up to 1.9x
for seconds to minutes at a time; the scaling takes that out, while a change
to spikesim does not move the kernel.  The unscaled figures are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
# One BLAS thread, so every run does the same single-threaded work whatever
# the other cores of a small shared machine are doing.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import spikesim.cli  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from workloads import BITS, TASK_SEED, WORKLOADS, write_trained_artifact  # noqa: E402

#: the calibration kernel's time, about as it runs when the machine described
#: in README.md runs fast; the reference speed the e2e times are scaled to
REFERENCE_CALIBRATION_S = 0.020
#: set-ups per round, each one more setup_s sample
SETUPS_PER_ROUND = 2

E2E_UNITS = {
    "setup_s": "s",
    "train.samples_per_s": "samples/s",
    "quantize.samples_per_s": "samples/s",
    "simulate.steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}


_CAL_A = np.linspace(-1.0, 1.0, 512).reshape(64, 8)
_CAL_B = np.linspace(1.0, -1.0, 512).reshape(8, 64)


def _calibration_kernel():
    """Fixed work in the pipeline's mix: interpreter arithmetic, small numpy ops."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(1000):
        total += float(np.tanh(_CAL_A @ _CAL_B)[:4, :4].sum())
    return perf_counter() - start


class Clock:
    """Times calls, with the calibration kernel run just before each."""

    def __init__(self):
        self.kernel_times = []

    def time(self, fn, *args):
        """(fn(*args), seconds as timed)."""
        gc.collect()
        self.kernel_times.append(_calibration_kernel())
        start = perf_counter()
        result = fn(*args)
        return result, perf_counter() - start

    def slowdown(self) -> float:
        """Median kernel time since the last call over REFERENCE_CALIBRATION_S."""
        factor = median(self.kernel_times) / REFERENCE_CALIBRATION_S
        self.kernel_times.clear()
        return factor


CLOCK = Clock()


def _main_quietly(argv):
    """spikesim.cli.main with its output kept in a buffer: (exit code, output)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = spikesim.cli.main(argv)
    except Exception:
        code = None
        sink.write(traceback.format_exc())
    return code, sink.getvalue()


def _cli(argv):
    """Run one CLI command; returns (ok, seconds as timed).  Its output is
    shown only when the command fails."""
    (code, output), seconds = CLOCK.time(_main_quietly, [str(a) for a in argv])
    if code != 0:
        sys.stderr.write(f"{argv[0]} exited with {code}:\n{output}\n")
    return code == 0, seconds


def _check(fn, *args):
    """Run one output check; returns (ok, its return value or None)."""
    try:
        return True, fn(*args)
    except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
        sys.stderr.write(f"{fn.__name__} failed: {exc!r}\n")
        return False, None


class Pipeline:
    """One workload's inputs and the commands of one round."""

    def __init__(self, wl, seed: int, out: Path):
        self.wl, self.seed, self.out = wl, seed, out
        self.data = out / "inputs"
        self.setup_times = []  # as timed, since the last round
        self.core_qm = self.setup(self.data)
        self.inputs = reference.held_out_inputs(self.data, wl.dataset)
        self.replay = reference.rasters(self.inputs[0], wl.sim_horizon(), seed,
                                        wl.sim_check_samples)
        self.bits = [int(b) for b in BITS.split(",")]
        self.first_counts = None

    def setup(self, data: Path):
        """Write the workload's inputs into `data`, timed into setup_times."""
        shutil.rmtree(data, ignore_errors=True)
        data.mkdir()
        qm, seconds = CLOCK.time(self.wl.setup, data, self.seed)
        self.setup_times.append(seconds)
        return qm

    def round(self):
        """train, quantize and simulate, each run wl.repeats times and each
        run followed by its output check.

        Returns (ok per operation, {rate name: (work, seconds as timed)}).
        A simulate check also fails when the simulated counts differ
        from the first simulate's.
        """
        wl, data, seed = self.wl, self.data, self.seed
        train_dir, quant_dir, sim_dir = (self.out / d for d in ("train", "quantize", "simulate"))
        common = ["--dataset", wl.dataset, "--data-dir", data]
        float_model = train_dir / "model_float.bin"
        ops, work = [], {}

        def repeat(metric, out_dir, argv, check):
            """Run one command and its check; check returns the work done, or
            None when it fails.  The rate counts the runs that passed."""
            total = seconds = 0
            for _ in range(wl.repeats[metric]):
                shutil.rmtree(out_dir, ignore_errors=True)
                ok, t = _cli([*argv, "--out", out_dir])
                done = _check(check)[1]
                ops.extend((ok, done is not None))
                if ok and done is not None:
                    total, seconds = total + done, seconds + t
            work[metric] = (total, seconds)

        def trained():
            checks.check_train(train_dir, wl.epochs, wl.float_shape(), wl.accuracy_floor)
            return wl.epochs * wl.n_train

        def quantized():
            checks.check_quantize(quant_dir, float_model, self.bits)
            return (1 + len(self.bits)) * wl.n_test

        def simulated():
            if qm is None:
                raise checks.CheckFailed("no simulate artifact was written")
            counts = checks.check_simulate(sim_dir, qm, self.inputs, seed, self.replay)
            if self.first_counts is None:
                self.first_counts = counts
            elif counts != self.first_counts:
                raise checks.CheckFailed(f"simulated counts {counts} differ from "
                                         f"the first run's {self.first_counts}")
            return counts["core.executed_steps"]

        # the model is trained with the fixed TASK_SEED, so it is the same for
        # every benchmark seed and the simulate artifact decides alike
        repeat("train.samples_per_s", train_dir,
               ["train", *common, "--seed", TASK_SEED, "--epochs", wl.epochs,
                "--T", wl.T, "--tau", wl.tau, "--lr", wl.lr,
                "--batch-size", wl.batch_size], trained)
        repeat("quantize.samples_per_s", quant_dir,
               ["quantize", *common, "--seed", seed, "--model", float_model,
                "--bits", BITS], quantized)
        if self.core_qm is None:
            sim_model = self.out / "sim_model.bin"
            qm = _check(write_trained_artifact, sim_model, float_model, seed)[1]
        else:
            sim_model, qm = data / "sim_model.bin", self.core_qm
        repeat("simulate.steps_per_s", sim_dir,
               ["simulate", *common, "--seed", seed, "--model", sim_model], simulated)
        return ops, work


def run_workload(wl, seed: int, seconds: float, trace: bool):
    out = HERE / "runs" / f"{wl.name}{'-trace' if trace else ''}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    pipeline = Pipeline(wl, seed, out)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    ops, rates, raw_rates, setup_s, raw_setup_s = [], [], [], [], []
    with tracer or contextlib.nullcontext():
        start = perf_counter()
        while not rates or perf_counter() - start < seconds:
            if tracer:
                tracer.round = len(rates)
            # set up again each round, so setup_s samples the same stretch
            # of machine time as the rates
            for _ in range(SETUPS_PER_ROUND):
                pipeline.setup(out / "setup-repeat")
            round_ops, work = pipeline.round()
            slowdown = CLOCK.slowdown()
            ops += round_ops
            raw = {name: n / t if t else 0.0 for name, (n, t) in work.items()}
            raw_rates.append(raw)
            rates.append({name: r * slowdown for name, r in raw.items()})
            raw_setup_s += pipeline.setup_times
            setup_s += [t / slowdown for t in pipeline.setup_times]
            pipeline.setup_times.clear()
            sys.stderr.write(f"round {len(rates)}: slowdown {slowdown:.2f} " + " ".join(
                f"{k}={v:.1f}" for k, v in rates[-1].items()) + "\n")

    (out / "rounds.json").write_text(json.dumps(
        {"rates": rates, "rates_as_timed": raw_rates, "setup_s": setup_s,
         "setup_s_as_timed": raw_setup_s}, indent=1))
    failed = ops.count(False)
    e2e = {name: median(r[name] for r in rates) for name in rates[0]}
    e2e["setup_s"] = median(setup_s)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    as_timed = {name: median(r[name] for r in raw_rates) for name in raw_rates[0]}
    as_timed["setup_s"] = median(raw_setup_s)
    for name in sorted(as_timed):
        print(f"{wl.name:9s} as timed {name:29s} {as_timed[name]:14.6g} {E2E_UNITS[name]}")
    if trace:
        tracer.write(out / "spans.jsonl")
        for name in sorted(e2e):  # traced rates, for the tracing overhead
            print(f"{wl.name:9s} traced {name:31s} {e2e[name]:14.6g} {E2E_UNITS[name]}")
        metrics = tracer.per_round(list(range(len(rates))))
        metrics.update(pipeline.first_counts or dict.fromkeys(checks.SIMULATED_COUNTS, 0))
        units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
    else:
        metrics, units = e2e, E2E_UNITS

    for name in sorted(metrics):
        print(f"{wl.name:9s} {name:38s} {metrics[name]:14.6g} {units[name]}")
    print(f"{wl.name:9s} rounds={len(rates)} attempted={len(ops)} failed={failed}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }


def run_all(args) -> int:
    """Each workload in its own process; the combined result keys metrics
    by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
