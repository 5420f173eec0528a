"""Output checks, one per pipeline command; each raises CheckFailed on a fault.

The checks read the files the CLI wrote and compare them with properties of
the task or with the benchmark's own computations in ``reference``.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

import reference


SIMULATED_COUNTS = ("core.executed_steps", "core.wordline_reads", "core.lfsr_draws",
                    "core.step1_decisions", "core.fallbacks")


class CheckFailed(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_train(train_dir: Path, epochs: int, shape, accuracy_floor: float):
    """Loss falls from the first epoch to the last; held-out accuracy clears
    the floor; the float artifact has the configured shape."""
    rows = _rows(train_dir / "metrics.csv")
    _require(len(rows) == epochs, f"metrics.csv has {len(rows)} epochs, expected {epochs}")
    first, last = float(rows[0]["mean_loss"]), float(rows[-1]["mean_loss"])
    _require(last < first, f"mean loss rose from {first:.4f} to {last:.4f}")
    acc = float(rows[-1]["test_acc"])
    _require(acc >= accuracy_floor, f"test accuracy {acc:.3f} below {accuracy_floor}")
    weights = reference.read_artifact(train_dir / "model_float.bin")["arrays"]["weights"]
    _require(weights.shape == shape, f"float weights {weights.shape}, expected {shape}")


def check_quantize(quant_dir: Path, float_model: Path, bits_list):
    """Every model_q{b}.bin loads with codes in +-(2**(b-1) - 1), and every
    dequantized kernel lies within one step of the float kernel."""
    fields = reference.read_artifact(float_model)["arrays"]
    kernels = np.einsum("tk,jik->jit", fields["basis"].astype(np.float64),
                        fields["weights"])
    listed = [int(r["bits"]) for r in _rows(quant_dir / "accuracy_vs_bits.csv")]
    _require(listed == list(bits_list), f"accuracy_vs_bits.csv lists {listed}")
    for b in bits_list:
        art = reference.read_artifact(quant_dir / f"model_q{b}.bin")
        _require(art["kind"] == "quantized" and art["ints"]["bits"] == b,
                 f"model_q{b}.bin is not a {b}-bit quantized artifact")
        bound = 2 ** (b - 1) - 1
        w, gamma = art["arrays"]["w_codes"], art["arrays"]["gamma_codes"]
        _require(np.abs(w).max() <= bound and np.abs(gamma).max() <= bound,
                 f"b={b}: codes exceed +-{bound}")
        w_min, w_max = art["arrays"]["scales"][:2]
        step = (w_max - w_min) / 2 ** (b - 1)
        err = np.abs(w * step - kernels).max()
        _require(err <= step * (1 + 1e-9),
                 f"b={b}: dequantized kernel off by {err:.4g} > step {step:.4g}")


def check_simulate(sim_dir: Path, qm, inputs, seed: int, replay):
    """Check simulate's outputs and return its simulated counts.

    Every sample reads exactly the bias line at step 1, its trace rows stop at
    the decision step, latency_cdf.csv ends at 1 minus the no-spike share, and
    the first len(replay) samples match the reference datapath in class,
    decision step and word lines read per step.
    """
    mags, signs, labels = inputs
    decisions = _rows(sim_dir / "decisions.csv")
    _require(len(decisions) == len(labels),
             f"{len(decisions)} decisions for {len(labels)} samples")
    per_sample = [[] for _ in decisions]
    for row in _rows(sim_dir / "trace.csv"):
        per_sample[int(row["sample_id"])].append(row)
    horizon = qm.presentation_time
    for k, (dec, steps) in enumerate(zip(decisions, per_sample)):
        t_d = int(dec["decision_time"])
        _require([int(r["step"]) for r in steps] == list(range(1, len(steps) + 1)),
                 f"sample {k}: trace steps are not 1..n")
        _require(int(steps[0]["wordlines_read"]) == 1,
                 f"sample {k}: step 1 read {steps[0]['wordlines_read']} word lines")
        _require(len(steps) == (horizon if t_d == -1 else t_d),
                 f"sample {k}: {len(steps)} trace rows for decision step {t_d}")
        _require(steps[-1]["decided"] == "1" and
                 all(r["decided"] == "0" for r in steps[:-1]),
                 f"sample {k}: decided flag not on the last row only")

    fallbacks = sum(int(d["fallback"]) for d in decisions)
    cdf = _rows(sim_dir / "latency_cdf.csv")
    tail = float(cdf[-1]["cdf_all"])
    _require(len(cdf) == horizon and abs(tail - (1 - fallbacks / len(decisions))) < 1e-6,
             f"latency_cdf ends at {tail}, no-spike share {fallbacks / len(decisions)}")

    w_step = (qm.w_max - qm.w_min) / 2 ** (qm.bits - 1)
    gamma_step = (qm.gamma_max - qm.gamma_min) / 2 ** (qm.bits - 1)
    for k, raster in enumerate(replay):
        cls, t_d, reads = reference.first_to_spike(
            qm.w_codes, qm.gamma_codes, w_step, gamma_step, raster, signs[k],
            reference.lfsr_seed(seed, k))
        got = (int(decisions[k]["predicted"]), int(decisions[k]["decision_time"]),
               [int(r["wordlines_read"]) for r in per_sample[k]])
        _require(got == (cls, t_d, reads),
                 f"sample {k}: simulate gave class/step {got[:2]}, reference "
                 f"{(cls, t_d)}; reads {got[2]} vs {reads}")

    executed = sum(len(s) for s in per_sample)
    return dict(zip(SIMULATED_COUNTS, (
        executed,
        sum(int(r["wordlines_read"]) for s in per_sample for r in s),
        executed * qm.n_outputs,  # every executed step draws once per output
        sum(d["decision_time"] == "1" for d in decisions),
        fallbacks,
    )))
