"""Seeded inputs and simulate artifacts for the benchmark's three workloads.

A workload's task (its class prototypes or feature profiles), its train split
and the core-256 artifact are drawn from the fixed TASK_SEED; its test split
is drawn from a ``numpy.random.Generator`` built from the benchmark seed, so
the same seed writes byte-identical files.  With the train split fixed (and
train run with TASK_SEED) every seed trains the same model, so the decision
steps simulate runs to stay alike from seed to seed.  Both splits share the
task, so held-out accuracy measures the task the model was trained on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spikesim.datasets import save_model, write_idx_images, write_idx_labels
from spikesim.quantize import QuantizedModel

from reference import HAR_NAMES, IDX_NAMES, quantize_with_zero, read_artifact


#: the quantize sweep, as passed to --bits
BITS = "5,6,7,8"
#: shape of the core-256 simulate artifact: the default 256x256x7 geometry
CORE_SHAPE = (256, 256, 7)
CORE_T = 16
#: seed of every workload's task, the same for every benchmark seed
TASK_SEED = 20080218


@dataclass(frozen=True)
class Workload:
    """One pipeline configuration: input shape, training and simulate setup."""

    name: str
    dataset: str       # the CLI's --dataset
    n_features: int
    n_classes: int
    n_train: int
    n_test: int
    T: int
    tau: int
    epochs: int
    lr: float
    batch_size: int
    accuracy_floor: float   # final held-out float accuracy the model must reach
    sim_check_samples: int  # simulate samples replayed through the reference
    repeats: dict           # runs per round of each command, by its rate's name
    strokes: int = 0        # strokes per class prototype of IDX inputs
    core: bool = False      # simulate the core-256 artifact, not the trained model

    def setup(self, data_dir: Path, seed: int):
        """Write the input files, and the core-256 artifact when it is used.

        Returns the core artifact's QuantizedModel, or None.
        """
        task, rng = np.random.default_rng(TASK_SEED), np.random.default_rng(seed)
        if self.dataset == "har":
            _write_har(task, rng, data_dir, self.n_train, self.n_test,
                       self.n_features, self.n_classes)
        else:
            side = int(round(self.n_features ** 0.5))
            _write_strokes(task, rng, data_dir, side, self.n_train, self.n_test,
                           self.strokes)
        if self.core:
            return write_core_artifact(data_dir / "sim_model.bin", seed)
        return None

    def sim_horizon(self) -> int:
        return CORE_T if self.core else self.T

    def float_shape(self):
        return (self.n_features, self.n_classes, self.tau)


DIGITS = Workload(
    name="digits", dataset="digits", n_features=784, n_classes=10,
    n_train=120, n_test=60, T=8, tau=8, epochs=3, lr=2.0, batch_size=8,
    accuracy_floor=0.5, sim_check_samples=16, strokes=3,
    repeats={"train.samples_per_s": 1, "quantize.samples_per_s": 3,
             "simulate.steps_per_s": 4},
)
HAR = Workload(
    name="har", dataset="har", n_features=561, n_classes=6,
    n_train=100, n_test=50, T=16, tau=16, epochs=4, lr=1.2, batch_size=8,
    accuracy_floor=0.5, sim_check_samples=12,
    repeats={"train.samples_per_s": 1, "quantize.samples_per_s": 1,
             "simulate.steps_per_s": 4},
)
CORE_256 = Workload(
    name="core-256", dataset="digits", n_features=256, n_classes=10,
    n_train=100, n_test=80, T=8, tau=8, epochs=4, lr=2.0, batch_size=8,
    accuracy_floor=0.35, sim_check_samples=8, strokes=4, core=True,
    repeats={"train.samples_per_s": 2, "quantize.samples_per_s": 3,
             "simulate.steps_per_s": 2},
)
WORKLOADS = {w.name: w for w in (DIGITS, HAR, CORE_256)}


def _stroke_prototypes(rng, n_classes, side, n_strokes, length):
    """One image per class made of a few thick random-walk strokes in [0, 1]."""
    protos = np.zeros((n_classes, side, side))
    for c in range(n_classes):
        for _ in range(n_strokes):
            y, x = rng.uniform(0.2 * side, 0.8 * side, size=2)
            angle = rng.uniform(0.0, 2 * np.pi)
            for _ in range(length):
                angle += rng.normal(0.0, 0.4)
                y = float(np.clip(y + np.sin(angle), 1, side - 2))
                x = float(np.clip(x + np.cos(angle), 1, side - 2))
                iy, ix = int(y), int(x)
                patch = protos[c, iy - 1:iy + 2, ix - 1:ix + 2]
                np.maximum(patch, 0.5, out=patch)
                protos[c, iy, ix] = 1.0
    return protos


def _stroke_samples(rng, protos, n):
    """Shifted, faded, pixel-dropped copies of the prototypes plus sparse salt."""
    labels = rng.integers(0, len(protos), size=n)
    shifts = rng.integers(-1, 2, size=(n, 2))
    images = np.stack([np.roll(protos[c], tuple(s), axis=(0, 1))
                       for c, s in zip(labels, shifts)])
    images *= rng.uniform(0.6, 1.0, size=(n, 1, 1))
    images *= rng.random(images.shape) < 0.9
    salt = (rng.random(images.shape) < 0.01) & (images == 0)
    images[salt] = rng.uniform(0.2, 0.6, size=int(salt.sum()))
    return np.round(images.reshape(n, -1) * 255).astype(np.uint8), labels


def _write_strokes(task, rng, data_dir, side, n_train, n_test, n_strokes):
    protos = _stroke_prototypes(task, 10, side, n_strokes, length=side)
    for split, n, gen in (("train", n_train, task), ("test", n_test, rng)):
        images, labels = _stroke_samples(gen, protos, n)
        img_name, lab_name = IDX_NAMES[split]
        write_idx_images(data_dir / img_name, images, side, side)
        write_idx_labels(data_dir / lab_name, labels)


def _write_har(task, rng, data_dir, n_train, n_test, n_features, n_classes):
    """Signed features in [-1, 1]: a shared profile plus per-class offsets."""
    base = task.normal(0.0, 0.4, size=n_features)
    means = np.clip(base + task.normal(0.0, 0.35, size=(n_classes, n_features)),
                    -0.9, 0.9)
    for split, n, gen in (("train", n_train, task), ("test", n_test, rng)):
        labels = gen.integers(0, n_classes, size=n)
        x = np.clip(means[labels] + gen.normal(0.0, 0.25, size=(n, n_features)),
                    -1.0, 1.0)
        x_name, y_name = HAR_NAMES[split]
        np.savetxt(data_dir / x_name, x, fmt="%.7e")
        np.savetxt(data_dir / y_name, labels + 1, fmt="%d")


def write_core_artifact(path: Path, seed: int):
    """The core-256 simulate artifact: random 8-bit kernel codes, floor biases.

    Every bias sits at -8, the floor of the 1.4.3 membrane format, so the
    PWL sigmoid gives 0 and no neuron fires on the empty step-1 window; a
    neuron fires only once its kernel sum lifts it.  The kernel step spreads
    decisions over most of the presentation.  The codes come from TASK_SEED;
    `seed` is recorded in the artifact's metadata.
    """
    rng = np.random.default_rng(TASK_SEED)
    n_in, n_out, window = CORE_SHAPE
    w_codes = rng.integers(-127, 128, size=(n_in, n_out, window))
    w_bound = 0.07
    gamma_codes = np.full(n_out, -127)
    gamma_min = -8.0 * 128 / 127
    qm = QuantizedModel(
        bits=8, w_codes=w_codes, gamma_codes=gamma_codes,
        w_min=-w_bound, w_max=w_bound, gamma_min=gamma_min, gamma_max=0.0,
        presentation_time=CORE_T, window=window,
    )
    save_model(path, qm, {"benchmark": "core-256", "seed": seed})
    return qm


def write_trained_artifact(path: Path, float_model_path: Path, seed: int):
    """8-bit simulate artifact from a trained float model, zero-inclusive ranges.

    Kernels and biases are each quantized over [min(v, 0), max(v, 0)], so
    all-negative trained biases keep their values instead of collapsing.
    """
    fields = read_artifact(float_model_path)
    ints, arrays = fields["ints"], fields["arrays"]
    kernels = np.einsum("tk,jik->jit", arrays["basis"].astype(np.float64),
                        arrays["weights"])
    w_codes, w_lo, w_hi = quantize_with_zero(kernels, 8)
    g_codes, g_lo, g_hi = quantize_with_zero(arrays["biases"], 8)
    qm = QuantizedModel(
        bits=8, w_codes=w_codes, gamma_codes=g_codes,
        w_min=w_lo, w_max=w_hi, gamma_min=g_lo, gamma_max=g_hi,
        presentation_time=ints["presentation_time"], window=ints["window"],
    )
    save_model(path, qm, {"benchmark": "trained", "seed": seed})
    return qm
