"""Tiny corpora, on disk in the formats the CLI reads or in memory as
splits, used only by tests."""

import numpy as np

from spikesim.datasets import Dataset, write_idx_images, write_idx_labels


def separable_task(rng, n_samples=60):
    """A two-class split of four positive inputs: each class drives its own
    pair of inputs near 0.9 and the other pair near 0.05."""
    protos = np.array([[0.9, 0.9, 0.05, 0.05], [0.05, 0.05, 0.9, 0.9]])
    labels = rng.integers(0, 2, size=n_samples)
    mags = np.clip(protos[labels] + rng.normal(scale=0.02, size=(n_samples, 4)), 0.0, 1.0)
    return Dataset(mags, np.ones((n_samples, 4), dtype=np.int8), labels, "train", 2)


def split_of(magnitudes, signs, labels=None):
    """The "test" Dataset of the arrays given: labels all 0 unless given,
    and one class more than the largest label."""
    labels = np.zeros(len(magnitudes), dtype=np.int64) if labels is None else labels
    return Dataset(magnitudes, signs, labels, "test", int(np.max(labels, initial=0)) + 1)


def rows(split, index, name=None):
    """The samples of split that index selects, as a split of their own,
    named name or as split is."""
    return Dataset(split.magnitudes[index], split.signs[index], split.labels[index],
                   name or split.split, split.n_classes)


def write_digit_corpus(root, n_train, n_test, side=5, seed=0, test_side=None):
    """IDX train/t10k image and label files of side x side random pixels
    (test_side x test_side in t10k, if given), labels cycling through the
    10 classes."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    for prefix, n, s in (("train", n_train, side), ("t10k", n_test, test_side or side)):
        pixels = rng.integers(0, 256, size=(n, s * s), dtype=np.uint8)
        write_idx_images(root / f"{prefix}-images-idx3-ubyte", pixels, s, s)
        write_idx_labels(root / f"{prefix}-labels-idx1-ubyte", np.arange(n) % 10)
    return root


def write_har_corpus(root, n_train, n_test, n_features=12, seed=0, test_features=None):
    """X_{split}.txt rows of signed features (test_features of them in the
    test split, if given) and y_{split}.txt labels 1..6."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    for split, n, width in (("train", n_train, n_features),
                            ("test", n_test, test_features or n_features)):
        rows = rng.uniform(-1.0, 1.0, size=(n, width))
        (root / f"X_{split}.txt").write_text(
            "".join(" ".join(f"{v:.6f}" for v in row) + "\n" for row in rows))
        (root / f"y_{split}.txt").write_text(
            "".join(f"{k % 6 + 1}\n" for k in range(n)))
    return root
