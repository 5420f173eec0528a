"""Tiny corpora on disk in the formats the CLI reads, used only by tests."""

import numpy as np

from spikesim.datasets import write_idx_images, write_idx_labels


def write_digit_corpus(root, n_train, n_test, side=5, seed=0):
    """IDX train/t10k image and label files of side x side random pixels,
    labels cycling through the 10 classes."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        pixels = rng.integers(0, 256, size=(n, side * side), dtype=np.uint8)
        write_idx_images(root / f"{prefix}-images-idx3-ubyte", pixels, side, side)
        write_idx_labels(root / f"{prefix}-labels-idx1-ubyte", np.arange(n) % 10)
    return root


def write_har_corpus(root, n_train, n_test, n_features=12, seed=0):
    """X_{split}.txt rows of signed features and y_{split}.txt labels 1..6."""
    rng = np.random.default_rng(seed)
    root.mkdir(parents=True, exist_ok=True)
    for split, n in (("train", n_train), ("test", n_test)):
        rows = rng.uniform(-1.0, 1.0, size=(n, n_features))
        (root / f"X_{split}.txt").write_text(
            "".join(" ".join(f"{v:.6f}" for v in row) + "\n" for row in rows))
        (root / f"y_{split}.txt").write_text(
            "".join(f"{k % 6 + 1}\n" for k in range(n)))
    return root
