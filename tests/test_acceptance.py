"""Acceptance gate: every release criterion, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.  Full-scale benchmark reproductions (long, need the real
corpora) are marked `full` and enabled with --full.
"""

import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest

from spikesim.cli import EXIT_OK, _load_split_pair, main
from spikesim.core import CoreGeometry, first_to_spike_batch, latency_cdf, map_model_to_memory
from spikesim.datasets import (
    Dataset,
    load_digits,
    load_har,
    load_model,
    normalize_splits,
    save_model,
    write_idx_images,
    write_idx_labels,
)
from spikesim.glm import GlmModel, SpikeTrain, encoded_chunks, rate_encode, sigmoid
from spikesim.perf import (
    REFERENCE_EFFICIENCY,
    compute_report,
    energy_per_step,
    gsops,
)
from spikesim.quantize import (
    LFSR_PERIOD,
    QuantizedModel,
    _accumulator_sums,
    derive_lfsr_seed,
    evaluate_quantized,
    first_to_spike_quantized,
    lfsr_next,
    pwl_sigmoid,
    quantize_model,
)
from spikesim.training import TrainConfig, evaluate_float, fts_gradient, fts_log_prob, fts_objective, train


def report(criterion, ok, detail):
    print(f"\n[acceptance {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_gsops_exactness():
    ok = gsops(100.0, 256) == 25.6 and gsops(250.0, 256) == 64.0
    report(1, ok, "25.6 GSOPS at 100 MHz x 256 and 64 GSOPS at 250 MHz x 256, exact")


def test_criterion_02_reference_table_reconstruction():
    entries = {(e.technology, e.bits): e for e in compute_report().entries}
    worst = 0.0
    for bits, ref in REFERENCE_EFFICIENCY.items():
        for tech, (per_w, per_w_mm2) in ref.items():
            e = entries[(tech, bits)]
            worst = max(
                worst,
                abs(e.gsops_per_w - per_w) / per_w,
                abs(e.gsops_per_w_mm2 - per_w_mm2) / per_w_mm2,
            )
    ratios = compute_report().area_efficiency_ratios
    ratios_ok = all(3.0 <= ratios[b] <= 4.1 for b in (5, 6, 7, 8))
    ok = worst <= 0.02 and ratios_ok
    report(
        2, ok,
        f"16 efficiency cells within {worst * 100:.2f}% (<=2%), area-efficiency "
        f"ratios {min(ratios.values()):.2f}..{max(ratios.values()):.2f} in [3.0, 4.1]",
    )


def test_criterion_03_pwl_fidelity():
    codes = np.arange(-128, 128)
    outputs = pwl_sigmoid(codes)
    err = np.max(np.abs(outputs / 256.0 - sigmoid(codes / 8.0)))
    monotone = bool(np.all(np.diff(outputs) >= 0))
    sums = {int(pwl_sigmoid(q) + pwl_sigmoid(-q)) for q in range(-127, 128)}
    ok = err <= 0.02 and monotone and sums <= {255, 256}
    report(
        3, ok,
        f"256-code sweep: max |PWL - sigmoid| = {err:.4f} (<=0.02), "
        f"monotone={monotone}, symmetry sums={sorted(sums)}",
    )


def _fd_gradients(model, train_, c, h=1e-5):
    grad_w = np.zeros_like(model.weights)
    it = np.nditer(model.weights, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        model.weights[idx] += h
        hi = fts_objective(model, train_, c)
        model.weights[idx] -= 2 * h
        lo = fts_objective(model, train_, c)
        model.weights[idx] += h
        grad_w[idx] = (hi - lo) / (2 * h)
        it.iternext()
    grad_g = np.zeros_like(model.biases)
    for i in range(model.n_outputs):
        model.biases[i] += h
        hi = fts_objective(model, train_, c)
        model.biases[i] -= 2 * h
        lo = fts_objective(model, train_, c)
        model.biases[i] += h
        grad_g[i] = (hi - lo) / (2 * h)
    return grad_w, grad_g


def test_criterion_04_gradient_correctness():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        n_inputs = int(rng.integers(1, 7))
        n_outputs = int(rng.integers(1, 5))
        duration = int(rng.integers(1, 6))
        window = int(rng.integers(1, duration + 1))
        model = GlmModel(
            n_inputs=n_inputs, n_outputs=n_outputs,
            presentation_time=duration, window=window,
            weights=rng.normal(size=(n_inputs, n_outputs, window)),
            biases=rng.normal(size=n_outputs),
        )
        train_ = SpikeTrain(
            raster=rng.integers(0, 2, size=(n_inputs, duration)),
            sign=rng.choice([-1, 1], size=n_inputs),
        )
        c = int(rng.integers(n_outputs))
        aw, ag = fts_gradient(model, train_, c)
        fw, fg = _fd_gradients(model, train_, c)
        analytic = np.concatenate([aw.ravel(), ag.ravel()])
        fd = np.concatenate([fw.ravel(), fg.ravel()])
        rel = np.linalg.norm(analytic - fd) / max(
            np.linalg.norm(analytic), np.linalg.norm(fd), 1e-8
        )
        worst = max(worst, rel)
    ok = worst < 1e-4
    report(4, ok, f"100 random instances: worst FD relative error {worst:.2e} (<1e-4)")


def _pattern_enumeration_prob(u, c, t):
    """Probability of (c fires first, exactly at t) by summing over every
    spike pattern of the first t steps."""
    n_outputs, _ = u.shape
    g = sigmoid(u[:, :t])
    total = 0.0
    for pattern in itertools.product((0, 1), repeat=n_outputs * t):
        s = np.array(pattern).reshape(n_outputs, t)
        if s[[i for i in range(n_outputs) if i != c], :].any():
            continue
        if s[c, : t - 1].any() or s[c, t - 1] != 1:
            continue
        prob = np.prod(np.where(s == 1, g, 1 - g))
        total += prob
    return total


def test_criterion_05_probability_mass():
    rng = np.random.default_rng(505)
    worst_mass = 0.0
    for n_outputs in (1, 2, 3):
        for duration in (1, 2, 3, 4):
            for _ in range(20):
                u = rng.normal(scale=2.5, size=(n_outputs, duration))
                mass = sum(
                    math.exp(fts_log_prob(u, c, t))
                    for c in range(n_outputs)
                    for t in range(1, duration + 1)
                )
                worst_mass = max(worst_mass, mass)
    # spot-check the event semantics against pattern enumeration
    u = rng.normal(size=(2, 3))
    for c, t in ((0, 1), (1, 2), (0, 3)):
        direct = math.exp(fts_log_prob(u, c, t))
        enumerated = _pattern_enumeration_prob(u, c, t)
        assert direct == pytest.approx(enumerated, rel=1e-9)
    ok = worst_mass <= 1.0 + 1e-9
    report(
        5, ok,
        f"first-spike outcome mass <= 1 for T<=4, outputs<=3 "
        f"(max {worst_mass:.12f}); matches pattern enumeration",
    )


def _oracle_kernel_sums(qm, raster, sign, t):
    sums = []
    for i in range(qm.n_outputs):
        acc = 0
        for j in range(qm.n_inputs):
            for d in range(1, qm.window + 1):
                step = t - d
                if step >= 1 and raster[j, step - 1]:
                    acc += int(sign[j]) * int(qm.w_codes[j, i, d - 1])
        sums.append(acc)
    return np.array(sums, dtype=np.int64)


def test_criterion_06_core_oracle_equivalence():
    rng = np.random.default_rng(606)
    checked = 0
    for _ in range(1000):
        n_inputs = int(rng.integers(1, 6))
        n_outputs = int(rng.integers(1, 7))
        window = int(rng.integers(1, 4))
        duration = 4
        qm = QuantizedModel(
            bits=8,
            w_codes=rng.integers(-127, 128, size=(n_inputs, n_outputs, window)),
            gamma_codes=rng.integers(-127, 128, size=n_outputs),
            w_min=-1.0, w_max=1.0, gamma_min=-0.5, gamma_max=0.5,
            presentation_time=duration, window=window,
        )
        geom = CoreGeometry(n_inputs=n_inputs, n_outputs=n_outputs, window=window)
        image = map_model_to_memory(qm, geom)
        raster = rng.integers(0, 2, size=(n_inputs, duration)).astype(np.uint8)
        sign = rng.choice([-1, 1], size=n_inputs)
        # the sums simulate runs: the datapath over the codes read from the array
        kmat, _, exact = image.model_operands(n_inputs, n_outputs, window)
        sums = _accumulator_sums(raster[None], sign[None], kmat, window, exact)[0]
        for t in range(1, duration + 1):
            want = _oracle_kernel_sums(qm, raster, sign, t)
            assert np.array_equal(sums[t - 1], want), "integer mismatch"
            checked += n_outputs
    report(6, True, f"1000 random 8-bit instances: accumulators of the core's "
                    f"datapath == direct windowed-sum oracle, exact ({checked} neuron-steps)")


def test_criterion_07_lfsr_period_and_rate():
    state = 0x1D87
    lows = np.empty(LFSR_PERIOD, dtype=np.int64)
    seen_zero = False
    for i in range(LFSR_PERIOD):
        lows[i] = state & 0xFF
        state = lfsr_next(state)
        seen_zero |= state == 0
    period_ok = state == 0x1D87 and not seen_zero
    worst_dev = max(
        abs(np.count_nonzero(lows < p) / LFSR_PERIOD - p / 256) for p in range(256)
    )
    ok = period_ok and worst_dev < 0.01
    report(
        7, ok,
        f"period 65535, zero never reached, worst spike-rate deviation "
        f"{worst_dev:.2e} (<0.01)",
    )


class _Arrays:
    def __init__(self, mags, signs, labels, n_classes):
        self._mags, self._signs = mags, signs
        self.labels, self.n_classes = labels, n_classes

    def magnitudes(self):
        return self._mags

    def signs(self):
        return self._signs


def _separable_task(rng, n=60):
    protos = np.array([[0.9, 0.9, 0.05, 0.05], [0.05, 0.05, 0.9, 0.9]])
    labels = rng.integers(0, 2, size=n)
    mags = np.clip(protos[labels] + rng.normal(scale=0.02, size=(n, 4)), 0, 1)
    return _Arrays(mags, np.ones((n, 4), dtype=np.int8), labels, 2)


def _digit_subset(tmp_path, n_train=1000, n_test=200):
    """Real digit corpus if IDX files are available, otherwise the bundled
    8x8 handwritten digits written through the IDX loader."""
    data_dir = os.environ.get("SPIKESIM_DATA", "")
    candidates = [Path(data_dir)] if data_dir else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for root in candidates:
        img = root / "train-images-idx3-ubyte"
        lab = root / "train-labels-idx1-ubyte"
        for suffix in ("", ".gz"):
            if img.with_name(img.name + suffix).exists():
                train_ds = load_digits(
                    img.with_name(img.name + suffix),
                    lab.with_name(lab.name + suffix), "train",
                )
                train_ds.features = train_ds.features[: n_train + n_test]
                train_ds.labels = train_ds.labels[: n_train + n_test]
                return _split(train_ds, n_train, n_test)
    sklearn_digits = pytest.importorskip("sklearn.datasets")
    bunch = sklearn_digits.load_digits()
    rng = np.random.default_rng(8)
    order = rng.permutation(len(bunch.target))[: n_train + n_test]
    pixels = np.round(bunch.data[order] * 255.0 / 16.0).astype(np.uint8)
    labels = bunch.target[order].astype(np.uint8)
    write_idx_images(tmp_path / "img.idx", pixels, 8, 8)
    write_idx_labels(tmp_path / "lab.idx", labels)
    ds = load_digits(tmp_path / "img.idx", tmp_path / "lab.idx", "train")
    return _split(ds, n_train, n_test)


def _split(ds, n_train, n_test):
    train_ds = Dataset(
        features=ds.features[:n_train], labels=ds.labels[:n_train],
        split="train", n_classes=ds.n_classes,
        norm_min=ds.norm_min, norm_max=ds.norm_max,
    )
    test_ds = Dataset(
        features=ds.features[n_train : n_train + n_test],
        labels=ds.labels[n_train : n_train + n_test],
        split="test", n_classes=ds.n_classes,
        norm_min=ds.norm_min, norm_max=ds.norm_max,
    )
    return train_ds, test_ds


def test_criterion_08_desk_scale_learning(tmp_path):
    rng = np.random.default_rng(808)
    toy = _separable_task(rng)
    toy_model, toy_metrics = train(
        toy, toy,
        TrainConfig(presentation_time=4, window=4, epochs=50,
                    learning_rate=0.1, batch_size=8, seed=17),
    )
    toy_best = max(m.train_accuracy for m in toy_metrics)

    train_ds, test_ds = _digit_subset(tmp_path)
    config = TrainConfig(
        presentation_time=8, window=8, epochs=50, learning_rate=0.2,
        batch_size=32, seed=21, train_eval_cap=100, test_eval_cap=100,
    )
    model, _ = train(train_ds, test_ds, config)
    digit_acc = evaluate_float(
        model, test_ds.magnitudes(), test_ds.signs(), test_ds.labels,
        np.random.default_rng(99),
    )
    ok = toy_best >= 0.95 and digit_acc >= 0.80
    report(
        8, ok,
        f"separable toy best train acc {toy_best:.3f} (>=0.95) in <=50 epochs; "
        f"digits subset (1000/200, T=8, tau=8, 50 epochs) test acc "
        f"{digit_acc:.3f} (>=0.80)",
    )


def test_criterion_11_quick_start_learns_and_quantizes(tmp_path):
    # the README quick start end to end, with no download and no scikit-learn
    t, q = tmp_path / "t", tmp_path / "q"
    common = ["--dataset", "synthetic", "--seed", "1"]
    assert main(["train", *common, "--out", str(t), "--epochs", "30",
                 "--lr", "0.2", "--T", "8", "--tau", "8"]) == EXIT_OK
    assert main(["quantize", *common, "--out", str(q),
                 "--model", str(t / "model_float.bin"), "--bits", "5,6,7,8"]) == EXIT_OK

    float_acc = float((t / "metrics.csv").read_text().splitlines()[-1].split(",")[2])
    rows = [r.split(",") for r in (q / "accuracy_vs_bits.csv").read_text().splitlines()[1:]]
    accs = {int(r[0]): float(r[1]) for r in rows}
    worst = max(abs(acc - float_acc) for acc in accs.values())

    # simulate each precision against the evaluator at that b on simulate's
    # draws: same rasters, same LFSR seeds
    _, test_ds = _load_split_pair("synthetic", None, 1, None)
    agree, identical = {}, True
    for bits in sorted(accs):
        s = tmp_path / f"s{bits}"
        assert main(["simulate", *common, "--out", str(s),
                     "--model", str(q / f"model_q{bits}.bin")]) == EXIT_OK
        qm = load_model(q / f"model_q{bits}.bin").model
        rng = np.random.default_rng(1)
        evaluator = []
        for k, (mag, sign) in enumerate(zip(test_ds.magnitudes(), test_ds.signs())):
            raster = rate_encode(mag, qm.presentation_time, rng).raster
            cls, t_d = first_to_spike_quantized(qm, raster[None], sign[None],
                                                [derive_lfsr_seed(1, k)])
            evaluator.append([str(cls[0]), str(t_d[0] or -1)])
        simulated = [r.split(",")[2:4]
                     for r in (s / "decisions.csv").read_text().splitlines()[1:]]
        agree[bits] = sum(a == b for a, b in zip(simulated, evaluator))
        identical &= simulated == evaluator

    n = len(test_ds.labels)
    ok = (float_acc >= 0.7 and worst <= 0.1 and len(accs) == 4
          and identical)
    report(
        11, ok,
        f"synthetic quick start: float test acc {float_acc:.3f} (>=0.7); "
        f"b=5..8 acc {[accs[b] for b in sorted(accs)]} within {worst:.3f} of float "
        f"(<=0.1); simulate == evaluator at each b on "
        f"{[f'{agree[b]}/{n}' for b in sorted(agree)]} samples",
    )


def test_criterion_09_simulate_determinism(tmp_path):
    rng = np.random.default_rng(909)
    model = GlmModel(
        n_inputs=16, n_outputs=4, presentation_time=6, window=4,
        weights=rng.normal(scale=0.5, size=(16, 4, 4)),
        biases=rng.normal(scale=0.5, size=4),
    )
    qm = quantize_model(model, 8)
    artifact = tmp_path / "model_q8.bin"
    save_model(artifact, qm, {"bits": 8})
    args = ["simulate", "--dataset", "synthetic", "--model", str(artifact),
            "--seed", "7", "--limit", "40"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == EXIT_OK
    assert main(args + ["--out", str(out_b)]) == EXIT_OK
    identical = (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    report(9, identical, "rerun with identical seed: trace.csv byte-identical")


def test_criterion_10_energy_accounting():
    step = energy_per_step(365, 535.0)
    ok = step.memory_nj == 195.275 and energy_per_step(1, 535.0).memory_nj == 0.535
    report(
        10, ok,
        f"365 word lines x 535 pJ = {step.memory_nj} nJ memory component, exact",
    )


# ---------------------------------------------------------------------------
# full-scale reproductions (hours; real corpora required); enable with --full
# ---------------------------------------------------------------------------


def _require_real_digits():
    data_dir = os.environ.get("SPIKESIM_DATA", "data")
    root = Path(data_dir)
    needed = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
              "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    found = {}
    for stem in needed:
        for suffix in ("", ".gz"):
            p = root / (stem + suffix)
            if p.exists():
                found[stem] = p
                break
    if len(found) != 4:
        pytest.skip(f"full digit corpus not found under {root}")
    return found


@pytest.mark.full
def test_full_digits_pipeline(tmp_path):
    files = _require_real_digits()
    train_ds = load_digits(files["train-images-idx3-ubyte"],
                           files["train-labels-idx1-ubyte"], "train")
    test_ds = load_digits(files["t10k-images-idx3-ubyte"],
                          files["t10k-labels-idx1-ubyte"], "test")
    config = TrainConfig(
        presentation_time=8, window=8, epochs=200, learning_rate=0.05,
        batch_size=32, seed=1, train_eval_cap=2000, test_eval_cap=2000,
    )
    model, _ = train(train_ds, test_ds, config)
    mags, signs, labels = test_ds.magnitudes(), test_ds.signs(), test_ds.labels
    float_acc = evaluate_float(model, mags, signs, labels, np.random.default_rng(2))
    print(f"\nfull digits float accuracy: {float_acc:.4f} (target ~0.935)")
    assert float_acc >= 0.925

    accs = {}
    for bits in (5, 6, 7, 8):
        qm = quantize_model(model, bits)
        accs[bits] = evaluate_quantized(qm, mags, signs, labels, seed=3, limit=2000)
        print(f"b={bits} quantized accuracy: {accs[bits]:.4f}")
    assert accs[5] >= float_acc - 0.02

    qm = quantize_model(model, 8)
    geom = CoreGeometry(n_inputs=qm.n_inputs, n_outputs=qm.n_outputs,
                        window=qm.window, bits=qm.bits)
    image = map_model_to_memory(qm, geom)
    rng = np.random.default_rng(4)
    decision_time = []
    for start, rasters in encoded_chunks(mags[:2000], qm.presentation_time, rng):
        stop = start + len(rasters)
        seeds = [derive_lfsr_seed(4, k) for k in range(start, stop)]
        decision_time.append(
            first_to_spike_batch(image, qm, rasters, signs[start:stop], seeds)[1]
        )
    cdf, _ = latency_cdf(np.concatenate(decision_time), qm.presentation_time)
    print(f"fraction decided within 4 steps: {cdf[3]:.4f} (target ~0.75)")
    assert 0.65 <= cdf[3] <= 0.85


@pytest.mark.full
def test_full_har_accuracy():
    data_dir = Path(os.environ.get("SPIKESIM_DATA", "data"))
    paths = {}
    for split in ("train", "test"):
        for prefix in ("X", "y"):
            for candidate in (data_dir / f"{prefix}_{split}.txt",
                              data_dir / split / f"{prefix}_{split}.txt"):
                if candidate.exists():
                    paths[(prefix, split)] = candidate
    if len(paths) != 4:
        pytest.skip(f"activity-recognition corpus not found under {data_dir}")
    train_ds = load_har(paths[("X", "train")], paths[("y", "train")], "train")
    test_ds = load_har(paths[("X", "test")], paths[("y", "test")], "test")
    normalize_splits(train_ds, test_ds)
    config = TrainConfig(
        presentation_time=16, window=16, epochs=200, learning_rate=0.05,
        batch_size=32, seed=1, train_eval_cap=2000, test_eval_cap=1000,
    )
    model, _ = train(train_ds, test_ds, config)
    acc = evaluate_float(
        model, test_ds.magnitudes(), test_ds.signs(), test_ds.labels,
        np.random.default_rng(2),
    )
    print(f"\nfull activity-recognition accuracy: {acc:.4f} (target ~0.945)")
    assert acc >= 0.93
