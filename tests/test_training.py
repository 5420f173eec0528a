import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesim.glm import GlmModel, first_spike, kernel_matrix, sigmoid
from spikesim.training import (
    TrainConfig,
    TrainingDiverged,
    _batch_objective_and_gradient,
    _log_prob_series,
    evaluate_float,
    train,
)
from corpora import separable_task
from oracles import (
    batch_objective_and_gradient_windows,
    evaluate_float_loop,
    fts_log_prob,
    model_objective_and_gradient,
    windowed_potentials,
)


def product_form_log_prob(u, c, t):
    """Direct product evaluation of the first-spike-at-t probability."""
    n_outputs = u.shape[0]
    p = 1.0
    for i in range(n_outputs):
        if i == c:
            continue
        for tp in range(t):
            p *= 1.0 - 1.0 / (1.0 + math.exp(-u[i, tp]))
    for tp in range(t - 1):
        p *= 1.0 - 1.0 / (1.0 + math.exp(-u[c, tp]))
    p *= 1.0 / (1.0 + math.exp(-u[c, t - 1]))
    return math.log(p)


def log_prob(u, c, t):
    """_log_prob_series of potentials u (n_outputs, T) at label c, step t."""
    return _log_prob_series(np.asarray(u).T[None], np.array([c]))[0, t - 1]


def random_instance(rng, n_inputs=3, n_outputs=2, duration=4, window=3, scale=1.0):
    """A random model and one signed spike train: (model, raster, sign)."""
    model = GlmModel(
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        presentation_time=duration,
        window=window,
        weights=rng.normal(scale=scale, size=(n_inputs, n_outputs, window)),
        biases=rng.normal(scale=scale, size=n_outputs),
    )
    raster = rng.integers(0, 2, size=(n_inputs, duration))
    sign = rng.choice([-1, 1], size=n_inputs)
    return model, raster, sign


def potentials(model, raster, sign):
    """One train's potentials (T, n_outputs): windowed_potentials plus the bias."""
    kmat = kernel_matrix(model.weights)
    return windowed_potentials(raster[None], sign[None], kmat, model.window)[0] + model.biases


def objective(model, raster, sign, c):
    """The training objective on a batch of one: the log probability that
    neuron c fires first, at any step."""
    return model_objective_and_gradient(model, raster[None], sign[None], np.array([c]))[2]


def gradient(model, raster, sign, c):
    """The objective's gradient on a batch of one: (grad_w, grad_gamma)."""
    return model_objective_and_gradient(model, raster[None], sign[None], np.array([c]))[:2]


class TestFtsLogProb:
    """_log_prob_series, the per-step log probabilities SGD maximizes."""

    def test_two_neurons_flat_potentials(self):
        u = np.zeros((2, 1))
        assert log_prob(u, 0, 1) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_single_neuron_no_competition(self):
        u = np.zeros((1, 1))
        assert log_prob(u, 0, 1) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_matches_product_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.normal(scale=2.0, size=(3, 2))
            for c in range(3):
                for t in (1, 2):
                    want = product_form_log_prob(u, c, t)
                    assert log_prob(u, c, t) == pytest.approx(want, rel=1e-10)
                    assert fts_log_prob(u, c, t) == pytest.approx(want, rel=1e-10)

    def test_stable_for_extreme_potentials(self):
        u = np.full((2, 3), -500.0)
        assert np.isfinite(log_prob(u, 0, 3))
        u = np.full((2, 3), 500.0)
        assert np.isfinite(log_prob(u, 0, 1))

    def test_rejects_bad_indices(self):
        with pytest.raises(IndexError):
            _log_prob_series(np.zeros((1, 2, 2)), np.array([5]))

    def test_monotone_in_labeled_potential(self):
        rng = np.random.default_rng(12)
        u = rng.normal(size=(3, 3))
        base = log_prob(u, 1, 3)
        up = u.copy()
        up[1, 2] += 0.5
        assert log_prob(up, 1, 3) > base

    def test_decreasing_in_competitor_potentials(self):
        rng = np.random.default_rng(13)
        u = rng.normal(size=(3, 3))
        base = log_prob(u, 1, 3)
        for i in (0, 2):
            for tp in range(3):
                bumped = u.copy()
                bumped[i, tp] += 0.5
                assert log_prob(bumped, 1, 3) < base

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_probability_mass_never_exceeds_one(self, seed):
        rng = np.random.default_rng(seed)
        n_outputs = int(rng.integers(1, 4))
        duration = int(rng.integers(1, 5))
        u = rng.normal(scale=3.0, size=(n_outputs, duration))
        series = _log_prob_series(np.repeat(u.T[None], n_outputs, axis=0),
                                  np.arange(n_outputs))
        assert np.exp(series).sum() <= 1.0 + 1e-9


class TestFtsObjective:
    def test_single_step_equals_log_prob(self):
        rng = np.random.default_rng(21)
        model, _, _ = random_instance(rng, duration=1, window=1)
        raster, sign = rng.integers(0, 2, size=(3, 1)), np.ones(3, dtype=np.int8)
        u = potentials(model, raster, sign)
        assert objective(model, raster, sign, 0) == pytest.approx(
            fts_log_prob(u.T, 0, 1), rel=1e-12
        )

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            model, raster, sign = random_instance(rng, n_outputs=2, duration=3, window=2)
            u = potentials(model, raster, sign).T  # (n_outputs, T)
            for c in range(2):
                total = sum(
                    math.exp(product_form_log_prob(u, c, t)) for t in (1, 2, 3)
                )
                assert objective(model, raster, sign, c) == pytest.approx(
                    math.log(total), rel=1e-10
                )

    def test_suppressed_label_drives_objective_down(self):
        model = GlmModel.zeros(2, 2, 3, 2)
        raster, sign = np.zeros((2, 3), dtype=np.uint8), np.ones(2, dtype=np.int8)
        base = objective(model, raster, sign, 0)
        model.biases[0] = -40.0
        assert objective(model, raster, sign, 0) < base - 20


def finite_difference_gradients(model, raster, sign, c, h=1e-5):
    grad_w = np.zeros_like(model.weights)
    it = np.nditer(model.weights, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        model.weights[idx] += h
        hi = objective(model, raster, sign, c)
        model.weights[idx] -= 2 * h
        lo = objective(model, raster, sign, c)
        model.weights[idx] += h
        grad_w[idx] = (hi - lo) / (2 * h)
        it.iternext()
    grad_gamma = np.zeros_like(model.biases)
    for i in range(model.n_outputs):
        model.biases[i] += h
        hi = objective(model, raster, sign, c)
        model.biases[i] -= 2 * h
        lo = objective(model, raster, sign, c)
        model.biases[i] += h
        grad_gamma[i] = (hi - lo) / (2 * h)
    return grad_w, grad_gamma


def relative_error(a, b):
    num = np.linalg.norm(np.concatenate([x.ravel() for x in a])
                         - np.concatenate([x.ravel() for x in b]))
    den = max(
        np.linalg.norm(np.concatenate([x.ravel() for x in a])),
        np.linalg.norm(np.concatenate([x.ravel() for x in b])),
        1e-8,
    )
    return num / den


class TestFtsGradient:
    def test_zero_spike_train_has_zero_weight_gradient(self):
        rng = np.random.default_rng(31)
        model, _, _ = random_instance(rng, n_outputs=2)
        grad_w, grad_gamma = gradient(model, np.zeros((3, 4), dtype=np.uint8),
                                      np.ones(3, dtype=np.int8), 0)
        assert np.all(grad_w == 0)
        assert np.any(grad_gamma != 0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            model, raster, sign = random_instance(rng)
            c = int(rng.integers(model.n_outputs))
            got = gradient(model, raster, sign, c)
            want = finite_difference_gradients(model, raster, sign, c)
            assert relative_error(got, want) < 1e-4

    def test_symmetric_competitors_get_identical_gradients(self):
        rng = np.random.default_rng(33)
        model, _, _ = random_instance(rng, n_outputs=3)
        model.weights[:, 2, :] = model.weights[:, 1, :]
        model.biases[2] = model.biases[1]
        raster = rng.integers(0, 2, size=(3, 4))
        grad_w, grad_gamma = gradient(model, raster, np.ones(3, dtype=np.int8), 0)
        assert np.allclose(grad_w[:, 1, :], grad_w[:, 2, :], rtol=1e-12)
        assert grad_gamma[1] == pytest.approx(grad_gamma[2], rel=1e-12)

    def test_minibatch_matches_the_window_tensor_oracle(self):
        # the kernel GEMM and its adjoint against the (batch, T, n_in, window)
        # window tensor
        rng = np.random.default_rng(34)
        for _ in range(40):
            duration = int(rng.integers(1, 9))
            window = int(rng.integers(1, duration + 1))
            n_inputs, n_outputs = int(rng.integers(1, 9)), int(rng.integers(1, 5))
            model = GlmModel(
                n_inputs=n_inputs, n_outputs=n_outputs, presentation_time=duration,
                window=window, weights=rng.normal(size=(n_inputs, n_outputs, window)),
                biases=rng.normal(size=n_outputs),
            )
            batch = int(rng.integers(1, 6))
            rasters = (rng.random((batch, n_inputs, duration)) < 0.5).astype(np.float64)
            signs = rng.choice([-1.0, 1.0], size=(batch, n_inputs))
            labels = rng.integers(0, n_outputs, size=batch)
            got = model_objective_and_gradient(model, rasters, signs, labels)
            want = batch_objective_and_gradient_windows(model, rasters, signs, labels)
            for g, w in zip(got[:2], want[:2]):
                assert g.shape == w.shape
                assert np.allclose(g, w, rtol=1e-12, atol=1e-14)
            assert got[2] == pytest.approx(want[2], rel=1e-12)


def enumerate_decision_distribution(u):
    """Exact distribution of (class, decision step) for fixed potentials."""
    g = sigmoid(u)
    duration, n_outputs = u.shape
    probs = {}
    survive = 1.0
    for t in range(duration):
        lower_silent = 1.0
        for i in range(n_outputs):
            probs[(i, t + 1)] = survive * lower_silent * g[t, i]
            lower_silent *= 1.0 - g[t, i]
        survive *= np.prod(1.0 - g[t])
    probs[(int(np.argmax(u[-1])), None)] = survive
    return probs


def float_decisions(model, raster, sign, rng, trials):
    """glm.first_spike on `trials` independent spike draws over one train's
    float potentials, drawn as one block: (predicted, decision_time)."""
    u = potentials(model, raster, sign)
    spikes = rng.random((trials,) + u.shape) < sigmoid(u)
    return first_spike(spikes, np.broadcast_to(u[-1], (trials, u.shape[1])))


class TestInferFloat:
    def test_huge_bias_decides_immediately(self):
        model = GlmModel.zeros(2, 2, 4, 2)
        model.biases[:] = [-50.0, 50.0]
        predicted, decision_time = float_decisions(
            model, np.zeros((2, 4), dtype=np.uint8), np.ones(2, dtype=np.int8),
            np.random.default_rng(0), 100)
        assert np.all(predicted == 1)
        assert np.all(decision_time == 1)

    def test_silent_network_uses_fallback(self):
        model = GlmModel.zeros(2, 2, 4, 2)
        model.biases[:] = -50.0
        model.biases[1] = -49.0  # highest final potential
        predicted, decision_time = float_decisions(
            model, np.zeros((2, 4), dtype=np.uint8), np.ones(2, dtype=np.int8),
            np.random.default_rng(0), 100)
        assert np.all(predicted == 1)
        assert np.all(decision_time == 0)  # 0: the fallback

    def test_decision_distribution_matches_enumeration(self):
        rng = np.random.default_rng(41)
        model, raster, sign = random_instance(rng, n_outputs=2, duration=3, window=2)
        model.biases -= 1.0  # keep some no-spike mass
        expected = enumerate_decision_distribution(potentials(model, raster, sign))

        trials = 100_000
        predicted, decision_time = float_decisions(model, raster, sign, rng, trials)
        outcomes, counts = np.unique(np.stack([predicted, decision_time]), axis=1,
                                     return_counts=True)
        counts = {(int(c), int(t) or None): int(n) for (c, t), n in zip(outcomes.T, counts)}
        assert set(counts) <= set(expected)
        for key, p in expected.items():
            p_hat = counts.get(key, 0) / trials
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(p_hat - p) <= 3 * sigma + 1e-12, (key, p, p_hat)


class TestTrain:
    def test_learns_separable_task(self):
        rng = np.random.default_rng(51)
        data = separable_task(rng)
        config = TrainConfig(
            presentation_time=4, window=4, epochs=50, learning_rate=0.1,
            batch_size=8, seed=7,
        )
        model, metrics = train(data, data, config)
        assert max(m.train_accuracy for m in metrics) >= 0.95
        assert len(metrics) == 50

    def test_zero_learning_rate_changes_nothing(self):
        rng = np.random.default_rng(52)
        data = separable_task(rng, n_samples=16)
        config = TrainConfig(
            presentation_time=4, window=4, epochs=3, learning_rate=0.0,
            batch_size=8, seed=1,
        )
        model, _ = train(data, data, config)
        assert np.all(model.weights == 0)
        assert np.all(model.biases == 0)

    def test_fixed_seed_is_bit_reproducible(self):
        rng = np.random.default_rng(53)
        data = separable_task(rng, n_samples=24)
        config = TrainConfig(
            presentation_time=4, window=4, epochs=5, learning_rate=0.05,
            batch_size=8, seed=99,
        )
        m1, met1 = train(data, data, config)
        m2, met2 = train(data, data, config)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)
        assert met1 == met2

    def test_scoring_does_not_move_the_model(self):
        # one train split and config against two test splits that differ in
        # size and content: scoring draws from its own stream
        rng = np.random.default_rng(55)
        data = separable_task(rng, n_samples=24)
        config = TrainConfig(
            presentation_time=4, window=4, epochs=5, learning_rate=0.05,
            batch_size=8, seed=99,
        )
        m1, _ = train(data, separable_task(rng, n_samples=10), config)
        m2, _ = train(data, separable_task(rng, n_samples=37), config)
        assert m1.weights.tobytes() == m2.weights.tobytes()
        assert m1.biases.tobytes() == m2.biases.tobytes()

    def test_replays_sgd_and_scoring_streams(self):
        # SGD draws each epoch's permutation, then each minibatch's rasters,
        # from default_rng(seed); scoring draws from the seed's first child
        rng = np.random.default_rng(56)
        data = separable_task(rng, n_samples=20)
        config = TrainConfig(
            presentation_time=4, window=3, epochs=2, learning_rate=0.1,
            batch_size=8, seed=5,
        )
        model, metrics = train(data, data, config)

        want = GlmModel.zeros(4, 2, 4, 3)
        kmat = want.weights.transpose(0, 2, 1).reshape(4, -1)  # a view, as in train
        mags, signs, labels = data.magnitudes, data.signs, data.labels
        sgd = np.random.default_rng(5)
        score = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
        for m in metrics:
            order = sgd.permutation(20)
            for start in range(0, 20, 8):
                idx = order[start : start + 8]
                rasters = (sgd.random((len(idx), 4, 4)) < mags[idx][:, :, None]).astype(float)
                grad_kmat, grad_gamma, _ = _batch_objective_and_gradient(
                    kmat, want.biases, rasters, signs[idx].astype(float), labels[idx]
                )
                kmat += 0.1 * grad_kmat
                want.biases += 0.1 * grad_gamma
            assert m.train_accuracy == evaluate_float(want, mags, signs, labels, score)
            assert m.test_accuracy == evaluate_float(want, mags, signs, labels, score)
        assert np.array_equal(model.weights, want.weights)
        assert np.array_equal(model.biases, want.biases)

    def test_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            TrainConfig(presentation_time=4, window=4, epochs=0).validate()
        with pytest.raises(ValueError):
            TrainConfig(presentation_time=2, window=4).validate()
        with pytest.raises(ValueError):
            TrainConfig(presentation_time=4, window=4, learning_rate=-1.0).validate()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self):
        rng = np.random.default_rng(54)
        data = separable_task(rng, n_samples=24)
        config = TrainConfig(
            presentation_time=4, window=4, epochs=5, learning_rate=1e308,
            batch_size=8, seed=3,
        )
        with pytest.raises(TrainingDiverged):
            train(data, data, config)


class TestEvaluateFloat:
    def test_agrees_with_per_sample_loop_in_distribution(self):
        # the blocks draw rasters and spikes in another order than the
        # per-sample loop, so over 200 seeds each the mean accuracies agree
        # within 4 standard errors
        rng = np.random.default_rng(60)
        model = GlmModel(
            n_inputs=6, n_outputs=3, presentation_time=7, window=4,
            weights=rng.normal(size=(6, 3, 4)), biases=rng.normal(-1.5, 0.5, size=3),
        )
        x = rng.uniform(-1.0, 1.0, size=(40, 6))
        labels = rng.integers(0, 3, size=40)
        signs = np.where(x < 0, -1, 1)
        seeds = range(200)
        got = [evaluate_float(model, np.abs(x), signs, labels, np.random.default_rng(s))
               for s in seeds]
        want = [evaluate_float_loop(model, np.abs(x), signs, labels,
                                    np.random.default_rng(10_000 + s)) for s in seeds]
        se = math.sqrt((np.var(got, ddof=1) + np.var(want, ddof=1)) / len(seeds))
        assert abs(np.mean(got) - np.mean(want)) <= 4 * se

    def test_class_rates_match_enumeration_on_a_fixed_raster(self):
        # magnitudes of 0 and 1 fix the raster, so a sample repeated n times
        # with label c scores the exact probability that c is decided
        rng = np.random.default_rng(61)
        model, _, _ = random_instance(rng, n_outputs=2, duration=3, window=2)
        model.biases -= 1.0  # keep some no-spike mass
        active = np.array([1.0, 0.0, 1.0])
        sign = np.array([1, -1, -1])
        raster = np.repeat(active[:, None], 3, axis=1)
        expected = enumerate_decision_distribution(potentials(model, raster, sign))
        n = 20_000
        mags = np.broadcast_to(active, (n, 3))
        signs = np.broadcast_to(sign, (n, 3))
        for c in (0, 1):
            p = sum(prob for (cls, _), prob in expected.items() if cls == c)
            acc = evaluate_float(model, mags, signs, np.full(n, c), rng)
            assert abs(acc - p) <= 4 * math.sqrt(p * (1 - p) / n), (c, p, acc)

    def test_silent_network_falls_back_to_final_potentials(self):
        # input j drives neuron j, but 50 below threshold: nothing spikes,
        # and the final step's potentials (not step 1's, which see no input
        # yet) name the active input
        model = GlmModel.zeros(2, 2, 4, 2)
        model.weights[[0, 1], [0, 1], :] = 1.0
        model.biases[:] = -50.0
        mags = np.array([[1.0, 0.0], [0.0, 1.0]] * 50)
        labels = np.array([0, 1] * 50)
        acc = evaluate_float(model, mags, np.ones((100, 2)), labels, np.random.default_rng(0))
        assert acc == 1.0

    def test_rejects_bad_signs(self):
        model = GlmModel.zeros(2, 2, 3, 2)
        with pytest.raises(ValueError):
            evaluate_float(model, np.full((1, 2), 0.5), np.array([[1, 0]]), [0],
                           np.random.default_rng(0))
