import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesim.glm import GlmModel, SpikeTrain, membrane_series, sigmoid
from spikesim.training import (
    FtsDecision,
    TrainConfig,
    TrainingDiverged,
    evaluate_float,
    fts_gradient,
    fts_log_prob,
    fts_objective,
    infer_fts_float,
    train,
)
from oracles import evaluate_float_loop


class ArrayData:
    """Minimal dataset stand-in for the trainer."""

    def __init__(self, mags, signs, labels, n_classes):
        self._mags = np.asarray(mags, dtype=np.float64)
        self._signs = np.asarray(signs, dtype=np.int8)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.n_classes = n_classes

    def magnitudes(self):
        return self._mags

    def signs(self):
        return self._signs


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


def random_instance(rng, n_inputs=3, n_outputs=2, duration=4, window=3, scale=1.0):
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
    return model, SpikeTrain(raster=raster, sign=sign)


class TestFtsLogProb:
    def test_two_neurons_flat_potentials(self):
        u = np.zeros((2, 1))
        assert fts_log_prob(u, 0, 1) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_single_neuron_no_competition(self):
        u = np.zeros((1, 1))
        assert fts_log_prob(u, 0, 1) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_matches_product_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.normal(scale=2.0, size=(3, 2))
            for c in range(3):
                for t in (1, 2):
                    assert fts_log_prob(u, c, t) == pytest.approx(
                        product_form_log_prob(u, c, t), rel=1e-10
                    )

    def test_stable_for_extreme_potentials(self):
        u = np.full((2, 3), -500.0)
        assert np.isfinite(fts_log_prob(u, 0, 3))
        u = np.full((2, 3), 500.0)
        assert np.isfinite(fts_log_prob(u, 0, 1))

    def test_rejects_bad_indices(self):
        u = np.zeros((2, 2))
        with pytest.raises(IndexError):
            fts_log_prob(u, 5, 1)
        with pytest.raises(IndexError):
            fts_log_prob(u, 0, 3)

    def test_monotone_in_labeled_potential(self):
        rng = np.random.default_rng(12)
        u = rng.normal(size=(3, 3))
        base = fts_log_prob(u, 1, 3)
        up = u.copy()
        up[1, 2] += 0.5
        assert fts_log_prob(up, 1, 3) > base

    def test_decreasing_in_competitor_potentials(self):
        rng = np.random.default_rng(13)
        u = rng.normal(size=(3, 3))
        base = fts_log_prob(u, 1, 3)
        for i in (0, 2):
            for tp in range(3):
                bumped = u.copy()
                bumped[i, tp] += 0.5
                assert fts_log_prob(bumped, 1, 3) < base

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_probability_mass_never_exceeds_one(self, seed):
        rng = np.random.default_rng(seed)
        n_outputs = int(rng.integers(1, 4))
        duration = int(rng.integers(1, 5))
        u = rng.normal(scale=3.0, size=(n_outputs, duration))
        mass = sum(
            math.exp(fts_log_prob(u, c, t))
            for c in range(n_outputs)
            for t in range(1, duration + 1)
        )
        assert mass <= 1.0 + 1e-9


class TestFtsObjective:
    def test_single_step_equals_log_prob(self):
        rng = np.random.default_rng(21)
        model, _ = random_instance(rng, duration=1, window=1)
        raster = rng.integers(0, 2, size=(3, 1))
        train_ = SpikeTrain(raster=raster, sign=np.ones(3, dtype=np.int8))
        u = membrane_series(model, train_)
        assert fts_objective(model, train_, 0) == pytest.approx(
            fts_log_prob(u.T, 0, 1), rel=1e-12
        )

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            model, train_ = random_instance(rng, n_outputs=2, duration=3, window=2)
            u = membrane_series(model, train_).T  # (n_outputs, T)
            for c in range(2):
                total = sum(
                    math.exp(product_form_log_prob(u, c, t)) for t in (1, 2, 3)
                )
                assert fts_objective(model, train_, c) == pytest.approx(
                    math.log(total), rel=1e-10
                )

    def test_suppressed_label_drives_objective_down(self):
        model = GlmModel.zeros(2, 2, 3, 2)
        train_ = SpikeTrain(
            raster=np.zeros((2, 3), dtype=np.uint8), sign=np.ones(2, dtype=np.int8)
        )
        base = fts_objective(model, train_, 0)
        model.biases[0] = -40.0
        assert fts_objective(model, train_, 0) < base - 20


def finite_difference_gradients(model, train_, c, h=1e-5):
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
    grad_gamma = np.zeros_like(model.biases)
    for i in range(model.n_outputs):
        model.biases[i] += h
        hi = fts_objective(model, train_, c)
        model.biases[i] -= 2 * h
        lo = fts_objective(model, train_, c)
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
        model, _ = random_instance(rng, n_outputs=2)
        train_ = SpikeTrain(
            raster=np.zeros((3, 4), dtype=np.uint8), sign=np.ones(3, dtype=np.int8)
        )
        grad_w, grad_gamma = fts_gradient(model, train_, 0)
        assert np.all(grad_w == 0)
        assert np.any(grad_gamma != 0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            model, train_ = random_instance(rng)
            c = int(rng.integers(model.n_outputs))
            got = fts_gradient(model, train_, c)
            want = finite_difference_gradients(model, train_, c)
            assert relative_error(got, want) < 1e-4

    def test_symmetric_competitors_get_identical_gradients(self):
        rng = np.random.default_rng(33)
        model, _ = random_instance(rng, n_outputs=3)
        model.weights[:, 2, :] = model.weights[:, 1, :]
        model.biases[2] = model.biases[1]
        raster = rng.integers(0, 2, size=(3, 4))
        train_ = SpikeTrain(raster=raster, sign=np.ones(3, dtype=np.int8))
        grad_w, grad_gamma = fts_gradient(model, train_, 0)
        assert np.allclose(grad_w[:, 1, :], grad_w[:, 2, :], rtol=1e-12)
        assert grad_gamma[1] == pytest.approx(grad_gamma[2], rel=1e-12)


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


class TestInferFloat:
    def test_huge_bias_decides_immediately(self):
        model = GlmModel.zeros(2, 2, 4, 2)
        model.biases[1] = 50.0
        train_ = SpikeTrain(
            raster=np.zeros((2, 4), dtype=np.uint8), sign=np.ones(2, dtype=np.int8)
        )
        decision = infer_fts_float(model, train_, np.random.default_rng(0))
        assert decision == FtsDecision(1, 1, False)

    def test_silent_network_uses_fallback(self):
        model = GlmModel.zeros(2, 2, 4, 2)
        model.biases[:] = -50.0
        model.biases[1] = -49.0  # highest final potential
        train_ = SpikeTrain(
            raster=np.zeros((2, 4), dtype=np.uint8), sign=np.ones(2, dtype=np.int8)
        )
        decision = infer_fts_float(model, train_, np.random.default_rng(0))
        assert decision.fallback_used
        assert decision.decision_time is None
        assert decision.predicted_class == 1

    def test_decision_distribution_matches_enumeration(self):
        rng = np.random.default_rng(41)
        model, train_ = random_instance(rng, n_outputs=2, duration=3, window=2)
        model.biases -= 1.0  # keep some no-spike mass
        u = membrane_series(model, train_)
        expected = enumerate_decision_distribution(u)

        trials = 100_000
        counts = {}
        for _ in range(trials):
            d = infer_fts_float(model, train_, rng)
            key = (d.predicted_class, d.decision_time)
            counts[key] = counts.get(key, 0) + 1
        for key, p in expected.items():
            p_hat = counts.get(key, 0) / trials
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(p_hat - p) <= 3 * sigma + 1e-12, (key, p, p_hat)


def separable_task(rng, n_samples=60):
    protos = np.array([[0.9, 0.9, 0.05, 0.05], [0.05, 0.05, 0.9, 0.9]])
    labels = rng.integers(0, 2, size=n_samples)
    mags = protos[labels] + rng.normal(scale=0.02, size=(n_samples, 4))
    mags = np.clip(mags, 0.0, 1.0)
    signs = np.ones((n_samples, 4), dtype=np.int8)
    return ArrayData(mags, signs, labels, 2)


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
    def test_matches_per_sample_loop_draw_for_draw(self):
        rng = np.random.default_rng(60)
        model = GlmModel(
            n_inputs=6, n_outputs=3, presentation_time=7, window=4,
            weights=rng.normal(size=(6, 3, 4)), biases=rng.normal(-1.5, 0.5, size=3),
        )
        x = rng.uniform(-1.0, 1.0, size=(40, 6))
        labels = rng.integers(0, 3, size=40)
        signs = np.where(x < 0, -1, 1)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = evaluate_float(model, np.abs(x), signs, labels, got_rng)
        want = evaluate_float_loop(model, np.abs(x), signs, labels, want_rng)
        assert got == want
        # the same draws in the same order leave the generators in step
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_rejects_bad_signs(self):
        model = GlmModel.zeros(2, 2, 3, 2)
        with pytest.raises(ValueError):
            evaluate_float(model, np.full((1, 2), 0.5), np.array([[1, 0]]), [0],
                           np.random.default_rng(0))
