import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesim.glm import (
    ENCODE_CHUNK,
    EncodingError,
    GlmModel,
    SpikeTrain,
    encoded_chunks,
    identity_basis,
    kernel_matrix,
    membrane_series,
    rate_encode,
    sigmoid,
    windowed_potentials,
)
from oracles import build_windows, windowed_sums


def brute_force_matvec(basis, w):
    out = []
    for row in basis:
        acc = 0.0
        for a, b in zip(row, w):
            acc += float(a) * float(b)
        out.append(acc)
    return np.array(out)


def brute_force_potential(weights, biases, raster, sign, window, i, t):
    """Triple-loop evaluation of the membrane potential at step t (1-based)."""
    n_inputs = raster.shape[0]
    acc = float(biases[i])
    for j in range(n_inputs):
        for d in range(1, window + 1):
            step = t - d
            if step >= 1:
                acc += float(sign[j]) * weights[j, i, d - 1] * float(raster[j, step - 1])
    return acc


class TestRateEncode:
    def test_zero_magnitude_never_spikes(self):
        rng = np.random.default_rng(0)
        train = rate_encode(np.zeros(3), 8, rng)
        assert train.raster.sum() == 0

    def test_unit_magnitude_always_spikes(self):
        rng = np.random.default_rng(0)
        train = rate_encode(np.ones(3), 8, rng)
        assert train.raster.min() == 1

    def test_empirical_rate_matches_binomial_statistics(self):
        # 3-sigma band around p=0.5 for 10000 draws
        rng = np.random.default_rng(7)
        train = rate_encode(np.array([0.5]), 10000, rng)
        rate = train.raster.mean()
        sigma = math.sqrt(0.25 / 10000)
        assert abs(rate - 0.5) <= 3 * sigma

    def test_signs_follow_input_and_zero_maps_positive(self):
        rng = np.random.default_rng(1)
        train = rate_encode(np.array([-0.5, 0.0, 0.25]), 4, rng)
        assert train.sign.tolist() == [-1, 1, 1]
        # negative channels spike on magnitude
        assert 0 < train.raster[0].mean() < 1 or train.duration < 8

    def test_rejects_out_of_range_and_non_finite(self):
        rng = np.random.default_rng(2)
        with pytest.raises(EncodingError):
            rate_encode(np.array([1.5]), 4, rng)
        with pytest.raises(EncodingError):
            rate_encode(np.array([np.nan]), 4, rng)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_raster(self, seed):
        x = np.array([0.3, 0.7, 0.5])
        a = rate_encode(x, 16, np.random.default_rng(seed))
        b = rate_encode(x, 16, np.random.default_rng(seed))
        assert np.array_equal(a.raster, b.raster)


def basis_model(basis, weights):
    """A model whose kernels expand weights (n_inputs, n_outputs, n_basis)
    through basis, with as many steps as taps."""
    basis, weights = np.asarray(basis), np.asarray(weights, dtype=np.float64)
    return GlmModel(
        n_inputs=weights.shape[0], n_outputs=weights.shape[1],
        presentation_time=basis.shape[0], window=basis.shape[0],
        weights=weights, biases=np.zeros(weights.shape[1]), basis=basis,
    )


class TestExpandKernel:
    """GlmModel.kernels expands each weight vector through the basis."""

    def test_identity_basis_is_identity_map(self):
        w = np.arange(1.0, 8.0)
        alpha = basis_model(identity_basis(7), w[None, None]).kernels()
        assert np.array_equal(alpha[0, 0], w)

    def test_zero_weights_zero_kernel(self):
        alpha = basis_model(identity_basis(5), np.zeros((1, 1, 5))).kernels()
        assert np.array_equal(alpha[0, 0], np.zeros(5))

    def test_random_binary_basis_matches_brute_force(self):
        rng = np.random.default_rng(3)
        basis = rng.integers(0, 2, size=(4, 2))
        w = rng.normal(size=(3, 2, 2))
        alpha = basis_model(basis, w).kernels()
        for j in range(3):
            for i in range(2):
                assert np.allclose(alpha[j, i], brute_force_matvec(basis, w[j, i]))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GlmModel(n_inputs=1, n_outputs=1, presentation_time=3, window=3,
                     weights=np.zeros((1, 1, 4)), biases=np.zeros(1),
                     basis=identity_basis(3))


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_and_monotonicity(self):
        assert sigmoid(1000.0) == 1.0
        us = np.linspace(-40, 40, 401)
        g = sigmoid(us)
        assert np.all(np.diff(g) >= 0)

    def test_reference_value(self):
        # independent high-precision evaluation of 1/(1+e^1.5)
        assert abs(sigmoid(-1.5) - 0.18242552380635635) < 1e-15

    @given(st.floats(min_value=-30, max_value=30, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, u):
        assert abs(sigmoid(u) + sigmoid(-u) - 1.0) <= 1e-12

    def test_no_underflow_for_large_arguments(self):
        assert sigmoid(-500.0) >= 0.0
        assert sigmoid(500.0) <= 1.0


def small_model(rng, n_inputs=3, n_outputs=2, duration=6, window=4):
    return GlmModel(
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        presentation_time=duration,
        window=window,
        weights=rng.normal(size=(n_inputs, n_outputs, window)),
        biases=rng.normal(size=n_outputs),
    )


class TestMembranePotential:
    def test_all_zero_windows_gives_bias(self):
        rng = np.random.default_rng(4)
        model = small_model(rng)
        train = SpikeTrain(raster=np.zeros((3, 6)), sign=np.ones(3))
        u = membrane_series(model, train)
        assert np.array_equal(u, np.tile(model.biases, (6, 1)))

    def test_one_hot_window_picks_single_tap(self):
        rng = np.random.default_rng(5)
        model = small_model(rng)
        model.biases[:] = 0.0
        raster = np.zeros((3, 6))
        raster[2, 0] = 1  # channel 2 at step 1: delay tap 4 of step 5
        u = membrane_series(model, SpikeTrain(raster=raster, sign=np.ones(3)))
        assert u[4, 0] == pytest.approx(model.weights[2, 0, 3])

    def test_series_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(6)
        model = small_model(rng)
        raster = rng.integers(0, 2, size=(3, 6))
        sign = rng.choice([-1, 1], size=3)
        train = SpikeTrain(raster=raster, sign=sign)
        u = membrane_series(model, train)
        for t in range(1, 7):
            for i in range(2):
                want = brute_force_potential(
                    model.weights, model.biases, raster, sign, 4, i, t
                )
                assert u[t - 1, i] == pytest.approx(want, rel=1e-12)

    def test_additive_over_disjoint_windows(self):
        rng = np.random.default_rng(8)
        model = small_model(rng)
        signs = np.ones(3)
        r1 = rng.integers(0, 2, size=(3, 6))
        r2 = (1 - r1) * rng.integers(0, 2, size=(3, 6))
        assert not np.any(r1 * r2)
        u_join = membrane_series(model, SpikeTrain(raster=r1 | r2, sign=signs))
        u1 = membrane_series(model, SpikeTrain(raster=r1, sign=signs))
        u2 = membrane_series(model, SpikeTrain(raster=r2, sign=signs))
        assert np.allclose(u_join + model.biases, u1 + u2, rtol=1e-12, atol=1e-12)


class TestWindows:
    def test_first_step_window_is_empty(self):
        raster = np.ones((2, 5), dtype=np.uint8)
        w = build_windows(raster, 3)
        assert w[0].sum() == 0

    def test_recent_spike_sits_at_position_zero(self):
        raster = np.zeros((1, 5), dtype=np.uint8)
        raster[0, 1] = 1  # spike at step 2
        w = build_windows(raster, 3)
        # at step 3 the spike is 1 step old
        assert w[2, 0].tolist() == [1, 0, 0]
        # at step 4 it has aged by one tap
        assert w[3, 0].tolist() == [0, 1, 0]

    def test_model_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GlmModel(
                n_inputs=2,
                n_outputs=2,
                presentation_time=4,
                window=3,
                weights=np.zeros((2, 2, 4)),
                biases=np.zeros(2),
            )
        with pytest.raises(ValueError):
            GlmModel(
                n_inputs=1,
                n_outputs=1,
                presentation_time=2,
                window=3,  # window longer than presentation time
                weights=np.zeros((1, 1, 3)),
                biases=np.zeros(1),
            )


def kernel_case(rng, n_inputs, n_outputs, duration, window, basis=None):
    """Random signed trains and float kernels expanded through `basis`."""
    n_basis = window if basis is None else basis.shape[1]
    model = GlmModel(
        n_inputs=n_inputs, n_outputs=n_outputs, presentation_time=duration,
        window=window, weights=rng.normal(size=(n_inputs, n_outputs, n_basis)),
        biases=rng.normal(size=n_outputs), basis=basis,
    )
    return model


class TestPotentialKernel:
    """The one GEMM kernel against the window-tensor einsum oracle."""

    @pytest.mark.parametrize(
        "duration,window,batch",
        [(6, 6, 1), (6, 6, 4), (7, 1, 1), (7, 1, 3), (8, 3, 5), (2, 2, 2), (1, 1, 2)],
    )
    def test_float_kernels_match_oracle(self, duration, window, batch):
        rng = np.random.default_rng(duration * 100 + window * 10 + batch)
        model = kernel_case(rng, 5, 3, duration, window)
        rasters = rng.integers(0, 2, size=(batch, 5, duration)).astype(np.uint8)
        signs = rng.choice([-1, 1], size=(batch, 5))
        got = windowed_potentials(rasters, signs, kernel_matrix(model.kernels()), window)
        assert got.shape == (batch, duration, 3)
        for b in range(batch):
            want = windowed_sums(rasters[b], signs[b], model.kernels())
            np.testing.assert_allclose(got[b], want, rtol=1e-12, atol=1e-12)

    def test_non_identity_basis(self):
        rng = np.random.default_rng(31)
        basis = np.array([[1, 0], [1, 1], [0, 1], [0, 1]], dtype=np.uint8)
        model = kernel_case(rng, 4, 2, 6, 4, basis=basis)
        rasters = rng.integers(0, 2, size=(3, 4, 6)).astype(np.uint8)
        signs = rng.choice([-1, 1], size=(3, 4))
        got = windowed_potentials(rasters, signs, kernel_matrix(model.kernels()), 4)
        for b in range(3):
            want = windowed_sums(rasters[b], signs[b], model.kernels())
            np.testing.assert_allclose(got[b], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("duration,window,batch", [(5, 5, 1), (6, 1, 3), (16, 7, 4)])
    def test_integer_codes_are_exact(self, duration, window, batch):
        rng = np.random.default_rng(duration + window + batch)
        codes = rng.integers(-127, 128, size=(9, 4, window)).astype(np.int16)
        rasters = rng.integers(0, 2, size=(batch, 9, duration)).astype(np.uint8)
        signs = rng.choice([-1, 1], size=(batch, 9))
        got = windowed_potentials(rasters, signs, kernel_matrix(codes), window)
        for b in range(batch):
            want = windowed_sums(rasters[b], signs[b], codes, dtype=np.int64)
            assert np.array_equal(got[b].astype(np.int64), want)
            assert np.array_equal(got[b], want.astype(np.float64))

    def test_membrane_series_adds_the_bias(self):
        rng = np.random.default_rng(32)
        model = kernel_case(rng, 3, 2, 5, 3)
        train = SpikeTrain(raster=rng.integers(0, 2, size=(3, 5)),
                           sign=rng.choice([-1, 1], size=3))
        want = windowed_sums(train.raster, train.sign, model.kernels()) + model.biases
        np.testing.assert_allclose(membrane_series(model, train), want,
                                   rtol=1e-12, atol=1e-12)


class TestEncodedChunks:
    def test_blocks_draw_what_per_sample_encoding_draws(self):
        rng = np.random.default_rng(40)
        n = 2 * ENCODE_CHUNK + 3
        x = rng.uniform(-1.0, 1.0, size=(n, 5))
        blocks = list(encoded_chunks(x, 4, np.random.default_rng(9)))
        assert [start for start, _ in blocks] == [0, ENCODE_CHUNK, 2 * ENCODE_CHUNK]
        rasters = np.concatenate([r for _, r in blocks])
        ref_rng = np.random.default_rng(9)
        for k in range(n):
            assert np.array_equal(rasters[k], rate_encode(x[k], 4, ref_rng).raster)

    def test_whole_split_is_validated_before_any_draw(self):
        rng = np.random.default_rng(41)
        state = rng.bit_generator.state
        for bad_value in (1.5, np.nan):
            x = np.full((ENCODE_CHUNK + 2, 2), 0.5)
            x[-1, 1] = bad_value  # in the last block
            with pytest.raises(EncodingError):
                next(encoded_chunks(x, 4, rng))
        assert rng.bit_generator.state == state
