import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesim.core import map_model_to_memory, unpack_model
from spikesim.datasets import Dataset, load_model, make_synthetic, save_model
from spikesim.glm import (
    ENCODE_CHUNK,
    GlmModel,
    draw_rasters,
    encoded_chunks,
    kernel_matrix,
    sigmoid,
    signed_inputs,
    windowed_potentials_adjoint,
)
from spikesim.quantize import QuantizedModel, datapath_operands, quantize_model, quantize_uniform
from spikesim.training import TrainConfig, train
from oracles import (
    build_windows,
    datapath_sums,
    draw_raster,
    windowed_potentials,
    windowed_sums,
)


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
    """Bernoulli rate encoding: draw_rasters on a split's magnitudes."""

    def test_zero_magnitude_never_spikes(self):
        rng = np.random.default_rng(0)
        assert draw_rasters(np.zeros((2, 3)), 8, rng).sum() == 0

    def test_unit_magnitude_always_spikes(self):
        rng = np.random.default_rng(0)
        assert draw_rasters(np.ones((2, 3)), 8, rng).min() == 1

    def test_empirical_rate_matches_binomial_statistics(self):
        # 3-sigma band around p=0.5 for 10000 draws
        rng = np.random.default_rng(7)
        rate = draw_rasters(np.array([[0.5]]), 10000, rng).mean()
        sigma = math.sqrt(0.25 / 10000)
        assert abs(rate - 0.5) <= 3 * sigma

    def test_signs_follow_input_and_zero_maps_positive(self):
        x = np.array([[-0.5, 0.0, 0.25]])
        ds = Dataset.scaled(x, [0], "train", 1, np.zeros(3), np.ones(3))
        assert ds.signs.tolist() == [[-1, 1, 1]]
        # negative channels spike on magnitude
        assert ds.magnitudes.tolist() == [[0.5, 0.0, 0.25]]
        _, rasters = next(encoded_chunks(ds.magnitudes, 4000, np.random.default_rng(1)))
        assert 0.45 < rasters[0, 0].mean() < 0.55

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_same_raster(self, seed):
        x = np.array([[0.3, 0.7, 0.5]])
        a = next(encoded_chunks(x, 16, np.random.default_rng(seed)))[1]
        b = next(encoded_chunks(x, 16, np.random.default_rng(seed)))[1]
        assert np.array_equal(a, b)


def made_kernels(how, tmp_path):
    """The kernels of a 64-input, 16-output, 7-tap model made `how`, and
    the values they must hold as a C-order array."""
    rng = np.random.default_rng(6)
    shape, duration = (64, 16, 7), 8
    weights = rng.normal(size=shape)
    model = GlmModel(*shape[:2], duration, shape[2], weights=weights, biases=np.zeros(16))
    codes = rng.integers(-127, 128, size=shape)  # C-order int64, as the benchmark builds them
    qm = QuantizedModel(bits=8, w_codes=codes, gamma_codes=np.zeros(16, dtype=int),
                        w_min=-1.0, w_max=1.0, gamma_min=-1.0, gamma_max=0.0,
                        presentation_time=duration, window=shape[2])
    if how == "glm_constructor":
        return model.weights, weights
    if how == "quantized_constructor":
        return qm.w_codes, codes
    if how == "zeros":
        return GlmModel.zeros(*shape[:2], duration, shape[2]).weights, np.zeros(shape)
    if how == "train":
        split = make_synthetic(32, n_features=64, n_classes=16)
        trained, _ = train(split, split, TrainConfig(duration, shape[2], epochs=1))
        assert trained.weights.any()  # SGD reached the weights through kernel_matrix
        return trained.weights, np.ascontiguousarray(trained.weights)
    if how == "quantize_model":
        lo, hi = min(weights.min(), 0.0), max(weights.max(), 0.0)
        return quantize_model(model, 8).w_codes, quantize_uniform(weights, 8, lo, hi)
    if how in ("load_glm", "load_quantized"):
        saved = model if how == "load_glm" else qm
        save_model(tmp_path / "model.bin", saved)
        loaded = load_model(tmp_path / "model.bin").model
        return (loaded.weights, weights) if how == "load_glm" else (loaded.w_codes, codes)
    assert how == "unpack_model"
    return unpack_model(map_model_to_memory(qm)).w_codes, codes


class TestExpandKernel:
    """A float model's weights are its kernels, one per (input, output) pair
    and tap; kernel_matrix lays them out as the potential GEMM's operand."""

    @pytest.mark.parametrize("how", [
        "glm_constructor", "quantized_constructor", "zeros", "train", "quantize_model",
        "load_glm", "load_quantized", "unpack_model",
    ])
    def test_every_models_kernel_matrix_is_a_view_of_its_kernels(self, how, tmp_path):
        # train updates the weights in place through this view, and the
        # float32 operand of the codes is the one array its conversion makes
        kernels, want = made_kernels(how, tmp_path)
        assert np.array_equal(kernels, want)
        kmat = kernel_matrix(kernels, kernels.dtype)
        assert np.shares_memory(kmat, kernels)
        j, i, d = np.indices(kernels.shape)
        assert np.array_equal(kmat[j, d * kernels.shape[1] + i], want)
        tracemalloc.start()
        as_float32 = kernel_matrix(kernels, np.float32)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert np.array_equal(as_float32, kmat.astype(np.float32))
        assert peak < as_float32.nbytes + 4096

    def test_zero_weights_zero_kernel(self):
        model = GlmModel(n_inputs=1, n_outputs=1, presentation_time=5, window=5,
                         weights=np.zeros((1, 1, 5)), biases=np.zeros(1))
        assert np.array_equal(kernel_matrix(model.weights), np.zeros((1, 5)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GlmModel(n_inputs=1, n_outputs=1, presentation_time=3, window=3,
                     weights=np.zeros((1, 1, 4)), biases=np.zeros(1))


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


def potentials(model, raster, sign):
    """One train's membrane potentials (T, n_outputs), as training computes
    them: the all-steps windowed_potentials plus the bias."""
    kmat = kernel_matrix(model.weights)
    return windowed_potentials(np.asarray(raster)[None], np.asarray(sign)[None], kmat,
                               model.window)[0] + model.biases


class TestMembranePotential:
    def test_all_zero_windows_gives_bias(self):
        rng = np.random.default_rng(4)
        model = small_model(rng)
        u = potentials(model, np.zeros((3, 6)), np.ones(3))
        assert np.array_equal(u, np.tile(model.biases, (6, 1)))

    def test_one_hot_window_picks_single_tap(self):
        rng = np.random.default_rng(5)
        model = small_model(rng)
        model.biases[:] = 0.0
        raster = np.zeros((3, 6))
        raster[2, 0] = 1  # channel 2 at step 1: delay tap 4 of step 5
        u = potentials(model, raster, np.ones(3))
        assert u[4, 0] == pytest.approx(model.weights[2, 0, 3])

    def test_series_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(6)
        model = small_model(rng)
        raster = rng.integers(0, 2, size=(3, 6))
        sign = rng.choice([-1, 1], size=3)
        u = potentials(model, raster, sign)
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
        u_join = potentials(model, r1 | r2, signs)
        u1 = potentials(model, r1, signs)
        u2 = potentials(model, r2, signs)
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


def kernel_case(rng, n_inputs, n_outputs, duration, window):
    """A model of random float kernels and biases."""
    return GlmModel(
        n_inputs=n_inputs, n_outputs=n_outputs, presentation_time=duration,
        window=window, weights=rng.normal(size=(n_inputs, n_outputs, window)),
        biases=rng.normal(size=n_outputs),
    )


class TestPotentialKernel:
    """The one GEMM kernel against the window-tensor einsum oracle, as the
    first-to-spike loop runs it: a chunk of steps at a time."""

    @pytest.mark.parametrize(
        "duration,window,batch",
        [(6, 6, 1), (6, 6, 4), (7, 1, 1), (7, 1, 3), (8, 3, 5), (2, 2, 2), (1, 1, 2)],
    )
    def test_float_kernels_match_oracle(self, duration, window, batch):
        rng = np.random.default_rng(duration * 100 + window * 10 + batch)
        model = kernel_case(rng, 5, 3, duration, window)
        rasters = rng.integers(0, 2, size=(batch, 5, duration)).astype(np.uint8)
        signs = rng.choice([-1, 1], size=(batch, 5))
        got = datapath_sums(rasters, signs, kernel_matrix(model.weights), window, True)
        assert got.shape == (batch, duration, 3)
        for b in range(batch):
            want = windowed_sums(rasters[b], signs[b], model.weights)
            np.testing.assert_allclose(got[b], want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("duration,window,batch", [(5, 5, 1), (6, 1, 3), (16, 7, 4)])
    def test_integer_codes_are_exact(self, duration, window, batch):
        rng = np.random.default_rng(duration + window + batch)
        codes = rng.integers(-127, 128, size=(9, 4, window)).astype(np.int16)
        rasters = rng.integers(0, 2, size=(batch, 9, duration)).astype(np.uint8)
        signs = rng.choice([-1, 1], size=(batch, 9))
        kmat, exact = datapath_operands(codes)
        got = datapath_sums(rasters, signs, kmat, window, exact)
        for b in range(batch):
            want = windowed_sums(rasters[b], signs[b], codes, dtype=np.int64)
            assert np.array_equal(got[b].astype(np.int64), want)
            assert np.array_equal(got[b], want.astype(np.float64))


    @pytest.mark.parametrize("duration,window,batch", [(6, 6, 2), (7, 1, 3), (8, 3, 5), (1, 1, 2)])
    def test_adjoint_takes_the_signed_input_rows(self, duration, window, batch):
        # sum(d_u * u) is linear in kmat, so entry e of the adjoint is its
        # value at the unit kmat of e
        rng = np.random.default_rng(duration * 100 + window * 10 + batch + 1)
        rasters = rng.integers(0, 2, size=(batch, 4, duration)).astype(np.uint8)
        signs = rng.choice([-1, 1], size=(batch, 4))
        d_u = rng.normal(size=(batch, duration, 3))
        got = windowed_potentials_adjoint(signed_inputs(rasters, signs, 0, duration - 1),
                                          d_u, window)
        assert got.shape == (4, window * 3)
        for idx in np.ndindex(got.shape):
            unit = np.zeros(got.shape)
            unit[idx] = 1.0
            want = np.sum(d_u * windowed_potentials(rasters, signs, unit, window))
            assert got[idx] == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestEncodedChunks:
    def test_blocks_draw_what_per_sample_encoding_draws(self):
        rng = np.random.default_rng(40)
        n = 2 * ENCODE_CHUNK + 3
        x = rng.uniform(0.0, 1.0, size=(n, 5))
        blocks = list(encoded_chunks(x, 4, np.random.default_rng(9)))
        assert [start for start, _ in blocks] == [0, ENCODE_CHUNK, 2 * ENCODE_CHUNK]
        rasters = np.concatenate([r for _, r in blocks])
        ref_rng = np.random.default_rng(9)
        for k in range(n):
            assert np.array_equal(rasters[k], draw_raster(x[k], 4, ref_rng))
