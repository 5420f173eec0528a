import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesim import glm, quantize
from spikesim.glm import GlmModel, kernel_matrix
from spikesim.quantize import (
    LFSR_PERIOD,
    U_MAX_CODE,
    U_MIN_CODE,
    QuantizedModel,
    accuracies,
    clip_to_fixed,
    decide_blocks,
    derive_lfsr_seed,
    first_to_spike_quantized,
    lfsr_run,
    pwl_sigmoid,
    quantize_model,
    quantize_uniform,
    round_ties_away,
)
from oracles import (
    clip_to_fixed_spec,
    datapath_sums,
    dequant_biases,
    first_to_spike_loop,
    infer_fts_quantized_loop,
    lfsr_next,
    quantized_decisions_loop,
    quantized_potentials,
    round_ties_away_spec,
    saturating_sums_loop,
    windowed_potentials,
)


def scalar_quantize(v, lo, hi, bits):
    """Independent per-element quantizer: plain python arithmetic."""
    step = (hi - lo) / 2 ** (bits - 1)
    if step == 0:
        return 0
    r = v / step
    c = math.floor(abs(r) + 0.5) * (1 if r >= 0 else -1)
    bound = 2 ** (bits - 1) - 1
    return max(-bound, min(bound, c))


class TestQuantizeUniform:
    def test_step_for_symmetric_unit_range(self):
        # step 2 / 2**4 = 0.125
        codes = quantize_uniform(np.array([-1.0, -0.125, 0.0, 1.0]), 5, -1.0, 1.0)
        assert codes.tolist() == [-8, -1, 0, 8]

    def test_zero_maps_to_code_zero(self):
        for bits in range(2, 9):
            codes = quantize_uniform(np.array([-1.0, 0.0, 1.0]), bits, -1.0, 1.0)
            assert codes[1] == 0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(61)
        values = rng.normal(size=200) * 3
        lo, hi = values.min(), values.max()
        codes = quantize_uniform(values, 5, lo, hi)
        for v, c in zip(values, codes):
            assert c == scalar_quantize(v, lo, hi, 5)

    def test_error_bound_inside_range(self):
        rng = np.random.default_rng(62)
        values = rng.uniform(-1, 1, size=500)
        values[0], values[1] = -1.0, 1.0
        codes = quantize_uniform(values, 5, -1.0, 1.0)
        step = 2.0 / 2**4
        dequant = codes * step
        bound = 2**4 - 1
        unclipped = np.abs(values / step) <= bound + 0.5
        assert np.all(np.abs(values - dequant)[unclipped] <= step / 2 + 1e-12)

    def test_degenerate_range_flags_zero_step(self):
        codes = quantize_uniform(np.full(4, 2.5), 6, 2.5, 2.5)
        assert codes.dtype == np.int16 and np.all(codes == 0)
        qm = quantize_model(GlmModel.zeros(3, 2, 4, 2), 6)
        assert qm.w_step == qm.gamma_step == 0.0
        assert not qm.w_codes.any() and not qm.gamma_codes.any()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.array([np.inf]), 5, -1.0, 1.0)
        for bits in (0, 1, 9, 16):
            with pytest.raises(ValueError, match="datapath"):
                quantize_uniform(np.array([1.0]), bits, -1.0, 1.0)


class TestClipToFixed:
    def test_zero(self):
        assert clip_to_fixed(0.0) == 0

    def test_saturates_high_and_low(self):
        assert clip_to_fixed(100.0) / 8 == 7.875
        assert clip_to_fixed(-100.0) / 8 == -8.0

    def test_rounding_oracle_value(self):
        # -1.44 * 8 = -11.52, nearest is -12
        assert clip_to_fixed(-1.44) / 8 == -1.5

    def test_ties_round_away_from_zero(self):
        assert clip_to_fixed(-1.4375) / 8 == -1.5
        assert clip_to_fixed(1.4375) / 8 == 1.5

    def test_format_range_derivation(self):
        # 1.4.3: 8 bits, steps of 1/8 over [-8.0, +7.875]
        assert (U_MIN_CODE / 8, U_MAX_CODE / 8) == (-8.0, 7.875)
        assert clip_to_fixed([-8.0625, -8.0, 7.875, 7.9375]).tolist() == [
            U_MIN_CODE, U_MIN_CODE, U_MAX_CODE, U_MAX_CODE]

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, u):
        once = clip_to_fixed(u)
        again = clip_to_fixed(once / 8)
        assert once == again

    def test_matches_the_spec_on_ties_zeros_and_large_values(self):
        k = np.arange(0.0, 70.0)
        near = 2.0 ** 52 + np.array([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        x = np.concatenate([k + 0.5, -(k + 0.5), [0.0, -0.0, 0.49999999999999994,
                            -0.49999999999999994, 2.0 ** 53 + 2.0, 1e300, -1e300],
                            near, -near])
        assert np.array_equal(round_ties_away(x), round_ties_away_spec(x))
        assert round_ties_away([0.5, 1.5, 2.5, -0.5, -2.5]).tolist() == [1, 2, 3, -1, -3]
        # ties of the 1.4.3 grid, then values that saturate it
        u = np.concatenate([x / 8, (k - 35.5) / 8, [8.0625, -8.0625, 100.0, -100.0]])
        assert np.array_equal(clip_to_fixed(u), clip_to_fixed_spec(u))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_spec_on_any_finite_values(self, values):
        x = np.array(values)
        assert np.array_equal(round_ties_away(x), round_ties_away_spec(x))
        u = x[np.abs(x) <= 1e307]  # 8u stays finite
        assert np.array_equal(clip_to_fixed(u), clip_to_fixed_spec(u))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(63)
        us = rng.uniform(-12, 12, size=64)
        vec = clip_to_fixed(us)
        assert [int(clip_to_fixed(float(u))) for u in us] == vec.tolist()


def pwl_float_oracle(code):
    """Float evaluation of the segment formula, independent of the shifts."""
    x = code / 8.0
    def neg_branch(xx):
        k = math.trunc(xx)            # integer part, toward zero
        frac = xx - k                 # in (-1, 0]
        return (0.5 + frac / 4.0) / 2 ** abs(k)
    y = neg_branch(x) if x <= 0 else 1.0 - neg_branch(-x)
    return min(math.floor(y * 256.0), 255)


class TestPwlSigmoid:
    def test_midpoint(self):
        assert pwl_sigmoid(0) == 128

    def test_minus_one(self):
        assert pwl_sigmoid(-8) == 64  # x = -1.0: frac 0, integer magnitude 1

    def test_matches_float_oracle_on_all_codes(self):
        codes = np.arange(-128, 128)
        got = pwl_sigmoid(codes)
        want = [pwl_float_oracle(int(q)) for q in codes]
        assert got.tolist() == want

    def test_exhaustive_fidelity_and_monotonicity(self):
        codes = np.arange(-128, 128)
        y = pwl_sigmoid(codes) / 256.0
        true = 1.0 / (1.0 + np.exp(-codes / 8.0))
        assert np.max(np.abs(y - true)) <= 0.02
        assert np.all(np.diff(pwl_sigmoid(codes)) >= 0)

    def test_symmetry_sum(self):
        sums = {int(pwl_sigmoid(q) + pwl_sigmoid(-q)) for q in range(-127, 128)}
        assert sums <= {255, 256}

    def test_neuron_table_is_pwl_sigmoid_on_every_1_4_3_code(self):
        codes = np.arange(U_MIN_CODE, U_MAX_CODE + 1)
        assert quantize._PWL_TABLE.shape == (128,)
        assert np.array_equal(quantize._PWL_TABLE[codes], pwl_sigmoid(codes))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pwl_sigmoid(128)
        with pytest.raises(ValueError):
            pwl_sigmoid(-129)


class TestLfsr:
    def test_full_cycle_returns_to_seed(self):
        state = 0xACE1
        seen = set()
        for _ in range(LFSR_PERIOD):
            assert state != 0
            assert state not in seen
            seen.add(state)
            state = lfsr_next(state)
        assert state == 0xACE1
        assert len(seen) == LFSR_PERIOD

    def test_deterministic(self):
        a = b = 0x1234
        for _ in range(100):
            a, b = lfsr_next(a), lfsr_next(b)
        assert a == b

    def test_rejects_zero_and_wide_states(self):
        with pytest.raises(ValueError):
            lfsr_next(0)
        with pytest.raises(ValueError):
            lfsr_next(1 << 16)

    def test_derived_seeds_are_nonzero_and_deterministic(self):
        seeds = [derive_lfsr_seed(42, i) for i in range(1000)]
        assert all(0 < s <= 0xFFFF for s in seeds)
        assert seeds == [derive_lfsr_seed(42, i) for i in range(1000)]


def bias_only_model(gamma_code, duration):
    """One output with one silent synapse: its potential is the bias code
    in steps of 1/8."""
    return coded_model(np.zeros((1, 1, 1), dtype=np.int16), np.array([gamma_code]),
                       duration, g_range=(-8.0, 8.0))


class TestSpikeDecision:
    """The datapath's spike: the PWL output against the low LFSR byte."""

    def test_zero_activation_never_spikes(self):
        # bias code -127 is -15.875, which clips to -8.0, where the PWL gives 0
        assert pwl_sigmoid(clip_to_fixed(-15.875)) == 0
        seeds = lfsr_run(1, 1000)
        _, decision_time = first_to_spike_quantized(
            bias_only_model(-127, 4), np.ones((1000, 1, 4)), np.ones((1000, 1)), seeds)
        assert np.all(decision_time == 0)

    def test_full_activation_spikes_unless_byte_is_255(self):
        # bias code 127 is +15.875, which clips to +7.875, where the PWL gives
        # 255: the step-1 draw, the seed itself, fires unless its low byte is 255
        assert pwl_sigmoid(clip_to_fixed(15.875)) == 255
        seeds = lfsr_run(1, 2000)
        _, decision_time = first_to_spike_quantized(
            bias_only_model(127, 1), np.zeros((2000, 1, 1)), np.ones((2000, 1)), seeds)
        low = seeds & 0xFF
        assert np.any(low == 255)
        assert np.array_equal(decision_time == 1, low != 255)

    def test_full_period_rate_close_to_uniform(self):
        # one full cycle of low bytes, reused for several activation levels
        state = 0xBEEF
        lows = np.empty(LFSR_PERIOD, dtype=np.int64)
        for i in range(LFSR_PERIOD):
            lows[i] = state & 0xFF
            state = lfsr_next(state)
        for p in (1, 64, 128, 200, 255):
            rate = np.count_nonzero(lows < p) / LFSR_PERIOD
            assert abs(rate - p / 256) < 0.01


def tiny_quantized_model(rng, bits=8, n_inputs=3, n_outputs=2, duration=5, window=3):
    model = GlmModel(
        n_inputs=n_inputs,
        n_outputs=n_outputs,
        presentation_time=duration,
        window=window,
        weights=rng.normal(size=(n_inputs, n_outputs, window)),
        biases=rng.normal(size=n_outputs),
    )
    return model, quantize_model(model, bits)


class TestQuantizedModel:
    def test_quantize_model_bounds_and_shapes(self):
        rng = np.random.default_rng(71)
        model, qm = tiny_quantized_model(rng, bits=5)
        assert qm.w_codes.shape == model.weights.shape
        assert np.abs(qm.w_codes).max() <= 15
        assert np.abs(qm.gamma_codes).max() <= 15
        deq = qm.w_codes * qm.w_step
        assert deq.min() >= qm.w_min - qm.w_step
        assert deq.max() <= qm.w_max + qm.w_step

    def test_code_bound_enforced(self):
        for bits, w_codes, gamma_codes, what in [
            (5, np.full((1, 1, 1), 16, dtype=np.int16), np.zeros(1), "weight"),
            # values that an int16 cast would wrap or truncate into range:
            # 65541 to 5, 65636 to 100, 2.7 to 2 and -1.9 to -1
            (8, np.full((2, 2, 1), 65541), np.zeros(2), "weight"),
            (8, np.zeros((2, 2, 1)), np.array([0, 65636]), "bias"),
            (8, np.full((2, 2, 1), 2.7), np.zeros(2), "weight"),
            (8, np.zeros((2, 2, 1)), np.array([-1.9, 0]), "bias"),
            (8, np.full((2, 2, 1), np.nan), np.zeros(2), "weight"),
            # -32768 in int16, whose magnitude wraps to itself
            (8, np.zeros((2, 2, 1)), np.array([-32768, 0], dtype=np.int16), "bias"),
        ]:
            with pytest.raises(ValueError, match=f"{what} codes are not whole {bits}-bit"):
                QuantizedModel(
                    bits=bits, w_codes=w_codes, gamma_codes=gamma_codes,
                    w_min=-1.0, w_max=1.0, gamma_min=0.0, gamma_max=0.0,
                    presentation_time=2, window=1,
                )

    def test_potentials_match_dequantized_reference(self):
        rng = np.random.default_rng(72)
        model, qm = tiny_quantized_model(rng, bits=8)
        raster = rng.integers(0, 2, size=(3, 5))
        sign = rng.choice([-1, 1], size=3)
        kernel_sums, u_real = quantized_potentials(qm, raster, sign)
        # reference: the dequantized kernels' float potentials plus the bias
        kmat = kernel_matrix(qm.w_codes * qm.w_step)
        ref = windowed_potentials(raster[None], sign[None], kmat, 3)[0] + dequant_biases(qm)
        assert np.allclose(u_real, ref, rtol=1e-10, atol=1e-12)

    def test_inference_is_deterministic_and_bounded(self):
        rng = np.random.default_rng(73)
        _, qm = tiny_quantized_model(rng, bits=6)
        raster = rng.integers(0, 2, size=(3, 5))
        signs = np.ones((1, 3), dtype=np.int8)
        p1, t1 = first_to_spike_quantized(qm, raster[None], signs, [0x7777])
        p2, t2 = first_to_spike_quantized(qm, raster[None], signs, [0x7777])
        assert (p1.tolist(), t1.tolist()) == (p2.tolist(), t2.tolist())
        assert 0 <= p1[0] < 2
        assert 0 <= t1[0] <= 5  # 0 is the fallback

    def test_rejects_precisions_the_datapath_lacks(self):
        model, _ = tiny_quantized_model(np.random.default_rng(74))
        for bits in (1, 9):
            with pytest.raises(ValueError, match="datapath"):
                quantize_model(model, bits)


class TestLfsrTable:
    def test_table_is_the_walk_from_state_1(self):
        # the builder itself, not the process's cached table
        sequence, position = quantize._lfsr_table.__wrapped__()
        walk, state = np.empty(LFSR_PERIOD, dtype=np.uint16), 1
        for k in range(LFSR_PERIOD):
            walk[k] = state
            state = lfsr_next(state)
        assert np.array_equal(sequence, walk)
        assert np.array_equal(position[walk], np.arange(LFSR_PERIOD))
        assert position[0] == -1

    def test_full_table_walks_the_iterated_sequence(self):
        run = lfsr_run(0xACE1, LFSR_PERIOD + 1)
        state = 0xACE1
        for k in range(LFSR_PERIOD + 1):
            assert run[k] == state
            state = lfsr_next(state)

    def test_runs_from_random_states_cross_the_wrap(self):
        rng = np.random.default_rng(90)
        # state 1 sits at table position 0, so the runs from the states just
        # before it in the sequence wrap from position 65534 back to 0
        before_one = lfsr_run(1, LFSR_PERIOD)[-3:]
        starts = [*before_one, *rng.integers(1, 0x10000, size=5)]
        runs = lfsr_run(starts, 40)
        assert runs.shape == (len(starts), 40)
        for start, run in zip(starts, runs):
            state, want = int(start), []
            for _ in range(40):
                want.append(state)
                state = lfsr_next(state)
            assert run.tolist() == want

    def test_rejects_zero_and_wide_states(self):
        for bad in (0, 1 << 16, -1):
            with pytest.raises(ValueError):
                lfsr_run(bad, 3)


class TestBiasQuantization:
    """Biases keep their values to within one step (ranges include zero)."""

    def _model(self, biases, rng):
        n_out = len(biases)
        return GlmModel(
            n_inputs=3, n_outputs=n_out, presentation_time=4, window=2,
            weights=rng.normal(size=(3, n_out, 2)), biases=np.asarray(biases),
        )

    @pytest.mark.parametrize("bits", [5, 6, 7, 8])
    @pytest.mark.parametrize(
        "biases",
        [[-5.6, -5.5, -5.4, -5.45], [-4.4, -4.4, -4.4], [-3.0], [2.5]],
        ids=["all-negative", "equal", "single-output", "single-positive"],
    )
    def test_biases_survive_within_one_step(self, bits, biases):
        qm = quantize_model(self._model(biases, np.random.default_rng(bits)), bits)
        assert qm.gamma_step > 0
        # the extreme value clamps from code -2**(b-1) to -(2**(b-1) - 1)
        err = np.abs(dequant_biases(qm) - biases).max()
        assert err <= qm.gamma_step * (1 + 1e-9)
        assert qm.gamma_min <= min(min(biases), 0.0)
        assert qm.gamma_max >= max(max(biases), 0.0)

    def test_all_zero_biases_stay_zero(self):
        qm = quantize_model(self._model([0.0, 0.0], np.random.default_rng(3)), 8)
        assert np.all(qm.gamma_codes == 0)

    def test_explicit_bounds_set_the_step(self):
        # step 3 / 16: -3.0 is code -16, clamped to -15; -1.0 is -5.33
        codes = quantize_uniform(np.array([-3.0, -1.0]), 5, lo=-3.0, hi=0.0)
        assert codes.tolist() == [-15, -5]


class TestQuantizedDecisions:
    """Batched first-to-spike decisions against the per-neuron loop."""

    @pytest.mark.parametrize("bits", range(2, 9))
    def test_batch_matches_per_neuron_loop(self, bits):
        rng = np.random.default_rng(100 + bits)
        model = GlmModel(
            n_inputs=6, n_outputs=4, presentation_time=7, window=3,
            weights=rng.normal(size=(6, 4, 3)), biases=rng.normal(-1.0, 1.0, size=4),
        )
        qm = quantize_model(model, bits)
        rasters = rng.integers(0, 2, size=(12, 6, 7))
        signs = rng.choice([-1, 1], size=(12, 6))
        seeds = [derive_lfsr_seed(bits, k) for k in range(12)]
        predicted, decision_time = first_to_spike_quantized(qm, rasters, signs, seeds)
        for k, seed in enumerate(seeds):
            want = infer_fts_quantized_loop(qm, rasters[k], signs[k], seed)
            assert (int(predicted[k]), int(decision_time[k]) or None) == want

    def test_evaluate_matches_per_sample_loop(self):
        model, mags, signs, _ = sweep_case()
        for bits in (5, 8):
            qm = quantize_model(model, bits)
            [got] = decided(mags, signs, bits, [qm])
            assert got == quantized_decisions_loop(qm, mags, signs, seed=bits)

    @pytest.mark.parametrize("signs_shape, n_seeds, message", [
        ((3, 4), 3, r"signs of shape \(3, 4\) .* need \(batch, n_inputs\) = \(3, 5\)"),
        ((3, 5), 2, "2 LFSR seeds for a batch of 3"),
    ])
    def test_rejects_signs_and_seeds_that_do_not_fit_the_batch(self, signs_shape, n_seeds,
                                                               message):
        qm = quantize_model(sweep_case()[0], 8)  # 5 inputs
        rasters = np.ones((3, 5, 6), dtype=np.uint8)
        with pytest.raises(ValueError, match=message):
            first_to_spike_quantized(qm, rasters, np.ones(signs_shape), [1, 2, 3][:n_seeds])

    def test_saturating_model_matches_per_neuron_loop(self, monkeypatch):
        # with the accumulator limit lowered to 600, a small model saturates
        # on most steps, so the line-by-line re-sum decides; the loop oracle
        # reads the same limit
        monkeypatch.setattr(quantize, "ACC_LIMIT", 600)
        rng = np.random.default_rng(111)
        qm = QuantizedModel(
            bits=6, w_codes=rng.integers(10, 32, size=(12, 3, 4)),
            gamma_codes=np.array([-16, -14, -12]),
            w_min=-0.2, w_max=0.2, gamma_min=-8.0, gamma_max=8.0,
            presentation_time=8, window=4,
        )
        kmat, exact = quantize.datapath_operands(qm.w_codes)
        assert not exact
        rasters = (rng.random((30, 12, 8)) < 0.8).astype(np.uint8)
        signs = np.where(np.arange(12) < 9, 1, -1) * np.ones((30, 1), dtype=np.int64)
        seeds = [derive_lfsr_seed(3, k) for k in range(30)]
        predicted, decision_time = first_to_spike_quantized(qm, rasters, signs, seeds)
        for k in range(30):
            want = infer_fts_quantized_loop(qm, rasters[k], signs[k], seeds[k])
            assert (int(predicted[k]), int(decision_time[k]) or None) == want
        plain = first_to_spike_quantized(qm, rasters, signs, seeds, (kmat, True))
        assert np.any(plain[1] != decision_time)

    @pytest.mark.parametrize("bits", [1, 9, 16])
    def test_undefined_precisions_are_rejected(self, bits):
        # a model of a precision the datapath lacks cannot be built
        bound = 2 ** (bits - 1) - 1
        with pytest.raises(ValueError, match="datapath"):
            QuantizedModel(
                bits=bits, w_codes=np.full((2, 2, 2), bound, dtype=np.int16),
                gamma_codes=np.zeros(2, dtype=np.int16),
                w_min=-1.0, w_max=1.0, gamma_min=-1.0, gamma_max=1.0,
                presentation_time=3, window=2,
            )


def sweep_case(n_inputs=5, duration=6):
    """A float model and a split of more than one encoding block:
    (model, magnitudes, signs, labels)."""
    rng = np.random.default_rng(110)
    model = GlmModel(
        n_inputs=n_inputs, n_outputs=3, presentation_time=duration, window=4,
        weights=rng.normal(size=(n_inputs, 3, 4)), biases=rng.normal(-1.0, 0.5, size=3),
    )
    x = rng.uniform(-1.0, 1.0, size=(150, n_inputs))
    labels = rng.integers(0, 3, size=150)
    return model, np.abs(x), np.where(x < 0, -1, 1), labels


def decided(mags, signs, seed, qms, model=None):
    """Each model's (predicted, decision_time) of every sample in
    decide_blocks from default_rng(seed), the float model's first."""
    per_model = [[] for _ in range(len(qms) + (model is not None))]
    rng = np.random.default_rng(seed)
    for _, _, decisions in decide_blocks(mags, signs, rng, seed, qms, model):
        for out, (predicted, decision_time) in zip(per_model, decisions):
            out += zip(predicted.tolist(), decision_time.tolist())
    return per_model


class TestEvaluateSweep:
    """decide_blocks decides every model of a sweep on one encoding."""

    def test_each_entry_matches_per_sample_loop(self):
        model, mags, signs, _ = sweep_case()
        qms = [quantize_model(model, 5), quantize_model(model, 8)]
        want = [quantized_decisions_loop(qm, mags, signs, seed=3) for qm in qms]
        assert decided(mags, signs, 3, qms) == want

    @pytest.mark.parametrize("limit", [None, 70])
    def test_sweep_equals_one_call_per_model(self, limit):
        # the float model draws its uniforms after each block's rasters, and
        # the quantized models draw nothing from the rng: the float
        # decisions are the same with or without the sweep
        model, mags, signs, _ = sweep_case()
        qms = [quantize_model(model, bits) for bits in (5, 6, 7, 8)]
        split = mags[:limit], signs[:limit]
        assert decided(*split, 4, qms) == [decided(*split, 4, [qm])[0] for qm in qms]
        assert decided(*split, 4, qms, model)[0] == decided(*split, 4, (), model)[0]

    def test_each_block_is_drawn_once_per_sweep(self, monkeypatch):
        model, mags, signs, labels = sweep_case()
        draws = []
        draw_rasters = glm.draw_rasters

        def counted(mag, duration, rng):
            draws.append(len(mag))
            return draw_rasters(mag, duration, rng)

        monkeypatch.setattr(glm, "draw_rasters", counted)
        qms = [quantize_model(model, bits) for bits in (5, 6, 7, 8)]
        decided(mags, signs, 5, qms, model)
        assert len(draws) == math.ceil(len(labels) / glm.ENCODE_CHUNK)
        assert sum(draws) == len(labels)

    def test_rejects_empty_and_mixed_sweeps(self):
        model, mags, signs, _ = sweep_case()
        q5 = quantize_model(model, 5)
        longer = sweep_case(duration=8)[0]
        wider = sweep_case(n_inputs=6)[0]
        with pytest.raises(ValueError, match="at least one model"):
            decided(mags, signs, 6, [])
        for qms, float_model in (([q5, quantize_model(longer, 5)], None),
                                 ([q5, quantize_model(wider, 5)], None),
                                 ([q5], longer), ([q5], wider)):
            with pytest.raises(ValueError, match="share presentation_time and n_inputs"):
                decided(mags, signs, 6, qms, float_model)

    @pytest.mark.parametrize("kind", ["float", "quantized"])
    @pytest.mark.parametrize("split", ["six_wide", "one_dim_signs", "signs_for_9_of_10"])
    def test_rejects_a_split_that_does_not_fit_before_the_first_draw(self, kind, split):
        model, mags, signs, _ = sweep_case()
        models = {"model": model} if kind == "float" else {"qms": [quantize_model(model, 8)]}
        mags, signs = {
            "six_wide": (np.hstack([mags, mags[:, :1]]), np.hstack([signs, signs[:, :1]])),
            "one_dim_signs": (mags[:1], signs[0]),
            "signs_for_9_of_10": (mags[:10], signs[:9]),
        }[split]
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=(
                rf"magnitudes of shape \({len(mags)}, \d\) and signs of shape "
                rf"{re.escape(str(signs.shape))}; need both \(n_samples, n_inputs 5\)")):
            next(decide_blocks(mags, signs, rng, 7, **models))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("kind", ["float", "quantized"])
    def test_accuracies_need_one_label_per_sample(self, kind):
        model, mags, signs, labels = sweep_case()
        models = {"model": model} if kind == "float" else {"qms": [quantize_model(model, 8)]}
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"labels of shape \(20,\) for magnitudes of "
                                             r"shape \(10, 5\); need one label per sample"):
            accuracies(labels[:20], mags[:10], signs[:10], rng, 7, **models)
        assert rng.bit_generator.state == state


def coded_model(w_codes, gamma_codes, duration, bits=8, w_range=(-1.0, 1.0),
                g_range=(-0.5, 0.5)):
    w_codes = np.asarray(w_codes)
    return QuantizedModel(
        bits=bits, w_codes=w_codes, gamma_codes=gamma_codes,
        w_min=w_range[0], w_max=w_range[1], gamma_min=g_range[0], gamma_max=g_range[1],
        presentation_time=duration, window=w_codes.shape[2],
    )


def assert_matches_loop(qm, rasters, signs, seeds):
    """first_to_spike_quantized == the per-neuron loop on class and decision
    step.  Returns the decision steps."""
    predicted, decision_time = first_to_spike_quantized(qm, rasters, signs, seeds)
    want = first_to_spike_loop(qm, rasters, signs, seeds)
    assert predicted.tolist() == [w[0] for w in want]
    assert decision_time.tolist() == [w[1] for w in want]
    return decision_time


@pytest.fixture
def chunk_calls(monkeypatch):
    """Every chunk the datapath sums, as (t0, t1, samples still undecided)."""
    calls = []
    sums = quantize._Accumulator.sums

    def recorded(acc, t0, t1):
        calls.append((t0, t1, len(acc.rasters)))
        return sums(acc, t0, t1)

    monkeypatch.setattr(quantize._Accumulator, "sums", recorded)
    return calls


class TestEarlyExit:
    """The datapath runs CHUNK_STEPS steps at a time and drops each sample at
    the chunk in which it decides."""

    def test_decisions_straddle_chunk_boundaries(self, chunk_calls):
        chunk = quantize.CHUNK_STEPS
        duration = 3 * chunk + 1
        rng = np.random.default_rng(140)
        times = []
        for trial in range(6):
            qm = coded_model(rng.integers(-127, 128, size=(8, 5, 3)),
                             rng.integers(-127, -60, size=5), duration,
                             g_range=(-6.0, 6.0))
            rasters = (rng.random((40, 8, duration)) < 0.5).astype(np.uint8)
            signs = rng.choice([-1, 1], size=(40, 8))
            seeds = [derive_lfsr_seed(trial, k) for k in range(40)]
            chunk_calls.clear()
            decision_time = assert_matches_loop(qm, rasters, signs, seeds)
            # a chunk sums the samples not decided before it, and no later one
            undecided = [int(np.count_nonzero((decision_time == 0) | (decision_time > t0)))
                         for t0 in range(0, duration, chunk)]
            assert [n for _, _, n in chunk_calls] == undecided[: len(chunk_calls)]
            assert len(chunk_calls) == len(undecided) or undecided[len(chunk_calls)] == 0
            times += decision_time.tolist()
        # decisions at the last step of a chunk and the first of the next,
        # in every chunk, and fallbacks that ran the whole train
        assert {chunk, chunk + 1, 2 * chunk, 2 * chunk + 1, duration, 0} <= set(times)

    def test_all_fallback_batch_runs_every_step(self, chunk_calls):
        # biases of -8 and codes worth 1/8 keep every potential below -7, so
        # the PWL gives 0 and no neuron ever fires.  Input 0 spikes only at
        # step T-1 and drives output 2 alone: the final potentials, and only
        # they, name output 2.
        chunk = quantize.CHUNK_STEPS
        duration = 2 * chunk + 1
        w_codes = np.zeros((3, 4, 2), dtype=np.int16)
        w_codes[0, 2, 0] = 1
        w_codes[1:] = np.random.default_rng(141).integers(0, 2, size=(2, 4, 2))
        qm = coded_model(w_codes, np.full(4, -127), duration, w_range=(-8.0, 8.0),
                         g_range=(-4 * 128 / 127, 4 * 128 / 127))
        rng = np.random.default_rng(142)
        rasters = (rng.random((12, 3, duration)) < 0.5).astype(np.uint8)
        rasters[0] = 0
        rasters[0, 0, duration - 2] = 1
        signs = np.ones((12, 3), dtype=np.int64)
        seeds = [derive_lfsr_seed(7, k) for k in range(12)]
        decision_time = assert_matches_loop(qm, rasters, signs, seeds)
        assert np.all(decision_time == 0)
        assert chunk_calls == [(0, chunk, 12), (chunk, 2 * chunk, 12),
                               (2 * chunk, duration, 12)]
        assert first_to_spike_quantized(qm, rasters[:1], signs[:1], seeds[:1])[0][0] == 2

    def test_batch_deciding_at_step_one_sums_one_chunk(self, chunk_calls):
        # biases at the 1.4.3 maximum give PWL 255 on the empty step-1
        # window, so some output of every sample fires at step 1
        rng = np.random.default_rng(143)
        qm = coded_model(rng.integers(-127, 128, size=(5, 6, 3)), np.full(6, 127), 9,
                         g_range=(-8.0, 8.0))
        rasters = (rng.random((30, 5, 9)) < 0.7).astype(np.uint8)
        signs = rng.choice([-1, 1], size=(30, 5))
        seeds = [derive_lfsr_seed(8, k) for k in range(30)]
        decision_time = assert_matches_loop(qm, rasters, signs, seeds)
        assert np.all(decision_time == 1)
        assert chunk_calls == [(0, quantize.CHUNK_STEPS, 30)]

    @pytest.mark.parametrize("window,duration", [(3, 1), (1, 1), (5, 3)])
    def test_short_trains_and_windows_longer_than_the_train(self, window, duration):
        # the model presents for at least its window; the trains stop earlier
        rng = np.random.default_rng(144 + window + duration)
        qm = coded_model(rng.integers(-127, 128, size=(4, 3, window)),
                         rng.integers(-127, 0, size=3), max(window, duration),
                         g_range=(-8.0, 8.0))
        rasters = (rng.random((25, 4, duration)) < 0.6).astype(np.uint8)
        signs = rng.choice([-1, 1], size=(25, 4))
        seeds = [derive_lfsr_seed(9, k) for k in range(25)]
        assert_matches_loop(qm, rasters, signs, seeds)

    def test_potential_scales_in_float64(self):
        # the one output's sum at step 2 is the code 121; in float32 the
        # product 121 * w_step rounds up to 7.5625, which with the -7.5 bias
        # is a tie that rounds to code 1 (PWL 136); in float64 it stays
        # below the tie, code 0 (PWL 128).  The step-2 draw lies in
        # [128, 136), so only the float32 product would fire.
        w_step = 7.5625 / 121 * (1 - 1e-12)
        qm = coded_model(np.full((1, 1, 1), 121), np.array([-120]), 2,
                         w_range=(-64 * w_step, 64 * w_step), g_range=(-4.0, 4.0))
        bias = dequant_biases(qm)
        assert qm.w_step == w_step and bias[0] == -7.5
        assert clip_to_fixed(np.float32([121]) * w_step + bias)[0] == 1
        assert clip_to_fixed(np.float64([121]) * w_step + bias)[0] == 0
        starts = np.arange(1, LFSR_PERIOD + 1)
        step2 = lfsr_run(starts, 2)[:, 1] & 0xFF
        seed = int(starts[(step2 >= 128) & (step2 < 136)][0])
        rasters, signs = np.array([[[1, 0]]]), np.array([[1]])
        kmat = quantize.datapath_operands(qm.w_codes)[0]
        assert kmat.dtype == np.float32
        assert assert_matches_loop(qm, rasters, signs, [seed]).tolist() == [0]


def float_decisions(model, mags, signs, seed):
    """decide_blocks' float decisions of a split, and the all-steps
    reference's on the same rasters and uniforms: windowed_potentials plus
    the bias over every step, then glm.first_spike.  Returns (got, want),
    each of shape (2, n_samples): the classes, then the decision steps."""
    blocks = decide_blocks(mags, signs, np.random.default_rng(seed), seed, model=model)
    got = np.concatenate([np.stack(d) for _, _, [d] in blocks], axis=1)
    rng, kmat, want = np.random.default_rng(seed), kernel_matrix(model.weights), []
    for start, rasters in glm.encoded_chunks(mags, model.presentation_time, rng):
        uniforms = rng.random((len(rasters), model.presentation_time, model.n_outputs))
        u = windowed_potentials(rasters, signs[start : start + len(rasters)], kmat,
                                model.window) + model.biases
        want.append(np.stack(glm.first_spike(uniforms < glm.sigmoid(u), u[:, -1])))
    return got, np.concatenate(want, axis=1)


class TestFloatDecisions:
    """The float model decides through the chunked, early-exit loop of the
    quantized datapath, its float64 tap adds in chunk order, and matches
    the all-steps potentials on the same uniforms."""

    def test_random_shapes_match_the_all_steps_reference(self):
        chunk = quantize.CHUNK_STEPS
        rng = np.random.default_rng(160)
        # T = 1, T off the chunk grid, windows longer than a chunk, then
        # random shapes; batches of one block and of several
        shapes = [(1, 1), (2 * chunk + 1, chunk + 2), (3 * chunk + 2, 2 * chunk + 1)]
        shapes += [(d, int(rng.integers(1, d + 1)))
                   for d in rng.integers(1, 3 * chunk + 3, size=37)]
        times = set()
        for case, (duration, window) in enumerate(shapes):
            n_inputs, n_outputs = int(rng.integers(1, 13)), int(rng.integers(1, 7))
            batch = int(rng.choice([1, 17, glm.ENCODE_CHUNK, 2 * glm.ENCODE_CHUNK + 5]))
            model = GlmModel(n_inputs, n_outputs, int(duration), window,
                             weights=rng.normal(size=(n_inputs, n_outputs, window)),
                             biases=rng.uniform(-7.0, -2.0, size=n_outputs))
            mags = rng.random((batch, n_inputs))
            signs = rng.choice([-1, 1], size=(batch, n_inputs))
            got, want = float_decisions(model, mags, signs, case)
            assert np.array_equal(got, want), (duration, window)
            times |= set(got[1].tolist())
        # decisions on both sides of the first two chunk boundaries, and fallbacks
        assert {chunk, chunk + 1, 2 * chunk, 2 * chunk + 1, 0} <= times

    def test_high_biases_sum_only_the_first_chunk(self, chunk_calls):
        # sigmoid(30) is 1 - 1e-13: every sample spikes at step 1
        rng = np.random.default_rng(161)
        model = GlmModel(7, 4, 3 * quantize.CHUNK_STEPS + 1, 5,
                         weights=rng.normal(size=(7, 4, 5)), biases=np.full(4, 30.0))
        mags, signs = rng.random((40, 7)), rng.choice([-1, 1], size=(40, 7))
        got, want = float_decisions(model, mags, signs, 161)
        assert np.array_equal(got, want) and np.all(got[1] == 1)
        assert chunk_calls == [(0, quantize.CHUNK_STEPS, 40)]

    def test_a_model_that_never_fires_runs_every_chunk(self, chunk_calls):
        # potentials below -57 fire with probability below 2e-25
        chunk = quantize.CHUNK_STEPS
        duration = 3 * chunk + 1
        rng = np.random.default_rng(162)
        model = GlmModel(7, 4, duration, 5, weights=rng.uniform(-0.05, 0.05, size=(7, 4, 5)),
                         biases=rng.uniform(-61.0, -59.0, size=4))
        mags, signs = rng.random((40, 7)), rng.choice([-1, 1], size=(40, 7))
        got, want = float_decisions(model, mags, signs, 162)
        assert np.array_equal(got, want) and np.all(got[1] == 0)
        assert chunk_calls == [(0, chunk, 40), (chunk, 2 * chunk, 40),
                               (2 * chunk, 3 * chunk, 40), (3 * chunk, duration, 40)]


class TestOperandPrecision:
    """datapath_operands sums in float32: every step below ACC_LIMIT sums
    exactly, and the steps above it are summed again in int64."""

    def test_small_models_sum_in_float32(self):
        rng = np.random.default_rng(150)
        kmat, exact = quantize.datapath_operands(rng.integers(-127, 128, size=(256, 256, 7)))
        assert kmat.dtype == np.float32 and exact

    def test_exact_up_to_a_code_sum_of_acc_limit(self):
        # per neuron over its inputs and taps, 1032 codes of 127 and one 7
        # sum to ACC_LIMIT; a code of -1 more is past it
        flat = np.zeros(1800, dtype=np.int16)
        flat[:1032], flat[1032] = 127, 7
        codes = np.stack([flat.reshape(600, 3), flat[::-1].reshape(600, 3)], axis=1)
        assert quantize.datapath_operands(codes)[1]
        codes[0, 1, 0] = -1
        assert not quantize.datapath_operands(codes)[1]

    def test_sums_past_two_to_the_24_match_the_integer_oracle(self):
        # neuron 0's |code| sum is 127 * (8 * 16779 - 3), odd and above
        # 2**24: a sparse sample whose sums the plain GEMM gives, and a
        # dense one whose last step sums every line, which float32 cannot
        # hold, and which saturates
        n_inputs, duration = 16_779, 9
        rng = np.random.default_rng(151)
        codes = rng.integers(100, 128, size=(n_inputs, 2, 8))
        codes[:, 0] = 127
        codes[0, 0, :3] = 0
        full = 127 * (8 * n_inputs - 3)
        assert np.abs(codes).sum(axis=(0, 2))[0] == full > 2**24 and full % 2
        rasters = np.zeros((2, n_inputs, duration), dtype=np.uint8)
        rasters[0, rng.choice(n_inputs, 60, replace=False), :2] = 1
        rasters[1] = 1
        signs = rng.choice([-1, 1], size=(2, n_inputs))
        signs[1] = 1
        kmat, exact = quantize.datapath_operands(codes)
        assert kmat.dtype == np.float32 and not exact
        plain = windowed_potentials(rasters[1:], signs[1:], kmat, 8)
        assert int(plain[0, -1, 0]) != full
        sums = datapath_sums(rasters, signs, kmat, 8, exact)
        for k in range(2):
            assert np.array_equal(sums[k], saturating_sums_loop(rasters[k], signs[k], codes))
        assert np.abs(sums[0]).max() < quantize.ACC_LIMIT
        assert np.all(sums[1, 1:] == quantize.ACC_LIMIT)
