import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesim import quantize
from spikesim.glm import GlmModel, SpikeTrain
from spikesim.quantize import (
    FMT_1_4_3,
    LFSR_PERIOD,
    FixedPointFormat,
    QuantizedModel,
    clip_to_fixed,
    derive_lfsr_seed,
    evaluate_quantized,
    first_to_spike_quantized,
    lfsr_next,
    lfsr_run,
    pwl_sigmoid,
    quantize_model,
    quantize_uniform,
    spike_decision,
)
from oracles import evaluate_quantized_loop, infer_fts_quantized_loop, quantized_potentials


def scalar_quantize(v, lo, hi, bits):
    """Independent per-element quantizer: plain python arithmetic."""
    step = (hi - lo) / 2 ** (bits - 1)
    if step == 0:
        return 0, 0.0
    r = v / step
    c = math.floor(abs(r) + 0.5) * (1 if r >= 0 else -1)
    bound = 2 ** (bits - 1) - 1
    return max(-bound, min(bound, c)), step


class TestQuantizeUniform:
    def test_step_for_symmetric_unit_range(self):
        codes, step = quantize_uniform(np.array([-1.0, 0.0, 1.0]), 5)
        assert step == 0.125

    def test_zero_maps_to_code_zero(self):
        for bits in range(2, 9):
            codes, _ = quantize_uniform(np.array([-1.0, 0.0, 1.0]), bits)
            assert codes[1] == 0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(61)
        values = rng.normal(size=200) * 3
        codes, step = quantize_uniform(values, 5)
        lo, hi = values.min(), values.max()
        for v, c in zip(values, codes):
            want, want_step = scalar_quantize(v, lo, hi, 5)
            assert c == want
            assert step == pytest.approx(want_step)

    def test_error_bound_inside_range(self):
        rng = np.random.default_rng(62)
        values = rng.uniform(-1, 1, size=500)
        values[0], values[1] = -1.0, 1.0
        codes, step = quantize_uniform(values, 5)
        dequant = codes * step
        bound = 2**4 - 1
        unclipped = np.abs(values / step) <= bound + 0.5
        assert np.all(np.abs(values - dequant)[unclipped] <= step / 2 + 1e-12)

    def test_degenerate_range_flags_zero_step(self):
        codes, step = quantize_uniform(np.full(4, 2.5), 6)
        assert step == 0.0
        assert np.all(codes == 0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            quantize_uniform(np.array([np.inf]), 5)
        with pytest.raises(ValueError):
            quantize_uniform(np.array([1.0]), 0)

    def test_one_bit_collapses_every_code(self):
        codes, step = quantize_uniform(np.array([-1.0, 0.3, 1.0]), 1)
        assert np.all(codes == 0)
        assert step == 2.0


class TestClipToFixed:
    def test_zero(self):
        assert clip_to_fixed(0.0) == 0

    def test_saturates_high_and_low(self):
        assert clip_to_fixed(100.0) * FMT_1_4_3.step == 7.875
        assert clip_to_fixed(-100.0) * FMT_1_4_3.step == -8.0

    def test_rounding_oracle_value(self):
        # -1.44 / 0.125 = -11.52, nearest is -12
        assert clip_to_fixed(-1.44) * FMT_1_4_3.step == -1.5

    def test_ties_round_away_from_zero(self):
        assert clip_to_fixed(-1.4375) * FMT_1_4_3.step == -1.5
        assert clip_to_fixed(1.4375) * FMT_1_4_3.step == 1.5

    def test_format_range_derivation(self):
        fmt = FMT_1_4_3
        assert (fmt.min_value, fmt.max_value) == (-8.0, 7.875)
        assert fmt.step == 0.125
        assert fmt.width == 8

    @given(st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, u):
        once = clip_to_fixed(u)
        again = clip_to_fixed(once * FMT_1_4_3.step)
        assert once == again

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(63)
        us = rng.uniform(-12, 12, size=64)
        vec = clip_to_fixed(us)
        assert [clip_to_fixed(float(u)) for u in us] == vec.tolist()


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


class TestSpikeDecision:
    def test_zero_activation_never_spikes(self):
        state = 1
        for _ in range(1000):
            spike, state = spike_decision(0, state)
            assert not spike

    def test_full_activation_spikes_unless_byte_is_255(self):
        state = 1
        for _ in range(2000):
            low = state & 0xFF
            spike, state = spike_decision(255, state)
            assert spike == (low != 255)

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
        deq = qm.dequant_weights()
        assert deq.min() >= qm.w_min - qm.w_step
        assert deq.max() <= qm.w_max + qm.w_step

    def test_code_bound_enforced(self):
        with pytest.raises(ValueError):
            QuantizedModel(
                bits=5,
                w_codes=np.full((1, 1, 1), 16, dtype=np.int16),
                gamma_codes=np.zeros(1, dtype=np.int16),
                w_min=-1.0, w_max=1.0, gamma_min=0.0, gamma_max=0.0,
                presentation_time=2, window=1,
            )

    def test_potentials_match_dequantized_reference(self):
        rng = np.random.default_rng(72)
        model, qm = tiny_quantized_model(rng, bits=8)
        raster = rng.integers(0, 2, size=(3, 5))
        sign = rng.choice([-1, 1], size=3)
        train = SpikeTrain(raster=raster, sign=sign)
        kernel_sums, u_real = quantized_potentials(qm, train)
        # reference: dequantized-weight model evaluated in float
        ref_model = GlmModel(
            n_inputs=3, n_outputs=2, presentation_time=5, window=3,
            weights=qm.dequant_weights(), biases=qm.dequant_biases(),
        )
        from spikesim.glm import membrane_series

        ref = membrane_series(ref_model, train)
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


class TestLfsrTable:
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
        err = np.abs(qm.dequant_biases() - biases).max()
        assert err <= qm.gamma_step * (1 + 1e-9)
        assert qm.gamma_min <= min(min(biases), 0.0)
        assert qm.gamma_max >= max(max(biases), 0.0)

    def test_all_zero_biases_stay_zero(self):
        qm = quantize_model(self._model([0.0, 0.0], np.random.default_rng(3)), 8)
        assert np.all(qm.gamma_codes == 0)

    def test_explicit_bounds_set_the_step(self):
        codes, step = quantize_uniform(np.array([-3.0, -1.0]), 5, lo=-3.0, hi=0.0)
        assert step == pytest.approx(3.0 / 16)
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
        trains = [SpikeTrain(raster=rng.integers(0, 2, size=(6, 7)),
                             sign=rng.choice([-1, 1], size=6)) for _ in range(12)]
        seeds = [derive_lfsr_seed(bits, k) for k in range(12)]
        predicted, decision_time = first_to_spike_quantized(
            qm, np.stack([t.raster for t in trains]), np.stack([t.sign for t in trains]), seeds
        )
        for k, (train, seed) in enumerate(zip(trains, seeds)):
            want = infer_fts_quantized_loop(qm, train, seed)
            assert (int(predicted[k]), int(decision_time[k]) or None) == want

    def test_evaluate_matches_per_sample_loop(self):
        rng = np.random.default_rng(110)
        model = GlmModel(
            n_inputs=5, n_outputs=3, presentation_time=6, window=4,
            weights=rng.normal(size=(5, 3, 4)), biases=rng.normal(-1.0, 0.5, size=3),
        )
        x = rng.uniform(-1.0, 1.0, size=(150, 5))  # more than one block
        labels = rng.integers(0, 3, size=150)
        signs = np.where(x < 0, -1, 1)
        for bits in (5, 8):
            qm = quantize_model(model, bits)
            got = evaluate_quantized(qm, np.abs(x), signs, labels, seed=bits)
            want = evaluate_quantized_loop(qm, np.abs(x), signs, labels, seed=bits)
            assert got == want

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
        kmat, gamma_codes, exact = quantize.datapath_operands(qm.w_codes, qm.gamma_codes)
        assert not exact
        rasters = (rng.random((30, 12, 8)) < 0.8).astype(np.uint8)
        signs = np.where(np.arange(12) < 9, 1, -1) * np.ones((30, 1), dtype=np.int64)
        seeds = [derive_lfsr_seed(3, k) for k in range(30)]
        predicted, decision_time = first_to_spike_quantized(qm, rasters, signs, seeds)
        for k in range(30):
            want = infer_fts_quantized_loop(qm, SpikeTrain(rasters[k], signs[k]), seeds[k])
            assert (int(predicted[k]), int(decision_time[k]) or None) == want
        plain = first_to_spike_quantized(qm, rasters, signs, seeds, (kmat, gamma_codes, True))
        assert np.any(plain[1] != decision_time)

    @pytest.mark.parametrize("bits", [1, 9, 16])
    def test_undefined_precisions_are_rejected(self, bits):
        bound = 2 ** (bits - 1) - 1
        qm = QuantizedModel(
            bits=bits, w_codes=np.full((2, 2, 2), bound, dtype=np.int16),
            gamma_codes=np.zeros(2, dtype=np.int16),
            w_min=-1.0, w_max=1.0, gamma_min=-1.0, gamma_max=1.0,
            presentation_time=3, window=2,
        )
        with pytest.raises(ValueError, match="datapath"):
            first_to_spike_quantized(qm, np.ones((1, 2, 3)), np.ones((1, 2)), [0x1234])
