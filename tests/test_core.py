import numpy as np
import pytest

from spikesim import quantize
from spikesim.core import (
    CoreGeometry,
    CoreMemoryImage,
    CoreState,
    core_step,
    first_to_spike_batch,
    gather_active_wordlines,
    latency_cdf,
    load_image,
    map_model_to_memory,
    save_image,
    unpack_model,
)
from spikesim.glm import SpikeTrain
from spikesim.quantize import (
    ACC_LIMIT,
    BLOCK_ELEMENTS,
    DATAPATH_BITS,
    QuantizedModel,
    datapath_operands,
    derive_lfsr_seed,
    first_to_spike_quantized,
    infer_fts_quantized,
)
from spikesim.training import FtsDecision

from oracles import (
    build_windows,
    first_to_spike_loop,
    run_first_to_spike,
    spike_window,
    unpack_memory,
)


def random_qm(rng, bits=8, n_inputs=4, n_outputs=5, window=3, duration=6,
              w_range=(-1.0, 1.0), g_range=(-0.5, 0.5)):
    bound = 2 ** (bits - 1) - 1
    return QuantizedModel(
        bits=bits,
        w_codes=rng.integers(-bound, bound + 1, size=(n_inputs, n_outputs, window)),
        gamma_codes=rng.integers(-bound, bound + 1, size=n_outputs),
        w_min=w_range[0], w_max=w_range[1],
        gamma_min=g_range[0], gamma_max=g_range[1],
        presentation_time=duration,
        window=window,
    )


def oracle_kernel_sums(qm, raster, sign, t):
    """Triple-loop integer evaluation of the windowed code sum at step t."""
    sums = []
    for i in range(qm.n_outputs):
        acc = 0
        for j in range(qm.n_inputs):
            for d in range(1, qm.window + 1):
                s = t - d
                if s >= 1 and raster[j, s - 1]:
                    acc += int(sign[j]) * int(qm.w_codes[j, i, d - 1])
        sums.append(acc)
    return np.array(sums, dtype=np.int64)


class TestGeometry:
    def test_default_core_dimensions(self):
        geom = CoreGeometry()
        assert geom.word_width == 2048
        assert geom.n_kernel_lines == 1792
        assert geom.n_wordlines == 1793
        assert geom.device_rows == 2048
        assert geom.gamma_line == 1792

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            CoreGeometry(n_inputs=0)
        with pytest.raises(ValueError):
            CoreGeometry(bits=1)
        with pytest.raises(ValueError):
            CoreGeometry(bits=9)  # outside the quantized datapath's 2..8


class TestMemoryMapping:
    def test_full_size_model_uses_1793_lines(self):
        rng = np.random.default_rng(81)
        qm = random_qm(rng, n_inputs=256, n_outputs=256, window=7, duration=8)
        image = map_model_to_memory(qm, CoreGeometry())
        kernel, gamma = unpack_memory(image)
        assert kernel.shape == (1792, 256)
        assert image.bits.shape == (2048, 2048)
        # every kernel line carries data for this dense model
        assert np.array_equal(gamma, qm.gamma_codes)

    def test_zero_model_gives_zero_image(self):
        qm = QuantizedModel(
            bits=8,
            w_codes=np.zeros((2, 2, 3), dtype=np.int16),
            gamma_codes=np.zeros(2, dtype=np.int16),
            w_min=-1, w_max=1, gamma_min=-1, gamma_max=1,
            presentation_time=4, window=3,
        )
        image = map_model_to_memory(qm, CoreGeometry(n_inputs=2, n_outputs=2, window=3))
        assert image.bits.sum() == 0

    def test_pack_unpack_roundtrip_code_for_code(self):
        rng = np.random.default_rng(82)
        for bits in (5, 6, 7, 8):
            qm = random_qm(rng, bits=bits)
            geom = CoreGeometry(n_inputs=6, n_outputs=8, window=4, bits=bits)
            image = map_model_to_memory(qm, geom)
            w_codes, gamma_codes = unpack_model(image, 4, 5, 3)
            assert np.array_equal(w_codes, qm.w_codes)
            assert np.array_equal(gamma_codes, qm.gamma_codes)

    def test_rejects_oversized_or_mismatched_model(self):
        rng = np.random.default_rng(83)
        qm = random_qm(rng, n_inputs=4, n_outputs=5, window=3)
        with pytest.raises(ValueError):
            map_model_to_memory(qm, CoreGeometry(n_inputs=2, n_outputs=5, window=3))
        with pytest.raises(ValueError):
            map_model_to_memory(qm, CoreGeometry(n_inputs=4, n_outputs=5, window=2))
        with pytest.raises(ValueError):
            map_model_to_memory(qm, CoreGeometry(n_inputs=4, n_outputs=5, window=3, bits=5))

    def test_image_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(84)
        qm = random_qm(rng)
        geom = CoreGeometry(n_inputs=4, n_outputs=5, window=3)
        image = map_model_to_memory(qm, geom)
        path = tmp_path / "core.img"
        save_image(path, image)
        loaded = load_image(path)
        assert loaded.geometry == geom
        assert np.array_equal(loaded.bits, image.bits)

    def test_image_file_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.img"
        path.write_bytes(b"not an image at all")
        with pytest.raises(ValueError):
            load_image(path)


class TestSpikeWindow:
    def test_first_step_is_all_zero(self):
        history = np.ones(8, dtype=np.uint8)
        assert spike_window(history, 1, 7).tolist() == [0] * 7

    def test_step_three_shows_s2_s1(self):
        history = np.zeros(8, dtype=np.uint8)
        history[0], history[1] = 1, 1  # s1, s2
        w = spike_window(history, 3, 7)
        assert w.tolist() == [1, 1, 0, 0, 0, 0, 0]
        history[0] = 0  # s1 absent
        assert spike_window(history, 3, 7).tolist() == [1, 0, 0, 0, 0, 0, 0]

    def test_full_history_gives_full_window(self):
        history = np.ones(8, dtype=np.uint8)
        assert spike_window(history, 8, 7).tolist() == [1] * 7


class TestGatherActiveWordlines:
    def test_pattern_1010010_reads_lines_1_3_6(self):
        geom = CoreGeometry(n_inputs=4, n_outputs=4, window=7)
        windows = np.zeros((4, 7), dtype=np.uint8)
        windows[0] = [1, 0, 1, 0, 0, 1, 0]
        addrs = gather_active_wordlines(windows, geom)
        assert addrs.tolist() == [0, 2, 5, geom.gamma_line]

    def test_silent_windows_read_only_gamma(self):
        geom = CoreGeometry(n_inputs=4, n_outputs=4, window=7)
        addrs = gather_active_wordlines(np.zeros((4, 7), dtype=np.uint8), geom)
        assert addrs.tolist() == [geom.gamma_line]

    def test_count_is_popcount_plus_one_and_strictly_increasing(self):
        rng = np.random.default_rng(85)
        geom = CoreGeometry(n_inputs=6, n_outputs=4, window=5)
        for _ in range(20):
            windows = rng.integers(0, 2, size=(6, 5)).astype(np.uint8)
            addrs = gather_active_wordlines(windows, geom)
            assert len(addrs) == windows.sum() + 1
            kernel = addrs[:-1]
            assert np.all(np.diff(kernel) > 0)
            assert addrs[-1] == geom.gamma_line


class TestCoreStep:
    def test_zero_image_spikes_at_half_rate(self):
        qm = QuantizedModel(
            bits=8,
            w_codes=np.zeros((2, 64, 3), dtype=np.int16),
            gamma_codes=np.zeros(64, dtype=np.int16),
            w_min=-1, w_max=1, gamma_min=-1, gamma_max=1,
            presentation_time=4, window=3,
        )
        geom = CoreGeometry(n_inputs=2, n_outputs=64, window=3)
        image = map_model_to_memory(qm, geom)
        fired = 0
        draws = 0
        state = CoreState.initial(image, qm, duration=40, lfsr_seed=0xACE1)
        for t in range(40):
            spikes, _ = core_step(state, image, np.zeros(2, dtype=np.uint8), np.ones(2))
            fired += int(spikes.sum())
            draws += 64
        assert abs(fired / draws - 0.5) < 0.05

    def test_draws_match_per_neuron_spike_decisions(self):
        from spikesim.quantize import pwl_sigmoid, spike_decision

        rng = np.random.default_rng(85)
        qm = random_qm(rng, n_inputs=4, n_outputs=7, window=3, duration=6)
        geom = CoreGeometry(n_inputs=4, n_outputs=7, window=3)
        image = map_model_to_memory(qm, geom)
        state = CoreState.initial(image, qm, duration=6, lfsr_seed=0x0F0F)
        for t in range(6):
            lfsr = state.lfsr_state
            spikes, _ = core_step(state, image, rng.integers(0, 2, size=4), np.ones(4))
            pwl = pwl_sigmoid(state.last_clipped)
            want = []
            for i in range(7):
                fired, lfsr = spike_decision(int(pwl[i]), lfsr)
                want.append(int(fired))
            assert spikes.tolist() == want
            assert state.lfsr_state == lfsr

    def test_single_active_line_matches_scalar_recomputation(self):
        rng = np.random.default_rng(86)
        qm = random_qm(rng, n_inputs=3, n_outputs=4, window=2, duration=4)
        geom = CoreGeometry(n_inputs=3, n_outputs=4, window=2)
        image = map_model_to_memory(qm, geom)
        state = CoreState.initial(image, qm, duration=4)
        # spike on input 1 at step 1; at step 2 only line (j=1, d=1) is active
        spikes1 = np.array([0, 1, 0], dtype=np.uint8)
        core_step(state, image, spikes1, np.ones(3))
        core_step(state, image, np.zeros(3, dtype=np.uint8), np.ones(3))
        for i in range(4):
            want = int(qm.w_codes[1, i, 0])
            assert state.accumulators[i] == want
        u_want = state.accumulators.astype(np.float64) * qm.w_step + qm.dequant_biases()
        from spikesim.quantize import clip_to_fixed

        assert np.array_equal(state.last_clipped, clip_to_fixed(u_want))

    def test_saturation_clamps_instead_of_wrapping(self):
        n_inputs, window = 150, 7  # 150*7*127 = 133350 > 131071
        qm = QuantizedModel(
            bits=8,
            w_codes=np.full((n_inputs, 2, window), 127, dtype=np.int16),
            gamma_codes=np.zeros(2, dtype=np.int16),
            w_min=-1, w_max=1, gamma_min=-1, gamma_max=1,
            presentation_time=window + 2, window=window,
        )
        geom = CoreGeometry(n_inputs=n_inputs, n_outputs=2, window=window)
        image = map_model_to_memory(qm, geom)
        state = CoreState.initial(image, qm, duration=window + 2)
        ones = np.ones(n_inputs, dtype=np.uint8)
        for _ in range(window + 1):
            core_step(state, image, ones, np.ones(n_inputs))
        assert np.all(state.accumulators == ACC_LIMIT)
        # saturated potential still clips to the top of the 1.4.3 range
        assert np.all(state.last_clipped == 63)
        from spikesim.quantize import pwl_sigmoid

        assert pwl_sigmoid(63) == 255

    def test_accumulators_match_integer_oracle(self):
        rng = np.random.default_rng(87)
        for _ in range(50):
            qm = random_qm(
                rng,
                n_inputs=int(rng.integers(1, 6)),
                n_outputs=int(rng.integers(1, 6)),
                window=int(rng.integers(1, 4)),
                duration=5,
            )
            geom = CoreGeometry(
                n_inputs=qm.n_inputs, n_outputs=qm.n_outputs, window=qm.window
            )
            image = map_model_to_memory(qm, geom)
            raster = rng.integers(0, 2, size=(qm.n_inputs, 5)).astype(np.uint8)
            sign = rng.choice([-1, 1], size=qm.n_inputs)
            state = CoreState.initial(image, qm, duration=5)
            for t in range(1, 6):
                core_step(state, image, raster[:, t - 1], sign)
                want = oracle_kernel_sums(qm, raster, sign, t)
                assert np.array_equal(state.accumulators, want)


class TestRunFirstToSpike:
    def test_dominant_bias_decides_at_step_one(self):
        qm = QuantizedModel(
            bits=8,
            w_codes=np.zeros((2, 3, 2), dtype=np.int16),
            gamma_codes=np.array([-127, 127, -127], dtype=np.int16),
            w_min=-1, w_max=1, gamma_min=-8, gamma_max=8,
            presentation_time=6, window=2,
        )
        geom = CoreGeometry(n_inputs=2, n_outputs=3, window=2)
        image = map_model_to_memory(qm, geom)
        train = SpikeTrain(
            raster=np.zeros((2, 6), dtype=np.uint8), sign=np.ones(2, dtype=np.int8)
        )
        decision, trace = run_first_to_spike(image, train, qm, lfsr_seed=0x0101)
        # gamma_step = 16/128, so neuron 1 sits at +15.875 -> clip 7.875 -> pwl 255
        assert decision == FtsDecision(1, 1, False)
        assert trace.steps == 1
        assert trace.decision_time == 1

    def test_silent_network_falls_back_after_full_presentation(self):
        qm = QuantizedModel(
            bits=8,
            w_codes=np.zeros((2, 3, 2), dtype=np.int16),
            # -57 * 0.125 = -7.125: inside the clip range, PWL output still 0
            gamma_codes=np.array([-127, -57, -127], dtype=np.int16),
            w_min=-1, w_max=1, gamma_min=-8, gamma_max=8,
            presentation_time=5, window=2,
        )
        geom = CoreGeometry(n_inputs=2, n_outputs=3, window=2)
        image = map_model_to_memory(qm, geom)
        train = SpikeTrain(
            raster=np.zeros((2, 5), dtype=np.uint8), sign=np.ones(2, dtype=np.int8)
        )
        decision, trace = run_first_to_spike(image, train, qm, lfsr_seed=0x0101)
        assert decision.fallback_used
        assert decision.decision_time is None
        assert decision.predicted_class == 1  # least negative potential
        assert trace.steps == 5

    def test_trace_accounting_matches_popcounts(self):
        rng = np.random.default_rng(88)
        qm = random_qm(rng, n_inputs=5, n_outputs=4, window=3, duration=6,
                       g_range=(-6.0, -5.0))  # negative biases: few early spikes
        geom = CoreGeometry(n_inputs=5, n_outputs=4, window=3)
        image = map_model_to_memory(qm, geom)
        raster = rng.integers(0, 2, size=(5, 6)).astype(np.uint8)
        train = SpikeTrain(raster=raster, sign=np.ones(5, dtype=np.int8))
        decision, trace = run_first_to_spike(image, train, qm, lfsr_seed=0x5A5A)
        windows = build_windows(raster, 3)
        expect = [int(windows[t].sum()) + 1 for t in range(trace.steps)]
        assert trace.reads_per_step == expect
        assert trace.total_reads == sum(expect)
        if decision.decision_time is not None and decision.decision_time < 6:
            # early termination reads strictly fewer lines than a full pass
            full = sum(int(windows[t].sum()) + 1 for t in range(6))
            assert trace.total_reads < full

    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(89)
        qm = random_qm(rng, n_inputs=4, n_outputs=4, window=3, duration=6)
        geom = CoreGeometry(n_inputs=4, n_outputs=4, window=3)
        image = map_model_to_memory(qm, geom)
        raster = rng.integers(0, 2, size=(4, 6)).astype(np.uint8)
        train = SpikeTrain(raster=raster, sign=np.ones(4, dtype=np.int8))
        d1, t1 = run_first_to_spike(image, train, qm, lfsr_seed=0x1111)
        d2, t2 = run_first_to_spike(image, train, qm, lfsr_seed=0x1111)
        assert d1 == d2
        assert t1.decision_time == t2.decision_time
        assert all(np.array_equal(a, b) for a, b in zip(t1.addresses, t2.addresses))

    def test_short_window_model_in_wide_geometry_reads_only_its_taps(self):
        # a 2-tap model mapped into a 7-tap geometry must not touch the
        # unmapped tap lines even when older spikes exist
        rng = np.random.default_rng(91)
        qm = random_qm(rng, n_inputs=3, n_outputs=2, window=2, duration=6)
        geom = CoreGeometry(n_inputs=3, n_outputs=2, window=7)
        image = map_model_to_memory(qm, geom)
        raster = np.ones((3, 6), dtype=np.uint8)
        train = SpikeTrain(raster=raster, sign=np.ones(3, dtype=np.int8))
        decision, trace = run_first_to_spike(image, train, qm, lfsr_seed=0x2222)
        for t, addrs in enumerate(trace.addresses, start=1):
            taps = addrs[:-1] % geom.window
            assert len(addrs) == 3 * min(2, t - 1) + 1
            assert np.all(taps < 2)
        state = CoreState.initial(image, qm, duration=6)
        for t in range(1, 4):
            core_step(state, image, raster[:, t - 1], np.ones(3))
        assert np.array_equal(
            state.accumulators, oracle_kernel_sums(qm, raster, np.ones(3), 3)
        )

    def test_core_agrees_with_quantized_inference_at_every_precision(self):
        # the core and the evaluator run one datapath: b-bit codes, 18-bit
        # saturating accumulator, 8-bit neuron
        rng = np.random.default_rng(90)
        for bits in DATAPATH_BITS:
            for trial in range(25):
                qm = random_qm(rng, bits=bits, n_inputs=4, n_outputs=5, window=3,
                               duration=6)
                geom = CoreGeometry(n_inputs=4, n_outputs=5, window=3, bits=bits)
                image = map_model_to_memory(qm, geom)
                raster = rng.integers(0, 2, size=(4, 6)).astype(np.uint8)
                sign = rng.choice([-1, 1], size=4)
                train = SpikeTrain(raster=raster, sign=sign)
                seed = derive_lfsr_seed(bits, trial)
                core_decision, _ = run_first_to_spike(image, train, qm, lfsr_seed=seed)
                eval_decision = infer_fts_quantized(qm, train, lfsr_seed=seed)
                assert core_decision == eval_decision
        # a model that saturates: 300 inputs of 127 codes, the last 50 negated
        qm = QuantizedModel(
            bits=8, w_codes=np.full((300, 3, 7), 127), gamma_codes=np.array([-120, -110, -100]),
            w_min=-0.008, w_max=0.008, gamma_min=-8.0, gamma_max=8.0,
            presentation_time=10, window=7,
        )
        kmat, gamma_codes, exact = datapath_operands(qm.w_codes, qm.gamma_codes)
        assert not exact
        image = map_model_to_memory(qm, CoreGeometry(n_inputs=300, n_outputs=3, window=7))
        rasters = (rng.random((10, 300, 10)) < 0.9).astype(np.uint8)
        signs = np.tile(np.where(np.arange(300) < 250, 1, -1), (10, 1))
        seeds = [derive_lfsr_seed(9, k) for k in range(10)]
        for raster, sign, seed in zip(rasters, signs, seeds):
            train = SpikeTrain(raster=raster, sign=sign)
            core_decision, _ = run_first_to_spike(image, train, qm, lfsr_seed=seed)
            assert core_decision == infer_fts_quantized(qm, train, lfsr_seed=seed)
        # the saturation decides: plain sums would change some decision steps
        saturated = first_to_spike_quantized(qm, rasters, signs, seeds)[1]
        plain = first_to_spike_quantized(qm, rasters, signs, seeds, (kmat, gamma_codes, True))[1]
        assert np.any(saturated != plain)


def assert_batch_matches_loop(image, qm, rasters, signs, seeds):
    """first_to_spike_batch == the core_step loop on class, decision step,
    fallback and reads per executed step.  Returns the decision steps."""
    predicted, decision_time, reads = first_to_spike_batch(image, qm, rasters, signs, seeds)
    want = first_to_spike_loop(image, qm, rasters, signs, seeds)
    assert predicted.tolist() == [w[0] for w in want]
    assert decision_time.tolist() == [w[1] for w in want]
    for k, (_, t_d, want_reads) in enumerate(want):
        assert reads[k, : len(want_reads)].tolist() == want_reads
    return decision_time


def random_batch(rng, qm, batch, density=0.5):
    rasters = (rng.random((batch, qm.n_inputs, qm.presentation_time)) < density)
    signs = rng.choice([-1, 1], size=(batch, qm.n_inputs))
    seeds = rng.integers(1, 0x10000, size=batch)
    return rasters.astype(np.uint8), signs, seeds


class TestFirstToSpikeBatch:
    @pytest.mark.parametrize("bits", [5, 6, 7, 8])
    def test_random_models_match_the_step_loop(self, bits):
        rng = np.random.default_rng(120 + bits)
        decided_late = 0
        for _ in range(25):
            window = int(rng.integers(1, 5))
            qm = random_qm(
                rng, bits=bits, n_inputs=int(rng.integers(1, 7)),
                n_outputs=int(rng.integers(1, 7)), window=window,
                duration=int(rng.integers(window, 9)), g_range=(-6.0, 1.0),
            )
            # geometries at least as wide as the model in every dimension
            geom = CoreGeometry(
                n_inputs=qm.n_inputs + int(rng.integers(0, 3)),
                n_outputs=qm.n_outputs + int(rng.integers(0, 3)),
                window=window + int(rng.integers(0, 3)), bits=bits,
            )
            image = map_model_to_memory(qm, geom)
            batch = int(rng.integers(1, 10))
            rasters, signs, seeds = random_batch(rng, qm, batch, rng.uniform(0.1, 0.9))
            decision_time = assert_batch_matches_loop(image, qm, rasters, signs, seeds)
            decided_late += int(np.count_nonzero(decision_time > 1))
        assert decided_late > 0  # the windows, not only the biases, decided some

    def test_batch_of_one_and_narrow_model_window(self):
        # a 2-tap model in a 7-tap geometry, one sample at a time
        rng = np.random.default_rng(131)
        qm = random_qm(rng, n_inputs=5, n_outputs=4, window=2, duration=8,
                       g_range=(-8.0, 0.5))
        image = map_model_to_memory(qm, CoreGeometry(n_inputs=5, n_outputs=4, window=7))
        for _ in range(20):
            assert_batch_matches_loop(image, qm, *random_batch(rng, qm, 1, 0.8))

    def test_fallback_samples(self):
        # biases in [-8, -7.125] give PWL 0 at every step: every sample runs
        # all T steps and falls back to the argmax of the final clipped codes
        rng = np.random.default_rng(132)
        for bits in (5, 8):
            qm = random_qm(rng, bits=bits, n_inputs=4, n_outputs=6, window=3,
                           duration=5, w_range=(-1e-3, 1e-3))
            # gamma_step = 8 / bound: codes -bound..-0.9 bound sit in [-8, -7.2]
            bound = 2 ** (bits - 1) - 1
            qm.gamma_codes = -rng.integers(int(0.9 * bound) + 1, bound + 1, size=6)
            qm.gamma_max = 4 * 2 ** (bits - 1) / bound
            qm.gamma_min = -qm.gamma_max
            geom = CoreGeometry(n_inputs=4, n_outputs=6, window=3, bits=bits)
            image = map_model_to_memory(qm, geom)
            decision_time = assert_batch_matches_loop(image, qm, *random_batch(rng, qm, 12))
            assert np.all(decision_time == 0)

    @pytest.mark.parametrize("n_inputs,n_outputs,window,duration", [
        (6, 64, 7, 16),   # the tap tensor sets the sub-block size
        (600, 2, 2, 8),   # the input rows set it
    ])
    def test_batch_across_sub_blocks(self, n_inputs, n_outputs, window, duration):
        rng = np.random.default_rng(133)
        qm = random_qm(rng, n_inputs=n_inputs, n_outputs=n_outputs, window=window,
                       duration=duration, g_range=(-8.0, 8.0))
        qm.gamma_codes = -rng.integers(32, 65, size=n_outputs)  # biases -4..-8
        geom = CoreGeometry(n_inputs=n_inputs, n_outputs=n_outputs, window=window)
        image = map_model_to_memory(qm, geom)
        block = BLOCK_ELEMENTS // (duration * max(window * n_outputs, n_inputs))
        decision_time = assert_batch_matches_loop(
            image, qm, *random_batch(rng, qm, 2 * block + 3, 0.3)
        )
        assert len(set(decision_time.tolist())) > 2

    @pytest.mark.parametrize("small_codes", [False, True])
    def test_saturating_steps(self, small_codes):
        # 200 inputs: with all codes 127 a neuron's |code| sum exceeds
        # ACC_LIMIT, and from step 8 the first 150 inputs drive the
        # accumulator into the clamp before the last 50 pull it down again,
        # so the plain sum differs from the core's.  With small codes and
        # one 127 the model's |code| sums stay below ACC_LIMIT.
        n_inputs, window, duration = 200, 7, 10
        codes = np.full((n_inputs, 3, window), 127, dtype=np.int16)
        if small_codes:
            codes[:] = np.random.default_rng(134).integers(-3, 4, size=codes.shape)
            codes[0, 0, 0] = 127
        qm = QuantizedModel(
            bits=8, w_codes=codes, gamma_codes=np.array([-20, -10, 0], dtype=np.int16),
            w_min=-0.004, w_max=0.004, gamma_min=-1.0, gamma_max=1.0,
            presentation_time=duration, window=window,
        )
        geom = CoreGeometry(n_inputs=n_inputs, n_outputs=3, window=window)
        image = map_model_to_memory(qm, geom)
        rasters = np.ones((4, n_inputs, duration), dtype=np.uint8)
        signs = np.ones((4, n_inputs), dtype=np.int64)
        signs[:, 150:] = -1
        kmat, _, exact = image.model_operands(n_inputs, 3, window)
        assert exact == small_codes
        sums = quantize._accumulator_sums(rasters, signs, kmat, window, exact)
        plain = np.einsum("j,jid->i", signs[0], codes)  # every line of every input
        state = CoreState.initial(image, qm, duration=duration)
        for t in range(duration):
            core_step(state, image, rasters[0, :, t], signs[0])
            assert np.array_equal(sums[0, t], state.accumulators)
        if not small_codes:
            assert np.all(sums[0, -1] != plain)
            assert np.all(sums[0, -1] == ACC_LIMIT - 50 * window * 127)
        assert_batch_matches_loop(image, qm, rasters, signs,
                                  [0x1D87, 0xACE1, 0x0101, 0x5A5A])


class TestLatencyCdf:
    def test_all_first_step(self):
        decisions = [FtsDecision(0, 1, False)] * 4
        cdf, no_spike = latency_cdf(decisions, 8)
        assert cdf[0] == 1.0
        assert no_spike == 0.0

    def test_uniform_over_first_four_steps(self):
        decisions = [FtsDecision(0, t, False) for t in (1, 2, 3, 4)]
        cdf, no_spike = latency_cdf(decisions, 8)
        assert cdf[1] == 0.5
        assert cdf[3] == 1.0
        assert np.all(np.diff(cdf) >= 0)

    def test_no_spike_bucket(self):
        decisions = [FtsDecision(0, 1, False), FtsDecision(1, None, True)]
        cdf, no_spike = latency_cdf(decisions, 4)
        assert cdf[-1] == 0.5
        assert no_spike == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            latency_cdf([], 8)
