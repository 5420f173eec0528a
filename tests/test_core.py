import numpy as np
import pytest

from spikesim import quantize
from spikesim.core import (
    CoreGeometry,
    first_to_spike_batch,
    latency_cdf,
    load_image,
    map_model_to_memory,
    save_image,
    unpack_model,
)
from spikesim.quantize import (
    ACC_LIMIT,
    BLOCK_ELEMENTS,
    DATAPATH_BITS,
    QuantizedModel,
    datapath_operands,
    derive_lfsr_seed,
    first_to_spike_quantized,
)

from oracles import (
    build_windows,
    first_to_spike_loop,
    saturating_sums_loop,
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


def core_sums(image, qm, rasters, signs):
    """The 18-bit accumulator values first_to_spike_batch's datapath sums
    from the codes it decodes from the array: (batch, T, n_outputs)."""
    kmat, _, exact = image.model_operands(qm.n_inputs, qm.n_outputs, qm.window)
    return quantize._accumulator_sums(np.asarray(rasters), np.asarray(signs), kmat,
                                      qm.window, exact)


class TestGatherActiveWordlines:
    """The word lines a step reads: reads counts them, and the accumulator
    sums the codes on them."""

    def test_pattern_1010010_reads_lines_1_3_6(self):
        rng = np.random.default_rng(92)
        qm = random_qm(rng, n_inputs=4, n_outputs=4, window=7, duration=8)
        image = map_model_to_memory(qm, CoreGeometry(n_inputs=4, n_outputs=4, window=7))
        rasters = np.zeros((1, 4, 8), dtype=np.uint8)
        rasters[0, 0, [6, 4, 1]] = 1  # steps 7, 5 and 2: taps 1, 3 and 6 of step 8
        signs = np.ones((1, 4), dtype=np.int64)
        _, _, reads = first_to_spike_batch(image, qm, rasters, signs, [0x0101])
        assert reads[0, 7] == 4
        sums = core_sums(image, qm, rasters, signs)
        assert np.array_equal(sums[0, 7], qm.w_codes[0][:, [0, 2, 5]].sum(axis=1))

    def test_silent_windows_read_only_gamma(self):
        rng = np.random.default_rng(93)
        qm = random_qm(rng, n_inputs=4, n_outputs=4, window=7, duration=8)
        image = map_model_to_memory(qm, CoreGeometry(n_inputs=4, n_outputs=4, window=7))
        rasters = np.zeros((3, 4, 8), dtype=np.uint8)
        signs = np.ones((3, 4), dtype=np.int64)
        _, _, reads = first_to_spike_batch(image, qm, rasters, signs, [1, 2, 3])
        assert np.all(reads == 1)
        assert np.all(core_sums(image, qm, rasters, signs) == 0)

    def test_count_is_popcount_plus_one_and_strictly_increasing(self, monkeypatch):
        # with the limit lowered so that most steps saturate, each step's
        # sum is the clamped add of the lines it reads, one line at a time
        # in strictly increasing address j * window + d, here in a geometry
        # two taps wider than the model
        monkeypatch.setattr(quantize, "ACC_LIMIT", 300)
        rng = np.random.default_rng(85)
        qm = random_qm(rng, n_inputs=6, n_outputs=4, window=5, duration=8)
        geom = CoreGeometry(n_inputs=6, n_outputs=4, window=7)
        image = map_model_to_memory(qm, geom)
        rasters, signs, seeds = random_batch(rng, qm, 20)
        _, _, reads = first_to_spike_batch(image, qm, rasters, signs, seeds)
        sums = core_sums(image, qm, rasters, signs)
        lines = unpack_memory(image)[0][:, :4]
        saturated = 0
        for k in range(20):
            windows = build_windows(rasters[k], qm.window)
            for t in range(8):
                addrs = [j * geom.window + d for j in range(6) for d in range(5)
                         if windows[t, j, d]]
                assert reads[k, t] == len(addrs) + 1
                acc = np.zeros(4, dtype=np.int64)
                for a in addrs:
                    acc = np.clip(acc + signs[k, a // geom.window] * lines[a], -300, 300)
                assert np.array_equal(sums[k, t], acc)
                saturated += int(np.any(np.abs(acc) == 300))
        assert saturated > 20


class TestCoreStep:
    """One step of first_to_spike_batch: the sum, the clip and the draws."""

    def test_zero_image_spikes_at_half_rate(self):
        # one neuron at potential 0: PWL 128 against a uniform byte, so half
        # of the samples decide at step 1, and half of the rest at step 2
        qm = QuantizedModel(
            bits=8,
            w_codes=np.zeros((2, 1, 3), dtype=np.int16),
            gamma_codes=np.zeros(1, dtype=np.int16),
            w_min=-1, w_max=1, gamma_min=-1, gamma_max=1,
            presentation_time=40, window=3,
        )
        image = map_model_to_memory(qm, CoreGeometry(n_inputs=2, n_outputs=1, window=3))
        n = 2000
        _, decision_time, _ = first_to_spike_batch(
            image, qm, np.zeros((n, 2, 40), dtype=np.uint8), np.ones((n, 2)),
            [derive_lfsr_seed(0, k) for k in range(n)],
        )
        assert abs(np.mean(decision_time == 1) - 0.5) < 0.05
        assert abs(np.mean(decision_time == 2) - 0.25) < 0.05
        assert np.all(decision_time > 0)

    def test_draws_match_per_neuron_spike_decisions(self):
        from spikesim.quantize import clip_to_fixed, pwl_sigmoid, spike_decision

        rng = np.random.default_rng(85)
        qm = random_qm(rng, n_inputs=4, n_outputs=7, window=3, duration=6)
        image = map_model_to_memory(qm, CoreGeometry(n_inputs=4, n_outputs=7, window=3))
        rasters, signs, seeds = random_batch(rng, qm, 30)
        predicted, decision_time, _ = first_to_spike_batch(image, qm, rasters, signs, seeds)
        u_codes = clip_to_fixed(core_sums(image, qm, rasters, signs) * qm.w_step
                                + qm.dequant_biases())
        pwl = pwl_sigmoid(u_codes)
        for k in range(30):
            lfsr = int(seeds[k])
            want = (int(np.argmax(u_codes[k, -1])), 0)
            for t in range(6):
                fired = []
                for i in range(7):
                    spike, lfsr = spike_decision(int(pwl[k, t, i]), lfsr)
                    fired.append(spike)
                if any(fired):
                    want = (fired.index(True), t + 1)
                    break
            assert (predicted[k], decision_time[k]) == want

    def test_single_active_line_matches_scalar_recomputation(self):
        rng = np.random.default_rng(86)
        qm = random_qm(rng, n_inputs=3, n_outputs=4, window=2, duration=4)
        image = map_model_to_memory(qm, CoreGeometry(n_inputs=3, n_outputs=4, window=2))
        # spike on input 1 at step 1; at step 2 only line (j=1, d=1) is active
        rasters = np.zeros((1, 3, 4), dtype=np.uint8)
        rasters[0, 1, 0] = 1
        signs = np.ones((1, 3), dtype=np.int64)
        sums = core_sums(image, qm, rasters, signs)
        assert np.array_equal(sums[0, 1], qm.w_codes[1, :, 0])
        _, _, reads = first_to_spike_batch(image, qm, rasters, signs, [1])
        assert reads[0].tolist() == [1, 2, 2, 1]

    def test_saturation_clamps_instead_of_wrapping(self):
        from spikesim.quantize import clip_to_fixed, pwl_sigmoid

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
        rasters = np.ones((1, n_inputs, window + 2), dtype=np.uint8)
        sums = core_sums(image, qm, rasters, np.ones((1, n_inputs), dtype=np.int64))
        # step window + 1 reads every line of every input
        assert np.all(sums[0, window] == ACC_LIMIT)
        # saturated potential still clips to the top of the 1.4.3 range
        assert np.all(clip_to_fixed(sums[0, window] * qm.w_step + qm.dequant_biases()) == 63)
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
            sums = core_sums(image, qm, raster[None], sign[None])[0]
            for t in range(1, 6):
                assert np.array_equal(sums[t - 1], oracle_kernel_sums(qm, raster, sign, t))


class TestRunFirstToSpike:
    """Whole samples through first_to_spike_batch: decisions and reads."""

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
        predicted, decision_time, reads = first_to_spike_batch(
            image, qm, np.zeros((1, 2, 6), dtype=np.uint8), np.ones((1, 2)), [0x0101]
        )
        # gamma_step = 16/128, so neuron 1 sits at +15.875 -> clip 7.875 -> pwl 255
        assert (predicted[0], decision_time[0]) == (1, 1)
        assert reads[0, 0] == 1  # step 1 reads the bias line alone

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
        predicted, decision_time, reads = first_to_spike_batch(
            image, qm, np.zeros((1, 2, 5), dtype=np.uint8), np.ones((1, 2)), [0x0101]
        )
        assert decision_time[0] == 0  # the fallback
        assert predicted[0] == 1  # least negative potential
        assert reads[0].tolist() == [1] * 5  # every step of the presentation

    def test_trace_accounting_matches_popcounts(self):
        rng = np.random.default_rng(88)
        qm = random_qm(rng, n_inputs=5, n_outputs=4, window=3, duration=6,
                       g_range=(-6.0, -5.0))  # negative biases: few early spikes
        geom = CoreGeometry(n_inputs=5, n_outputs=4, window=3)
        image = map_model_to_memory(qm, geom)
        raster = rng.integers(0, 2, size=(5, 6)).astype(np.uint8)
        _, decision_time, reads = first_to_spike_batch(
            image, qm, raster[None], np.ones((1, 5)), [0x5A5A]
        )
        windows = build_windows(raster, 3)
        assert reads[0].tolist() == [int(windows[t].sum()) + 1 for t in range(6)]
        executed = reads[0, : decision_time[0] or 6].sum()
        if 0 < decision_time[0] < 6:
            # early termination reads strictly fewer lines than a full pass
            assert executed < reads[0].sum()

    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(89)
        qm = random_qm(rng, n_inputs=4, n_outputs=4, window=3, duration=6)
        geom = CoreGeometry(n_inputs=4, n_outputs=4, window=3)
        image = map_model_to_memory(qm, geom)
        raster = rng.integers(0, 2, size=(4, 6)).astype(np.uint8)
        # one sample twice in a batch, then alone
        rasters, signs = np.stack([raster, raster]), np.ones((2, 4))
        twice = first_to_spike_batch(image, qm, rasters, signs, [0x1111, 0x1111])
        alone = first_to_spike_batch(image, qm, rasters[:1], signs[:1], [0x1111])
        for both, one in zip(twice, alone):
            assert np.array_equal(both, np.concatenate([one, one]))

    def test_short_window_model_in_wide_geometry_reads_only_its_taps(self):
        # a 2-tap model mapped into a 7-tap geometry must not touch the
        # unmapped tap lines even when older spikes exist
        rng = np.random.default_rng(91)
        qm = random_qm(rng, n_inputs=3, n_outputs=2, window=2, duration=6)
        geom = CoreGeometry(n_inputs=3, n_outputs=2, window=7)
        image = map_model_to_memory(qm, geom)
        rasters = np.ones((1, 3, 6), dtype=np.uint8)
        signs = np.ones((1, 3), dtype=np.int64)
        _, _, reads = first_to_spike_batch(image, qm, rasters, signs, [0x2222])
        assert reads[0].tolist() == [3 * min(2, t - 1) + 1 for t in range(1, 7)]
        sums = core_sums(image, qm, rasters, signs)[0]
        for t in range(1, 7):
            assert np.array_equal(sums[t - 1], oracle_kernel_sums(qm, rasters[0], signs[0], t))

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
                raster = rng.integers(0, 2, size=(1, 4, 6)).astype(np.uint8)
                sign = rng.choice([-1, 1], size=(1, 4))
                seeds = [derive_lfsr_seed(bits, trial)]
                core = first_to_spike_batch(image, qm, raster, sign, seeds)[:2]
                evaluator = first_to_spike_quantized(qm, raster, sign, seeds)
                assert np.array_equal(core, evaluator)
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
        saturated = first_to_spike_quantized(qm, rasters, signs, seeds)
        core = first_to_spike_batch(image, qm, rasters, signs, seeds)[:2]
        assert np.array_equal(core, saturated)
        # the saturation decides: plain sums would change some decision steps
        plain = first_to_spike_quantized(qm, rasters, signs, seeds, (kmat, gamma_codes, True))[1]
        assert np.any(saturated[1] != plain)


def assert_batch_matches_loop(image, qm, rasters, signs, seeds):
    """first_to_spike_batch == the per-neuron loop on qm's own codes on
    class, decision step, fallback and reads per executed step.  Returns
    the decision steps."""
    predicted, decision_time, reads = first_to_spike_batch(image, qm, rasters, signs, seeds)
    want = first_to_spike_loop(qm, rasters, signs, seeds)
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

    @pytest.mark.parametrize("change", [
        {"bits": 5},        # another synapse width: the fields would misalign
        {"window": 4},      # a tap more: it would read the next input's first line
        {"n_inputs": 5},    # an input more than the array holds
        {"n_outputs": 6},   # an output more than a word line holds
    ])
    def test_rejects_a_model_the_image_does_not_hold(self, change):
        rng = np.random.default_rng(135)
        image = map_model_to_memory(random_qm(rng), CoreGeometry(n_inputs=4, n_outputs=5,
                                                                 window=3))
        qm = random_qm(rng, **change)
        with pytest.raises(ValueError, match="geometry"):
            first_to_spike_batch(image, qm, *random_batch(rng, qm, 2))

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
        assert np.array_equal(sums[0], saturating_sums_loop(rasters[0], signs[0], codes))
        if not small_codes:
            assert np.all(sums[0, -1] != plain)
            assert np.all(sums[0, -1] == ACC_LIMIT - 50 * window * 127)
        assert_batch_matches_loop(image, qm, rasters, signs,
                                  [0x1D87, 0xACE1, 0x0101, 0x5A5A])


class TestLatencyCdf:
    def test_all_first_step(self):
        cdf, no_spike = latency_cdf(np.ones(4, dtype=np.int64), 8)
        assert cdf[0] == 1.0
        assert no_spike == 0.0

    def test_uniform_over_first_four_steps(self):
        cdf, no_spike = latency_cdf([1, 2, 3, 4], 8)
        assert cdf[1] == 0.5
        assert cdf[3] == 1.0
        assert np.all(np.diff(cdf) >= 0)

    def test_no_spike_bucket(self):
        cdf, no_spike = latency_cdf([1, 0], 4)  # 0: the fallback
        assert cdf[-1] == 0.5
        assert no_spike == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            latency_cdf([], 8)
