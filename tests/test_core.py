import numpy as np
import pytest

from spikesim import quantize
from spikesim.core import (
    _decode_rows,
    _encode_rows,
    latency_cdf,
    map_model_to_memory,
    save_image,
    unpack_model,
    wordline_reads,
)
from spikesim.glm import ENCODE_CHUNK, kernel_matrix
from spikesim.quantize import (
    ACC_LIMIT,
    DATAPATH_BITS,
    QuantizedModel,
    datapath_operands,
    derive_lfsr_seed,
)

from oracles import (
    build_windows,
    datapath_sums,
    decode_rows_words,
    dequant_biases,
    device_bits,
    encode_rows_strided,
    first_to_spike_loop,
    first_to_spike_quantized,
    kernel_sums_loop,
    load_image,
    saturating_sums_loop,
    spike_decision,
    spike_window,
    unpack_memory,
    wordline_reads_sum,
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


def byte_codes(row):
    """The codes of one 8-bit device row: a sign-magnitude byte each."""
    row = row.astype(np.int64)
    return np.where(row & 0x80, -(row & 0x7F), row & 0x7F)


class TestGeometry:
    def test_default_core_dimensions(self):
        # the benchmark's 256x256 core: 7 taps of 8-bit synapses on 1792
        # kernel lines, the bias on line 1792, in a 2048-row array of
        # 2048-bit rows
        qm = random_qm(np.random.default_rng(79), n_inputs=256, n_outputs=256, window=7,
                       duration=8)
        image = map_model_to_memory(qm)
        assert image.rows.shape == (2048, 256)
        assert np.array_equal(byte_codes(image.rows[1792]), qm.gamma_codes)

    @pytest.mark.parametrize("n_inputs,rows", [(2047, 2048), (2048, 4096)])
    def test_rows_are_the_power_of_two_above_the_bias_line(self, n_inputs, rows):
        # 2047 kernel lines and the bias line fill 2048 rows; 2048 kernel
        # lines put the bias line on row 2048, the first of a 4096-row array
        qm = random_qm(np.random.default_rng(78), n_inputs=n_inputs, n_outputs=3, window=1,
                       duration=1)
        image = map_model_to_memory(qm)
        assert image.rows.shape == (rows, 3)
        assert np.array_equal(byte_codes(image.rows[n_inputs]), qm.gamma_codes)
        assert not image.rows[n_inputs + 1 :].any()

    def test_rejects_degenerate_geometry(self):
        # a geometry comes from its model, which has at least one input and
        # one output, and synapses of the quantized datapath's 2..8 bits
        rng = np.random.default_rng(80)
        for change, message in [({"n_inputs": 0}, "0x5 model"), ({"n_outputs": 0}, "4x0 model"),
                                ({"bits": 1}, "datapath"), ({"bits": 9}, "datapath")]:
            with pytest.raises(ValueError, match=message):
                random_qm(rng, **change)


class TestMemoryMapping:
    def test_full_size_model_uses_1793_lines(self):
        rng = np.random.default_rng(81)
        qm = random_qm(rng, n_inputs=256, n_outputs=256, window=7, duration=8)
        image = map_model_to_memory(qm)
        kernel, gamma = unpack_memory(image)
        assert kernel.shape == (1792, 256)
        assert image.rows.shape == (2048, 256)
        assert device_bits(image).shape == (2048, 2048)
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
        image = map_model_to_memory(qm)
        assert not image.rows.any()

    def test_pack_unpack_roundtrip_code_for_code(self):
        rng = np.random.default_rng(82)
        for bits in DATAPATH_BITS:
            qm = random_qm(rng, bits=bits)
            image = map_model_to_memory(qm)
            unpacked = unpack_model(image)
            assert np.array_equal(unpacked.w_codes, qm.w_codes)
            assert np.array_equal(unpacked.gamma_codes, qm.gamma_codes)
            # the kernel codes are a view of the decoded word lines
            assert unpacked.w_codes.transpose(0, 2, 1).flags.c_contiguous

    def test_bit_layout_is_sign_then_magnitude_msb_first(self):
        # every code of every precision, bit by bit: kernel line
        # j * window + d, then the bias line
        for bits in DATAPATH_BITS:
            bound = 2 ** (bits - 1) - 1
            codes = np.arange(-bound, bound + 1)
            qm = QuantizedModel(
                bits=bits, w_codes=np.resize(codes, (3, len(codes), 2)),
                gamma_codes=codes[::-1], w_min=-1, w_max=1, gamma_min=-1, gamma_max=1,
                presentation_time=4, window=2,
            )
            image = map_model_to_memory(qm)
            want = np.zeros((8, len(codes) * bits), dtype=np.uint8)
            rows = {j * 2 + d: qm.w_codes[j, :, d] for j in range(3) for d in range(2)}
            rows[6] = qm.gamma_codes
            for line, row in rows.items():
                for i, code in enumerate(row.tolist()):
                    field = [int(code < 0)] + [(abs(code) >> k) & 1
                                               for k in range(bits - 2, -1, -1)]
                    want[line, i * bits : (i + 1) * bits] = field
            assert np.array_equal(device_bits(image), want)

    def test_byte_decode_matches_the_word_path_on_every_byte(self):
        rows = np.stack([np.arange(256), np.arange(256)[::-1]]).astype(np.uint8)
        for n_fields in (256, 255):
            got = _decode_rows(rows, 8, n_fields)
            assert got.dtype == np.int16
            assert np.array_equal(got, decode_rows_words(rows, 8, n_fields))
        assert np.array_equal(_decode_rows(rows, 8, 256)[0], byte_codes(rows[0]))

    def test_encode_matches_the_strided_packing_at_every_precision(self):
        rng = np.random.default_rng(86)
        for bits in DATAPATH_BITS:
            fields = rng.integers(0, 2 ** bits, size=(16, 37), dtype=np.uint8)
            fields[0] = np.resize(np.arange(2 ** bits, dtype=np.uint8), 37)
            for width in (37, 1):  # a ragged last byte, and a row of one field
                got = _encode_rows(fields[:, :width], bits)
                assert np.array_equal(got, encode_rows_strided(fields[:, :width], bits)), bits

    def test_image_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(84)
        qm = random_qm(rng)
        image = map_model_to_memory(qm)
        path = tmp_path / "core.img"
        save_image(path, image)
        header, rows = load_image(path)
        assert header == {"n_inputs": 4, "n_outputs": 5, "window": 3, "bits": 8}
        assert np.array_equal(rows, image.rows)

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


def core_sums(image, rasters, signs):
    """The 18-bit accumulator values the core's datapath sums from the codes
    it decodes from the array: (batch, T, n_outputs)."""
    kmat, exact = datapath_operands(unpack_model(image).w_codes)
    return datapath_sums(rasters, signs, kmat, image.model.window, exact)


class TestGatherActiveWordlines:
    """The word lines a step reads: wordline_reads counts them, and the
    accumulator sums the codes on them."""

    def test_pattern_1010010_reads_lines_1_3_6(self):
        rng = np.random.default_rng(92)
        qm = random_qm(rng, n_inputs=4, n_outputs=4, window=7, duration=8)
        image = map_model_to_memory(qm)
        rasters = np.zeros((1, 4, 8), dtype=np.uint8)
        rasters[0, 0, [6, 4, 1]] = 1  # steps 7, 5 and 2: taps 1, 3 and 6 of step 8
        signs = np.ones((1, 4), dtype=np.int64)
        reads = wordline_reads(rasters, qm.window)
        assert reads[0, 7] == 4
        sums = core_sums(image, rasters, signs)
        assert np.array_equal(sums[0, 7], qm.w_codes[0][:, [0, 2, 5]].sum(axis=1))

    def test_silent_windows_read_only_gamma(self):
        rng = np.random.default_rng(93)
        qm = random_qm(rng, n_inputs=4, n_outputs=4, window=7, duration=8)
        image = map_model_to_memory(qm)
        rasters = np.zeros((3, 4, 8), dtype=np.uint8)
        signs = np.ones((3, 4), dtype=np.int64)
        reads = wordline_reads(rasters, qm.window)
        assert np.all(reads == 1)
        assert np.all(core_sums(image, rasters, signs) == 0)

    def test_counts_match_the_int64_sum(self):
        rng = np.random.default_rng(87)
        for shape, window in (((5, 9, 8), 3), ((1, 784, 8), 8), ((7, 3, 16), 16),
                              ((4, 256, 7), 1)):
            rasters = (rng.random(shape) < 0.4).astype(np.uint8)
            got = wordline_reads(rasters, window)
            assert got.dtype == np.int64
            assert np.array_equal(got, wordline_reads_sum(rasters, window))
        # every input of a 5000-wide raster spikes at every step
        rasters = np.ones((2, 5000, 6), dtype=np.uint8)
        got = wordline_reads(rasters, 4)
        assert np.array_equal(got, wordline_reads_sum(rasters, 4))
        assert got[0].tolist() == [1, 5001, 10001, 15001, 20001, 20001]

    def test_count_is_popcount_plus_one_and_strictly_increasing(self, monkeypatch):
        # with the limit lowered so that most steps saturate, each step's
        # sum is the clamped add of the lines it reads, one line at a time
        # in strictly increasing address j * window + d
        monkeypatch.setattr(quantize, "ACC_LIMIT", 300)
        rng = np.random.default_rng(85)
        qm = random_qm(rng, n_inputs=6, n_outputs=4, window=5, duration=8)
        image = map_model_to_memory(qm)
        rasters, signs, seeds = random_batch(rng, qm, 20)
        reads = wordline_reads(rasters, qm.window)
        sums = core_sums(image, rasters, signs)
        lines = unpack_memory(image)[0]
        saturated = 0
        for k in range(20):
            windows = build_windows(rasters[k], qm.window)
            for t in range(8):
                addrs = [j * 5 + d for j in range(6) for d in range(5) if windows[t, j, d]]
                assert reads[k, t] == len(addrs) + 1
                acc = np.zeros(4, dtype=np.int64)
                for a in addrs:
                    acc = np.clip(acc + signs[k, a // 5] * lines[a], -300, 300)
                assert np.array_equal(sums[k, t], acc)
                saturated += int(np.any(np.abs(acc) == 300))
        assert saturated > 20


class TestCoreStep:
    """One step of the core: the sum, the clip and the draws."""

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
        image = map_model_to_memory(qm)
        n = 2000
        _, decision_time = first_to_spike_quantized(
            unpack_model(image), np.zeros((n, 2, 40), dtype=np.uint8), np.ones((n, 2)),
            [derive_lfsr_seed(0, k) for k in range(n)],
        )
        assert abs(np.mean(decision_time == 1) - 0.5) < 0.05
        assert abs(np.mean(decision_time == 2) - 0.25) < 0.05
        assert np.all(decision_time > 0)

    def test_draws_match_per_neuron_spike_decisions(self):
        from spikesim.quantize import clip_to_fixed, pwl_sigmoid

        rng = np.random.default_rng(85)
        qm = random_qm(rng, n_inputs=4, n_outputs=7, window=3, duration=6)
        image = map_model_to_memory(qm)
        rasters, signs, seeds = random_batch(rng, qm, 30)
        predicted, decision_time = first_to_spike_quantized(
            unpack_model(image), rasters, signs, seeds)
        u_codes = clip_to_fixed(core_sums(image, rasters, signs) * qm.w_step
                                + dequant_biases(qm))
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
        image = map_model_to_memory(qm)
        # spike on input 1 at step 1; at step 2 only line (j=1, d=1) is active
        rasters = np.zeros((1, 3, 4), dtype=np.uint8)
        rasters[0, 1, 0] = 1
        signs = np.ones((1, 3), dtype=np.int64)
        sums = core_sums(image, rasters, signs)
        assert np.array_equal(sums[0, 1], qm.w_codes[1, :, 0])
        reads = wordline_reads(rasters, qm.window)
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
        image = map_model_to_memory(qm)
        rasters = np.ones((1, n_inputs, window + 2), dtype=np.uint8)
        sums = core_sums(image, rasters, np.ones((1, n_inputs), dtype=np.int64))
        # step window + 1 reads every line of every input
        assert np.all(sums[0, window] == ACC_LIMIT)
        # saturated potential still clips to the top of the 1.4.3 range
        assert np.all(clip_to_fixed(sums[0, window] * qm.w_step + dequant_biases(qm)) == 63)
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
            image = map_model_to_memory(qm)
            raster = rng.integers(0, 2, size=(qm.n_inputs, 5)).astype(np.uint8)
            sign = rng.choice([-1, 1], size=qm.n_inputs)
            sums = core_sums(image, raster[None], sign[None])[0]
            for t in range(1, 6):
                assert np.array_equal(sums[t - 1], kernel_sums_loop(qm, raster, sign, t))


class TestRunFirstToSpike:
    """Whole samples through the core: decisions and reads."""

    def test_dominant_bias_decides_at_step_one(self):
        qm = QuantizedModel(
            bits=8,
            w_codes=np.zeros((2, 3, 2), dtype=np.int16),
            gamma_codes=np.array([-127, 127, -127], dtype=np.int16),
            w_min=-1, w_max=1, gamma_min=-8, gamma_max=8,
            presentation_time=6, window=2,
        )
        image = map_model_to_memory(qm)
        rasters = np.zeros((1, 2, 6), dtype=np.uint8)
        predicted, decision_time = first_to_spike_quantized(
            unpack_model(image), rasters, np.ones((1, 2)), [0x0101])
        reads = wordline_reads(rasters, qm.window)
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
        image = map_model_to_memory(qm)
        rasters = np.zeros((1, 2, 5), dtype=np.uint8)
        predicted, decision_time = first_to_spike_quantized(
            unpack_model(image), rasters, np.ones((1, 2)), [0x0101])
        reads = wordline_reads(rasters, qm.window)
        assert decision_time[0] == 0  # the fallback
        assert predicted[0] == 1  # least negative potential
        assert reads[0].tolist() == [1] * 5  # every step of the presentation

    def test_trace_accounting_matches_popcounts(self):
        rng = np.random.default_rng(88)
        qm = random_qm(rng, n_inputs=5, n_outputs=4, window=3, duration=6,
                       g_range=(-6.0, -5.0))  # negative biases: few early spikes
        image = map_model_to_memory(qm)
        raster = rng.integers(0, 2, size=(5, 6)).astype(np.uint8)
        _, decision_time = first_to_spike_quantized(
            unpack_model(image), raster[None], np.ones((1, 5)), [0x5A5A])
        reads = wordline_reads(raster[None], qm.window)
        windows = build_windows(raster, 3)
        assert reads[0].tolist() == [int(windows[t].sum()) + 1 for t in range(6)]
        executed = reads[0, : decision_time[0] or 6].sum()
        if 0 < decision_time[0] < 6:
            # early termination reads strictly fewer lines than a full pass
            assert executed < reads[0].sum()

    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(89)
        qm = random_qm(rng, n_inputs=4, n_outputs=4, window=3, duration=6)
        image = map_model_to_memory(qm)
        raster = rng.integers(0, 2, size=(4, 6)).astype(np.uint8)
        # one sample twice in a batch, then alone
        rasters, signs = np.stack([raster, raster]), np.ones((2, 4))
        core = unpack_model(image)
        twice = first_to_spike_quantized(core, rasters, signs, [0x1111] * 2)
        alone = first_to_spike_quantized(core, rasters[:1], signs[:1], [0x1111])
        for both, one in zip(twice, alone):
            assert np.array_equal(both, np.concatenate([one, one]))

    def test_short_window_model_reads_only_its_taps(self):
        # a 2-tap model reads no spike older than its window, even when
        # older spikes exist
        rng = np.random.default_rng(91)
        qm = random_qm(rng, n_inputs=3, n_outputs=2, window=2, duration=6)
        image = map_model_to_memory(qm)
        rasters = np.ones((1, 3, 6), dtype=np.uint8)
        signs = np.ones((1, 3), dtype=np.int64)
        reads = wordline_reads(rasters, qm.window)
        assert reads[0].tolist() == [3 * min(2, t - 1) + 1 for t in range(1, 7)]
        sums = core_sums(image, rasters, signs)[0]
        for t in range(1, 7):
            assert np.array_equal(sums[t - 1], kernel_sums_loop(qm, rasters[0], signs[0], t))

    def test_core_agrees_with_quantized_inference_at_every_precision(self):
        # the core and the evaluator run one datapath: b-bit codes, 18-bit
        # saturating accumulator, 8-bit neuron
        rng = np.random.default_rng(90)
        for bits in DATAPATH_BITS:
            for trial in range(25):
                qm = random_qm(rng, bits=bits, n_inputs=4, n_outputs=5, window=3,
                               duration=6)
                image = map_model_to_memory(qm)
                raster = rng.integers(0, 2, size=(1, 4, 6)).astype(np.uint8)
                sign = rng.choice([-1, 1], size=(1, 4))
                seeds = [derive_lfsr_seed(bits, trial)]
                core = first_to_spike_quantized(unpack_model(image), raster, sign, seeds)
                evaluator = first_to_spike_quantized(qm, raster, sign, seeds)
                assert np.array_equal(core, evaluator)
        # a model that saturates: 300 inputs of 127 codes, the last 50 negated
        qm = QuantizedModel(
            bits=8, w_codes=np.full((300, 3, 7), 127), gamma_codes=np.array([-120, -110, -100]),
            w_min=-0.008, w_max=0.008, gamma_min=-8.0, gamma_max=8.0,
            presentation_time=10, window=7,
        )
        kmat, exact = datapath_operands(qm.w_codes)
        assert not exact
        image = map_model_to_memory(qm)
        rasters = (rng.random((10, 300, 10)) < 0.9).astype(np.uint8)
        signs = np.tile(np.where(np.arange(300) < 250, 1, -1), (10, 1))
        seeds = [derive_lfsr_seed(9, k) for k in range(10)]
        saturated = first_to_spike_quantized(qm, rasters, signs, seeds)
        core = first_to_spike_quantized(unpack_model(image), rasters, signs, seeds)
        assert np.array_equal(core, saturated)
        # the saturation decides: plain sums would change some decision steps
        plain = first_to_spike_quantized(qm, rasters, signs, seeds, (kmat, True))[1]
        assert np.any(saturated[1] != plain)


def assert_batch_matches_loop(image, rasters, signs, seeds):
    """The core == the per-neuron loop on the mapped model's own codes on
    class, decision step, fallback and reads per executed step.  Returns the
    decision steps."""
    predicted, decision_time = first_to_spike_quantized(
        unpack_model(image), rasters, signs, seeds)
    reads = wordline_reads(rasters, image.model.window)
    want = first_to_spike_loop(image.model, rasters, signs, seeds)
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
            # three draws left unused, so that the rng stream draws the
            # models and batches this seed was chosen for
            for _ in range(3):
                rng.integers(0, 3)
            image = map_model_to_memory(qm)
            batch = int(rng.integers(1, 10))
            rasters, signs, seeds = random_batch(rng, qm, batch, rng.uniform(0.1, 0.9))
            decision_time = assert_batch_matches_loop(image, rasters, signs, seeds)
            decided_late += int(np.count_nonzero(decision_time > 1))
        assert decided_late > 0  # the windows, not only the biases, decided some

    def test_batch_of_one_and_narrow_model_window(self):
        # a 2-tap model, one sample at a time
        rng = np.random.default_rng(131)
        qm = random_qm(rng, n_inputs=5, n_outputs=4, window=2, duration=8,
                       g_range=(-8.0, 0.5))
        image = map_model_to_memory(qm)
        for _ in range(20):
            assert_batch_matches_loop(image, *random_batch(rng, qm, 1, 0.8))

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
            image = map_model_to_memory(qm)
            decision_time = assert_batch_matches_loop(image, *random_batch(rng, qm, 12))
            assert np.all(decision_time == 0)

    @pytest.mark.parametrize("n_inputs,n_outputs,window,duration", [
        (6, 64, 7, 16),   # a wide tap tensor
        (600, 2, 2, 8),   # wide input rows
    ])
    def test_batch_across_sub_blocks(self, n_inputs, n_outputs, window, duration):
        # a batch of more samples than decide_blocks passes runs as one block
        rng = np.random.default_rng(133)
        qm = random_qm(rng, n_inputs=n_inputs, n_outputs=n_outputs, window=window,
                       duration=duration, g_range=(-8.0, 8.0))
        qm.gamma_codes = -rng.integers(32, 65, size=n_outputs)  # biases -4..-8
        image = map_model_to_memory(qm)
        decision_time = assert_batch_matches_loop(
            image, *random_batch(rng, qm, 2 * ENCODE_CHUNK + 3, 0.3)
        )
        assert len(set(decision_time.tolist())) > 2

    def test_rejects_a_spike_train_of_another_width(self):
        rng = np.random.default_rng(135)
        image = map_model_to_memory(random_qm(rng))
        rasters, signs, seeds = random_batch(rng, random_qm(rng, n_inputs=5), 2)
        with pytest.raises(ValueError, match="spike train width 5 does not match the "
                                             "model's 4 inputs"):
            first_to_spike_quantized(unpack_model(image), rasters, signs, seeds)

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
        image = map_model_to_memory(qm)
        rasters = np.ones((4, n_inputs, duration), dtype=np.uint8)
        signs = np.ones((4, n_inputs), dtype=np.int64)
        signs[:, 150:] = -1
        kmat, exact = datapath_operands(unpack_model(image).w_codes)
        assert exact == small_codes
        sums = datapath_sums(rasters, signs, kmat, window, exact)
        plain = np.einsum("j,jid->i", signs[0], codes)  # every line of every input
        assert np.array_equal(sums[0], saturating_sums_loop(rasters[0], signs[0], codes))
        if not small_codes:
            assert np.all(sums[0, -1] != plain)
            assert np.all(sums[0, -1] == ACC_LIMIT - 50 * window * 127)
        assert_batch_matches_loop(image, rasters, signs,
                                  [0x1D87, 0xACE1, 0x0101, 0x5A5A])

    def test_saturating_steps_at_the_lower_limit(self):
        # test_saturating_steps with every sign flipped: the first 150
        # inputs drive the accumulator into the lower clamp
        n_inputs, window, duration = 200, 7, 10
        codes = np.full((n_inputs, 3, window), 127, dtype=np.int16)
        rasters = np.ones((1, n_inputs, duration), dtype=np.uint8)
        signs = -np.ones((1, n_inputs), dtype=np.int64)
        signs[:, 150:] = 1
        sums = datapath_sums(rasters, signs, kernel_matrix(codes), window, False)
        assert np.array_equal(sums[0], saturating_sums_loop(rasters[0], signs[0], codes))
        assert np.all(sums[0, -1] == -ACC_LIMIT + 50 * window * 127)


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
