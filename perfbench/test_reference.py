"""Hand-countable cases for the benchmark's reference datapath.

Run with:  python3 -m pytest perfbench/test_reference.py
"""

import numpy as np

import reference as ref


def _floor_model(n_in=3, n_out=2, window=2):
    """Kernel codes all +100 at step 0.001, biases at the 1.4.3 floor (-8.0).

    Three reads lift a potential to -7.7 at most, still below -7.0, where
    the PWL sigmoid first leaves 0, so no neuron can fire.
    """
    w = np.full((n_in, n_out, window), 100)
    return w, np.full(n_out, -127), 0.001, 8.0 / 127


def test_zero_input_reads_only_the_bias_line():
    w, gamma, w_step, g_step = _floor_model()
    raster = np.zeros((3, 5), dtype=np.uint8)
    cls, t_d, reads = ref.first_to_spike(w, gamma, w_step, g_step, raster,
                                         np.ones(3), seed=0xACE1)
    assert reads == [1, 1, 1, 1, 1]
    assert t_d == -1  # nothing lifts the floor, so the fallback decides


def test_floor_biases_never_fire():
    # code -64 is -8.0; the PWL gives (128 - 0) >> 8 = 0, and 0 > lfsr & 0xFF
    # is false for every LFSR state
    assert ref.clip_143(-127 * 8.0 / 127) == -64
    assert ref.pwl(-64) == 0
    w, gamma, w_step, g_step = _floor_model()
    for seed in (1, 0x1D87, 0xFFFF):
        assert ref.first_to_spike(w, gamma, w_step, g_step,
                                  np.zeros((3, 8), dtype=np.uint8),
                                  np.ones(3), seed)[1] == -1


def test_word_lines_count_active_taps():
    # input 0 spikes at step 1 only: taps 1 and 2 read it at steps 2 and 3
    w, gamma, w_step, g_step = _floor_model()
    raster = np.zeros((3, 4), dtype=np.uint8)
    raster[0, 0] = 1
    raster[2, 1] = 1
    _, t_d, reads = ref.first_to_spike(w, gamma, w_step, g_step, raster,
                                       np.ones(3), 1)
    assert (t_d, reads) == (-1, [1, 2, 3, 2])


def test_accumulation_saturates_at_18_bits():
    rows = np.array([[100_000], [100_000], [-100_000]])
    # 100000, then 200000 saturates to 131071, then 31071; a plain sum is 100000
    assert ref.ACC_LIMIT == 2**17 - 1
    assert ref.saturating_sum(rows)[0] == 31_071
    assert ref.saturating_sum(np.array([[5], [-3]]))[0] == 2


def test_lfsr_has_period_65535():
    state, seen = 1, set()
    for _ in range(65535):
        seen.add(state)
        state = ref.lfsr_next(state)
    assert state == 1 and len(seen) == 65535 and 0 not in seen


def test_pwl_hand_points():
    # x = 0 -> 1/2; x = -1 -> 1/4; x = -0.5 -> (1/2 - 4/32) = 3/8
    assert ref.pwl(np.array([0, -8, -4, 8, 63])).tolist() == [128, 64, 96, 192, 255]
