import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikesim.perf import (
    REFERENCE_EFFICIENCY,
    PerfReport,
    compute_report,
    default_config,
    efficiency,
    energy_per_step,
    gsops,
    load_config,
    render_report,
    report_to_dict,
    rollup,
    save_config,
    validate_config,
)


class TestGsops:
    def test_published_throughputs_exact(self):
        assert gsops(100.0, 256) == 25.6
        assert gsops(250.0, 256) == 64.0

    def test_unit_case(self):
        assert gsops(100.0, 1) == pytest.approx(0.1)

    @given(
        st.floats(min_value=1.0, max_value=1e4),
        st.integers(min_value=1, max_value=4096),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_linear_in_both_arguments(self, clock, synapses, k):
        base = gsops(clock, synapses)
        assert gsops(clock * k, synapses) == pytest.approx(k * base)
        assert gsops(clock, synapses * k) == pytest.approx(k * base)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gsops(0.0, 256)


class TestRollup:
    def test_identity_with_zero_logic_and_overheads(self):
        power, area = rollup(53.5, 1.14, 0.0, 0.0, 0.0, 0.0)
        assert power == 53.5
        assert area == 1.14

    def test_default_overheads_reproduce_total_power(self):
        # 63.3 mW of memory+logic becomes ~82.3 mW, i.e. ~311 GSOPS/W at 25.6 GSOPS
        power, _ = rollup(53.5, 1.0, 9.8, 0.0)
        assert power == pytest.approx(82.29, abs=0.01)
        assert 25.6 / (power / 1000.0) == pytest.approx(311.0, rel=0.02)

    def test_overhead_contribution_is_linear(self):
        p1, a1 = rollup(10.0, 1.0, 5.0, 0.5, 0.10, 0.20)
        p2, a2 = rollup(10.0, 1.0, 5.0, 0.5, 0.20, 0.40)
        assert p2 - 15.0 == pytest.approx(2 * (p1 - 15.0))
        assert a2 - 1.5 == pytest.approx(2 * (a1 - 1.5))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            rollup(-1.0, 1.0, 0.0, 0.0)


class TestEfficiency:
    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            efficiency(25.6, 0.0, 1.0)

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_joint_scaling(self, k):
        per_w, per_w_mm2 = efficiency(25.6, 82.3, 1.3)
        scaled_w, scaled_mm2 = efficiency(25.6 * k, 82.3 * k, 1.3)
        assert scaled_w == pytest.approx(per_w)
        assert scaled_mm2 == pytest.approx(per_w_mm2)


class TestEnergyPerStep:
    def test_published_memory_component(self):
        step = energy_per_step(365, 535.0)
        assert step.memory_nj == 195.275
        assert step.total_nj == 195.275

    def test_zero_lines_leaves_logic_only(self):
        step = energy_per_step(0, 535.0, logic_energy_nj=3.5)
        assert step.memory_nj == 0.0
        assert step.total_nj == 3.5

    def test_single_line(self):
        assert energy_per_step(1, 535.0).memory_nj == pytest.approx(0.535)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            energy_per_step(-1, 535.0)


class TestReport:
    def test_reconstructs_reference_table_within_two_percent(self):
        report = compute_report()
        by_key = {(e.technology, e.bits): e for e in report.entries}
        for bits, ref in REFERENCE_EFFICIENCY.items():
            for tech, (per_w, per_w_mm2) in ref.items():
                entry = by_key[(tech, bits)]
                assert entry.gsops_per_w == pytest.approx(per_w, rel=0.02)
                assert entry.gsops_per_w_mm2 == pytest.approx(per_w_mm2, rel=0.02)

    def test_area_efficiency_ratios_in_published_band(self):
        report = compute_report()
        for bits, ratio in report.area_efficiency_ratios.items():
            assert 3.0 <= ratio <= 4.1
        assert report.area_efficiency_ratios[8] == pytest.approx(3.9, abs=0.1)
        assert report.area_efficiency_ratios[5] >= 3.0

    def test_stt_beats_sram_at_every_precision(self):
        report = compute_report()
        by_key = {(e.technology, e.bits): e for e in report.entries}
        for bits in (5, 6, 7, 8):
            assert (
                by_key[("stt_ram", bits)].gsops_per_w_mm2
                > by_key[("sram", bits)].gsops_per_w_mm2
            )

    def test_published_power_anchor_survives_calibration(self):
        config = default_config()
        mem8 = config["technologies"]["stt_ram"]["memory_by_bits"]["8"]
        assert mem8["power_mw"] == pytest.approx(53.5, abs=1e-9)
        assert mem8["calibrated"] is False
        # every other split is calibrated and positive
        for tech in ("stt_ram", "sram"):
            for bits, mem in config["technologies"][tech]["memory_by_bits"].items():
                assert mem["power_mw"] > 0
                assert mem["area_mm2"] > 0
        for bits, logic in config["logic_by_bits"].items():
            assert logic["calibrated"] is True
            assert logic["power_mw"] > 0

    def test_report_is_pure(self):
        config = default_config()
        assert report_to_dict(compute_report(config)) == report_to_dict(
            compute_report(config)
        )

    def test_render_includes_throughput_and_ratios(self):
        text = render_report(compute_report())
        assert "25.6 GSOPS" in text
        assert "64 GSOPS" in text
        assert "GSOPS/W/mm^2" in text
        assert "195.275" in text

    def test_config_roundtrip_and_version_check(self, tmp_path):
        config = default_config()
        path = tmp_path / "perf.json"
        save_config(path, config)
        loaded = load_config(path)
        assert report_to_dict(compute_report(loaded)) == report_to_dict(
            compute_report(config)
        )
        bad = dict(config)
        bad["version"] = 99
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            load_config(bad_path)

    def test_zero_overheads_strictly_improve_efficiency(self):
        config = default_config()
        base = {
            (e.technology, e.bits): e.gsops_per_w_mm2
            for e in compute_report(config).entries
        }
        config["overheads"] = {"routing": 0.0, "controller": 0.0}
        free = {
            (e.technology, e.bits): e.gsops_per_w_mm2
            for e in compute_report(config).entries
        }
        for key in base:
            assert free[key] > base[key]


class TestTechParams:
    """The STT-RAM device parameters every perf config carries."""

    def test_published_device_values_accepted(self):
        params = default_config()["device_params"]
        assert params == {
            "cell_area_f2": 24.0, "r_on_ohm": 2500.0, "r_off_ohm": 5000.0,
            "read_voltage_mv": 80.0, "read_pulse_ns": 5.0, "program_current_ua": 150.0,
            "write_pulse_ns": 10.0, "feature_nm": 70.0,
        }
        assert params["r_off_ohm"] > params["r_on_ohm"]
