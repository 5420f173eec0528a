"""Analytical throughput, power and area model of the accelerator.

Synaptic throughput counts one operation per synapse read: a word line
holds one synapse per output neuron, and one line is read per memory
clock, so GSOPS = clock(GHz) * synapses_per_wordline.  Memory numbers
come from device-level simulation and are carried here as config inputs;
per-precision logic and memory splits that were never published are
back-solved from the reference efficiency table and flagged calibrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CONFIG_VERSION = 1

#: the compared pair; every precision needs an entry under both
TECHNOLOGIES = ("sram", "stt_ram")

#: published design-point efficiencies, (GSOPS/W, GSOPS/W/mm^2) per
#: technology and synapse precision; used for calibration and ratio checks
REFERENCE_EFFICIENCY = {
    5: {"sram": (353.0, 177.0), "stt_ram": (474.0, 559.0)},
    6: {"sram": (283.0, 119.0), "stt_ram": (412.0, 415.0)},
    7: {"sram": (230.0, 83.0), "stt_ram": (366.0, 322.0)},
    8: {"sram": (193.0, 61.0), "stt_ram": (311.0, 239.0)},
}

#: STT-RAM cell and pulse parameters (provenance; the circuit-level
#: mapping from these to array energy/latency is outside this model)
STT_DEVICE_PARAMS = {
    "cell_area_f2": 24.0,
    "r_on_ohm": 2500.0,
    "r_off_ohm": 5000.0,
    "read_voltage_mv": 80.0,
    "read_pulse_ns": 5.0,
    "program_current_ua": 150.0,
    "write_pulse_ns": 10.0,
    "feature_nm": 70.0,
}


@dataclass(frozen=True)
class StepEnergy:
    memory_nj: float
    logic_nj: float

    @property
    def total_nj(self) -> float:
        return self.memory_nj + self.logic_nj


def gsops(clock_mhz: float, synapses_per_wordline: int) -> float:
    """Synaptic throughput: one word-line read delivers one op per synapse."""
    if clock_mhz <= 0 or synapses_per_wordline <= 0:
        raise ValueError("clock and synapse count must be positive")
    return (clock_mhz / 1000.0) * synapses_per_wordline


def rollup(memory_power_mw, memory_area_mm2, logic_power_mw, logic_area_mm2,
           routing_overhead, controller_overhead):
    """Total core power/area: memory plus logic, scaled by the additive
    routing and controller overheads (applied identically to both)."""
    values = (memory_power_mw, memory_area_mm2, logic_power_mw, logic_area_mm2,
              routing_overhead, controller_overhead)
    if any(v < 0 for v in values):
        raise ValueError("rollup inputs must be nonnegative")
    factor = 1.0 + routing_overhead + controller_overhead
    return (
        (memory_power_mw + logic_power_mw) * factor,
        (memory_area_mm2 + logic_area_mm2) * factor,
    )


def efficiency(gsops_value: float, power_mw: float, area_mm2: float):
    """(GSOPS/W, GSOPS/W/mm^2) for a rolled-up design point."""
    if power_mw <= 0 or area_mm2 <= 0:
        raise ValueError("power and area must be positive")
    per_w = gsops_value / (power_mw / 1000.0)
    return per_w, per_w / area_mm2


def energy_per_step(avg_active_wordlines: float, read_energy_per_wordline_pj: float,
                    logic_energy_nj: float = 0.0) -> StepEnergy:
    """Energy of one processor step: read every active word line, then
    compute.  The memory component needs no calibration."""
    if avg_active_wordlines < 0 or read_energy_per_wordline_pj < 0 or logic_energy_nj < 0:
        raise ValueError("energy inputs must be nonnegative")
    memory_nj = avg_active_wordlines * read_energy_per_wordline_pj / 1000.0
    return StepEnergy(memory_nj=memory_nj, logic_nj=logic_energy_nj)


def default_config() -> dict:
    """Config with published memory anchors and back-solved splits.

    Only the 8-bit STT-RAM array numbers (read energy, latency, module
    power) and the two memory clocks are published; per-precision memory
    and logic power/area are back-solved from REFERENCE_EFFICIENCY so
    that the rollup reproduces the table, and carry calibrated: true.
    The logic block is shared between the two memory technologies.
    """
    routing, controller = 0.10, 0.20
    factor = 1.0 + routing + controller
    synapses = 256
    stt_gsops = gsops(100.0, synapses)
    sram_gsops = gsops(250.0, synapses)

    # power split anchored at the published 8-bit array power
    stt_base_power_8 = stt_gsops / REFERENCE_EFFICIENCY[8]["stt_ram"][0] * 1000.0 / factor
    logic_power_8 = stt_base_power_8 - 53.5
    logic_area_8 = 0.04  # small shared neuron-logic block, calibrated

    logic_by_bits = {}
    memory = {"stt_ram": {}, "sram": {}}
    for bits, ref in REFERENCE_EFFICIENCY.items():
        logic_power = logic_power_8 * bits / 8.0
        logic_area = logic_area_8 * bits / 8.0
        logic_by_bits[bits] = {
            "power_mw": logic_power,
            "area_mm2": logic_area,
            "calibrated": True,
        }
        for tech, total_gsops in (("stt_ram", stt_gsops), ("sram", sram_gsops)):
            per_w, per_w_mm2 = ref[tech]
            base_power = total_gsops / per_w * 1000.0 / factor
            base_area = per_w / per_w_mm2 / factor
            memory[tech][str(bits)] = {
                "power_mw": base_power - logic_power,
                "area_mm2": base_area - logic_area,
                "calibrated": not (tech == "stt_ram" and bits == 8),
            }
        # the 8-bit STT power equals the published module power by construction

    return {
        "version": CONFIG_VERSION,
        "synapses_per_wordline": synapses,
        "avg_active_wordlines": 365.0,
        "overheads": {"routing": routing, "controller": controller},
        "device_params": dict(STT_DEVICE_PARAMS),
        "technologies": {
            "stt_ram": {
                "clock_mhz": 100.0,
                "read_energy_per_wordline_pj": 535.0,
                "read_latency_ns": 7.34,
                "published_module_power_mw": 53.5,
                "published_module_area_mm2": 1.14,
                "memory_by_bits": memory["stt_ram"],
            },
            "sram": {
                "clock_mhz": 250.0,
                "memory_by_bits": memory["sram"],
            },
        },
        "logic_by_bits": {str(b): v for b, v in logic_by_bits.items()},
    }


def _lookup(config: dict, path: str):
    """The value at a dotted key path; ValueError names the first key missing."""
    value, parts = config, path.split(".")
    for i, key in enumerate(parts):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"perf config missing {'.'.join(parts[: i + 1])!r}")
        value = value[key]
    return value


def _number(config: dict, path: str, positive: bool = False) -> float:
    """The finite, non-negative (or positive) number at a dotted key path."""
    value = _lookup(config, path)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        kind = "positive" if positive else "non-negative"
        raise ValueError(f"perf config {path!r} must be a finite {kind} number, not {value!r}")
    return value


def compute_report(config: dict | None = None) -> dict:
    """The perf_report.json dict for both technologies at every precision.
    This is the one reader of a perf config: a missing or non-numeric key
    raises ValueError naming its dotted path."""
    if config is None:
        config = default_config()
    version = _lookup(config, "version")
    if version != CONFIG_VERSION:
        raise ValueError(f"unsupported perf config version {version!r}")
    synapses = _number(config, "synapses_per_wordline", positive=True)
    routing = _number(config, "overheads.routing")
    controller = _number(config, "overheads.controller")
    clocks = {tech: _number(config, f"technologies.{tech}.clock_mhz", positive=True)
              for tech in TECHNOLOGIES}
    precisions = set()
    for tech in TECHNOLOGIES:
        path = f"technologies.{tech}.memory_by_bits"
        table = _lookup(config, path)
        if not (isinstance(table, dict) and table and all(str(b).isdigit() for b in table)):
            raise ValueError(f"perf config {path!r} must map integer precisions to entries")
        precisions |= {int(b) for b in table}

    entries, ratios = [], {}
    for bits in sorted(precisions):
        keys = ("power_mw", "area_mm2")
        logic = [_number(config, f"logic_by_bits.{bits}.{key}") for key in keys]
        for tech in TECHNOLOGIES:
            prefix = f"technologies.{tech}.memory_by_bits.{bits}"
            memory = [_number(config, f"{prefix}.{key}") for key in keys]
            power, area = rollup(*memory, *logic, routing, controller)
            rate = gsops(clocks[tech], synapses)
            per_w, per_w_mm2 = efficiency(rate, power, area)
            entries.append({"technology": tech, "bits": bits, "gsops": rate,
                            "power_mw": power, "area_mm2": area,
                            "gsops_per_w": per_w, "gsops_per_w_mm2": per_w_mm2})
        sram, stt = entries[-2:]
        ratios[str(bits)] = stt["gsops_per_w_mm2"] / sram["gsops_per_w_mm2"]

    # the neuron logic is 8-bit at every synapse precision, and it runs
    # for one memory clock per word line read
    lines = _number(config, "avg_active_wordlines")
    step_ns = lines * 1000.0 / clocks["stt_ram"]
    logic_nj = _number(config, "logic_by_bits.8.power_mw") * step_ns * 1e-6
    step = energy_per_step(
        lines, _number(config, "technologies.stt_ram.read_energy_per_wordline_pj"), logic_nj
    )
    return {
        "entries": entries,
        "area_efficiency_ratios": ratios,
        "step_energy_nj": {"memory": step.memory_nj, "logic": step.logic_nj,
                           "total": step.total_nj},
        "avg_active_wordlines": lines,
    }


def render_report(report: dict) -> str:
    """Aligned text table of the efficiency comparison plus ratio lines."""
    by_key = {(e["technology"], e["bits"]): e for e in report["entries"]}
    bits = sorted({e["bits"] for e in report["entries"]})
    lines = [
        "Throughput: " + ", ".join(
            f"{t.upper().replace('_', '-')} {by_key[(t, bits[0])]['gsops']:g} GSOPS"
            for t in TECHNOLOGIES
        ),
        "",
        f"{'Precision':>9} | {'GSOPS/W':^17} | {'GSOPS/W/mm^2':^17}",
        f"{'':>9} | {'SRAM':>7} {'STT-RAM':>8}  | {'SRAM':>7} {'STT-RAM':>8} ",
        "-" * 59,
    ]
    for b in bits:
        sram, stt = by_key[("sram", b)], by_key[("stt_ram", b)]
        lines.append(
            f"{b:>9} | {sram['gsops_per_w']:>7.0f} {stt['gsops_per_w']:>8.0f}  "
            f"| {sram['gsops_per_w_mm2']:>7.0f} {stt['gsops_per_w_mm2']:>8.0f} "
        )
    lines.append("")
    for b, ratio in report["area_efficiency_ratios"].items():
        lines.append(f"b={b}: STT-RAM is {ratio:.1f}x the SRAM design in GSOPS/W/mm^2")
    se = report["step_energy_nj"]
    lines += [
        "",
        f"Energy per step at {report['avg_active_wordlines']:g} active word lines: "
        f"{se['memory']:.3f} nJ memory + {se['logic']:.3f} nJ logic = {se['total']:.3f} nJ",
    ]
    return "\n".join(lines) + "\n"
