"""Analytical throughput, power and area model of the accelerator.

Synaptic throughput counts one operation per synapse read: a word line
holds one synapse per output neuron, and one line is read per memory
clock, so GSOPS = clock(GHz) * synapses_per_wordline.  Memory numbers
come from device-level simulation and are carried here as config inputs;
per-precision logic and memory splits that were never published are
back-solved from the reference efficiency table and flagged calibrated.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

CONFIG_VERSION = 1

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


@dataclass(frozen=True)
class PerfEntry:
    technology: str
    bits: int
    gsops: float
    power_mw: float
    area_mm2: float
    gsops_per_w: float
    gsops_per_w_mm2: float


@dataclass
class PerfReport:
    entries: list
    area_efficiency_ratios: dict  # bits -> STT over SRAM GSOPS/W/mm^2
    step_energy: StepEnergy
    avg_active_wordlines: float


def gsops(clock_mhz: float, synapses_per_wordline: int) -> float:
    """Synaptic throughput: one word-line read delivers one op per synapse."""
    if clock_mhz <= 0 or synapses_per_wordline <= 0:
        raise ValueError("clock and synapse count must be positive")
    return (clock_mhz / 1000.0) * synapses_per_wordline


def rollup(memory_power_mw, memory_area_mm2, logic_power_mw, logic_area_mm2,
           routing_overhead=0.10, controller_overhead=0.20):
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


def validate_config(config: dict):
    """Check the version and every key compute_report reads."""
    if config.get("version") != CONFIG_VERSION:
        raise ValueError(f"unsupported perf config version {config.get('version')!r}")
    for path in ("synapses_per_wordline", "overheads.routing", "overheads.controller",
                 "technologies.stt_ram.read_energy_per_wordline_pj", "logic_by_bits",
                 "avg_active_wordlines"):
        _lookup(config, path)
    for tech in config["technologies"]:
        if _lookup(config, f"technologies.{tech}.clock_mhz") <= 0:
            raise ValueError(f"{tech} clock must be positive")
        for bits in _lookup(config, f"technologies.{tech}.memory_by_bits"):
            for key in ("power_mw", "area_mm2"):
                _lookup(config, f"technologies.{tech}.memory_by_bits.{bits}.{key}")
                _lookup(config, f"logic_by_bits.{bits}.{key}")


def load_config(path) -> dict:
    with open(path) as fh:
        config = json.load(fh)
    validate_config(config)
    return config


def save_config(path, config: dict):
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def compute_report(config: dict | None = None) -> PerfReport:
    """Evaluate every (technology, precision) design point in the config."""
    if config is None:
        config = default_config()
    validate_config(config)
    overheads = config["overheads"]
    synapses = config["synapses_per_wordline"]

    entries = []
    by_key = {}
    for tech, entry in config["technologies"].items():
        rate = gsops(entry["clock_mhz"], synapses)
        for bits_str, mem in entry["memory_by_bits"].items():
            bits = int(bits_str)
            logic = config["logic_by_bits"][bits_str]
            power, area = rollup(
                mem["power_mw"], mem["area_mm2"],
                logic["power_mw"], logic["area_mm2"],
                overheads["routing"], overheads["controller"],
            )
            per_w, per_w_mm2 = efficiency(rate, power, area)
            entry = PerfEntry(tech, bits, rate, power, area, per_w, per_w_mm2)
            entries.append(entry)
            by_key[(tech, bits)] = entry

    ratios = {}
    for (tech, bits), entry in by_key.items():
        if tech == "stt_ram" and ("sram", bits) in by_key:
            ratios[bits] = entry.gsops_per_w_mm2 / by_key[("sram", bits)].gsops_per_w_mm2

    stt = config["technologies"]["stt_ram"]
    bits_8_logic = config["logic_by_bits"].get("8")
    lines = config["avg_active_wordlines"]
    # logic runs for one memory clock per word line read
    logic_energy_nj = 0.0
    if bits_8_logic is not None:
        step_ns = lines * 1000.0 / stt["clock_mhz"]
        logic_energy_nj = bits_8_logic["power_mw"] * step_ns * 1e-6
    step_energy = energy_per_step(
        lines, stt["read_energy_per_wordline_pj"], logic_energy_nj
    )

    entries.sort(key=lambda e: (e.bits, e.technology))
    return PerfReport(
        entries=entries,
        area_efficiency_ratios=ratios,
        step_energy=step_energy,
        avg_active_wordlines=lines,
    )


def report_to_dict(report: PerfReport) -> dict:
    return {
        "entries": [asdict(e) for e in report.entries],
        "area_efficiency_ratios": {
            str(b): r for b, r in sorted(report.area_efficiency_ratios.items())
        },
        "step_energy_nj": {
            "memory": report.step_energy.memory_nj,
            "logic": report.step_energy.logic_nj,
            "total": report.step_energy.total_nj,
        },
        "avg_active_wordlines": report.avg_active_wordlines,
    }


def render_report(report: PerfReport) -> str:
    """Aligned text table of the efficiency comparison plus ratio lines."""
    by_key = {(e.technology, e.bits): e for e in report.entries}
    bits = sorted({e.bits for e in report.entries})
    lines = []
    gsops_vals = {t: by_key[(t, bits[0])].gsops for t in ("sram", "stt_ram")
                  if (t, bits[0]) in by_key}
    if gsops_vals:
        lines.append(
            "Throughput: "
            + ", ".join(f"{t.upper().replace('_', '-')} {g:g} GSOPS"
                        for t, g in sorted(gsops_vals.items()))
        )
        lines.append("")
    lines.append(f"{'Precision':>9} | {'GSOPS/W':^17} | {'GSOPS/W/mm^2':^17}")
    lines.append(f"{'':>9} | {'SRAM':>7} {'STT-RAM':>8}  | {'SRAM':>7} {'STT-RAM':>8} ")
    lines.append("-" * 59)
    for b in bits:
        sram = by_key.get(("sram", b))
        stt = by_key.get(("stt_ram", b))
        lines.append(
            f"{b:>9} | {sram.gsops_per_w:>7.0f} {stt.gsops_per_w:>8.0f}  "
            f"| {sram.gsops_per_w_mm2:>7.0f} {stt.gsops_per_w_mm2:>8.0f} "
        )
    lines.append("")
    for b in sorted(report.area_efficiency_ratios):
        lines.append(
            f"b={b}: STT-RAM is {report.area_efficiency_ratios[b]:.1f}x the "
            f"SRAM design in GSOPS/W/mm^2"
        )
    se = report.step_energy
    lines.append("")
    lines.append(
        f"Energy per step at {report.avg_active_wordlines:g} active word lines: "
        f"{se.memory_nj:.3f} nJ memory + {se.logic_nj:.3f} nJ logic "
        f"= {se.total_nj:.3f} nJ"
    )
    return "\n".join(lines) + "\n"
