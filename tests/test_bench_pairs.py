"""scripts/bench_pairs.py's summary arithmetic on canned runs; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

BETTER = {m["name"]: m["better"]
          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def canned_runs(parent, change):
    """One pair per (parent, change) value, each side's value under two
    metrics of workload w: a rate and peak_rss_mb."""
    def side(value):
        return {"metrics": {"w.quantize.samples_per_s": {"value": value, "unit": "samples/s"},
                            "w.peak_rss_mb": {"value": value, "unit": "MB"}}}
    return [{"seed": 1, "first": "parent" if i % 2 == 0 else "change",
             "parent": side(p), "change": side(c)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_medians_quartiles_and_wins_respect_better():
    # pairs (10, 11) (20, 19) (30, 31) (40, 41) (50, 50): the change is higher
    # in three, lower in one, and the last pair is a tie
    summary = bench_pairs.summarize(canned_runs([10, 20, 30, 40, 50], [11, 19, 31, 41, 50]),
                                    BETTER)
    rate, rss = summary["w.quantize.samples_per_s"], summary["w.peak_rss_mb"]
    assert (rate["unit"], rate["better"], rate["change_wins"]) == ("samples/s", "higher", 3)
    assert (rss["unit"], rss["better"], rss["change_wins"]) == ("MB", "lower", 1)
    assert rate["parent"] == {"median": 30, "q1": 20, "q3": 40}
    assert rate["change"] == {"median": 31, "q1": 19, "q3": 41}
    assert list(summary) == ["w.peak_rss_mb", "w.quantize.samples_per_s"]


def test_reproduces_a_committed_summary_from_its_runs():
    point = json.loads((ROOT / "BENCH_pr15.json").read_text())
    assert bench_pairs.summarize(point["runs"], BETTER) == point["summary"]


def test_totals_each_sides_operations_over_the_runs():
    runs = json.loads((ROOT / "BENCH_pr18.json").read_text())["runs"]
    assert bench_pairs.operation_totals(runs) == {
        "parent": {"attempted": 27162, "failed": 0},
        "change": {"attempted": 26968, "failed": 0},
    }


def test_counts_the_package_lines_of_a_copy(tmp_path):
    # src/spikesim/*.py only, each newline a line as wc -l counts them
    package = tmp_path / "src" / "spikesim"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\nthree\n")
    (package / "b.py").write_text("\nlast, unterminated")
    (package / "notes.txt").write_text("not\ncode\n")
    (package / "sub" / "c.py").write_text("nested\n")
    (tmp_path / "src" / "top.py").write_text("outside\n")
    assert bench_pairs.src_lines(tmp_path) == 4
