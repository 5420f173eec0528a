#!/usr/bin/env python3
"""Paired benchmark runs of two trees of this repository, and their summary.

Each side runs from a clean copy of its tree: a git revision, or for
``--change worktree`` the working tree's tracked and untracked files that
git does not ignore.  Each of the 10 pairs runs

    python3 perfbench/run.py --workload all --seed 1 --seconds N

once in each copy, N being BENCHMARK.json's run_seconds, the parent first in
odd pairs and the change first in even pairs.  The output JSON holds every
run and, for each end-to-end metric of each workload, both sides' median and
quartiles and the number of pairs the change won, by the metric's ``better``
in BENCHMARK.json; a tie wins for neither.  Next to that summary it holds
each side's total attempted and failed operations, and the line count of
each side's src/spikesim/*.py.  The copies are removed when the runs end.

Usage (from the repository root):

    python3 scripts/bench_pairs.py --parent HEAD --change worktree \\
        --out BENCH_<label>.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "worktree"
PAIRS, SEED = 10, 1


def _git(*args, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path):
    """Write a clean copy of `rev`'s tree, or of the working tree, into dest."""
    dest.mkdir(parents=True)
    if rev != WORKTREE:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
        return
    for name in _git("ls-files", "-z", "--cached", "--others",
                     "--exclude-standard").split("\0"):
        if name and (ROOT / name).is_file():  # a deleted tracked file is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def src_tree(rev: str) -> str:
    """The git tree id of `rev`'s src/, or of the working tree's."""
    if rev != WORKTREE:
        return _git("rev-parse", f"{rev}:src")
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        _git("add", "--", "src", env=env)
        return _git("write-tree", "--prefix=src/", env=env)


def src_lines(copy: Path) -> int:
    """The lines of src/spikesim/*.py in a copy, counted as wc -l counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (copy / "src" / "spikesim").glob("*.py"))


def run_once(copy: Path, seconds) -> dict:
    """One benchmark run in `copy`: the JSON object its last line prints."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(SEED),
         "--seconds", str(seconds)],
        cwd=copy, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"the benchmark in {copy} exited with {done.returncode}:\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(runs, better) -> dict:
    """Per metric of the runs: its unit and `better`, each side's median and
    quartiles (numpy.percentile, linear), and change_wins, the pairs in which
    the change's value is strictly better.  `better` maps an end-to-end metric name, such
    as quantize.samples_per_s, to "higher" or "lower"; a run's metrics are
    keyed <workload>.<metric>."""
    summary = {}
    for key, first in sorted(runs[0]["parent"]["metrics"].items()):
        direction = better[key.split(".", 1)[1]]
        sign = 1 if direction == "higher" else -1
        values = {side: [run[side]["metrics"][key]["value"] for run in runs]
                  for side in ("parent", "change")}
        summary[key] = {
            "unit": first["unit"],
            "better": direction,
            "change_wins": sum(sign * (c - p) > 0
                               for p, c in zip(values["parent"], values["change"])),
        }
        for side, v in values.items():
            mid, q1, q3 = (float(q) for q in numpy.percentile(v, [50, 25, 75]))
            summary[key][side] = {"median": mid, "q1": q1, "q3": q3}
    return summary


def operation_totals(runs) -> dict:
    """Each side's attempted and failed operations, summed over the runs."""
    return {side: {key: sum(run[side][key] for run in runs) for key in ("attempted", "failed")}
            for side in ("parent", "change")}


def _machine() -> str:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return f"{os.cpu_count()}-core {model or platform.machine()}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", required=True,
                    help=f"git revision of the change, or {WORKTREE!r}")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args(argv)
    worktree = args.change == WORKTREE
    ids = {"parent_sha": _git("rev-parse", args.parent),
           "change_sha": None if worktree else _git("rev-parse", args.change),
           "change_src_tree": src_tree(args.change)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    work = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        copies = {"parent": work / "parent", "change": work / "change"}
        export(args.parent, copies["parent"])
        export(args.change, copies["change"])
        lines = {side: src_lines(copy) for side, copy in copies.items()}
        runs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            run = {"seed": SEED, "first": order[0]}
            for side in order:
                run[side] = run_once(copies[side], seconds)
                print(f"pair {i + 1}/{PAIRS}: {side} done", file=sys.stderr)
            runs.append(run)
    finally:
        shutil.rmtree(work)

    result = {
        "note": "Paired runs of the parent commit and of the change, each side from a "
                "clean copy of its tree."
                + (" change_sha is null because the change is the working tree; the "
                   "measured src/ tree is change_src_tree." if worktree else ""),
        "machine": _machine(),
        "command": f"python3 perfbench/run.py --workload all --seed {SEED} "
                   f"--seconds {seconds}",
        **ids,
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": 1,  # perfbench/run.py pins OPENBLAS_NUM_THREADS=1
        "pairs": PAIRS,
        "order": "alternating: parent first in odd pairs, change first in even pairs",
        "summary": summarize(runs, better),
        "operations": operation_totals(runs),
        "src_lines": lines,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
