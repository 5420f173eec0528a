"""In-memory spans around spikesim's public functions, installed from outside.

Each wrapper replaces a function at the place its caller looks it up (the
module attribute the call resolves at run time), so the program itself is
unchanged.  A span records its name, parent, start, end and the pipeline
round it belongs to; spans stay in memory until ``write``.  A target that a
later version of the program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from statistics import median
from time import perf_counter

import spikesim.cli
import spikesim.core
import spikesim.glm
import spikesim.quantize
import spikesim.training


def _batches(args, kwargs, result):
    train_ds, config = args[0], args[2]
    return config.epochs * math.ceil(len(train_ds.labels) / config.batch_size)


def _evaluated(args, kwargs, result):
    n = len(args[3])
    limit = kwargs.get("limit", args[5] if len(args) > 5 else None)
    return n if limit is None else min(limit, n)


def _one(args, kwargs, result):
    return 1


# (module, attribute, span name, count name or None, count of one call)
TARGETS = [
    (spikesim.cli, "load_digits", "datasets.load", "datasets.load.calls", _one),
    (spikesim.cli, "load_har", "datasets.load", "datasets.load.calls", _one),
    (spikesim.cli, "load_model", "datasets.load", "datasets.load.calls", _one),
    (spikesim.cli, "rate_encode", "glm.rate_encode", "glm.rate_encode.calls", _one),
    (spikesim.training, "rate_encode", "glm.rate_encode", "glm.rate_encode.calls", _one),
    (spikesim.glm, "rate_encode", "glm.rate_encode", "glm.rate_encode.calls", _one),
    (spikesim.training, "membrane_series", "glm.membrane_series",
     "glm.membrane_series.calls", _one),
    (spikesim.cli, "train", "training.sgd", "training.sgd.batches", _batches),
    (spikesim.training, "evaluate_float", "training.evaluate_float",
     "training.evaluate_float.samples", _evaluated),
    (spikesim.cli, "evaluate_float", "training.evaluate_float",
     "training.evaluate_float.samples", _evaluated),
    (spikesim.cli, "quantize_model", "quantize.quantize_model", None, None),
    (spikesim.cli, "evaluate_quantized", "quantize.evaluate_quantized",
     "quantize.evaluate_quantized.samples", _evaluated),
    (spikesim.quantize, "quantized_potentials", "quantize.quantized_potentials",
     None, None),
    (spikesim.quantize, "spike_decision", None, "quantize.lfsr_draws", _one),
    (spikesim.cli, "map_model_to_memory", "core.map_model_to_memory", None, None),
    (spikesim.cli, "run_first_to_spike", "core.run_first_to_spike",
     "core.run_first_to_spike.samples", _one),
    (spikesim.core, "core_step", "core.core_step", "core.core_step.steps", _one),
    (spikesim.core, "gather_active_wordlines", "core.gather_active_wordlines",
     None, None),
    (spikesim.cli, "cmd_simulate", "cli.simulate", None, None),
]

SPAN_NAMES = sorted({t[2] for t in TARGETS if t[2]})
COUNT_NAMES = sorted({t[3] for t in TARGETS if t[3]})


class Tracer:
    """Records spans and counts while installed; restores the program on exit."""

    def __init__(self):
        self.spans = []      # [name, parent index or -1, start, end, round]
        self.counts = defaultdict(int)  # (round, count name) -> total
        self.round = 0
        self._stack = []
        self._saved = []

    def _wrap(self, fn, span, count, counter):
        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.counts[self.round, count] += counter(args, kwargs, result)
                return result

            return counted

        def traced(*args, **kwargs):
            record = [span, self._stack[-1] if self._stack else -1,
                      perf_counter(), None, self.round]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                self._stack.pop()
            if count is not None:
                self.counts[self.round, count] += counter(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for module, attr, span, count, counter in TARGETS:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, span, count, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def self_times(self):
        """{round: {span name: seconds}}, each span less its children's time."""
        out = defaultdict(lambda: defaultdict(float))
        for name, parent, start, end, rnd in self.spans:
            out[rnd][name] += end - start
            if parent >= 0:
                out[rnd][self.spans[parent][0]] -= end - start
        return out

    def per_round(self, rounds):
        """Median self time and the count of each name over the given rounds."""
        selfs = self.self_times()
        metrics = {f"{name}.self_s": median(selfs[r][name] for r in rounds)
                   for name in SPAN_NAMES}
        for name in COUNT_NAMES:
            metrics[name] = self.counts[rounds[0], name]
        return metrics

    def write(self, path):
        """Write every span as one JSON line, times relative to the first."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, start, end, rnd) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "round": rnd,
                                     "name": name, "start_s": start - t0,
                                     "end_s": end - t0}) + "\n")
