"""Probabilistic first-to-spike networks: training, bit-accurate core
simulation and accelerator performance modeling."""

from .glm import GlmModel, SpikeTrain, rate_encode, sigmoid
from .training import FtsDecision, TrainConfig, fts_gradient, fts_log_prob, fts_objective, infer_fts_float, train
from .quantize import (
    FMT_1_4_3,
    FixedPointFormat,
    QuantizedModel,
    clip_to_fixed,
    lfsr_next,
    pwl_sigmoid,
    quantize_model,
    quantize_uniform,
    spike_decision,
)
from .core import (
    CoreGeometry,
    CoreMemoryImage,
    first_to_spike_batch,
    latency_cdf,
    map_model_to_memory,
)
from .perf import PerfReport, compute_report, default_config, efficiency, energy_per_step, gsops, rollup
from .datasets import Dataset, ModelArtifact, load_digits, load_har, load_model, save_model

__version__ = "0.1.0"
