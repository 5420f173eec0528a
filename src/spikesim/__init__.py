"""Probabilistic first-to-spike networks: training, bit-accurate core
simulation and accelerator performance modeling."""

from .glm import GlmModel, sigmoid
from .training import TrainConfig, train
from .quantize import (
    QuantizedModel,
    clip_to_fixed,
    pwl_sigmoid,
    quantize_model,
    quantize_uniform,
)
from .core import (
    CoreMemoryImage,
    latency_cdf,
    map_model_to_memory,
)
from .perf import compute_report, default_config, efficiency, energy_per_step, gsops, rollup
from .datasets import Dataset, ModelArtifact, load_digits, load_har, load_model, save_model

__version__ = "0.1.0"
