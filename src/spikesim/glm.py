"""Floating-point reference model of the probabilistic GLM spiking neuron.

A two-layer network: input channels deliver Bernoulli-encoded spike trains,
each output neuron computes a membrane potential as a windowed linear
combination of recent input spikes plus a bias, and spikes stochastically
with probability sigmoid(potential).  add_tap_contributions is the one
potential kernel: training runs it over every step of a minibatch, and
quantize's first-to-spike loop a chunk of steps at a time, for the float
model and the quantized datapath alike.

No function here checks a split: its magnitudes, signs and labels are
checked once, when its datasets.Dataset is built, and quantize.decide_blocks
checks that it fits the models it scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def sigmoid(u):
    """Logistic function 1 / (1 + exp(-u)), stable for large |u|."""
    u = np.asarray(u, dtype=np.float64)
    e = np.exp(np.minimum(u, -u))  # exp(-u) where u >= 0, exp(u) below
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def log_sigmoid(u):
    """log(sigmoid(u)) without underflow: -log(1 + exp(-u))."""
    return -np.logaddexp(0.0, -np.asarray(u, dtype=np.float64))


def log_one_minus_sigmoid(u):
    """log(1 - sigmoid(u)) = log(sigmoid(-u)) without underflow."""
    return -np.logaddexp(0.0, np.asarray(u, dtype=np.float64))


#: samples drawn and scored together by the batched evaluators; bounds the
#: memory of one block's random draws and GEMM operands
ENCODE_CHUNK = 64


def draw_rasters(mag: np.ndarray, duration: int, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli spike rasters for magnitudes in [0, 1]: mag.shape + (duration,).

    One rng.random call, so a block of samples consumes the same stream as
    one call per sample in order.
    """
    return (rng.random(mag.shape + (duration,)) < mag[..., None]).astype(np.uint8)


def encoded_chunks(magnitudes: np.ndarray, duration: int, rng: np.random.Generator):
    """Yield (start, rasters) for consecutive blocks of ENCODE_CHUNK samples
    of a split's magnitudes: those one draw_rasters call per sample would
    draw from the same rng."""
    for start in range(0, len(magnitudes), ENCODE_CHUNK):
        yield start, draw_rasters(magnitudes[start : start + ENCODE_CHUNK], duration, rng)


def first_spike(spikes, final):
    """First-to-spike decisions of a block: (predicted, decision_time).

    spikes is (batch, T, n_outputs) of bool, final (batch, n_outputs) the
    last step's potentials.  The first step with any spike decides, its
    lowest spiking index wins, and decision_time is that 1-based step.  A
    sample with no spike falls back to the argmax of final (lowest index
    on ties), with decision_time 0.
    """
    fired = spikes.any(axis=2)                        # (batch, T)
    first = fired.argmax(axis=1)
    rows = np.arange(len(first))
    decided = fired[rows, first]
    predicted = np.where(decided, spikes[rows, first].argmax(axis=1), final.argmax(axis=1))
    return predicted, np.where(decided, first + 1, 0)


@dataclass
class GlmModel:
    """GLM network parameters: per-(input, output) kernels and biases.

    weights has shape (n_inputs, n_outputs, window): weights[j, i, d]
    multiplies the input spike d+1 steps in the past.  They are held as
    word lines, as the core holds them, so kernel_matrix(weights) is a view.
    """

    n_inputs: int
    n_outputs: int
    presentation_time: int
    window: int
    weights: np.ndarray
    biases: np.ndarray

    def __post_init__(self):
        if np.shape(self.weights) != (self.n_inputs, self.n_outputs, self.window):
            raise ValueError(
                f"weights shape {np.shape(self.weights)} does not match "
                f"({self.n_inputs}, {self.n_outputs}, {self.window})"
            )
        self.weights = held_as_word_lines(self.weights, np.float64)
        self.biases = np.array(self.biases, dtype=np.float64)
        if self.biases.shape != (self.n_outputs,):
            raise ValueError("biases must have one entry per output")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("parameters must be finite")
        if not 1 <= self.window <= self.presentation_time:
            raise ValueError("need 1 <= window <= presentation_time")

    @classmethod
    def zeros(cls, n_inputs, n_outputs, presentation_time, window):
        """All-zero parameters."""
        return cls(n_inputs, n_outputs, presentation_time, window,
                   weights=np.zeros((n_inputs, n_outputs, window)), biases=np.zeros(n_outputs))


def word_lines(kernels) -> np.ndarray:
    """The word-line view (n_inputs, window, n_outputs) of kernels, and back."""
    return np.asarray(kernels).transpose(0, 2, 1)


def held_as_word_lines(kernels, dtype) -> np.ndarray:
    """Kernels in dtype as the word_lines view of contiguous lines, copied only if not so."""
    return word_lines(np.ascontiguousarray(word_lines(kernels), dtype))


def kernel_matrix(kernels, dtype=np.float64) -> np.ndarray:
    """Kernels (n_inputs, n_outputs, window) as the potential GEMM's operand:
    K (n_inputs, window * n_outputs) in dtype, K[j, d * n_outputs + i] =
    kernels[j, i, d], their word lines one row per input, so a view of
    kernels held as word lines in dtype.  Integer codes come through
    exactly, so the GEMM over them sums integers."""
    lines = word_lines(held_as_word_lines(kernels, dtype))
    n_inputs, window, n_outputs = lines.shape
    return lines.reshape(n_inputs, window * n_outputs)


def add_tap_contributions(u, inputs, kmat: np.ndarray, window: int, first: int):
    """Add the contributions of consecutive steps' input spikes to u in place.

    u is (batch, T, n_outputs), inputs (batch, steps, n_inputs) the signed
    spikes of 0-based steps first .. first + steps - 1 and kmat the
    kernel_matrix of the kernels K.  The spikes of step s reach steps
    s + 1 .. s + window: one GEMM, (batch*steps, n_inputs) @ (n_inputs,
    window*n_outputs), gives every tap's contribution, and window shifted
    adds place them, tap 1 first.
    """
    batch, steps, n_inputs = inputs.shape
    duration, n_outputs = u.shape[1:]
    taps = (inputs.reshape(-1, n_inputs) @ kmat).reshape(batch, steps, window, n_outputs)
    for d in range(1, min(window, duration - first - 1) + 1):
        stop = min(first + steps + d, duration)
        u[:, first + d : stop, :] += taps[:, : stop - first - d, d - 1, :]


def windowed_potentials_adjoint(inputs, d_u, window: int) -> np.ndarray:
    """The adjoint of add_tap_contributions from step 0 in its kernel operand.

    inputs is (batch, T - 1, n_inputs), the signed spikes of steps 0 .. T - 2
    that add_tap_contributions pushes from step 0, and d_u (batch, T, n_outputs) is shaped
    like the potentials.  Returns the gradient of sum(d_u * u) with respect
    to kmat, shape (n_inputs, window * n_outputs): entry (j, (d-1) *
    n_outputs + i) is sum_b sum_t inputs[b, t-d, j] d_u[b, t, i] over
    t-d >= 0.  One GEMM of the input rows against d_u shifted back by each
    tap gives every entry.
    """
    batch, duration, n_outputs = d_u.shape
    shifted = np.zeros((batch, duration - 1, window, n_outputs))
    for d in range(1, min(window, duration - 1) + 1):
        shifted[:, : duration - d, d - 1, :] = d_u[:, d:, :]
    return inputs.reshape(-1, inputs.shape[2]).T @ shifted.reshape(-1, window * n_outputs)


def signed_inputs(rasters, signs, first: int, stop: int, dtype=np.float64) -> np.ndarray:
    """The signed spikes of 0-based steps first .. stop - 1 as GEMM rows:
    (batch, stop - first, n_inputs) in dtype."""
    rasters = np.asarray(rasters)
    batch, n_inputs, _ = rasters.shape
    x = np.empty((batch, stop - first, n_inputs), dtype=dtype)
    x[...] = rasters[:, :, first:stop].transpose(0, 2, 1)
    x *= np.asarray(signs, dtype=dtype)[:, None, :]
    return x
