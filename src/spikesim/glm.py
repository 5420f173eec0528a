"""Floating-point reference model of the probabilistic GLM spiking neuron.

A two-layer network: input channels deliver Bernoulli-encoded spike trains,
each output neuron computes a membrane potential as a windowed linear
combination of recent input spikes plus a bias, and spikes stochastically
with probability sigmoid(potential).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EncodingError(ValueError):
    """Raised when an input vector cannot be rate-encoded."""


def sigmoid(u):
    """Logistic function 1 / (1 + exp(-u)), stable for large |u|."""
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    if out.ndim == 0:
        return float(out)
    return out


def log_sigmoid(u):
    """log(sigmoid(u)) without underflow: -log(1 + exp(-u))."""
    return -np.logaddexp(0.0, -np.asarray(u, dtype=np.float64))


def log_one_minus_sigmoid(u):
    """log(1 - sigmoid(u)) = log(sigmoid(-u)) without underflow."""
    return -np.logaddexp(0.0, np.asarray(u, dtype=np.float64))


def identity_basis(window: int) -> np.ndarray:
    """Binary basis where each learnable weight owns one delay tap."""
    return np.eye(window, dtype=np.uint8)


@dataclass
class SpikeTrain:
    """Binary raster of input spikes plus a per-channel sign flag.

    raster[j, t] is the spike of channel j at step t+1 (steps are 1-based
    in the dynamics).  Negative input magnitudes are absorbed into sign,
    which flips the effective weight at accumulation time.
    """

    raster: np.ndarray  # (n_inputs, duration) of {0, 1}
    sign: np.ndarray    # (n_inputs,) of {+1, -1}

    def __post_init__(self):
        self.raster = np.asarray(self.raster, dtype=np.uint8)
        self.sign = np.asarray(self.sign, dtype=np.int8)
        if self.raster.ndim != 2:
            raise ValueError("raster must be 2-D (n_inputs, duration)")
        if self.sign.shape != (self.raster.shape[0],):
            raise ValueError("sign must have one entry per input channel")
        if not np.isin(self.raster, (0, 1)).all():
            raise ValueError("raster entries must be 0 or 1")
        if not np.isin(self.sign, (-1, 1)).all():
            raise ValueError("sign entries must be +1 or -1")

    @property
    def n_inputs(self) -> int:
        return self.raster.shape[0]

    @property
    def duration(self) -> int:
        return self.raster.shape[1]


#: samples drawn and scored together by the batched evaluators; bounds the
#: memory of one block's random draws and GEMM operands
ENCODE_CHUNK = 64


def check_magnitudes(x) -> np.ndarray:
    """|x| of one input vector or a block of them, validated for rate encoding.

    Raises EncodingError on non-finite values or a magnitude above 1.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise EncodingError("input contains non-finite values")
    mag = np.abs(x)
    if (mag > 1.0).any():
        worst = np.unravel_index(np.argmax(mag), mag.shape)
        raise EncodingError(
            f"channel {worst[-1]} has magnitude {mag[worst]:g} > 1; normalize first"
        )
    return mag


def check_signs(signs) -> np.ndarray:
    """Per-channel sign flags of one input or a block of them, all +1 or -1."""
    signs = np.asarray(signs)
    if not np.isin(signs, (-1, 1)).all():
        raise ValueError("sign entries must be +1 or -1")
    return signs


def draw_rasters(mag: np.ndarray, duration: int, rng: np.random.Generator) -> np.ndarray:
    """Bernoulli spike rasters for validated magnitudes: mag.shape + (duration,).

    One rng.random call, so a block of samples consumes the same stream as
    one call per sample in order.
    """
    return (rng.random(mag.shape + (duration,)) < mag[..., None]).astype(np.uint8)


def encoded_chunks(magnitudes, duration: int, rng: np.random.Generator):
    """Yield (start, rasters) for consecutive blocks of ENCODE_CHUNK samples.

    The whole split is validated once, before the first draw; the rasters
    are those per-sample rate_encode calls would draw from the same rng.
    """
    mags = check_magnitudes(magnitudes)
    for start in range(0, len(mags), ENCODE_CHUNK):
        yield start, draw_rasters(mags[start : start + ENCODE_CHUNK], duration, rng)


def rate_encode(x, duration: int, rng: np.random.Generator) -> SpikeTrain:
    """Bernoulli rate encoding of a normalized input vector.

    Each channel j spikes independently at every step with probability
    |x_j|; the sign of x_j is carried on the SpikeTrain (0 maps to +1).
    Magnitudes must already be normalized to [0, 1].
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise EncodingError("input must be a 1-D feature vector")
    raster = draw_rasters(check_magnitudes(x), duration, rng)
    sign = np.where(x < 0, -1, 1).astype(np.int8)
    return SpikeTrain(raster=raster, sign=sign)


@dataclass
class GlmModel:
    """GLM network parameters: per-(input, output) kernel weights and biases.

    weights has shape (n_inputs, n_outputs, n_basis); with the identity
    basis (the default) n_basis == window and weights[j, i, d] multiplies
    the input spike d+1 steps in the past.
    """

    n_inputs: int
    n_outputs: int
    presentation_time: int
    window: int
    weights: np.ndarray
    biases: np.ndarray
    basis: np.ndarray = field(default=None)  # (window, n_basis) binary

    def __post_init__(self):
        if self.basis is None:
            self.basis = identity_basis(self.window)
        self.basis = np.asarray(self.basis, dtype=np.uint8)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        self.validate()

    def validate(self):
        tau, k = self.basis.shape
        if tau != self.window:
            raise ValueError("basis rows must equal the window length")
        if k > self.window:
            raise ValueError("cannot have more basis vectors than taps")
        if not np.isin(self.basis, (0, 1)).all():
            raise ValueError("basis must be binary")
        if self.weights.shape != (self.n_inputs, self.n_outputs, k):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match "
                f"({self.n_inputs}, {self.n_outputs}, {k})"
            )
        if self.biases.shape != (self.n_outputs,):
            raise ValueError("biases must have one entry per output")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("parameters must be finite")
        if not 1 <= self.window <= self.presentation_time:
            raise ValueError("need 1 <= window <= presentation_time")

    @classmethod
    def zeros(cls, n_inputs, n_outputs, presentation_time, window):
        return cls(
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            presentation_time=presentation_time,
            window=window,
            weights=np.zeros((n_inputs, n_outputs, window)),
            biases=np.zeros(n_outputs),
        )

    def kernels(self) -> np.ndarray:
        """Expanded kernels basis @ weights, shape (n_inputs, n_outputs, window).

        One GEMM; with the identity basis every kernel is its weights exactly.
        """
        flat = self.weights.reshape(-1, self.basis.shape[1]) @ self.basis.T.astype(np.float64)
        return flat.reshape(self.n_inputs, self.n_outputs, self.window)


def kernel_matrix(kernels) -> np.ndarray:
    """Kernels (n_inputs, n_outputs, window) as the potential GEMM's operand.

    Returns K of shape (n_inputs, window * n_outputs) in float64 with
    K[j, d * n_outputs + i] = kernels[j, i, d].  Integer codes come through
    exactly, so the GEMM over them sums integers.
    """
    kernels = np.asarray(kernels)
    n_inputs, n_outputs, window = kernels.shape
    return np.ascontiguousarray(
        kernels.transpose(0, 2, 1).reshape(n_inputs, window * n_outputs),
        dtype=np.float64,
    )


def windowed_potentials(rasters, signs, kmat: np.ndarray, window: int) -> np.ndarray:
    """Kernel sums of a batch of spike trains, without the bias.

    rasters is (batch, n_inputs, T), signs (batch, n_inputs) and kmat the
    kernel_matrix of the kernels K.  Returns u of shape (batch, T, n_outputs)
    with u[b, t, i] = sum_d sum_j signs[b, j] rasters[b, j, t-d] K[j, i, d-1]
    over taps d = 1..window and t-d >= 0 (0-based steps).  One GEMM,
    (batch*(T-1), n_inputs) @ (n_inputs, window*n_outputs), gives every
    tap's contribution of every step's spikes; window shifted adds place
    them.  Over integer codes the sums are exact integers below 2**53.
    """
    batch, _, duration = np.shape(rasters)
    n_outputs = kmat.shape[1] // window
    u = np.zeros((batch, duration, n_outputs))
    if duration < 2:
        return u
    taps = (_signed_inputs(rasters, signs) @ kmat).reshape(
        batch, duration - 1, window, n_outputs
    )
    for d in range(1, min(window, duration - 1) + 1):
        u[:, d:, :] += taps[:, : duration - d, d - 1, :]
    return u


def windowed_potentials_adjoint(rasters, signs, d_u, window: int) -> np.ndarray:
    """The adjoint of windowed_potentials in its kernel operand.

    d_u is (batch, T, n_outputs), shaped like the potentials.  Returns the
    gradient of sum(d_u * u) with respect to kmat, shape (n_inputs,
    window * n_outputs): entry (j, (d-1) * n_outputs + i) is
    sum_b sum_t signs[b, j] rasters[b, j, t-d] d_u[b, t, i] over t-d >= 0.
    One GEMM of windowed_potentials' signed input rows against d_u shifted
    back by each tap gives every entry.
    """
    batch, duration, n_outputs = np.shape(d_u)
    if duration < 2:
        return np.zeros((np.shape(rasters)[1], window * n_outputs))
    shifted = np.zeros((batch, duration - 1, window, n_outputs))
    for d in range(1, min(window, duration - 1) + 1):
        shifted[:, : duration - d, d - 1, :] = d_u[:, d:, :]
    return _signed_inputs(rasters, signs).T @ shifted.reshape(-1, window * n_outputs)


def _signed_inputs(rasters, signs) -> np.ndarray:
    """The signed spikes of steps 1..T-1 as GEMM rows: (batch * (T-1), n_inputs).

    The last step's spikes reach no later step in the train.
    """
    rasters = np.asarray(rasters)
    batch, n_inputs, duration = rasters.shape
    x = np.empty((batch, duration - 1, n_inputs))
    x[...] = rasters[:, :, :-1].transpose(0, 2, 1)
    x *= np.asarray(signs, dtype=np.float64)[:, None, :]
    return x.reshape(-1, n_inputs)


def membrane_series(model: GlmModel, train: SpikeTrain) -> np.ndarray:
    """Membrane potentials for all steps and outputs: shape (duration, n_outputs)."""
    kmat = kernel_matrix(model.kernels())
    u = windowed_potentials(train.raster[None], train.sign[None], kmat, model.window)[0]
    u += model.biases[None, :]
    return u
