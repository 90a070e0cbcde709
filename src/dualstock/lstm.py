"""From-scratch LSTM regressor with exact backpropagation through time.

One LSTM layer plus a linear scalar head.  Every parameter lives in one flat
float64 buffer: the four gate weight matrices stacked as one (4H, H+D)
block in row order [forget, input, output, candidate], then the stacked
biases, the head weights and the head bias.  A gate's rows are a slice of
that block (gate g is ``weights[g*H:(g+1)*H]``).  ``backward`` returns
gradients in the same layout, so global-norm clipping and the Adam update
are each one elementwise operation over the buffer.  Training is per-sample
stochastic, fully determined by the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FeatureSample",
    "LstmParams",
    "LstmState",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "lstm_cell_forward",
    "forward_sequence",
    "predict",
    "backward",
    "train",
]


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class FeatureSample:
    """One supervised sample: L input vectors (L, D) and a scalar target."""

    inputs: np.ndarray
    target: float

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise ValueError(f"inputs must be (L, D) with L >= 1, got shape {inputs.shape}")
        inputs.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "target", float(self.target))

    @property
    def lag(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


class LstmParams:
    """All parameters of one LSTM layer and its head in one flat float64 buffer.

    ``flat`` is [weights (4H, H+D) row-major, biases (4H,), head_w (H,),
    head_b].  ``weights``, ``biases`` and ``head_w`` are views into it and
    ``head_b`` reads and writes its last element, so one elementwise
    operation on ``flat`` acts on every parameter.  Gradients use the same
    layout.
    """

    def __init__(self, weights, biases, head_w, head_b: float) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[0] % 4:
            raise ValueError("weights must be (4H, H+D)")
        hsz = weights.shape[0] // 4
        if weights.shape[1] <= hsz:
            raise ValueError("weights must have H+D columns with D >= 1")
        if np.shape(biases) != (4 * hsz,) or np.shape(head_w) != (hsz,):
            raise ValueError("bias/head shapes inconsistent with hidden size")
        flat = np.concatenate([weights.ravel(), biases, head_w, [head_b]], dtype=np.float64)
        if not np.isfinite(flat).all():
            raise ValueError("parameters must be finite")
        self._bind(flat, hsz, weights.shape[1] - hsz)

    def _bind(self, flat: np.ndarray, hidden_size: int, input_size: int) -> None:
        self.flat = flat
        self.hidden_size = hidden_size
        self.input_size = input_size
        n_w = 4 * hidden_size * (hidden_size + input_size)
        self.weights = flat[:n_w].reshape(4 * hidden_size, hidden_size + input_size)
        self.biases = flat[n_w : n_w + 4 * hidden_size]
        self.head_w = flat[n_w + 4 * hidden_size : -1]

    @classmethod
    def _wrap(cls, flat: np.ndarray, hidden_size: int, input_size: int) -> "LstmParams":
        params = cls.__new__(cls)
        params._bind(flat, hidden_size, input_size)
        return params

    @property
    def head_b(self) -> float:
        return float(self.flat[-1])

    @head_b.setter
    def head_b(self, value: float) -> None:
        self.flat[-1] = value

    @classmethod
    def zeros(cls, hidden_size: int, input_size: int) -> "LstmParams":
        size = 4 * hidden_size * (hidden_size + input_size) + 5 * hidden_size + 1
        return cls._wrap(np.zeros(size), hidden_size, input_size)

    @classmethod
    def init(cls, rng: np.random.Generator, hidden_size: int, input_size: int) -> "LstmParams":
        """Seeded uniform init in +-1/sqrt(H+D); forget-gate bias +1."""
        bound = 1.0 / math.sqrt(hidden_size + input_size)
        params = cls.zeros(hidden_size, input_size)
        params.weights[:] = rng.uniform(-bound, bound, size=params.weights.shape)
        params.head_w[:] = rng.uniform(-bound, bound, size=hidden_size)
        params.biases[:hidden_size] = 1.0
        return params

    def copy(self) -> "LstmParams":
        return LstmParams._wrap(self.flat.copy(), self.hidden_size, self.input_size)


@dataclass(frozen=True)
class LstmState:
    """Hidden output h and cell state c (each length H)."""

    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zero(cls, hidden_size: int) -> "LstmState":
        return cls(h=np.zeros(hidden_size), c=np.zeros(hidden_size))


def lstm_cell_forward(params: LstmParams, x, state: LstmState):
    """One cell step; returns the new state and the cache for backprop.

    f, i, o = sigmoid(W_gate [h, x] + b_gate); c_hat = tanh(W_c [h, x] + b_c);
    c = i*c_hat + f*c_prev; h = o*tanh(c).
    """
    x = np.asarray(x, dtype=np.float64)
    hsz = params.hidden_size
    if x.shape != (params.input_size,):
        raise ValueError(f"input must have shape ({params.input_size},), got {x.shape}")
    if state.h.shape != (hsz,) or state.c.shape != (hsz,):
        raise ValueError("state shape inconsistent with parameters")
    z = np.concatenate([state.h, x])
    pre = params.weights @ z + params.biases
    gates = _sigmoid(pre[: 3 * hsz])
    f, i, o = gates[:hsz], gates[hsz : 2 * hsz], gates[2 * hsz :]
    c_hat = np.tanh(pre[3 * hsz :])
    c = i * c_hat + f * state.c
    tanh_c = np.tanh(c)
    h = o * tanh_c
    # Mathematically the gates live in (0,1) and c_hat in (-1,1); float
    # saturation can round onto the closed boundary, which is still healthy.
    assert ((gates >= 0) & (gates <= 1)).all(), "gate activations escaped [0, 1]"
    assert (np.abs(c_hat) <= 1).all() and (np.abs(h) <= 1).all(), "cell activations escaped range"
    cache = {"z": z, "f": f, "i": i, "o": o, "c_hat": c_hat, "c_prev": state.c, "tanh_c": tanh_c, "h": h}
    return LstmState(h=h, c=c), cache


def _run_sequence(params: LstmParams, inputs: np.ndarray):
    state = LstmState.zero(params.hidden_size)
    caches = []
    for t in range(inputs.shape[0]):
        state, cache = lstm_cell_forward(params, inputs[t], state)
        caches.append(cache)
    prediction = float(params.head_w @ state.h + params.head_b)
    return prediction, caches


def forward_sequence(params: LstmParams, sample: FeatureSample):
    """Run the cell chain from a zero state; prediction = head_w . h_L + head_b."""
    return _run_sequence(params, sample.inputs)


def predict(params: LstmParams, inputs) -> float:
    """Prediction for a raw (L, D) input window."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ValueError("inputs must be (L, D)")
    prediction, _ = _run_sequence(params, inputs)
    return prediction


def backward(params: LstmParams, sample: FeatureSample, caches, loss_grad: float) -> LstmParams:
    """Exact reverse-mode gradients through the head and the unrolled chain.

    ``loss_grad`` is dLoss/dPrediction at the head output; for squared error
    pass 2 * (prediction - target).  The gradients come back in the
    parameters' own flat layout.
    """
    hsz = params.hidden_size
    width = hsz + params.input_size
    if len(caches) != sample.lag:
        raise ValueError("cache does not match the sample's step count")
    if caches and caches[-1]["z"].shape != (width,):
        raise ValueError("cache does not match the parameter shapes")
    grads = LstmParams.zeros(hsz, params.input_size)
    g_weights, g_biases = grads.weights, grads.biases
    grads.head_w[:] = loss_grad * caches[-1]["h"]
    grads.head_b = loss_grad
    dh = loss_grad * params.head_w
    dc = np.zeros(hsz)
    dz_all = np.empty(4 * hsz)
    for cache in reversed(caches):
        f, i, o = cache["f"], cache["i"], cache["o"]
        c_hat, tanh_c = cache["c_hat"], cache["tanh_c"]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        dz_all[:hsz] = dc * cache["c_prev"] * f * (1.0 - f)
        dz_all[hsz : 2 * hsz] = dc * c_hat * i * (1.0 - i)
        dz_all[2 * hsz : 3 * hsz] = do * o * (1.0 - o)
        dz_all[3 * hsz :] = dc * i * (1.0 - c_hat * c_hat)
        g_weights += np.outer(dz_all, cache["z"])
        g_biases += dz_all
        dcat = params.weights.T @ dz_all
        dh = dcat[:hsz]
        dc = dc * f
    return grads


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; every run is fully determined by the seed."""

    seed: int
    epochs: int = 200
    learning_rate: float = 1e-2
    hidden_size: int = 16
    clip_norm: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")


@dataclass
class TrainResult:
    params: LstmParams
    loss_trace: list[float] = field(default_factory=list)


def train(samples, cfg: TrainConfig) -> TrainResult:
    """Seeded per-sample Adam training over shuffled epochs.

    Initialization, epoch-wise sample order, and updates are all driven by a
    PCG64 generator seeded with ``cfg.seed``, so identical (samples, config)
    give bit-identical parameter trajectories.  Raises
    TrainingDivergedError when the epoch loss becomes non-finite.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one training sample")
    dim = samples[0].dim
    if any(s.dim != dim for s in samples):
        raise ValueError("samples must share the same input dimension")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    params = LstmParams.init(rng, cfg.hidden_size, dim)

    m = np.zeros_like(params.flat)
    v = np.zeros_like(params.flat)
    step = 0
    loss_trace: list[float] = []

    for _ in range(cfg.epochs):
        order = rng.permutation(len(samples))
        sq_sum = 0.0
        for idx in order:
            sample = samples[idx]
            prediction, caches = forward_sequence(params, sample)
            err = prediction - sample.target
            sq_sum += err * err
            grads = backward(params, sample, caches, 2.0 * err)
            # Squares are summed per segment in buffer order, not as one dot
            # product over the buffer: the summation order fixes the rounding
            # of the norm, and with it every trained model bit for bit.
            segments = (grads.weights, grads.biases, grads.head_w, grads.flat[-1:])
            norm = math.sqrt(sum(float((g * g).sum()) for g in segments))
            if norm > cfg.clip_norm:
                grads.flat *= cfg.clip_norm / norm
            step += 1
            bias1 = 1.0 - cfg.beta1**step
            bias2 = 1.0 - cfg.beta2**step
            scale = cfg.learning_rate / bias1
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * grads.flat
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * grads.flat**2
            params.flat -= scale * m / (np.sqrt(v / bias2) + cfg.epsilon)

        epoch_mse = sq_sum / len(samples)
        if not math.isfinite(epoch_mse):
            raise TrainingDivergedError(f"training loss became non-finite at step {step}")
        loss_trace.append(epoch_mse)
    return TrainResult(params=params, loss_trace=loss_trace)
