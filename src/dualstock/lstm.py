"""From-scratch LSTM regressor with exact backpropagation through time.

One LSTM layer plus a linear scalar head.  Every parameter lives in one flat
float64 buffer: the four gate weight matrices stacked as one (4H, H+D)
block in row order [forget, input, output, candidate], then the stacked
biases, the head weights and the head bias.  A gate's rows are a slice of
that block (gate g is ``weights[g*H:(g+1)*H]``).  Gradients and the Adam
moments use the same layout.

The numerical core runs B independent models in lockstep: their buffers are
the rows of one (B, P) array, activations sit in preallocated (L, B, .)
caches, and each cell step is one stacked ``matmul`` plus elementwise
operations over the batch.  ``train_batch`` trains the models of a rolling
run together, in blocks sized to stay in cache; ``train`` is its B = 1 case, and the single-sample
``lstm_cell_forward``, ``forward_sequence``, ``backward`` and ``predict``
run the same kernels with B = 1.  Every model keeps its own seed, sample
order, clip norm and divergence check, and every product uses the same
numpy primitive at any B, so a model's trained parameters and loss trace
are bit-identical whatever batch it trains in.  Training is per-sample
stochastic, fully determined by the seeds.
"""

from __future__ import annotations

import functools
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
    "train_batch",
    "predict_batch",
    "BatchTrainResult",
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


def _param_count(hidden_size: int, input_size: int) -> int:
    """P, the length of one model's flat buffer."""
    return 4 * hidden_size * (hidden_size + input_size) + 5 * hidden_size + 1


def _segments(flat: np.ndarray, hidden_size: int, input_size: int):
    """The weights, biases, head_w and head_b columns of a (B, P) buffer, in buffer order."""
    n_w = 4 * hidden_size * (hidden_size + input_size)
    n_b = n_w + 4 * hidden_size
    return flat[:, :n_w], flat[:, n_w:n_b], flat[:, n_b:-1], flat[:, -1:]


class _Views:
    """Per-model views of a (B, P) buffer in the flat parameter layout."""

    def __init__(self, flat: np.ndarray, hidden_size: int, input_size: int) -> None:
        weights, biases, head_w, head_b = _segments(flat, hidden_size, input_size)
        self.flat = flat
        self.weights = weights.reshape(len(flat), 4 * hidden_size, hidden_size + input_size)
        self.biases = biases
        self.head_w = head_w
        self.head_b = head_b[:, 0]


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
        views = self.views = _Views(flat[None], hidden_size, input_size)  # the B = 1 batch
        self.weights, self.biases, self.head_w = views.weights[0], views.biases[0], views.head_w[0]

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
        return cls._wrap(np.zeros(_param_count(hidden_size, input_size)), hidden_size, input_size)

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


class _Cache:
    """Activations of B models over L cell steps, allocated once and reused.

    ``z[t]`` is the input [h_{t-1}, x_t] of cell t (``z[0, :, :H]`` is the
    initial hidden state) and ``z[L, :, :H]`` the final hidden output;
    ``act[t]`` holds [f, i, o, c_hat]; ``c[t]`` is the cell state entering
    cell t and ``c[L]`` the final one.  ``outer`` and ``grad_w``, allocated
    by the first backward pass, are contiguous work arrays for the weight
    gradient: accumulating into the strided rows of a (B, P) buffer is
    several times slower.
    """

    def __init__(self, batch: int, lag: int, hidden_size: int, input_size: int) -> None:
        width = hidden_size + input_size
        self.hidden_size = hidden_size
        self.z = np.zeros((lag + 1, batch, width))
        self.act = np.empty((lag, batch, 4 * hidden_size))
        self.c = np.zeros((lag + 1, batch, hidden_size))
        self.tanh_c = np.empty((lag, batch, hidden_size))

    @functools.cached_property
    def outer(self) -> np.ndarray:
        return np.empty_like(self.grad_w)

    @functools.cached_property
    def grad_w(self) -> np.ndarray:
        batch, width = self.z.shape[1:]
        return np.empty((batch, 4 * self.hidden_size, width))

    @property
    def lag(self) -> int:
        return self.act.shape[0]

    def step(self, t: int) -> dict:
        """Cell t of the first model as a dict of views (the single-sample cache)."""
        hsz = self.hidden_size
        act = self.act[t, 0]
        return {
            "z": self.z[t, 0],
            "f": act[:hsz],
            "i": act[hsz : 2 * hsz],
            "o": act[2 * hsz : 3 * hsz],
            "c_hat": act[3 * hsz :],
            "c_prev": self.c[t, 0],
            "tanh_c": self.tanh_c[t, 0],
            "h": self.z[t + 1, 0, :hsz],
        }


def _cell(p: _Views, cache: _Cache, t: int) -> None:
    """Cell t of every model: f, i, o = sigmoid(W_gate z + b_gate),
    c_hat = tanh(W_c z + b_c), c = i*c_hat + f*c_prev, h = o*tanh(c)."""
    hsz = cache.hidden_size
    act = cache.act[t]
    np.add(np.matmul(p.weights, cache.z[t, :, :, None])[:, :, 0], p.biases, out=act)
    gates = act[:, : 3 * hsz]
    np.negative(gates, out=gates)
    np.exp(gates, out=gates)
    gates += 1.0
    np.divide(1.0, gates, out=gates)
    c_hat = act[:, 3 * hsz :]
    np.tanh(c_hat, out=c_hat)
    c = cache.c[t + 1]
    np.multiply(act[:, hsz : 2 * hsz], c_hat, out=c)
    c += act[:, :hsz] * cache.c[t]
    np.tanh(c, out=cache.tanh_c[t])
    np.multiply(act[:, 2 * hsz : 3 * hsz], cache.tanh_c[t], out=cache.z[t + 1, :, :hsz])


def _check_ranges(cache: _Cache) -> None:
    """Raise if an activation of any model left its range, checked over all cells at once.

    Mathematically the gates live in (0, 1) and c_hat and h in (-1, 1);
    float saturation can round onto the closed boundary, which is still
    healthy.  NaN is skipped (fmin/fmax), so it neither fails the check nor
    hides another model's escape: a model that became non-finite is reported
    by its training loss.
    """
    hsz = cache.hidden_size
    gates = cache.act[:, :, : 3 * hsz]
    if np.fmin.reduce(gates, axis=None) < 0.0 or np.fmax.reduce(gates, axis=None) > 1.0:
        raise FloatingPointError("gate activations escaped [0, 1]")
    for bounded in (cache.act[:, :, 3 * hsz :], cache.z[1:, :, :hsz]):
        if np.fmin.reduce(bounded, axis=None) < -1.0 or np.fmax.reduce(bounded, axis=None) > 1.0:
            raise FloatingPointError("cell activations escaped [-1, 1]")


def _forward(p: _Views, cache: _Cache) -> np.ndarray:
    """Run every model's cell chain from the cached state; return the (B,) head outputs."""
    with np.errstate(over="ignore"):  # exp(-z) overflows to inf for saturated gates
        for t in range(cache.lag):
            _cell(p, cache, t)
    _check_ranges(cache)
    h = cache.z[-1, :, : cache.hidden_size]
    return np.matmul(p.head_w[:, None, :], h[:, :, None])[:, 0, 0] + p.head_b


def _backward(p: _Views, cache: _Cache, loss_grad: np.ndarray, grads: _Views) -> None:
    """Exact reverse-mode gradients of every model through its head and chain.

    ``loss_grad`` is the (B,) dLoss/dPrediction; the gradients overwrite
    ``grads`` in the parameters' own layout.
    """
    hsz = cache.hidden_size
    f, i, o, c_hat = (cache.act[:, :, k * hsz : (k + 1) * hsz] for k in range(4))
    # The activation slopes do not depend on the recursion: one operation
    # each covers every cell.
    gate_slopes = 1.0 - cache.act[:, :, : 3 * hsz]
    f_slope, i_slope, o_slope = (gate_slopes[:, :, k * hsz : (k + 1) * hsz] for k in range(3))
    tanh_c_slope = 1.0 - cache.tanh_c * cache.tanh_c
    c_hat_slope = 1.0 - c_hat * c_hat
    cache.grad_w.fill(0.0)
    grads.biases.fill(0.0)
    np.multiply(loss_grad[:, None], cache.z[-1, :, :hsz], out=grads.head_w)
    grads.head_b[:] = loss_grad
    dh = loss_grad[:, None] * p.head_w
    dc = np.zeros_like(dh)
    do = np.empty_like(dh)
    tmp = np.empty_like(dh)
    dz = np.empty_like(cache.act[0])
    dz_f, dz_i, dz_o, dz_c = (dz[:, k * hsz : (k + 1) * hsz] for k in range(4))
    weights_t = p.weights.transpose(0, 2, 1)
    # Every product keeps the left-to-right order of the per-sample formulas,
    # e.g. dz_f = ((dc * c_prev) * f) * (1 - f): reassociating would round
    # differently and change trained models.
    for t in range(cache.lag - 1, -1, -1):
        np.multiply(dh, cache.tanh_c[t], out=do)
        np.multiply(dh, o[t], out=tmp)
        tmp *= tanh_c_slope[t]
        dc += tmp
        np.multiply(dc, cache.c[t], out=dz_f)
        dz_f *= f[t]
        dz_f *= f_slope[t]
        np.multiply(dc, c_hat[t], out=dz_i)
        dz_i *= i[t]
        dz_i *= i_slope[t]
        np.multiply(do, o[t], out=dz_o)
        dz_o *= o_slope[t]
        np.multiply(dc, i[t], out=dz_c)
        dz_c *= c_hat_slope[t]
        np.multiply(dz[:, :, None], cache.z[t, :, None, :], out=cache.outer)
        cache.grad_w += cache.outer
        grads.biases += dz
        if t:
            dh = np.matmul(weights_t, dz[:, :, None])[:, :hsz, 0]
        dc *= f[t]
    grads.weights[...] = cache.grad_w


def _sequence_cache(params: LstmParams, inputs) -> _Cache:
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[1] != params.input_size:
        raise ValueError(f"inputs must have shape (L, {params.input_size}), got {inputs.shape}")
    cache = _Cache(1, inputs.shape[0], params.hidden_size, params.input_size)
    cache.z[:-1, 0, params.hidden_size :] = inputs
    return cache


def lstm_cell_forward(params: LstmParams, x, state: LstmState):
    """One cell step; returns the new state and the cache for backprop.

    f, i, o = sigmoid(W_gate [h, x] + b_gate); c_hat = tanh(W_c [h, x] + b_c);
    c = i*c_hat + f*c_prev; h = o*tanh(c).  Raises FloatingPointError if an
    activation leaves its range.
    """
    x = np.asarray(x, dtype=np.float64)
    hsz = params.hidden_size
    if x.shape != (params.input_size,):
        raise ValueError(f"input must have shape ({params.input_size},), got {x.shape}")
    if state.h.shape != (hsz,) or state.c.shape != (hsz,):
        raise ValueError("state shape inconsistent with parameters")
    cache = _sequence_cache(params, x[None, :])
    cache.z[0, 0, :hsz] = state.h
    cache.c[0, 0] = state.c
    _forward(params.views, cache)
    return LstmState(h=cache.z[1, 0, :hsz], c=cache.c[1, 0]), cache.step(0)


def forward_sequence(params: LstmParams, sample: FeatureSample):
    """Run the cell chain from a zero state; prediction = head_w . h_L + head_b.

    Returns the prediction and one cache dict per cell.
    """
    cache = _sequence_cache(params, sample.inputs)
    prediction = float(_forward(params.views, cache)[0])
    return prediction, [cache.step(t) for t in range(cache.lag)]


def predict(params: LstmParams, inputs) -> float:
    """Prediction for a raw (L, D) input window."""
    return float(_forward(params.views, _sequence_cache(params, inputs))[0])


def predict_batch(flat, inputs, hidden_size: int) -> np.ndarray:
    """Predictions of B models in one forward: ``flat`` is (B, P), ``inputs`` (B, L, D).

    Row b of ``flat`` is model b's parameter buffer and ``inputs[b]`` its window.
    """
    flat = np.asarray(flat, dtype=np.float64)
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or 0 in inputs.shape:
        raise ValueError(f"inputs must be (B, L, D) with every axis >= 1, got shape {inputs.shape}")
    batch, lag, dim = inputs.shape
    size = _param_count(hidden_size, dim)
    if flat.shape != (batch, size):
        raise ValueError(f"parameters must be (B, P) = {(batch, size)}, got shape {flat.shape}")
    cache = _Cache(batch, lag, hidden_size, dim)
    cache.z[:-1, :, hidden_size:] = inputs.transpose(1, 0, 2)
    return _forward(_Views(flat, hidden_size, dim), cache)


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
    cache = _Cache(1, len(caches), hsz, params.input_size)
    for t, step in enumerate(caches):
        cache.z[t, 0] = step["z"]
        cache.act[t, 0] = np.concatenate([step["f"], step["i"], step["o"], step["c_hat"]])
        cache.c[t, 0] = step["c_prev"]
        cache.tanh_c[t, 0] = step["tanh_c"]
    cache.z[-1, 0, :hsz] = caches[-1]["h"]
    grads = LstmParams.zeros(hsz, params.input_size)
    _backward(params.views, cache, np.array([float(loss_grad)]), grads.views)
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


@dataclass
class BatchTrainResult:
    """Trained parameters of B models, one (B, P) row each, and their (B, epochs) loss traces."""

    flat: np.ndarray
    loss_trace: np.ndarray
    hidden_size: int
    input_size: int

    def params(self, model: int) -> LstmParams:
        return LstmParams._wrap(self.flat[model].copy(), self.hidden_size, self.input_size)


# Working-set budget of one lockstep block.  A few MB keeps a block's
# buffers in cache and bounds peak memory: at H = 16, D = 3 and lags 4 and
# 9 on a 2-vCPU Xeon, blocks of 32-100 models trained 18-24% faster per
# model than one block of 300.
BLOCK_BYTES = 3 << 20


def _block_size(lag: int, hidden_size: int, input_size: int) -> int:
    """Models per block whose float64 buffers fit ``BLOCK_BYTES``."""
    width = hidden_size + input_size
    size = _param_count(hidden_size, input_size)
    # params, grads, m, v, Adam work; two weight-gradient work arrays; the
    # activation cache and the backward slopes
    floats = 5 * size + 2 * 4 * hidden_size * width + lag * (width + 11 * hidden_size)
    return max(1, BLOCK_BYTES // (8 * floats))


def train_batch(inputs, targets, cfg: TrainConfig, seeds) -> BatchTrainResult:
    """Seeded per-sample Adam training of B independent models in lockstep.

    ``inputs`` is (B, N, L, D) and ``targets`` (B, N): model b trains on its
    own N samples with a PCG64 generator seeded with ``seeds[b]``, which
    draws its initialization and then one sample order per epoch; step s of
    an epoch updates every model on its sample ``order_b[s]``.  ``cfg``
    supplies the hyperparameters (its ``seed`` is not used).  Each model's
    gradient is clipped by its own global norm, so a model's parameters and
    loss trace are bit-identical to ``train`` on its samples and seed alone,
    and the models run in equal blocks sized from ``BLOCK_BYTES``.  Raises
    TrainingDivergedError naming the step at which the epoch loss of the
    first model, in batch order, that diverges became non-finite.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 4 or 0 in inputs.shape:
        raise ValueError(f"inputs must be (B, N, L, D) with every axis >= 1, got shape {inputs.shape}")
    batch, count, lag, dim = inputs.shape
    if targets.shape != (batch, count):
        raise ValueError(f"targets must be (B, N) = {(batch, count)}, got shape {targets.shape}")
    if len(seeds) != batch:
        raise ValueError(f"need one seed per model: {batch} models, {len(seeds)} seeds")
    hsz = cfg.hidden_size
    flat = np.empty((batch, _param_count(hsz, dim)))
    loss_trace = np.empty((batch, cfg.epochs))
    blocks = -(-batch // _block_size(lag, hsz, dim))
    size = -(-batch // blocks)
    # Blocks run in batch order, so the first block with a diverged model
    # raises for the first diverged model of the batch.
    for block in (slice(start, start + size) for start in range(0, batch, size)):
        _train_block(inputs[block], targets[block], cfg, seeds[block], flat[block], loss_trace[block])
    return BatchTrainResult(flat=flat, loss_trace=loss_trace, hidden_size=hsz, input_size=dim)


def _train_block(inputs: np.ndarray, targets: np.ndarray, cfg: TrainConfig, seeds, flat, loss_trace) -> None:
    """``train_batch`` on one block of models, in place in its rows of ``flat`` and ``loss_trace``."""
    batch, count, lag, dim = inputs.shape
    hsz = cfg.hidden_size
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    for row, rng in zip(flat, rngs):
        row[:] = LstmParams.init(rng, hsz, dim).flat
    params, grads = _Views(flat, hsz, dim), _Views(np.empty_like(flat), hsz, dim)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    work = np.empty_like(flat)
    cache = _Cache(batch, lag, hsz, dim)
    models = np.arange(batch)[:, None]
    diverged_at = np.zeros(batch, dtype=np.int64)  # first step with a non-finite epoch loss
    step = 0

    for epoch in range(cfg.epochs):
        order = np.stack([rng.permutation(count) for rng in rngs])
        xs = inputs[models, order].transpose(1, 2, 0, 3)  # (N, L, B, D)
        ys = targets[models, order].T  # (N, B)
        sq_sum = np.zeros(batch)
        for s in range(count):
            cache.z[:-1, :, hsz:] = xs[s]
            err = _forward(params, cache) - ys[s]
            sq_sum += err * err
            _backward(params, cache, 2.0 * err, grads)
            # Squares are summed per segment in buffer order, not as one dot
            # product over the buffer: the summation order fixes the rounding
            # of the norm, and with it every trained model bit for bit.
            g = grads.flat
            norm = np.sqrt(sum(seg.sum(axis=1) for seg in _segments(np.multiply(g, g, out=work), hsz, dim)))
            over = norm > cfg.clip_norm
            if over.any():
                g *= np.divide(cfg.clip_norm, norm, out=np.ones(batch), where=over)[:, None]
            step += 1
            bias1 = 1.0 - cfg.beta1**step
            bias2 = 1.0 - cfg.beta2**step
            scale = cfg.learning_rate / bias1
            # v = beta2*v + (1-beta2)*g**2; m = beta1*m + (1-beta1)*g;
            # params -= scale*m / (sqrt(v/bias2) + eps), with g's buffer
            # reused once g is spent
            v *= cfg.beta2
            v += np.multiply(np.square(g, out=work), 1.0 - cfg.beta2, out=work)
            m *= cfg.beta1
            m += np.multiply(g, 1.0 - cfg.beta1, out=g)
            denom = np.divide(v, bias2, out=work)
            np.sqrt(denom, out=denom)
            denom += cfg.epsilon
            flat -= np.divide(np.multiply(m, scale, out=g), denom, out=g)

        loss_trace[:, epoch] = sq_sum / count
        diverged_at[~np.isfinite(loss_trace[:, epoch]) & (diverged_at == 0)] = step
        if diverged_at[0]:
            break  # no earlier model can fail first
    if diverged_at.any():
        raise TrainingDivergedError(
            f"training loss became non-finite at step {diverged_at[np.flatnonzero(diverged_at)[0]]}"
        )


def train(samples, cfg: TrainConfig) -> TrainResult:
    """Seeded per-sample Adam training of one model: ``train_batch`` with B = 1.

    Initialization, epoch-wise sample order, and updates are all driven by a
    PCG64 generator seeded with ``cfg.seed``, so identical (samples, config)
    give bit-identical parameter trajectories.  Raises
    TrainingDivergedError when the epoch loss becomes non-finite.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one training sample")
    if any(s.dim != samples[0].dim for s in samples):
        raise ValueError("samples must share the same input dimension")
    if any(s.lag != samples[0].lag for s in samples):
        raise ValueError("samples must share the same lag")
    inputs = np.stack([s.inputs for s in samples])[None]
    targets = np.array([[s.target for s in samples]])
    result = train_batch(inputs, targets, cfg, seeds=(cfg.seed,))
    return TrainResult(params=result.params(0), loss_trace=result.loss_trace[0].tolist())
