"""From-scratch LSTM regressor with exact backpropagation through time.

One LSTM layer plus a linear scalar head.  Every parameter lives in one flat
float64 buffer: the four gate weight matrices stacked as one (4H, H+D)
block in row order [forget, input, output, candidate], then the stacked
biases, the head weights and the head bias.  A gate's rows are a slice of
that block (gate g is ``weights[g*H:(g+1)*H]``).  Gradients and the Adam
moments use the same layout.

The numerical core runs B independent models in lockstep: their buffers are
the rows of one (B, P) array, one ``_Cache`` per block holds every (L, B, .)
array of the forward and the backward pass, and each cell step is one
stacked ``matmul`` plus elementwise operations over the batch.  Those
operations run over whole contiguous (B, 4H) gate rows where they can: the
forward takes the sigmoid of the full row, and the backward lays out every
factor that does not depend on the recursion once per step, so that each
cell forms dz for all four gates in a few row products, keeping each
per-sample product's order.  Every cell's dz is kept, and after the
recursion each model's weight gradient is one matrix product over its L
cells, dZ^T Z, written straight into the parameter layout by one stacked
``matmul``.  ``train_batch`` trains many models together, in blocks sized to
stay in cache by measuring one model's ``_Cache`` and parameter rows: the
per-origin models of a rolling run, and the runs of every ticker that share
a (lag, dual, regime).  ``predict_batch`` predicts them in one forward.
Every model keeps its own seed, sample order, clip norm and divergence
check, and every product uses the same numpy primitive at any B, so a
model's trained parameters and loss trace are bit-identical to training it
alone at B = 1, whatever batch it trains in.  A model whose loss becomes
non-finite is reported in ``diverged_at``, not raised, so it fails only the
run that owns it.  Training is per-sample stochastic, fully determined by
the seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrainConfig",
    "BatchTrainResult",
    "train_batch",
    "predict_batch",
]

# Adam's decay rates and denominator offset (Kingma & Ba 2015 defaults).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
# Adam's step size.
LEARNING_RATE = 1e-2
# Each sample's gradient is scaled down to this global L2 norm when above it.
CLIP_NORM = 1.0


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


class _Cache:
    """Every array of a lockstep forward and backward pass over B models and L cells.

    One cache is allocated per block and reused by every sample.  Forward:
    ``z[t]`` is the input [h_{t-1}, x_t] of cell t (``z[0, :, :H]`` is the
    initial hidden state) and ``z[L, :, :H]`` the final hidden output;
    ``act[t]`` holds [f, i, o, c_hat]; ``c[t]`` is the cell state entering
    cell t and ``c[L]`` the final one.  ``pre`` holds one cell's gate
    pre-activations.  Backward: per cell, the gate slots [f, i, o, c] of dz
    are multiplied in the order of the per-sample formulas: first
    [dc * c_prev, dc * c_hat, dh * tanh_c, dc * i] (dc times
    ``cell_factor`` = [c_prev, c_hat, 0, i], with the o slot then
    overwritten), then times the cached gates [f, i, o] (the c slot skips
    this factor), then times ``gate_slope`` = [1 - f, 1 - i, 1 - o,
    1 - c_hat**2].  ``tanh_c_slope`` is 1 - tanh(c)**2.  ``dz_all[t]``
    holds cell t's dz, so that the weight gradient is formed for all cells
    at once after the recursion.  ``predict_batch`` allocates the backward
    arrays too and leaves them unused.
    """

    def __init__(self, batch: int, lag: int, hidden_size: int, input_size: int) -> None:
        width = hidden_size + input_size
        gates = 4 * hidden_size
        self.hidden_size = hidden_size
        self.z = np.zeros((lag + 1, batch, width))
        self.act = np.empty((lag, batch, gates))
        self.c = np.zeros((lag + 1, batch, hidden_size))
        self.tanh_c = np.empty((lag, batch, hidden_size))
        self.pre = np.empty((batch, gates))
        # zeros: the o slot is multiplied but never written, and left
        # uninitialised it could hold slow subnormals or NaNs
        self.cell_factor = np.zeros((lag, batch, gates))
        self.gate_slope = np.empty((lag, batch, gates))
        self.tanh_c_slope = np.empty((lag, batch, hidden_size))
        self.dz_all = np.empty((lag, batch, gates))
        self.grad_b = np.empty((batch, gates))
        self.dh = np.empty((batch, width, 1))
        self.dc = np.empty((batch, hidden_size))
        self.tmp = np.empty((batch, hidden_size))

    @property
    def lag(self) -> int:
        return self.act.shape[0]

    @property
    def nbytes(self) -> int:
        """Bytes of every array the cache holds."""
        return sum(a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray))


def _cell(p: _Views, cache: _Cache, t: int) -> None:
    """Cell t of every model: f, i, o = sigmoid(W_gate z + b_gate),
    c_hat = tanh(W_c z + b_c), c = i*c_hat + f*c_prev, h = o*tanh(c)."""
    hsz = cache.hidden_size
    act, pre = cache.act[t], cache.pre
    np.matmul(p.weights, cache.z[t, :, :, None], out=pre[:, :, None])
    pre += p.biases
    # The sigmoid runs over whole contiguous rows, the candidate slot
    # included, which is then overwritten by its tanh: cheaper than four
    # passes over the strided gate columns.
    np.negative(pre, out=act)
    np.exp(act, out=act)
    act += 1.0
    np.divide(1.0, act, out=act)
    c_hat = act[:, 3 * hsz :]
    np.tanh(pre[:, 3 * hsz :], out=c_hat)
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
    """Run every model's cell chain from the cached state; return the (B,) head outputs.

    Saturated gates overflow exp(-z) to inf: callers run it under
    ``np.errstate(over="ignore")``.
    """
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
    lag, batch = cache.act.shape[:2]
    act = cache.act.reshape(lag, batch, 4, hsz)
    cell_factor = cache.cell_factor.reshape(lag, batch, 4, hsz)
    gate_slope = cache.gate_slope.reshape(lag, batch, 4, hsz)
    # The factors that do not depend on the recursion are laid out for all
    # cells at once, so that each cell multiplies whole (B, 4H) rows.
    cell_factor[:, :, 0] = cache.c[:-1]
    cell_factor[:, :, 1::2] = act[:, :, 3:0:-2]  # c_hat, i
    np.subtract(1.0, act[:, :, :3], out=gate_slope[:, :, :3])
    np.multiply(act[:, :, 3], act[:, :, 3], out=gate_slope[:, :, 3])
    np.subtract(1.0, gate_slope[:, :, 3], out=gate_slope[:, :, 3])
    tanh_c_slope = np.multiply(cache.tanh_c, cache.tanh_c, out=cache.tanh_c_slope)
    np.subtract(1.0, tanh_c_slope, out=tanh_c_slope)
    f, o = act[:, :, 0], act[:, :, 2]
    gates = cache.act[:, :, : 3 * hsz]
    dc, tmp, dz_all, grad_b = cache.dc, cache.tmp, cache.dz_all, cache.grad_b
    grad_b.fill(0.0)
    dc.fill(0.0)
    np.multiply(loss_grad[:, None], cache.z[-1, :, :hsz], out=grads.head_w)
    grads.head_b[:] = loss_grad
    dh = np.multiply(loss_grad[:, None], p.head_w, out=cache.dh[:, :hsz, 0])
    weights_t = p.weights.transpose(0, 2, 1)
    # Every product keeps the left-to-right order of the per-sample formulas,
    # e.g. dz_f = ((dc * c_prev) * f) * (1 - f): reassociating would round
    # differently and change trained models.
    for t in range(lag - 1, -1, -1):
        dz = dz_all[t]
        dz4 = dz.reshape(batch, 4, hsz)
        np.multiply(dh, o[t], out=tmp)
        tmp *= tanh_c_slope[t]
        dc += tmp
        np.multiply(dc[:, None, :], cell_factor[t], out=dz4)
        np.multiply(dh, cache.tanh_c[t], out=dz4[:, 2])
        dz[:, : 3 * hsz] *= gates[t]
        dz *= cache.gate_slope[t]
        grad_b += dz
        if t:
            np.matmul(weights_t, dz[:, :, None], out=cache.dh)
        dc *= f[t]
    # The weight gradient of every cell at once: per model, the (4H, L) dz
    # columns times the (L, H+D) cell inputs, summed over the cells inside
    # one BLAS product and written in the parameter layout.
    np.matmul(dz_all.transpose(1, 2, 0), cache.z[:-1].transpose(1, 0, 2), out=grads.weights)
    grads.biases[...] = grad_b


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
    with np.errstate(over="ignore"):
        return _forward(_Views(flat, hidden_size, dim), cache)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters that every model of a grid shares; each model has its own seed."""

    epochs: int = 200
    hidden_size: int = 16

    def __post_init__(self) -> None:
        for key in ("epochs", "hidden_size"):
            if type(getattr(self, key)) is not int:  # a float or a bool is not a count
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")


@dataclass
class BatchTrainResult:
    """Trained parameters of B models, one (B, P) row each, and their (B, epochs) loss traces.

    ``diverged_at[b]`` is the step that ended the first epoch whose loss of
    model b was non-finite, or 0; from that epoch on its trace reads NaN.
    """

    flat: np.ndarray
    loss_trace: np.ndarray
    diverged_at: np.ndarray


# Working-set budget of one lockstep block.  A few MB keeps a block's
# buffers in cache and bounds peak memory: at H = 16, D = 3 and lags 4 and
# 9 on a 2-vCPU Xeon, blocks of 32-100 models trained 18-24% faster per
# model than one block of 300.
BLOCK_BYTES = 3 << 20


def _block_size(lag: int, hidden_size: int, input_size: int) -> int:
    """Models per block whose float64 buffers fit ``BLOCK_BYTES``.

    Per model: its ``_Cache`` and the five P-long rows of ``_train_block``
    (params, grads, m, v and Adam's work).
    """
    per_model = _Cache(1, lag, hidden_size, input_size).nbytes + 5 * 8 * _param_count(hidden_size, input_size)
    return max(1, BLOCK_BYTES // per_model)


def train_batch(inputs, targets, cfg: TrainConfig, seeds) -> BatchTrainResult:
    """Seeded per-sample Adam training of B independent models in lockstep.

    ``inputs`` is (B, N, L, D) and ``targets`` (B, N): model b trains on its
    own N samples with a PCG64 generator seeded with ``seeds[b]``, which
    draws its initialization and then one sample order per epoch; step s of
    an epoch updates every model on its sample ``order_b[s]``.  ``cfg``
    supplies the hyperparameters.  Each model's gradient is clipped by its
    own global norm, so a model's parameters and loss trace are
    bit-identical to training it alone (B = 1) on its samples and seed, and
    the models run in equal blocks sized from ``BLOCK_BYTES``.  A model
    whose epoch loss becomes non-finite is not an error of the call: its
    ``diverged_at`` is the step that ended that epoch, and the other models
    train on.  A ``FloatingPointError`` from the activation range check
    fails the whole call; sigmoid and tanh are bounded, so on finite inputs
    it guards the kernel rather than the data.
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
    loss_trace = np.full((batch, cfg.epochs), np.nan)
    diverged_at = np.zeros(batch, dtype=np.int64)
    blocks = -(-batch // _block_size(lag, hsz, dim))
    size = -(-batch // blocks)
    with np.errstate(over="ignore"):
        for block in (slice(start, start + size) for start in range(0, batch, size)):
            _train_block(
                inputs[block], targets[block], cfg, seeds[block], flat[block], loss_trace[block], diverged_at[block]
            )
    return BatchTrainResult(flat=flat, loss_trace=loss_trace, diverged_at=diverged_at)


def _init_params(params: _Views, rngs) -> None:
    """Seeded init of every model's row from its own generator.

    ``weights`` and then ``head_w`` are drawn uniform in +-1/sqrt(H+D), in
    one draw per model; the forget-gate biases are 1 and every other
    parameter 0.
    """
    hsz, width = params.head_w.shape[1], params.weights.shape[2]
    bound = 1.0 / math.sqrt(width)
    params.flat.fill(0.0)
    for weights, head_w, rng in zip(params.weights, params.head_w, rngs):
        draw = rng.uniform(-bound, bound, size=weights.size + hsz)
        weights[:] = draw[: weights.size].reshape(weights.shape)
        head_w[:] = draw[weights.size :]
    params.biases[:, :hsz] = 1.0


def _train_block(
    inputs: np.ndarray, targets: np.ndarray, cfg: TrainConfig, seeds, flat, loss_trace, diverged_at
) -> None:
    """``train_batch`` on one block of models, in place in its rows of ``flat``, ``loss_trace`` and ``diverged_at``.

    The block stops early once every one of its models has diverged.
    """
    batch, count, lag, dim = inputs.shape
    hsz = cfg.hidden_size
    rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
    params, grads = _Views(flat, hsz, dim), _Views(np.empty_like(flat), hsz, dim)
    _init_params(params, rngs)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    work = np.empty_like(flat)
    cache = _Cache(batch, lag, hsz, dim)
    models = np.arange(batch)[:, None]
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
            g_sq = np.multiply(g, g, out=work)
            norm = np.sqrt(sum(seg.sum(axis=1) for seg in _segments(g_sq, hsz, dim)))
            over = norm > CLIP_NORM
            if over.any():
                g *= np.divide(CLIP_NORM, norm, out=np.ones(batch), where=over)[:, None]
                np.multiply(g, g, out=g_sq)  # Adam's g**2 is of the clipped g
            step += 1
            bias1 = 1.0 - BETA1**step
            bias2 = 1.0 - BETA2**step
            scale = LEARNING_RATE / bias1
            # v = beta2*v + (1-beta2)*g**2; m = beta1*m + (1-beta1)*g;
            # params -= scale*m / (sqrt(v/bias2) + eps), with g's buffer
            # reused once g is spent
            v *= BETA2
            v += np.multiply(g_sq, 1.0 - BETA2, out=g_sq)
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=g)
            denom = np.divide(v, bias2, out=work)
            np.sqrt(denom, out=denom)
            denom += EPSILON
            flat -= np.divide(np.multiply(m, scale, out=g), denom, out=g)

        loss_trace[:, epoch] = sq_sum / count
        diverged_at[~np.isfinite(loss_trace[:, epoch]) & (diverged_at == 0)] = step
        if diverged_at.all():
            break
