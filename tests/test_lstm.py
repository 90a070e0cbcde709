import math
import re

import numpy as np
import pytest

from _oracles import lstm_forward_literal, lstm_grads_literal, lstm_train_per_sample
from dualstock import lstm
from dualstock.lstm import (
    TrainConfig,
    _backward,
    _Cache,
    _check_ranges,
    _forward,
    _init_params,
    _param_count,
    _Views,
    predict_batch,
    train_batch,
)

# Below this magnitude a 1e-5 central difference cannot resolve the gradient,
# so the relative-error denominator is floored here.
GRADCHECK_FLOOR = 1e-6

# (lag, dim, hidden) of the gradient-oracle tests
LITERAL_GRID = [(1, 1, 1), (4, 1, 16), (9, 3, 16), (3, 2, 5)]


def random_flat(rng, batch: int, hidden: int, dim: int) -> np.ndarray:
    """(B, P) parameter buffers with every entry uniform in +-1/sqrt(H+D)."""
    bound = 1.0 / math.sqrt(hidden + dim)
    return rng.uniform(-bound, bound, size=(batch, _param_count(hidden, dim)))


def run_cells(flat, window, hidden: int, h0=0.0, c0=0.0):
    """One model's (P,) buffer run over an (L, D) window from the state (h0, c0).

    Returns the prediction and the B = 1 cache holding every cell's activations.
    """
    window = np.asarray(window, dtype=np.float64)
    cache = _Cache(1, window.shape[0], hidden, window.shape[1])
    cache.z[:-1, 0, hidden:] = window
    cache.z[0, 0, :hidden] = h0
    cache.c[0, 0] = c0
    prediction = _forward(_Views(flat[None], hidden, window.shape[1]), cache)[0]
    return prediction, cache


def numeric_vs_analytic(seed: int) -> float:
    """Worst relative error between BPTT gradients and central differences.

    Every entry of the (1, P) buffer is perturbed, the head bias included.
    """
    rng = np.random.default_rng(seed)
    hidden = int(rng.integers(1, 5))
    dim = int(rng.integers(1, 4))
    lag = int(rng.integers(1, 7))
    flat = random_flat(rng, 1, hidden, dim)
    window = rng.standard_normal((lag, dim))
    target = float(rng.standard_normal())
    params = _Views(flat, hidden, dim)
    cache = _Cache(1, lag, hidden, dim)
    cache.z[:-1, 0, hidden:] = window
    grads = _Views(np.empty_like(flat), hidden, dim)
    _backward(params, cache, 2.0 * (_forward(params, cache) - target), grads)
    analytic = grads.flat[0].copy()

    def loss() -> float:
        return float((_forward(params, cache)[0] - target) ** 2)

    step = 1e-5
    worst = 0.0
    row = flat[0]
    for idx in range(row.size):
        orig = row[idx]
        row[idx] = orig + step
        up = loss()
        row[idx] = orig - step
        down = loss()
        row[idx] = orig
        numeric = (up - down) / (2 * step)
        rel = abs(numeric - analytic[idx]) / max(abs(numeric), abs(analytic[idx]), GRADCHECK_FLOOR)
        worst = max(worst, rel)
    return worst


def gates(cache: _Cache, t: int = 0):
    """f, i, o and c_hat of cell t of the first model."""
    hsz = cache.hidden_size
    act = cache.act[t, 0]
    return act[:hsz], act[hsz : 2 * hsz], act[2 * hsz : 3 * hsz], act[3 * hsz :]


class TestCellForward:
    def test_zero_params_zero_state(self):
        _, cache = run_cells(np.zeros(_param_count(2, 1)), [[0.7]], hidden=2)
        f, i, o, c_hat = gates(cache)
        assert np.array_equal(f, [0.5, 0.5])
        assert np.array_equal(i, [0.5, 0.5])
        assert np.array_equal(o, [0.5, 0.5])
        assert np.array_equal(c_hat, [0.0, 0.0])
        assert np.array_equal(cache.c[1, 0], [0.0, 0.0])
        assert np.array_equal(cache.z[1, 0, :2], [0.0, 0.0])

    def test_zero_params_with_prior_cell(self):
        _, cache = run_cells(np.zeros(_param_count(1, 1)), [[0.0]], hidden=1, c0=1.0)
        c, h = cache.c[1, 0, 0], cache.z[1, 0, 0]
        assert c == pytest.approx(0.5, abs=1e-12)
        assert h == pytest.approx(0.5 * math.tanh(0.5), abs=1e-12)
        assert h == pytest.approx(0.231059, abs=1e-6)

    def test_saturated_gates_pass_input_through_tanh(self):
        flat = np.zeros(_param_count(1, 1))
        params = _Views(flat[None], 1, 1)
        params.biases[0, 0] = -20.0  # forget gate shut
        params.biases[0, 1] = 20.0  # input gate open
        params.weights[0, 3, 1] = 1.0  # candidate reads x directly
        for x in (0.3, -0.7, 1.2):
            _, cache = run_cells(flat, [[x]], hidden=1)
            assert cache.c[1, 0, 0] == pytest.approx(math.tanh(x), abs=1e-8)

    def test_gate_ranges_random(self):
        rng = np.random.default_rng(7)
        flat = random_flat(rng, 1, 6, 2)[0]
        _, cache = run_cells(flat, rng.standard_normal((20, 2)), hidden=6)
        for t in range(20):
            f, i, o, c_hat = gates(cache, t)
            for gate in (f, i, o):
                assert ((gate > 0) & (gate < 1)).all()
            assert (np.abs(c_hat) < 1).all()
            assert (np.abs(cache.z[t + 1, 0, :6]) <= 1).all()

    @pytest.mark.parametrize(
        "inputs, message",
        [
            # a window of D = 2 against a D = 1 model's buffer
            (np.ones((1, 1, 2)), "shape"),
            pytest.param(np.ones((1, 1)), re.escape("inputs must be (B, L, D) with every axis >= 1, got shape (1, 1)"), id="2-D"),
        ],
    )
    def test_shape_mismatch(self, inputs, message):
        with pytest.raises(ValueError, match=message):
            predict_batch(np.zeros((1, _param_count(2, 1))), inputs, hidden_size=2)

    def test_range_check_is_a_real_check(self):
        # an activation outside its range raises (also under python -O);
        # NaN is left to the training loss check
        cache = _Cache(batch=3, lag=2, hidden_size=2, input_size=1)
        cache.act[:] = 0.5
        _check_ranges(cache)
        cache.act[1, 2, 0] = np.nan
        _check_ranges(cache)
        cache.act[0, 1, 3] = 1.0 + 1e-12  # a gate
        with pytest.raises(FloatingPointError, match="gate"):
            _check_ranges(cache)
        cache.act[0, 1, 3] = 0.5
        cache.z[2, 0, 1] = -1.5  # a hidden output
        with pytest.raises(FloatingPointError, match="cell"):
            _check_ranges(cache)


class TestForwardSequence:
    def test_zero_params_returns_head_bias(self):
        flat = np.zeros(_param_count(3, 1))
        flat[-1] = 0.42
        prediction, cache = run_cells(flat, np.ones((5, 1)), hidden=3)
        assert prediction == 0.42
        assert cache.lag == 5
        assert predict_batch(flat[None], np.ones((1, 5, 1)), hidden_size=3)[0] == 0.42

    def test_single_step_equals_cell_plus_head(self):
        rng = np.random.default_rng(8)
        flat = random_flat(rng, 1, 4, 2)
        x = rng.standard_normal(2)
        _, cache = run_cells(flat[0], x[None, :], hidden=4)
        head = _Views(flat, 4, 2)
        expected = float(head.head_w[0] @ cache.z[1, 0, :4] + head.head_b[0])
        assert predict_batch(flat, x[None, None, :], hidden_size=4)[0] == expected

    def test_predict_matches_forward(self):
        rng = np.random.default_rng(10)
        flat = random_flat(rng, 1, 3, 2)
        window = rng.standard_normal((6, 2))
        prediction, _ = run_cells(flat[0], window, hidden=3)
        assert predict_batch(flat, window[None], hidden_size=3)[0] == prediction
        assert prediction == lstm_forward_literal(flat[0], window, 3)


class TestBackward:
    def test_gradient_check_small_nets(self):
        worst = max(numeric_vs_analytic(seed) for seed in range(10))
        assert worst < 1e-4

    def backward(self, seed: int, hidden: int, loss_grad: float) -> _Views:
        rng = np.random.default_rng(seed)
        flat = random_flat(rng, 1, hidden, 1)
        cache = _Cache(1, 4, hidden, 1)
        cache.z[:-1, 0, hidden:] = rng.standard_normal((4, 1))
        params = _Views(flat, hidden, 1)
        _forward(params, cache)
        grads = _Views(np.full_like(flat, np.nan), hidden, 1)
        _backward(params, cache, np.array([loss_grad]), grads)
        return grads

    def test_zero_loss_grad_zeroes_everything(self):
        grads = self.backward(11, hidden=3, loss_grad=0.0)
        assert np.abs(grads.weights).max() == 0.0
        assert np.abs(grads.biases).max() == 0.0
        assert np.abs(grads.head_w).max() == 0.0
        assert grads.head_b[0] == 0.0

    def test_head_bias_gradient_is_loss_grad(self):
        grads = self.backward(12, hidden=2, loss_grad=1.7)
        assert grads.head_b[0] == 1.7

    @staticmethod
    def mixed_rows(batch: int, lag: int, dim: int, hidden: int, shift: int):
        """``_backward`` over rows that cycle through three kinds, from kind ``shift`` on.

        The kinds are plain, saturated (every pre-activation about +-40, so
        gates round onto 0 or 1 and slopes onto 0, which makes signed zeros)
        and a zero loss gradient.  Returns the buffers, windows, loss
        gradients, kinds and gradients of the rows.
        """
        rng = np.random.default_rng([batch, lag, dim, hidden, shift])
        flat = random_flat(rng, batch, hidden, dim)
        windows = rng.standard_normal((batch, lag, dim))
        loss_grad = rng.standard_normal(batch)
        params = _Views(flat, hidden, dim)
        kinds = (np.arange(batch) + shift) % 3
        saturated = kinds == 1
        params.weights[saturated] *= 1e-3
        params.biases[saturated] = 40.0 * rng.choice([-1.0, 1.0], size=(saturated.sum(), 4 * hidden))
        loss_grad[kinds == 2] = 0.0
        cache = _Cache(batch, lag, hidden, dim)
        cache.z[:-1, :, hidden:] = windows.transpose(1, 0, 2)
        _forward(params, cache)
        grads = _Views(np.full_like(flat, np.nan), hidden, dim)
        _backward(params, cache, loss_grad, grads)
        return flat, windows, loss_grad, kinds, grads

    @pytest.mark.parametrize("batch", [1, 7, 40])
    @pytest.mark.parametrize("lag, dim, hidden", LITERAL_GRID)
    def test_matches_literal_gradient_bitwise(self, batch, lag, dim, hidden):
        # At B = 1 the single row takes each kind in turn.
        for shift in range(3 if batch == 1 else 1):
            flat, windows, loss_grad, kinds, grads = self.mixed_rows(batch, lag, dim, hidden, shift)
            for b in range(batch):
                expected = lstm_grads_literal(flat[b], windows[b], loss_grad[b], hidden)
                assert np.array_equal(grads.flat[b].view(np.uint64), expected.view(np.uint64)), (b, kinds[b])

    @pytest.mark.parametrize("lag, dim, hidden", LITERAL_GRID)
    def test_weight_gradient_moves_only_by_summation_rounding(self, lag, dim, hidden):
        # Against one np.outer per cell added in reverse cell order: the
        # weight gradient agrees to 1e-12 of its max-norm, and the rest of
        # the buffer is bit for bit the same.
        flat, windows, loss_grad, kinds, grads = self.mixed_rows(7, lag, dim, hidden, 0)
        n_w = grads.weights[0].size
        for b in range(7):
            per_cell = lstm_grads_literal(flat[b], windows[b], loss_grad[b], hidden, per_cell_outer=True)
            error = np.abs(grads.flat[b, :n_w] - per_cell[:n_w]).max()
            assert error <= 1e-12 * np.abs(per_cell[:n_w]).max(), (b, kinds[b])
            assert np.array_equal(grads.flat[b, n_w:].view(np.uint64), per_cell[n_w:].view(np.uint64))


def make_samples(rng, count=10, lag=4, dim=1, target=0.3):
    """(1, N, L, D) inputs and (1, N) constant targets of one model."""
    inputs = np.stack([0.1 * rng.standard_normal((lag, dim)) for _ in range(count)])
    return inputs[None], np.full((1, count), target)


class TestTrain:
    def test_constant_target_converges(self):
        rng = np.random.default_rng(14)
        inputs, targets = make_samples(rng)
        result = train_batch(inputs, targets, TrainConfig(epochs=200, hidden_size=4), seeds=[5])
        assert result.loss_trace[0, -1] < 1e-4

    def test_bit_identical_given_seed(self):
        rng = np.random.default_rng(15)
        inputs, targets = make_samples(rng, target=0.1)
        cfg = TrainConfig(epochs=5, hidden_size=4)
        r1 = train_batch(inputs, targets, cfg, seeds=[77])
        r2 = train_batch(inputs, targets, cfg, seeds=[77])
        assert np.array_equal(r1.flat, r2.flat)
        assert np.array_equal(r1.loss_trace, r2.loss_trace)

    def test_seed_changes_trajectory(self):
        rng = np.random.default_rng(16)
        inputs, targets = make_samples(rng, target=0.1)
        cfg = TrainConfig(epochs=3, hidden_size=4)
        r1 = train_batch(inputs, targets, cfg, seeds=[1])
        r2 = train_batch(inputs, targets, cfg, seeds=[2])
        assert not np.array_equal(_Views(r1.flat, 4, 1).weights, _Views(r2.flat, 4, 1).weights)

    def test_divergence_is_reported(self):
        # a diverged model is reported, not raised: the step that ended its
        # first non-finite epoch
        cfg = TrainConfig(epochs=1, hidden_size=2)
        result = train_batch(np.zeros((1, 1, 2, 1)), np.full((1, 1), np.nan), cfg, seeds=[0])
        assert result.diverged_at.tolist() == [1]
        assert np.isnan(result.loss_trace).all()

    def test_divergence_mid_epoch_is_reported_at_epoch_end(self):
        # the NaN parameters left by one sample reach the next samples of the
        # epoch; the model is diverged at the end of that epoch, and its
        # block, all of it diverged, stops there
        rng = np.random.default_rng(19)
        inputs, targets = make_samples(rng, count=4)
        targets[0, 1] = np.nan
        result = train_batch(inputs, targets, TrainConfig(epochs=3, hidden_size=2), seeds=[0])
        assert result.diverged_at.tolist() == [4]
        assert np.isnan(result.loss_trace).all()

    @pytest.mark.parametrize("lag, dim, hidden", [(1, 1, 1), (4, 1, 16), (9, 3, 16), (3, 2, 5)])
    def test_matches_per_sample_oracle(self, lag, dim, hidden):
        # count 1 as well: windows 5 at lag 4 and 10 at lag 9 train each
        # model of the paper grid on a single sample
        cfg = TrainConfig(epochs=3, hidden_size=hidden)
        for count in (7, 1):
            rng = np.random.default_rng(20 + lag)
            inputs, targets = make_samples(rng, count=count, lag=lag, dim=dim, target=0.2)
            result = train_batch(inputs, targets, cfg, seeds=[lag])
            flat, trace = lstm_train_per_sample(inputs[0], targets[0], cfg, lag)
            assert np.array_equal(result.flat[0], flat), count
            assert result.loss_trace[0].tolist() == trace, count

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"hidden_size": 0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "key, value",
        [("epochs", 2.5), ("epochs", True), ("hidden_size", 16.0), ("hidden_size", False)],
    )
    def test_count_must_be_an_integer(self, key, value):
        # a float or a bool is not a count: True would train 1 epoch and be written as true
        with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {value!r}")):
            TrainConfig(**{key: value})


class TestTrainBatch:
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_model_does_not_depend_on_its_batch(self, batch):
        rng = np.random.default_rng(30 + batch)
        count, lag, dim = 5, 3, 2
        inputs = 0.5 * rng.standard_normal((batch, count, lag, dim))
        targets = 0.3 * rng.standard_normal((batch, count))
        seeds = [int(s) for s in rng.integers(0, 2**31, batch)]
        cfg = TrainConfig(epochs=3, hidden_size=4)
        result = train_batch(inputs, targets, cfg, seeds)
        assert result.flat.shape == (batch, 4 * 4 * (4 + dim) + 5 * 4 + 1)
        for b in range(batch):
            alone = train_batch(inputs[b : b + 1], targets[b : b + 1], cfg, seeds[b : b + 1])
            assert np.array_equal(result.flat[b], alone.flat[0])
            assert np.array_equal(result.loss_trace[b], alone.loss_trace[0])
            flat, trace = lstm_train_per_sample(inputs[b], targets[b], cfg, seeds[b])
            assert np.array_equal(result.flat[b], flat)
            assert result.loss_trace[b].tolist() == trace

    def test_blocks_do_not_change_models(self, monkeypatch):
        rng = np.random.default_rng(42)
        inputs = 0.5 * rng.standard_normal((7, 4, 3, 2))
        targets = 0.3 * rng.standard_normal((7, 4))
        seeds = list(range(7))
        cfg = TrainConfig(epochs=2, hidden_size=3)
        one_block = train_batch(inputs, targets, cfg, seeds)
        for models_per_block in (1, 3):
            per_model_bytes = lstm.BLOCK_BYTES // lstm._block_size(3, 3, 2)
            monkeypatch.setattr(lstm, "BLOCK_BYTES", models_per_block * per_model_bytes)
            assert lstm._block_size(3, 3, 2) == models_per_block
            blocked = train_batch(inputs, targets, cfg, seeds)
            assert np.array_equal(blocked.flat, one_block.flat)
            assert np.array_equal(blocked.loss_trace, one_block.loss_trace)
        targets[5, 1] = np.nan  # a model of the last block diverges
        assert train_batch(inputs, targets, cfg, seeds).diverged_at.tolist() == [0, 0, 0, 0, 0, 4, 0]

    @pytest.mark.parametrize("lag", [1, 4, 9])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("hidden", [8, 16])
    def test_block_buffers_fit_the_budget(self, lag, dim, hidden):
        # one block's cache, plus the params, grads, m, v and Adam work
        # arrays of _train_block
        batch = lstm._block_size(lag, hidden, dim)
        arrays = [a for a in vars(_Cache(batch, lag, hidden, dim)).values() if isinstance(a, np.ndarray)]
        assert len(arrays) > 10
        total = sum(a.nbytes for a in arrays) + 5 * batch * _param_count(hidden, dim) * 8
        assert total <= lstm.BLOCK_BYTES
        assert total + total // batch > lstm.BLOCK_BYTES  # counted exactly: one more model would not fit

    @pytest.mark.parametrize("lag, dim, size", [(4, 1, 53), (4, 3, 49), (9, 1, 43), (9, 3, 40)])
    def test_block_size_at_the_tuned_shapes(self, lag, dim, size):
        # BLOCK_BYTES was tuned at these H = 16 shapes: a buffer added to the
        # cache changes the block size here rather than the speed in silence
        assert lstm._block_size(lag, 16, dim) == size

    def test_predict_batch_matches_predict(self):
        rng = np.random.default_rng(40)
        flat = random_flat(rng, 5, 3, 2)
        windows = rng.standard_normal((5, 4, 2))
        batched = predict_batch(flat, windows, hidden_size=3)
        assert batched.tolist() == [lstm_forward_literal(p, w, 3) for p, w in zip(flat, windows)]

    def test_diverged_model_reports_its_step_and_spares_its_batch(self):
        # the diverged model reports the same step in the batch as alone,
        # and the healthy models of its batch train as they do alone
        rng = np.random.default_rng(41)
        inputs = 0.1 * rng.standard_normal((3, 4, 2, 1))
        targets = np.full((3, 4), 0.2)
        targets[1, 2] = np.nan
        cfg = TrainConfig(epochs=2, hidden_size=2)
        batch = train_batch(inputs, targets, cfg, seeds=[1, 2, 3])
        assert batch.diverged_at.tolist() == [0, 4, 0]
        assert train_batch(inputs[1:2], targets[1:2], cfg, seeds=[2]).diverged_at.tolist() == [4]
        assert np.isnan(batch.loss_trace[1]).all()
        for b in (0, 2):
            alone = train_batch(inputs[b : b + 1], targets[b : b + 1], cfg, seeds=[b + 1])
            assert alone.diverged_at.tolist() == [0]
            assert np.array_equal(batch.flat[b].view(np.uint64), alone.flat[0].view(np.uint64))
            assert np.array_equal(batch.loss_trace[b].view(np.uint64), alone.loss_trace[0].view(np.uint64))

    @pytest.mark.parametrize(
        "inputs, targets, seeds",
        [
            (np.zeros((2, 3, 1)), np.zeros((2, 3)), [0, 1]),
            (np.zeros((2, 3, 2, 1)), np.zeros((2, 4)), [0, 1]),
            (np.zeros((2, 3, 2, 1)), np.zeros((2, 3)), [0]),
            pytest.param(np.zeros((1, 0, 2, 1)), np.zeros((1, 0)), [0], id="no-samples"),
            pytest.param([[np.zeros((2, 1)), np.zeros((2, 3))]], np.zeros((1, 2)), [0], id="mixed-dims"),
            pytest.param([[np.zeros((2, 1)), np.zeros((3, 1))]], np.zeros((1, 2)), [0], id="mixed-lags"),
        ],
    )
    def test_shapes_validated(self, inputs, targets, seeds):
        with pytest.raises(ValueError):
            train_batch(inputs, targets, TrainConfig(epochs=1), seeds)


class TestParams:
    def test_gate_views_alias_stacked_array(self):
        # a gate's rows are a slice of the stacked arrays, which are views of
        # the one flat buffer
        params = _Views(np.zeros((1, _param_count(3, 2))), 3, 2)
        params.weights[0, :3][0, 0] = 1.5  # forget gate
        assert params.flat[0, 0] == 1.5
        params.biases[0, 9:][2] = -0.5  # candidate gate
        assert params.flat[0, params.weights[0].size + 11] == -0.5
        params.head_b[0] = 0.25
        assert params.flat[0, -1] == 0.25

    def test_flat_layout_order(self):
        rng = np.random.default_rng(18)
        params = _Views(random_flat(rng, 2, 3, 2), 3, 2)
        assert params.flat.shape == (2, 4 * 3 * 5 + 4 * 3 + 3 + 1)
        for b in range(2):
            expected = np.concatenate(
                [params.weights[b].ravel(), params.biases[b], params.head_w[b], [params.head_b[b]]]
            )
            assert np.array_equal(params.flat[b], expected)

    def test_init_forget_bias_one(self):
        # the buffer starts as garbage (train_batch allocates it with
        # np.empty): init must overwrite every entry
        params = _Views(np.full((2, _param_count(4, 2)), np.nan), 4, 2)
        _init_params(params, [np.random.default_rng(17), np.random.default_rng(18)])
        assert np.array_equal(params.biases[:, :4], np.ones((2, 4)))
        assert np.array_equal(params.biases[:, 4:], np.zeros((2, 12)))
        assert np.array_equal(params.head_b, [0.0, 0.0])
        assert np.abs(params.weights).max() <= 1 / math.sqrt(6)
        assert np.abs(params.head_w).max() <= 1 / math.sqrt(6)
