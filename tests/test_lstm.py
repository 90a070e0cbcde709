import math
from dataclasses import replace

import numpy as np
import pytest

from _oracles import lstm_train_per_sample
from dualstock import lstm
from dualstock.lstm import (
    FeatureSample,
    LstmParams,
    LstmState,
    TrainConfig,
    TrainingDivergedError,
    backward,
    forward_sequence,
    _Cache,
    _check_ranges,
    lstm_cell_forward,
    predict,
    predict_batch,
    train,
    train_batch,
)

# Below this magnitude a 1e-5 central difference cannot resolve the gradient,
# so the relative-error denominator is floored here.
GRADCHECK_FLOOR = 1e-6


def numeric_vs_analytic(seed: int) -> float:
    """Worst relative error between BPTT gradients and central differences."""
    rng = np.random.default_rng(seed)
    hidden = int(rng.integers(1, 5))
    dim = int(rng.integers(1, 4))
    lag = int(rng.integers(1, 7))
    params = LstmParams.init(rng, hidden, dim)
    sample = FeatureSample(inputs=rng.standard_normal((lag, dim)), target=float(rng.standard_normal()))
    prediction, caches = forward_sequence(params, sample)
    grads = backward(params, sample, caches, 2.0 * (prediction - sample.target))

    def loss() -> float:
        p, _ = forward_sequence(params, sample)
        return (p - sample.target) ** 2

    step = 1e-5
    worst = 0.0
    for arr, grad_arr in (
        (params.weights, grads.weights),
        (params.biases, grads.biases),
        (params.head_w, grads.head_w),
    ):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + step
            up = loss()
            arr[idx] = orig - step
            down = loss()
            arr[idx] = orig
            numeric = (up - down) / (2 * step)
            rel = abs(numeric - grad_arr[idx]) / max(abs(numeric), abs(grad_arr[idx]), GRADCHECK_FLOOR)
            worst = max(worst, rel)
    orig = params.head_b
    params.head_b = orig + step
    up = loss()
    params.head_b = orig - step
    down = loss()
    params.head_b = orig
    numeric = (up - down) / (2 * step)
    worst = max(worst, abs(numeric - grads.head_b) / max(abs(numeric), abs(grads.head_b), GRADCHECK_FLOOR))
    return worst


class TestCellForward:
    def test_zero_params_zero_state(self):
        params = LstmParams.zeros(2, 1)
        state, cache = lstm_cell_forward(params, np.array([0.7]), LstmState.zero(2))
        assert np.array_equal(cache["f"], [0.5, 0.5])
        assert np.array_equal(cache["i"], [0.5, 0.5])
        assert np.array_equal(cache["o"], [0.5, 0.5])
        assert np.array_equal(cache["c_hat"], [0.0, 0.0])
        assert np.array_equal(state.c, [0.0, 0.0])
        assert np.array_equal(state.h, [0.0, 0.0])

    def test_zero_params_with_prior_cell(self):
        params = LstmParams.zeros(1, 1)
        state, _ = lstm_cell_forward(params, np.array([0.0]), LstmState(h=np.zeros(1), c=np.ones(1)))
        assert state.c[0] == pytest.approx(0.5, abs=1e-12)
        assert state.h[0] == pytest.approx(0.5 * math.tanh(0.5), abs=1e-12)
        assert state.h[0] == pytest.approx(0.231059, abs=1e-6)

    def test_saturated_gates_pass_input_through_tanh(self):
        params = LstmParams.zeros(1, 1)
        params.biases[0] = -20.0  # forget gate shut
        params.biases[1] = 20.0  # input gate open
        params.weights[3, 1] = 1.0  # candidate reads x directly
        for x in (0.3, -0.7, 1.2):
            state, _ = lstm_cell_forward(params, np.array([x]), LstmState.zero(1))
            assert state.c[0] == pytest.approx(math.tanh(x), abs=1e-8)

    def test_gate_ranges_random(self):
        rng = np.random.default_rng(7)
        params = LstmParams.init(rng, 6, 2)
        state = LstmState.zero(6)
        for _ in range(20):
            state, cache = lstm_cell_forward(params, rng.standard_normal(2), state)
            for gate in ("f", "i", "o"):
                assert ((cache[gate] > 0) & (cache[gate] < 1)).all()
            assert (np.abs(cache["c_hat"]) < 1).all()
            assert (np.abs(state.h) <= 1).all()

    def test_shape_mismatch(self):
        params = LstmParams.zeros(2, 1)
        with pytest.raises(ValueError, match="shape"):
            lstm_cell_forward(params, np.array([1.0, 2.0]), LstmState.zero(2))

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
        params = LstmParams.zeros(3, 1)
        params.head_b = 0.42
        sample = FeatureSample(inputs=np.ones((5, 1)), target=0.0)
        prediction, caches = forward_sequence(params, sample)
        assert prediction == 0.42
        assert len(caches) == 5

    def test_single_step_equals_cell_plus_head(self):
        rng = np.random.default_rng(8)
        params = LstmParams.init(rng, 4, 2)
        x = rng.standard_normal(2)
        state, _ = lstm_cell_forward(params, x, LstmState.zero(4))
        expected = float(params.head_w @ state.h + params.head_b)
        prediction, _ = forward_sequence(params, FeatureSample(inputs=x[None, :], target=0.0))
        assert prediction == expected

    def test_prediction_reads_only_sample_inputs(self):
        # fuzz: mutating the source array after sample construction must not
        # change the prediction (inputs are copied and frozen)
        rng = np.random.default_rng(9)
        params = LstmParams.init(rng, 3, 1)
        source = rng.standard_normal((4, 1))
        sample = FeatureSample(inputs=source.copy(), target=0.0)
        before, _ = forward_sequence(params, sample)
        source[:] = 99.0
        after, _ = forward_sequence(params, sample)
        assert before == after

    def test_predict_matches_forward(self):
        rng = np.random.default_rng(10)
        params = LstmParams.init(rng, 3, 2)
        window = rng.standard_normal((6, 2))
        prediction, _ = forward_sequence(params, FeatureSample(inputs=window, target=0.0))
        assert predict(params, window) == prediction


class TestBackward:
    def test_gradient_check_small_nets(self):
        worst = max(numeric_vs_analytic(seed) for seed in range(10))
        assert worst < 1e-4

    def test_zero_loss_grad_zeroes_everything(self):
        rng = np.random.default_rng(11)
        params = LstmParams.init(rng, 3, 1)
        sample = FeatureSample(inputs=rng.standard_normal((4, 1)), target=0.0)
        _, caches = forward_sequence(params, sample)
        grads = backward(params, sample, caches, 0.0)
        assert np.abs(grads.weights).max() == 0.0
        assert np.abs(grads.biases).max() == 0.0
        assert np.abs(grads.head_w).max() == 0.0
        assert grads.head_b == 0.0

    def test_head_bias_gradient_is_loss_grad(self):
        rng = np.random.default_rng(12)
        params = LstmParams.init(rng, 2, 1)
        sample = FeatureSample(inputs=rng.standard_normal((3, 1)), target=0.0)
        _, caches = forward_sequence(params, sample)
        grads = backward(params, sample, caches, 1.7)
        assert grads.head_b == 1.7

    def test_cache_mismatch(self):
        rng = np.random.default_rng(13)
        params = LstmParams.init(rng, 2, 1)
        sample = FeatureSample(inputs=rng.standard_normal((3, 1)), target=0.0)
        _, caches = forward_sequence(params, sample)
        with pytest.raises(ValueError, match="cache"):
            backward(params, sample, caches[:-1], 1.0)


class TestTrain:
    def make_samples(self, rng, count=10, lag=4, dim=1, target=0.3):
        return [
            FeatureSample(inputs=0.1 * rng.standard_normal((lag, dim)), target=target)
            for _ in range(count)
        ]

    def test_constant_target_converges(self):
        rng = np.random.default_rng(14)
        samples = self.make_samples(rng)
        result = train(samples, TrainConfig(seed=5, epochs=200, hidden_size=4))
        assert result.loss_trace[-1] < 1e-4

    def test_bit_identical_given_seed(self):
        rng = np.random.default_rng(15)
        samples = self.make_samples(rng, target=0.1)
        cfg = TrainConfig(seed=77, epochs=5, hidden_size=4)
        r1 = train(samples, cfg)
        r2 = train(samples, cfg)
        assert np.array_equal(r1.params.weights, r2.params.weights)
        assert np.array_equal(r1.params.biases, r2.params.biases)
        assert np.array_equal(r1.params.head_w, r2.params.head_w)
        assert r1.params.head_b == r2.params.head_b
        assert r1.loss_trace == r2.loss_trace

    def test_seed_changes_trajectory(self):
        rng = np.random.default_rng(16)
        samples = self.make_samples(rng, target=0.1)
        r1 = train(samples, TrainConfig(seed=1, epochs=3, hidden_size=4))
        r2 = train(samples, TrainConfig(seed=2, epochs=3, hidden_size=4))
        assert not np.array_equal(r1.params.weights, r2.params.weights)

    def test_divergence_raises(self):
        sample = FeatureSample(inputs=np.zeros((2, 1)), target=float("nan"))
        with pytest.raises(TrainingDivergedError):
            train([sample], TrainConfig(seed=0, epochs=1, hidden_size=2))

    def test_divergence_mid_epoch_raises_at_epoch_end(self):
        # the NaN parameters left by one sample reach the next samples of the
        # epoch; the run still fails as diverged, at the end of that epoch
        rng = np.random.default_rng(19)
        samples = self.make_samples(rng, count=4)
        samples[1] = FeatureSample(inputs=samples[1].inputs, target=float("nan"))
        with pytest.raises(TrainingDivergedError, match="at step 4$"):
            train(samples, TrainConfig(seed=0, epochs=3, hidden_size=2))

    @pytest.mark.parametrize("lag, dim, hidden", [(1, 1, 1), (4, 1, 16), (9, 3, 16), (3, 2, 5)])
    def test_matches_per_sample_oracle(self, lag, dim, hidden):
        rng = np.random.default_rng(20 + lag)
        samples = self.make_samples(rng, count=7, lag=lag, dim=dim, target=0.2)
        cfg = TrainConfig(seed=lag, epochs=3, hidden_size=hidden, learning_rate=0.05)
        result = train(samples, cfg)
        flat, trace = lstm_train_per_sample(samples, cfg)
        assert np.array_equal(result.params.flat, flat)
        assert result.loss_trace == trace

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            train([], TrainConfig(seed=0))

    def test_mixed_dims_rejected(self):
        s1 = FeatureSample(inputs=np.zeros((2, 1)), target=0.0)
        s2 = FeatureSample(inputs=np.zeros((2, 3)), target=0.0)
        with pytest.raises(ValueError, match="dimension"):
            train([s1, s2], TrainConfig(seed=0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"learning_rate": 0.0},
            {"hidden_size": 0},
            {"learning_rate": -1e-3},
            {"clip_norm": 0.0},
        ],
    )
    def test_config_validation(self, kwargs):
        base = {"seed": 0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            TrainConfig(**base)


class TestTrainBatch:
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_model_does_not_depend_on_its_batch(self, batch):
        rng = np.random.default_rng(30 + batch)
        count, lag, dim = 5, 3, 2
        inputs = 0.5 * rng.standard_normal((batch, count, lag, dim))
        targets = 0.3 * rng.standard_normal((batch, count))
        seeds = [int(s) for s in rng.integers(0, 2**31, batch)]
        cfg = TrainConfig(seed=0, epochs=3, hidden_size=4)
        result = train_batch(inputs, targets, cfg, seeds)
        assert result.flat.shape == (batch, LstmParams.zeros(4, dim).flat.size)
        for b in range(batch):
            samples = [FeatureSample(inputs=inputs[b, k], target=targets[b, k]) for k in range(count)]
            alone = train(samples, replace(cfg, seed=seeds[b]))
            assert np.array_equal(result.flat[b], alone.params.flat)
            assert result.loss_trace[b].tolist() == alone.loss_trace
            assert np.array_equal(result.params(b).flat, alone.params.flat)

    def test_blocks_do_not_change_models(self, monkeypatch):
        rng = np.random.default_rng(42)
        inputs = 0.5 * rng.standard_normal((7, 4, 3, 2))
        targets = 0.3 * rng.standard_normal((7, 4))
        seeds = list(range(7))
        cfg = TrainConfig(seed=0, epochs=2, hidden_size=3)
        one_block = train_batch(inputs, targets, cfg, seeds)
        for models_per_block in (1, 3):
            per_model_bytes = lstm.BLOCK_BYTES // lstm._block_size(3, 3, 2)
            monkeypatch.setattr(lstm, "BLOCK_BYTES", models_per_block * per_model_bytes)
            assert lstm._block_size(3, 3, 2) == models_per_block
            blocked = train_batch(inputs, targets, cfg, seeds)
            assert np.array_equal(blocked.flat, one_block.flat)
            assert np.array_equal(blocked.loss_trace, one_block.loss_trace)
        targets[5, 1] = np.nan  # a model of the last block diverges
        with pytest.raises(TrainingDivergedError, match="non-finite at step 4$"):
            train_batch(inputs, targets, cfg, seeds)

    def test_predict_batch_matches_predict(self):
        rng = np.random.default_rng(40)
        models = [LstmParams.init(rng, 3, 2) for _ in range(5)]
        windows = rng.standard_normal((5, 4, 2))
        batched = predict_batch(np.stack([p.flat for p in models]), windows, hidden_size=3)
        assert batched.tolist() == [predict(p, w) for p, w in zip(models, windows)]

    def test_diverged_model_fails_its_batch_with_its_step(self):
        rng = np.random.default_rng(41)
        inputs = 0.1 * rng.standard_normal((3, 4, 2, 1))
        targets = np.full((3, 4), 0.2)
        targets[1, 2] = np.nan
        cfg = TrainConfig(seed=0, epochs=2, hidden_size=2)
        with pytest.raises(TrainingDivergedError, match="non-finite at step 4$"):
            train_batch(inputs, targets, cfg, seeds=[1, 2, 3])
        samples = [FeatureSample(inputs=inputs[1, k], target=targets[1, k]) for k in range(4)]
        with pytest.raises(TrainingDivergedError, match="non-finite at step 4$"):
            train(samples, replace(cfg, seed=2))

    @pytest.mark.parametrize(
        "inputs, targets, seeds",
        [
            (np.zeros((2, 3, 1)), np.zeros((2, 3)), [0, 1]),
            (np.zeros((2, 3, 2, 1)), np.zeros((2, 4)), [0, 1]),
            (np.zeros((2, 3, 2, 1)), np.zeros((2, 3)), [0]),
        ],
    )
    def test_shapes_validated(self, inputs, targets, seeds):
        with pytest.raises(ValueError):
            train_batch(inputs, targets, TrainConfig(seed=0, epochs=1), seeds)

    def test_mixed_lags_rejected_by_train(self):
        s1 = FeatureSample(inputs=np.zeros((2, 1)), target=0.0)
        s2 = FeatureSample(inputs=np.zeros((3, 1)), target=0.0)
        with pytest.raises(ValueError, match="lag"):
            train([s1, s2], TrainConfig(seed=0))


class TestParams:
    def test_gate_views_alias_stacked_array(self):
        # a gate's rows are a slice of the stacked arrays, which are views of
        # the one flat buffer
        params = LstmParams.zeros(3, 2)
        params.weights[:3][0, 0] = 1.5  # forget gate
        assert params.flat[0] == 1.5
        params.biases[9:][2] = -0.5  # candidate gate
        assert params.flat[params.weights.size + 11] == -0.5
        params.head_b = 0.25
        assert params.flat[-1] == 0.25

    def test_flat_layout_order(self):
        rng = np.random.default_rng(18)
        params = LstmParams.init(rng, 3, 2)
        assert params.flat.shape == (4 * 3 * 5 + 4 * 3 + 3 + 1,)
        expected = np.concatenate(
            [params.weights.ravel(), params.biases, params.head_w, [params.head_b]]
        )
        assert np.array_equal(params.flat, expected)
        copy = params.copy()
        copy.flat[:] = 0.0
        assert np.array_equal(params.flat, expected)

    def test_init_forget_bias_one(self):
        rng = np.random.default_rng(17)
        params = LstmParams.init(rng, 4, 2)
        assert np.array_equal(params.biases[:4], np.ones(4))
        assert np.abs(params.weights).max() <= 1 / math.sqrt(6)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            LstmParams(
                weights=np.full((4, 2), np.inf),
                biases=np.zeros(4),
                head_w=np.zeros(1),
                head_b=0.0,
            )
