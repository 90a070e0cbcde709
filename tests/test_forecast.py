import dataclasses
import re
import numpy as np
import pytest

import dualstock.forecast as forecast_module
from _oracles import lstm_forward_literal, lstm_train_per_sample
from dualstock import lstm
from dualstock.forecast import (
    DUAL_LABELS,
    ForecastRun,
    PriceScaleWarning,
    RegimeSpec,
    TrainingDivergedError,
    forecast_group,
    scale_price,
    unscale,
)
from dualstock.lstm import TrainConfig
from dualstock.seeds import child_seed

CFG = TrainConfig(epochs=3, hidden_size=3)


def mece(train_size, test_size):
    return RegimeSpec(kind="mece", train_size=train_size, test_size=test_size)


def rolling(window, test_size):
    return RegimeSpec(kind="rolling", window=window, test_size=test_size)


def synthetic_prices(n, seed=0, level=25.0):
    rng = np.random.default_rng(seed)
    prices = level + np.cumsum(rng.normal(0, 0.3, size=n))
    return np.clip(prices, 2.0, 190.0)


class TestScaling:
    def test_formula(self):
        assert scale_price(100.0) == 0.0
        assert scale_price(50.0) == -0.5

    def test_roundtrip(self):
        # one ulp can be lost in the -1/+1 chain for prices below 50, so the
        # affine round-trip is tested at 1e-12, not bit equality
        assert unscale(scale_price(27.53)) == pytest.approx(27.53, abs=1e-12)
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 199.0, size=100)
        assert np.abs(unscale(scale_price(x)) - x).max() < 1e-12

    def test_unscale_values(self):
        assert unscale(0.0) == 100.0
        assert unscale(-1.0) == 0.0

    def test_ceiling_warning(self):
        with pytest.warns(PriceScaleWarning):
            scale_price(205.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            scale_price(0.0)


class TestBuildSupervised:
    """The (window, target) samples that ``forecast_group`` trains on."""

    def training_set(self, monkeypatch, *args, **kwargs):
        """The inputs and targets ``forecast_group(*args, **kwargs)`` passes to ``train_batch``."""
        real_train_batch = forecast_module.train_batch
        seen = []

        def recording(inputs, targets, cfg, seeds):
            seen.append((inputs, targets))
            return real_train_batch(inputs, targets, cfg, seeds)

        monkeypatch.setattr(forecast_module, "train_batch", recording)
        forecast_group(*args, **kwargs)
        [(inputs, targets)] = seen
        return inputs, targets

    def test_counting_without_dual(self, monkeypatch):
        prices = 100.0 + 10.0 * np.arange(7)
        inputs, targets = self.training_set(
            monkeypatch, ["T"], [prices], [()], [1], dual=False, regime=rolling(6, 1), lag=4, cfg=CFG
        )
        assert inputs.shape == (1, 2, 4, 1)  # window 6 at lag 4: 2 samples of (4, 1)
        scaled = scale_price(prices)
        assert targets[0, 0] == scaled[4]
        assert np.array_equal(inputs[0, 0, :, 0], scaled[:4])
        assert np.allclose(scaled[:5], [0.0, 0.1, 0.2, 0.3, 0.4], atol=1e-15)

    def test_dual_dimension(self, monkeypatch):
        prices = synthetic_prices(13)
        sib = (synthetic_prices(13, seed=5), synthetic_prices(13, seed=6))
        inputs, _ = self.training_set(
            monkeypatch, ["T"], [prices], [sib], [1], dual=True, regime=mece(12, 1), lag=9, cfg=CFG
        )
        assert inputs.shape == (1, 3, 9, 3)
        scaled = [scale_price(x) for x in (prices, *sib)]
        assert np.array_equal(inputs[0, 2], np.column_stack(scaled)[2:11])

    def test_insufficient_length(self):
        with pytest.raises(ValueError, match="no samples"):
            forecast_group(["T"], [np.full(6, 20.0)], [()], [1], dual=False, regime=mece(4, 2), lag=4, cfg=CFG)

    @pytest.mark.parametrize("lag", [0, -1])
    def test_lag_must_be_positive(self, lag):
        with pytest.raises(ValueError, match=f"lag must be an integer >= 1, got {lag}"):
            forecast_group(["T"], [np.full(40, 20.0)], [()], [1], dual=False, regime=rolling(5, 3), lag=lag, cfg=CFG)

    def test_dual_requires_two_siblings(self):
        with pytest.raises(ValueError, match="a dual run needs exactly two sibling series"):
            forecast_group(
                ["T"], [np.full(10, 20.0)], [(np.full(10, 20.0),)], [1], dual=True, regime=rolling(5, 2), lag=2, cfg=CFG
            )

    def test_sibling_alignment_checked(self):
        with pytest.raises(ValueError, match="aligned"):
            forecast_group(
                ["T"], [np.full(10, 20.0)], [(np.full(9, 20.0), np.full(10, 20.0))], [1],
                dual=True, regime=rolling(5, 2), lag=2, cfg=CFG,
            )


class TestRegimeSpec:
    def test_labels(self):
        assert RegimeSpec(kind="mece", test_size=10, train_size=50).label == "mece"
        assert RegimeSpec(kind="rolling", test_size=10, window=5).label == "window=5"

    def test_spellings(self):
        # a regime's run file stem, table row and report order, and a dual
        # flag's label, are spelled here for every module
        regimes = [mece(50, 10), rolling(20, 10), rolling(5, 10)]
        assert [r.stem for r in regimes] == ["mece", "w20", "w5"]
        assert [r.title for r in regimes] == ["MECE", "Training Window = 20", "Training Window = 5"]
        assert [r.label for r in sorted(regimes, key=lambda r: r.order)] == ["window=5", "window=20", "mece"]
        assert [DUAL_LABELS[dual] for dual in (False, True)] == ["no", "yes"]
        with pytest.raises(TypeError):
            DUAL_LABELS["placebo"]  # a dual flag is a bool, not any truthy value

    def test_properties_stay_out_of_the_descriptor(self):
        # a run descriptor holds dataclasses.asdict(regime): the fields alone
        assert list(dataclasses.asdict(mece(50, 10))) == ["kind", "test_size", "train_size", "window"]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "other", "test_size": 1}, "kind must be 'mece' or 'rolling'"),
            ({"kind": "mece", "test_size": 1}, "mece regime requires train_size >= 2"),
            ({"kind": "rolling", "test_size": 1}, "rolling regime requires window >= 2"),
            ({"kind": "mece", "test_size": 0, "train_size": 10}, "test_size must be >= 1"),
            # a size is an int: not a float, a bool or a string
            ({"kind": "rolling", "test_size": 1, "window": 10.0}, "window must be an integer, got 10.0"),
            ({"kind": "rolling", "test_size": 1, "window": True}, "window must be an integer, got True"),
            ({"kind": "rolling", "test_size": 1.0, "window": 10}, "test_size must be an integer, got 1.0"),
            ({"kind": "mece", "test_size": False, "train_size": 10}, "test_size must be an integer, got False"),
            ({"kind": "mece", "test_size": 1, "train_size": 10.0}, "train_size must be an integer, got 10.0"),
            ({"kind": "mece", "test_size": 1, "train_size": "10"}, "train_size must be an integer, got '10'"),
            # each kind sets its own size only
            (
                {"kind": "rolling", "test_size": 300, "window": 10, "train_size": 5},
                "rolling regime takes no train_size, got train_size=5",
            ),
            (
                {"kind": "mece", "test_size": 300, "train_size": 5282, "window": 10},
                "mece regime takes no window, got window=10",
            ),
        ],
    )
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RegimeSpec(**kwargs)


class TestMece:
    def test_bookkeeping_desk_scale(self):
        prices = synthetic_prices(230)
        (run,) = forecast_group(["T"], [prices], [()], [1], dual=False, regime=mece(200, 30), lag=4, cfg=CFG)
        assert run.regime.label == "mece"
        assert not run.dual  # a run without siblings
        assert len(run.predictions) == 30
        assert list(run.origins) == list(range(200, 230))
        assert run.provenance == ((0, 200),) * 30
        assert np.array_equal(run.actuals, prices[200:])

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match=re.escape("the mece training range [0, 100) of origin 30 must lie in [0, 30)")):
            forecast_group(
                ["T"], [synthetic_prices(50)], [()], [1], dual=False, regime=mece(100, 20), lag=4, cfg=CFG,
            )

    def test_longer_dataset_tests_tail(self):
        prices = synthetic_prices(150)
        (run,) = forecast_group(["T"], [prices], [()], [1], dual=False, regime=mece(100, 20), lag=4, cfg=CFG)
        assert list(run.origins) == list(range(130, 150))
        assert run.provenance[0] == (0, 100)

    def test_deterministic(self):
        prices = synthetic_prices(120)
        (r1,) = forecast_group(["T"], [prices], [()], [9], dual=False, regime=mece(100, 10), lag=4, cfg=CFG)
        (r2,) = forecast_group(["T"], [prices], [()], [9], dual=False, regime=mece(100, 10), lag=4, cfg=CFG)
        assert np.array_equal(r1.predictions, r2.predictions)

    def test_misaligned_siblings_rejected(self):
        prices = synthetic_prices(120)
        sibs = (synthetic_prices(119, seed=5), synthetic_prices(120, seed=6))
        with pytest.raises(ValueError, match="aligned"):
            forecast_group(["T"], [prices], [sibs], [2], dual=True, regime=mece(100, 10), lag=4, cfg=CFG)

    def test_dual_features_used(self):
        prices = synthetic_prices(120)
        sibs = (synthetic_prices(120, seed=5), synthetic_prices(120, seed=6))
        (base,) = forecast_group(["T"], [prices], [sibs], [2], dual=True, regime=mece(100, 10), lag=4, cfg=CFG)
        assert base.dual  # a run given its two siblings
        poisoned_sibs = (sibs[0] * 1.1, sibs[1])
        (other,) = forecast_group(["T"], [prices], [poisoned_sibs], [2], dual=True, regime=mece(100, 10), lag=4, cfg=CFG)
        assert not np.array_equal(base.predictions, other.predictions)

    def test_siblings_as_one_array(self):
        # a (2, n) array of the siblings is a dual run, as a tuple of the two series is
        prices = synthetic_prices(120)
        sibs = (synthetic_prices(120, seed=5), synthetic_prices(120, seed=6))
        runs = [
            forecast_group(["T"], [prices], [s], [2], dual=True, regime=mece(100, 10), lag=4, cfg=CFG)[0]
            for s in (sibs, np.stack(sibs))
        ]
        assert runs[1].dual
        assert np.array_equal(runs[0].predictions.view(np.uint64), runs[1].predictions.view(np.uint64))

    def test_diverged_run_is_returned(self):
        # forecast_group returns a diverged run's error in the run's place and raises nothing
        prices = synthetic_prices(120)
        prices[10] = np.nan  # in the training range, so the loss becomes NaN
        (run,) = forecast_group(["T"], [prices], [()], [1], dual=False, regime=mece(100, 10), lag=4, cfg=CFG)
        assert isinstance(run, TrainingDivergedError)
        assert re.fullmatch(r"training loss became non-finite at step \d+", str(run))


class TestRolling:
    def test_bookkeeping(self):
        prices = synthetic_prices(80)
        (run,) = forecast_group(["T"], [prices], [()], [1], dual=False, regime=rolling(10, 15), lag=4, cfg=CFG)
        assert run.regime.label == "window=10"
        for origin, (start, end) in zip(run.origins, run.provenance):
            assert (start, end) == (origin - 10, origin)

    def test_window_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            forecast_group(
                ["T"], [synthetic_prices(80)], [()], [1], dual=False, regime=rolling(5, 10), lag=9, cfg=CFG,
            )

    def test_not_enough_history(self):
        with pytest.raises(ValueError, match=re.escape("the window=10 training range [-5, 5) of origin 5 must lie in [0, 5)")):
            forecast_group(
                ["T"], [synthetic_prices(20)], [()], [1], dual=False, regime=rolling(10, 15), lag=4, cfg=CFG,
            )

    @pytest.mark.parametrize("window", [5, 10])
    def test_poisoning_outside_window(self, window):
        prices = synthetic_prices(60)
        (base,) = forecast_group(["T"], [prices], [()], [4], dual=False, regime=rolling(window, 5), lag=4, cfg=CFG)
        # perturb an observation before every training window of the last
        # 5 origins: windows start at 55 - window
        poisoned = prices.copy()
        poisoned[54 - window] *= 1.5
        (run2,) = forecast_group(["T"], [poisoned], [()], [4], dual=False, regime=rolling(window, 5), lag=4, cfg=CFG)
        # the first origin's window starts at 55-window; index 54-window is
        # outside every window except none -> all later forecasts whose
        # window excludes it must be bit-identical
        for k, (start, _end) in enumerate(base.provenance):
            if 54 - window < start:
                assert run2.predictions[k] == base.predictions[k]

    def test_single_sample_window(self):
        # window = lag + 1 yields exactly one supervised sample per origin
        prices = synthetic_prices(40)
        (run,) = forecast_group(["T"], [prices], [()], [1], dual=False, regime=rolling(5, 3), lag=4, cfg=CFG)
        assert len(run.predictions) == 3


class TestBatchedTraining:
    @pytest.mark.parametrize("lag", [4, 9])
    @pytest.mark.parametrize("dual", [False, True])
    def test_rolling_equals_per_origin_reference(self, lag, dual):
        # the lockstep batch of a rolling run gives, bit for bit, what the
        # literal trainer and forward give for one origin at a time
        prices = synthetic_prices(60)
        sibs = (synthetic_prices(60, seed=5, level=20.0), synthetic_prices(60, seed=6, level=30.0))
        seed = 11
        (run,) = forecast_group(
            ["T"], [prices], [sibs if dual else ()], [seed], dual=dual, regime=rolling(12, 8), lag=lag, cfg=CFG
        )
        own = scale_price(prices)
        features = np.column_stack([own, *(scale_price(s) for s in sibs)]) if dual else own[:, None]
        for k, (origin, (start, end)) in enumerate(zip(run.origins, run.provenance)):
            windows = np.array([features[t - lag : t] for t in range(start + lag, end)])
            origin_seed = child_seed(seed, f"origin:{origin}")
            flat, _ = lstm_train_per_sample(windows, own[start + lag : end], CFG, origin_seed)
            prediction = lstm_forward_literal(flat, features[origin - lag : origin], CFG.hidden_size)
            assert run.predictions[k] == unscale(prediction)

    @pytest.mark.parametrize("dual", [False, True])
    def test_blocks_do_not_change_predictions(self, monkeypatch, dual):
        # 20 origins: one default block, then blocks of 1 and of 7 models
        prices = synthetic_prices(60)
        sibs = (synthetic_prices(60, seed=5, level=20.0), synthetic_prices(60, seed=6, level=30.0))
        dim = 3 if dual else 1

        def run():
            (run,) = forecast_group(
                ["T"], [prices], [sibs if dual else ()], [11], dual=dual, regime=rolling(12, 20), lag=4, cfg=CFG
            )
            return run.predictions

        assert lstm._block_size(4, CFG.hidden_size, dim) >= 20
        one_block = run()
        per_model_bytes = lstm.BLOCK_BYTES // lstm._block_size(4, CFG.hidden_size, dim)
        for models_per_block in (1, 7):
            monkeypatch.setattr(lstm, "BLOCK_BYTES", models_per_block * per_model_bytes)
            assert lstm._block_size(4, CFG.hidden_size, dim) == models_per_block
            assert np.array_equal(run().view(np.uint64), one_block.view(np.uint64))


class TestForecastGroup:
    def count_calls(self, monkeypatch):
        """The number of models of each ``train_batch`` call, as ``forecast_group`` makes them."""
        real_train_batch = forecast_module.train_batch
        calls = []

        def counting(inputs, targets, cfg, seeds):
            calls.append(len(seeds))
            return real_train_batch(inputs, targets, cfg, seeds)

        monkeypatch.setattr(forecast_module, "train_batch", counting)
        return calls

    @pytest.mark.parametrize("regime", [mece(30, 6), rolling(12, 6)])
    def test_runs_equal_one_run_calls(self, monkeypatch, regime):
        # one call trains both runs' models; each run is the run a one-run
        # call gives, bit for bit
        owns = [synthetic_prices(60), synthetic_prices(60, seed=3, level=40.0)]
        calls = self.count_calls(monkeypatch)
        runs = forecast_group(["T0", "T1"], owns, [(), ()], [11, 12], dual=False, regime=regime, lag=4, cfg=CFG)
        assert calls == [2 if regime.kind == "mece" else 12]
        for r, (run, own) in enumerate(zip(runs, owns)):
            (alone,) = forecast_group([f"T{r}"], [own], [()], [11 + r], dual=False, regime=regime, lag=4, cfg=CFG)
            assert (run.ticker, run.seed, run.dual) == (alone.ticker, alone.seed, False)
            assert np.array_equal(run.predictions.view(np.uint64), alone.predictions.view(np.uint64))
            assert np.array_equal(run.actuals, alone.actuals) and np.array_equal(run.origins, alone.origins)

    @pytest.mark.parametrize(
        "lengths, runs_given_siblings, dual, lag, message",
        [
            ((60, 61), 2, False, 4, "the runs of one call need series of one length, got lengths [60, 61]"),
            ((), 0, False, 4, "the runs of one call need series of one length, got lengths []"),
            ((60, 60), 1, False, 4, "each run needs its ticker, own series, siblings and seed"),
            ((60,), 1, True, 4, "a dual run needs exactly two sibling series"),
            # a lag is an int: not a float, and not a bool, which would run as lag 1
            ((60,), 1, False, 4.0, "lag must be an integer >= 1, got 4.0"),
            ((60,), 1, False, True, "lag must be an integer >= 1, got True"),
        ],
    )
    def test_inputs_checked_before_training(self, monkeypatch, lengths, runs_given_siblings, dual, lag, message):
        owns = [synthetic_prices(n, seed=n) for n in lengths]
        names = [f"T{r}" for r in range(len(owns))]
        calls = self.count_calls(monkeypatch)
        with pytest.raises(ValueError, match=re.escape(message)):
            forecast_group(
                names, owns, [()] * runs_given_siblings, list(range(len(owns))),
                dual=dual, regime=rolling(12, 6), lag=lag, cfg=CFG,
            )
        assert calls == []

    @pytest.mark.parametrize("regime", [mece(30, 6), rolling(12, 6)])
    def test_siblings_unread_without_dual(self, regime):
        owns = [synthetic_prices(60), synthetic_prices(60, seed=3, level=40.0)]
        siblings = [(synthetic_prices(60, seed=5), synthetic_prices(60, seed=6))] * 2

        def predictions(siblings):
            runs = forecast_group(["T0", "T1"], owns, siblings, [11, 12], dual=False, regime=regime, lag=4, cfg=CFG)
            return [run.predictions.view(np.uint64) for run in runs]

        for given, alone in zip(predictions(siblings), predictions([(), ()])):
            assert np.array_equal(given, alone)


class TestForecastRunValidation:
    def test_fields(self):
        names = [f.name for f in dataclasses.fields(ForecastRun)]
        assert names == ["ticker", "lag", "dual", "regime", "seed", "predictions", "actuals", "origins"]

    @pytest.mark.parametrize(
        "regime, origin, expected",
        [
            (RegimeSpec(kind="rolling", test_size=1, window=5), 3, "the window=5 training range [-2, 3) of origin 3"),
            (RegimeSpec(kind="mece", test_size=1, train_size=8), 7, "the mece training range [0, 8) of origin 7"),
        ],
        ids=["rolling", "mece"],
    )
    def test_provenance_must_precede_origin(self, regime, origin, expected):
        # an origin before the end of its regime's training range has no valid range
        with pytest.raises(ValueError) as excinfo:
            ForecastRun(
                ticker="T", lag=2, dual=False, regime=regime, seed=0,
                predictions=[1.0], actuals=[1.0], origins=[origin],
            )
        assert str(excinfo.value) == f"{expected} must lie in [0, {origin})"

    def test_length_consistency(self):
        regime = RegimeSpec(kind="rolling", test_size=2, window=5)
        with pytest.raises(ValueError, match="test_size"):
            ForecastRun(
                ticker="T", lag=4, dual=False, regime=regime, seed=0,
                predictions=[1.0], actuals=[1.0], origins=[10],
            )

    @pytest.mark.parametrize(
        "origins, message",
        [([750, 750, 752], "750 follows 750"), ([751, 750, 752], "750 follows 751")],
        ids=["repeated", "decreasing"],
    )
    def test_origins_must_be_consecutive(self, origins, message):
        # every run forecasts the consecutive origins n - test_size .. n - 1
        regime = RegimeSpec(kind="rolling", test_size=3, window=5)
        with pytest.raises(ValueError) as excinfo:
            ForecastRun(
                ticker="T", lag=4, dual=False, regime=regime, seed=0,
                predictions=[1.0] * 3, actuals=[1.0] * 3, origins=origins,
            )
        assert str(excinfo.value) == f"origins must be consecutive: {message}"
