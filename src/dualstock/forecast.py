"""Price scaling, lagged feature construction, and the regime-driven forecast.

Prices are mapped to x/100 - 1 before modeling (no min-max scaling: the test
range must stay unknown at training time) and predictions are mapped back to
price units.  One path serves both training regimes of a ``RegimeSpec``: a
single mutually-exclusive train/test split ("mece") and rolling windows that
retrain on exactly the w observations preceding each forecast origin.  A run
is planned, trained and served in three steps.  ``plan_forecast`` checks it
and lays out its models' samples, seeds and queries.  ``train_plans`` trains
every plan that shares (lag, dual, regime), such as the tickers' MECE runs
of one grid cell or a rolling run's per-origin models, in one lockstep
``lstm.train_batch`` call.  ``serve`` predicts a run's origins in one batched
forward.  A model's result does not depend on the batch it trains in, so the
predictions equal, bit for bit, those of each model trained alone at B = 1.
A model whose loss becomes non-finite fails only its own run
(``TrainingDivergedError``); a ``FloatingPointError`` from the activation
range check fails every run of its call, though sigmoid and tanh are
bounded, so the check cannot trip on finite inputs.  ``forecast`` is the
one-run case of the same path.  Every forecast is a pure function of
observations strictly before its origin; a run's ``provenance``, the exact
training index range per origin, is its regime's ``train_range`` at each
origin.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .lstm import BatchTrainResult, TrainConfig, predict_batch, train_batch
from .seeds import child_seed

__all__ = [
    "PriceScaleWarning",
    "TrainingDivergedError",
    "RegimeSpec",
    "ForecastRun",
    "ForecastPlan",
    "scale_price",
    "unscale",
    "plan_forecast",
    "train_plans",
    "serve",
    "forecast",
]

SCALE_CEILING = 200.0  # price at which x/100 - 1 leaves the tanh range


class PriceScaleWarning(UserWarning):
    """Price at or above 200 breaches the below-100 scaling assumption."""


class TrainingDivergedError(RuntimeError):
    """Raised for a run when the training loss of one of its models became non-finite."""


def scale_price(x):
    """Map prices to x/100 - 1 (dimensionless, below 1 for prices < 200)."""
    arr = np.asarray(x, dtype=np.float64)
    if (arr <= 0).any():
        raise ValueError("prices must be strictly positive")
    if (arr >= SCALE_CEILING).any():
        warnings.warn(
            f"price >= {SCALE_CEILING:.0f} scales to >= 1, outside the tanh range",
            PriceScaleWarning,
            stacklevel=2,
        )
    scaled = arr / 100.0 - 1.0
    return float(scaled) if scaled.ndim == 0 else scaled


def unscale(y):
    """Inverse scaling: 100 * (y + 1)."""
    arr = np.asarray(y, dtype=np.float64)
    prices = 100.0 * (arr + 1.0)
    return float(prices) if prices.ndim == 0 else prices


def _feature_rows(own: np.ndarray, siblings) -> np.ndarray:
    """The (n, D) input rows: [own] (D = 1), or [own, sib1, sib2] for a dual run (D = 3)."""
    if not siblings:
        return own[:, None]
    if len(siblings) != 2:
        raise ValueError("a dual run needs exactly two sibling series")
    if any(np.shape(s) != own.shape for s in siblings):
        raise ValueError("sibling series must be aligned with the own series")
    return np.column_stack([own, *siblings])


@dataclass(frozen=True)
class RegimeSpec:
    """Training-set regime: a single MECE split or rolling windows.

    MECE: one model on the first ``train_size`` observations forecasts all
    ``test_size`` test origins.  Rolling: each origin gets a model trained on
    exactly the ``window`` observations preceding it.  Each kind sets its own
    size only: a MECE regime takes no ``window``, a rolling one no ``train_size``.
    """

    kind: str
    test_size: int
    train_size: int | None = None
    window: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("mece", "rolling"):
            raise ValueError(f"kind must be 'mece' or 'rolling', got {self.kind!r}")
        for key in ("test_size", "train_size", "window"):
            value = getattr(self, key)
            if value is not None and type(value) is not int:  # a float or a bool is not a size
                raise ValueError(f"{key} must be an integer, got {value!r}")
        if self.test_size < 1:
            raise ValueError("test_size must be >= 1")
        if self.kind == "mece":
            if self.train_size is None or self.train_size < 2:
                raise ValueError("mece regime requires train_size >= 2")
            if self.window is not None:
                raise ValueError(f"mece regime takes no window, got window={self.window}")
        else:
            if self.window is None or self.window < 2:
                raise ValueError("rolling regime requires window >= 2")
            if self.train_size is not None:
                raise ValueError(f"rolling regime takes no train_size, got train_size={self.train_size}")

    @property
    def label(self) -> str:
        return "mece" if self.kind == "mece" else f"window={self.window}"

    @property
    def train_length(self) -> int:
        """Observations each model trains on; the regime runs only at lags below it."""
        return self.train_size if self.kind == "mece" else self.window

    def train_range(self, origin: int) -> tuple[int, int]:
        """Training index range [start, end) for the forecast at ``origin``.

        MECE: [0, train_size).  Rolling: [origin - window, origin).
        """
        if self.kind == "mece":
            return (0, self.train_size)
        return (origin - self.window, origin)


@dataclass(frozen=True)
class ForecastRun:
    """Predictions and actuals at each origin for one config; its regime gives each origin's training range."""

    ticker: str
    lag: int
    include_dual: bool
    regime: RegimeSpec
    seed: int
    predictions: np.ndarray
    actuals: np.ndarray
    origins: np.ndarray

    def __post_init__(self) -> None:
        predictions = np.asarray(self.predictions, dtype=np.float64)
        actuals = np.asarray(self.actuals, dtype=np.float64)
        origins = np.asarray(self.origins, dtype=np.int64)
        if not (len(predictions) == len(actuals) == len(origins) == self.regime.test_size):
            raise ValueError("predictions/actuals/origins must all have length test_size")
        if not (np.isfinite(predictions).all() and np.isfinite(actuals).all()):
            raise ValueError("predictions and actuals must be finite")
        # every training range [start, end) lies in [0, origin) iff the first origin is the training length or later
        first = int(origins.min())
        if first < self.regime.train_length:
            start, end = self.regime.train_range(first)
            raise ValueError(
                f"the {self.regime.label} training range [{start}, {end}) of origin {first} must lie in [0, {first})"
            )
        for arr in (predictions, actuals, origins):
            arr.flags.writeable = False
        object.__setattr__(self, "predictions", predictions)
        object.__setattr__(self, "actuals", actuals)
        object.__setattr__(self, "origins", origins)

    @property
    def provenance(self) -> tuple[tuple[int, int], ...]:
        """The training index range [start, end) of each origin: the regime's ``train_range``."""
        return tuple(self.regime.train_range(int(origin)) for origin in self.origins)


@dataclass(frozen=True, eq=False)
class ForecastPlan:
    """One run laid out before any training: its models' samples and seeds, and its queries.

    Model m trains on the samples that target the indices ``target_index[m]``,
    seeded with ``seeds[m]``; origin ``origins[k]`` is predicted by model
    ``served[k]`` from the lag window just before it.  A plan is compared by
    identity (``eq=False``), so it can key its run.
    """

    ticker: str
    lag: int
    include_dual: bool
    regime: RegimeSpec
    seed: int
    windows: np.ndarray  # windows[k]: the (L, D) inputs of the sample that targets index k + lag
    targets: np.ndarray  # (M, N) scaled own values of each model's samples
    target_index: np.ndarray  # (M, N)
    seeds: tuple[int, ...]
    served: np.ndarray  # (T,)
    origins: np.ndarray
    actuals: np.ndarray

    def inputs(self) -> np.ndarray:
        """The (M, N, L, D) training inputs; fancy indexing copies their windows."""
        return self.windows[self.target_index - self.lag]


def plan_forecast(
    own,
    siblings=(),
    *,
    regime: RegimeSpec,
    lag: int,
    seed: int,
    ticker: str = "",
) -> ForecastPlan:
    """Check one run and lay out its training samples, seeds and queries; nothing is trained.

    Each origin's model is trained on the range ``regime.train_range`` gives
    it, and one model is planned per distinct range.  The MECE model, which
    serves every origin, is seeded with ``seed``; the model of rolling origin
    t is seeded with child_seed(seed, "origin:t"), so a forecast depends only
    on its own window.  Each query uses only the lag window strictly before
    its origin.

    The training sample that targets index t takes its L = lag input steps
    from indices t-lag .. t-1.  Each step's vector is the own value alone
    (D = 1), or [own, sibling1, sibling2] (D = 3) for a dual run: one given
    its two ``siblings``.
    """
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    own = np.asarray(own, dtype=np.float64)
    n = len(own)
    first_origin = n - regime.test_size
    if regime.kind == "mece" and first_origin < regime.train_size:
        raise ValueError(
            f"need at least train_size+test_size={regime.train_size + regime.test_size} "
            f"observations, got {n}"
        )
    if regime.train_length <= lag:
        raise ValueError(
            f"train_size={regime.train_size} leaves no samples at lag={lag}"
            if regime.kind == "mece"
            else f"window={regime.window} too small for lag={lag}; need window >= lag+1"
        )
    if regime.kind == "rolling" and first_origin - regime.window < 0:
        raise ValueError(
            f"not enough history: first origin {first_origin} needs {regime.window} prior observations"
        )
    scaled_own = scale_price(own)
    features = _feature_rows(scaled_own, [scale_price(s) for s in siblings])
    # windows[k] is a view of feature rows k .. k+lag-1
    windows = np.lib.stride_tricks.sliding_window_view(features, lag, axis=0).transpose(0, 2, 1)
    origins = np.arange(first_origin, n)
    provenance = tuple(regime.train_range(int(t)) for t in origins)
    # one model per distinct range: the MECE range serves every origin, and a
    # rolling range ends at the one origin it serves
    spans = list(dict.fromkeys(provenance))
    rolling = regime.kind == "rolling"
    model_of = {span: k for k, span in enumerate(spans)}
    # every range has the same length, so the samples form one (M, N) grid
    # of target indices
    count = spans[0][1] - spans[0][0] - lag
    target_index = np.array([start + lag for start, _ in spans])[:, None] + np.arange(count)
    return ForecastPlan(
        ticker=ticker,
        lag=lag,
        include_dual=len(siblings) > 0,
        regime=regime,
        seed=seed,
        windows=windows,
        targets=scaled_own[target_index],
        target_index=target_index,
        seeds=tuple(child_seed(seed, f"origin:{end}") if rolling else seed for _, end in spans),
        served=np.array([model_of[span] for span in provenance]),
        origins=origins,
        actuals=own[origins],
    )


def train_plans(plans, cfg: TrainConfig) -> Iterator[tuple[ForecastPlan, BatchTrainResult | FloatingPointError]]:
    """Train every plan's models, one ``train_batch`` call per (lag, dual, regime).

    The plans of one key share (L, D, N): the key fixes the lag, the input
    width and the samples per model.  Their models train as one lockstep
    batch, in plan order, and each plan gets its own rows of the result,
    bit-identical to training it alone.  Yields each plan with its
    ``BatchTrainResult``, one call's plans at a time, so that only one
    call's parameters are held at once.  A ``FloatingPointError`` from the
    activation range check fails its whole call: every plan of the call is
    yielded with that error instead.
    """
    groups: dict[tuple, list[ForecastPlan]] = {}
    for plan in plans:
        groups.setdefault((plan.lag, plan.include_dual, plan.regime), []).append(plan)
    for group in groups.values():
        try:
            result = train_batch(
                np.concatenate([plan.inputs() for plan in group]),
                np.concatenate([plan.targets for plan in group]),
                cfg,
                [s for plan in group for s in plan.seeds],
            )
        except FloatingPointError as exc:
            for plan in group:
                yield plan, exc
            continue
        end = 0
        for plan in group:
            rows = slice(end, end + len(plan.seeds))
            end = rows.stop
            yield plan, BatchTrainResult(result.flat[rows], result.loss_trace[rows], result.diverged_at[rows])
        del result  # freed before the next call trains


def serve(plan: ForecastPlan, trained: BatchTrainResult | FloatingPointError, hidden_size: int) -> ForecastRun:
    """Predict every origin of ``plan`` in one batched forward of its trained models.

    Raises the error that failed the plan's training call, or
    TrainingDivergedError naming the step at which the epoch loss of the
    plan's first diverged model, in model order, became non-finite.
    """
    if isinstance(trained, FloatingPointError):
        raise trained
    diverged = np.flatnonzero(trained.diverged_at)
    if diverged.size:
        raise TrainingDivergedError(f"training loss became non-finite at step {trained.diverged_at[diverged[0]]}")
    queries = plan.windows[plan.origins - plan.lag]
    predictions = unscale(predict_batch(trained.flat[plan.served], queries, hidden_size))
    return ForecastRun(
        ticker=plan.ticker,
        lag=plan.lag,
        include_dual=plan.include_dual,
        regime=plan.regime,
        seed=plan.seed,
        predictions=predictions,
        actuals=plan.actuals,
        origins=plan.origins,
    )


def forecast(
    own,
    siblings=(),
    *,
    regime: RegimeSpec,
    lag: int,
    cfg: TrainConfig,
    seed: int,
    ticker: str = "",
) -> ForecastRun:
    """Forecast the final ``regime.test_size`` observations of ``own``: one run planned, trained and served.

    ``plan_forecast`` documents the samples, seeds and queries; the run's
    models train in one lockstep batch.
    """
    plan = plan_forecast(own, siblings, regime=regime, lag=lag, seed=seed, ticker=ticker)
    ((_, trained),) = train_plans([plan], cfg)
    return serve(plan, trained, cfg.hidden_size)
