"""Price scaling, lagged feature construction, and the regime-driven forecast.

Prices are mapped to x/100 - 1 before modeling (no min-max scaling: the test
range must stay unknown at training time) and predictions are mapped back to
price units.  One path serves both training regimes of a ``RegimeSpec``: a
single mutually-exclusive train/test split ("mece") and rolling windows that
retrain on exactly the w observations preceding each forecast origin.
``forecast_group`` forecasts the runs that share (lag, dual, regime), its
three keywords, such as the tickers' runs of one grid cell: it checks them
and lays out their samples once, trains every model of every run (a rolling
run has one per origin) in one lockstep ``lstm.train_batch`` call, and
predicts each run's origins in one batched forward.  A model's result does not depend on the
batch it trains in, so the predictions equal, bit for bit, those of each
model trained alone at B = 1.  A model whose loss becomes non-finite fails
only its own run (``TrainingDivergedError``); a ``FloatingPointError`` from
the activation range check fails every run of its call, though sigmoid and
tanh are bounded, so the check cannot trip on finite inputs.  Every
forecast is a pure function of observations strictly before its origin; a
run's ``provenance``, the exact training index range per origin, is its
regime's ``train_range`` at each origin, and the regime's ``history_error``
is the one rule that it lie in [0, origin).

Two owners spell the forecast grid's axes for every module: a regime's
``label``, ``stem``, ``title`` and ``order`` give its seed labels and grid
keys, run file names, table rows and report order, and ``DUAL_LABELS[dual]``
spells a dual flag.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .lstm import TrainConfig, predict_batch, train_batch
from .seeds import child_seed

__all__ = [
    "PriceScaleWarning",
    "TrainingDivergedError",
    "DUAL_LABELS",
    "RegimeSpec",
    "ForecastRun",
    "scale_price",
    "unscale",
    "forecast_group",
]

SCALE_CEILING = 200.0  # price at which x/100 - 1 leaves the tanh range
DUAL_LABELS = ("no", "yes")  # DUAL_LABELS[dual]: a dual flag in file names, grid keys and descriptors


class PriceScaleWarning(UserWarning):
    """Price at or above 200 breaches the below-100 scaling assumption."""


class TrainingDivergedError(RuntimeError):
    """A run's failure when the training loss of one of its models became non-finite; the library returns it, never raises it."""


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


def not_a_lag(lag) -> str | None:
    """Why ``lag`` is not a lag, or None: a lag is an integer >= 1, and a float or a bool is not one."""
    return None if type(lag) is int and lag >= 1 else f"lag must be an integer >= 1, got {lag!r}"


def _feature_rows(own: np.ndarray, siblings, dual: bool) -> np.ndarray:
    """The (n, D) scaled input rows: [own] (D = 1), or [own, sib1, sib2] for a dual run (D = 3)."""
    if not dual:
        return scale_price(own)[:, None]
    if len(siblings) != 2:
        raise ValueError("a dual run needs exactly two sibling series")
    if any(np.shape(s) != own.shape for s in siblings):
        raise ValueError("sibling series must be aligned with the own series")
    return np.column_stack([scale_price(x) for x in (own, *siblings)])


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
        """The regime in seed labels, unit names and grid keys: ``mece`` or ``window=<window>``."""
        return "mece" if self.kind == "mece" else f"window={self.window}"

    @property
    def stem(self) -> str:
        """The regime's part of a run file's name: ``mece`` or ``w<window>``."""
        return "mece" if self.kind == "mece" else f"w{self.window}"

    @property
    def title(self) -> str:
        """The regime's row name in a grid table: ``MECE`` or ``Training Window = <window>``."""
        return "MECE" if self.kind == "mece" else f"Training Window = {self.window}"

    @property
    def order(self) -> tuple[bool, int]:
        """The key a report sorts regimes by: rolling windows ascending, then MECE."""
        return (self.kind == "mece", self.train_length)

    @property
    def train_length(self) -> int:
        """Observations each model trains on."""
        return self.train_size if self.kind == "mece" else self.window

    def lag_error(self, lag: int) -> str | None:
        """Why the regime cannot run at ``lag``, or None: a training set runs only at 1 <= lag < its length."""
        if error := not_a_lag(lag):
            return error
        if lag < self.train_length:
            return None
        if self.kind == "mece":
            return f"train_size={self.train_size} leaves no samples at lag={lag}"
        return f"window={self.window} too small for lag={lag}; need window >= lag+1"

    def history_error(self, origin: int) -> str | None:
        """Why ``origin`` has too little history, or None: its training range must lie in [0, origin)."""
        if origin >= self.train_length:
            return None
        start, end = self.train_range(origin)
        return f"the {self.label} training range [{start}, {end}) of origin {origin} must lie in [0, {origin})"

    def train_range(self, origin: int) -> tuple[int, int]:
        """Training index range [start, end) for the forecast at ``origin``.

        MECE: [0, train_size).  Rolling: [origin - window, origin).
        """
        if self.kind == "mece":
            return (0, self.train_size)
        return (origin - self.window, origin)


@dataclass(frozen=True)
class ForecastRun:
    """Predictions and actuals at each origin for one config, at a lag its regime runs at; its regime gives each origin's training range."""

    ticker: str
    lag: int
    dual: bool
    regime: RegimeSpec
    seed: int
    predictions: np.ndarray
    actuals: np.ndarray
    origins: np.ndarray

    def __post_init__(self) -> None:
        if error := self.regime.lag_error(self.lag):
            raise ValueError(error)
        predictions = np.asarray(self.predictions, dtype=np.float64)
        actuals = np.asarray(self.actuals, dtype=np.float64)
        origins = np.asarray(self.origins, dtype=np.int64)
        if not (len(predictions) == len(actuals) == len(origins) == self.regime.test_size):
            raise ValueError("predictions/actuals/origins must all have length test_size")
        if not (np.isfinite(predictions).all() and np.isfinite(actuals).all()):
            raise ValueError("predictions and actuals must be finite")
        if (gaps := np.flatnonzero(np.diff(origins) != 1)).size:
            k = gaps[0]
            raise ValueError(f"origins must be consecutive: {origins[k + 1]} follows {origins[k]}")
        # every training range lies in [0, origin) iff the first origin's does
        if error := self.regime.history_error(int(origins[0])):
            raise ValueError(error)
        for arr in (predictions, actuals, origins):
            arr.flags.writeable = False
        object.__setattr__(self, "predictions", predictions)
        object.__setattr__(self, "actuals", actuals)
        object.__setattr__(self, "origins", origins)

    @property
    def provenance(self) -> tuple[tuple[int, int], ...]:
        """The training index range [start, end) of each origin: the regime's ``train_range``."""
        return tuple(self.regime.train_range(int(origin)) for origin in self.origins)


def forecast_group(
    tickers,
    owns,
    siblings,
    seeds,
    *,
    dual: bool,
    regime: RegimeSpec,
    lag: int,
    cfg: TrainConfig,
) -> list[ForecastRun | TrainingDivergedError]:
    """Forecast the final ``regime.test_size`` observations of each own series: the runs of one (lag, dual, regime).

    Run r forecasts ``owns[r]`` for ``tickers[r]``, seeded with ``seeds[r]``;
    a ``dual`` run also takes its two ``siblings[r]`` as inputs, and a run
    without a dual reads no ``siblings[r]``.  The runs share the series
    length, so they share origins, training ranges and sample indices:
    these are laid out once, after ``regime.history_error`` passes the first
    origin, and every model of every run trains in one lockstep
    ``train_batch`` call, in run order; a one-run call is the single-run
    case.  Returns each run's ``ForecastRun``, or the
    ``TrainingDivergedError`` naming the step at which the epoch loss of its
    first diverged model, in model order, became non-finite.  A failed check
    (``ValueError``), or a ``FloatingPointError`` from the activation range
    check, raises for the whole call.

    Each origin's model is trained on the range ``regime.train_range`` gives
    it, and one model is trained per distinct range.  The MECE model, which
    serves every origin, is seeded with the run's seed; the model of rolling
    origin t is seeded with child_seed(seed, "origin:t"), so a forecast
    depends only on its own window.  Each query uses only the lag window
    strictly before its origin.  The training sample that targets index t
    takes its L = lag input steps from indices t-lag .. t-1; each step's
    vector is the own value alone (D = 1), or [own, sibling1, sibling2]
    (D = 3) for a dual run.
    """
    if error := regime.lag_error(lag):
        raise ValueError(error)
    if not len(tickers) == len(owns) == len(siblings) == len(seeds):
        raise ValueError("each run needs its ticker, own series, siblings and seed")
    owns = [np.asarray(own, dtype=np.float64) for own in owns]
    lengths = [len(own) for own in owns]
    if len(set(lengths)) != 1:
        raise ValueError(f"the runs of one call need series of one length, got lengths {lengths}")
    n = lengths[0]
    first_origin = n - regime.test_size
    if error := regime.history_error(first_origin):
        raise ValueError(error)
    # (R, n, D): the runs' scaled input rows, own value first
    features = np.stack([_feature_rows(own, sibs, dual) for own, sibs in zip(owns, siblings)])
    # windows[r, k] is a view of run r's feature rows k .. k+lag-1
    windows = np.lib.stride_tricks.sliding_window_view(features, lag, axis=1).transpose(0, 1, 3, 2)
    origins = np.arange(first_origin, n)
    provenance = [regime.train_range(int(t)) for t in origins]
    # one model per distinct range: the MECE range serves every origin, and a
    # rolling range ends at the one origin it serves
    spans = list(dict.fromkeys(provenance))
    model_of = {span: m for m, span in enumerate(spans)}
    served = np.array([model_of[span] for span in provenance])
    # every range has the same length, so each run's samples form one (M, N)
    # grid of target indices
    count = spans[0][1] - spans[0][0] - lag
    target_index = np.array([start + lag for start, _ in spans])[:, None] + np.arange(count)
    trained = train_batch(
        windows[:, target_index - lag].reshape(-1, count, lag, features.shape[2]),
        features[:, target_index, 0].reshape(-1, count),
        cfg,
        [child_seed(seed, f"origin:{end}") if regime.kind == "rolling" else seed for seed in seeds for _, end in spans],
    )
    flat = trained.flat.reshape(len(owns), len(spans), -1)
    diverged_at = trained.diverged_at.reshape(len(owns), len(spans))
    runs: list[ForecastRun | TrainingDivergedError] = []
    for r, (ticker, own, seed) in enumerate(zip(tickers, owns, seeds)):
        steps = diverged_at[r][diverged_at[r] > 0]
        if steps.size:
            runs.append(TrainingDivergedError(f"training loss became non-finite at step {steps[0]}"))
            continue
        predictions = unscale(predict_batch(flat[r, served], windows[r, origins - lag], cfg.hidden_size))
        runs.append(
            ForecastRun(
                ticker=ticker,
                lag=lag,
                dual=dual,
                regime=regime,
                seed=seed,
                predictions=predictions,
                actuals=own[origins],
                origins=origins,
            )
        )
    return runs
