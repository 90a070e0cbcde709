"""Dual-class stock analytics toolkit.

Premium statistics over paired daily price series, Morlet wavelet coherence
with Monte-Carlo significance and phase lead-lag fields, and a from-scratch
LSTM forecaster with MECE and rolling training regimes.
"""

from .forecast import (
    ForecastRun,
    PriceScaleWarning,
    RegimeSpec,
    TrainingDivergedError,
    forecast_group,
    scale_price,
    unscale,
)
from .lstm import BatchTrainResult, TrainConfig, predict_batch, train_batch
from .metrics import MetricTriple, ReportGrid, assemble_grid, mae, mape, rmse
from .seeds import child_seed
from .significance import AR1Params, MonteCarloSpec, fit_ar1, significance
from .svgplot import render_heatmap
from .timeseries import (
    CsvFormat,
    PriceSeries,
    ReturnSeries,
    SummaryStats,
    align_series,
    daily_returns,
    load_ohlc_csv,
    premium_series,
    premium_summary,
)
from .wavelet import (
    CoherenceField,
    ScaleGrid,
    cone_of_influence,
    cwt,
    phase_field,
    smooth,
)

__version__ = "0.1.0"
