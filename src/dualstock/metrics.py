"""Forecast error metrics and the regime-by-lag comparison grid.

Metrics operate on unscaled prices.  MAPE is reported in percent.  A
``LossTable`` holds a set of forecast runs as columns over one origin axis per
ticker, and it is the one place that states the rules for such a set: one run
per (ticker, cell), and every run of a ticker on that ticker's origins and
actuals.  Grids are assembled per ticker from its columns, with one
``forecast.Cell`` per (regime, lag, dual), which spells each grid key and
table column as it spells each run file name; cells declared but without a
run are flagged missing, never zero-filled.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .forecast import DUAL_LABELS, Cell, ForecastRun, RegimeSpec

__all__ = [
    "LossTable",
    "MetricTriple",
    "ReportGrid",
    "rmse",
    "mae",
    "mape",
    "assemble_grid",
    "grid_table_rows",
    "grid_to_json_dict",
    "long_format_rows",
]

MAPE_ACTUAL_TOLERANCE = 1e-9

_METRIC_NAMES = ("RMSE", "MAE", "MAPE")


def _paired(pred, actual) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.shape != a.shape or p.ndim != 1:
        raise ValueError(f"prediction/actual shape mismatch: {p.shape} vs {a.shape}")
    if len(p) == 0:
        raise ValueError("metrics need at least one observation")
    return p, a


def rmse(pred, actual) -> float:
    """Root mean squared error."""
    p, a = _paired(pred, actual)
    diff = p - a
    return float(np.sqrt(np.mean(diff * diff)))


def mae(pred, actual) -> float:
    """Mean absolute error."""
    p, a = _paired(pred, actual)
    return float(np.mean(np.abs(p - a)))


def mape(pred, actual) -> float:
    """Mean absolute percentage error, in percent."""
    p, a = _paired(pred, actual)
    tiny = np.abs(a) <= MAPE_ACTUAL_TOLERANCE
    if tiny.any():
        idx = int(np.argmax(tiny))
        raise ValueError(f"actual[{idx}] = {a[idx]} is too close to zero for MAPE")
    return float(100.0 * np.mean(np.abs(p - a) / np.abs(a)))


@dataclass(frozen=True)
class MetricTriple:
    """RMSE and MAE in price units, MAPE in percent."""

    rmse: float
    mae: float
    mape: float

    def __post_init__(self) -> None:
        if not (self.rmse >= 0 and self.mae >= 0 and self.mape >= 0):  # NaN fails too
            raise ValueError("metrics must be nonnegative")
        if self.mae > self.rmse * (1 + 1e-9) + 1e-12:
            raise ValueError(f"mae={self.mae} exceeds rmse={self.rmse}")

    @classmethod
    def of(cls, pred, actual) -> "MetricTriple":
        return cls(rmse=rmse(pred, actual), mae=mae(pred, actual), mape=mape(pred, actual))


class LossTable:
    """The per-origin forecasts of a set of runs, by ticker and ``Cell``.

    Per ticker it holds one origin axis (``origins``) and one actuals column
    (``actuals``), and per (ticker, cell) that run's predictions at those
    origins (``predictions[ticker][cell]``), in the order the runs are given.
    Each entry is the run's own read-only array: nothing is copied, and no
    loss is derived until a caller asks for one.  A second run of one
    (ticker, cell) is an error, and so is a run whose origins or actuals
    differ from those of its ticker's first run, so a ticker's columns
    compare origin by origin.
    """

    def __init__(self, runs: Iterable[ForecastRun]) -> None:
        self.origins: dict[str, np.ndarray] = {}
        self.actuals: dict[str, np.ndarray] = {}
        self.predictions: dict[str, dict[Cell, np.ndarray]] = {}
        for run in runs:
            columns = self.predictions.setdefault(run.ticker, {})
            if run.cell in columns:
                raise ValueError(f"duplicate run of {run.ticker} for cell {run.cell.key}")
            origins = self.origins.setdefault(run.ticker, run.origins)
            actuals = self.actuals.setdefault(run.ticker, run.actuals)
            if not (np.array_equal(run.origins, origins) and np.array_equal(run.actuals, actuals)):
                raise ValueError(
                    f"run of {run.ticker} for cell {run.cell.key} has other origins or actuals "
                    f"than its run for cell {next(iter(columns)).key}"
                )
            columns[run.cell] = run.predictions

    @property
    def tickers(self) -> tuple[str, ...]:
        """The tickers with a run, in the order of their first runs."""
        return tuple(self.predictions)


@dataclass(frozen=True)
class ReportGrid:
    """Per-ticker grid: each cell's MetricTriple, None where missing, by regime, then lag, then dual."""

    ticker: str
    regimes: tuple[RegimeSpec, ...]
    lags: tuple[int, ...]
    duals: tuple[bool, ...]
    cells: dict[Cell, MetricTriple | None]

    @property
    def missing(self) -> tuple[Cell, ...]:
        return tuple(cell for cell, triple in self.cells.items() if triple is None)


def assemble_grid(
    table: LossTable,
    ticker: str,
    *,
    regimes: tuple[RegimeSpec, ...],
    lags: tuple[int, ...],
    duals: tuple[bool, ...],
) -> ReportGrid:
    """Fold the table's columns of ``ticker`` into the declared grid, one ``Cell`` per (regime, lag, dual).

    A column outside the declared cells is an error; declared cells without
    a column are flagged missing.
    """
    if ticker not in table.tickers:
        raise ValueError(f"no runs of {ticker}")
    cells = {Cell(regime, lag, dual): None for regime in regimes for lag in lags for dual in duals}
    for cell, predictions in table.predictions[ticker].items():
        if cell not in cells:
            raise ValueError(f"run cell {cell.key} is outside the declared grid")
        cells[cell] = MetricTriple.of(predictions, table.actuals[ticker])
    return ReportGrid(ticker=ticker, regimes=tuple(regimes), lags=tuple(lags), duals=tuple(duals), cells=cells)


def grid_table_rows(grid: ReportGrid) -> list[list[str]]:
    """Comparison table: regime blocks of RMSE/MAE/MAPE rows, lag x dual columns."""
    rows = [["regime", "metric"] + [cell.column for cell in grid.cells if cell.regime == grid.regimes[0]]]
    for regime in grid.regimes:
        triples = [triple for cell, triple in grid.cells.items() if cell.regime == regime]
        for metric in _METRIC_NAMES:
            values = ["" if triple is None else f"{getattr(triple, metric.lower()):.4f}" for triple in triples]
            rows.append([regime.title, metric] + values)
    return rows


def grid_to_json_dict(grid: ReportGrid) -> dict:
    cells = {
        cell.key: None if triple is None else {"rmse": triple.rmse, "mae": triple.mae, "mape": triple.mape}
        for cell, triple in grid.cells.items()
    }
    return {
        "ticker": grid.ticker,
        "regimes": [regime.label for regime in grid.regimes],
        "lags": list(grid.lags),
        "duals": [DUAL_LABELS[dual] for dual in grid.duals],
        "cells": cells,
        "missing": [cell.key for cell in grid.missing],
    }


def long_format_rows(grids) -> list[list[str]]:
    """Flat rows ticker,regime,window,lag,dual,metric,value across grids."""
    rows = [["ticker", "regime", "window", "lag", "dual", "metric", "value"]]
    for grid in grids:
        for cell, triple in grid.cells.items():
            if triple is None:
                continue
            window = "" if cell.regime.window is None else str(cell.regime.window)
            for metric in _METRIC_NAMES:
                value = getattr(triple, metric.lower())
                rows.append(
                    [grid.ticker, cell.regime.kind, window, str(cell.lag), DUAL_LABELS[cell.dual], metric, f"{value:.4f}"]
                )
    return rows
