"""Forecast error metrics and the regime-by-lag comparison grid.

Metrics operate on unscaled prices.  MAPE is reported in percent.  Grids are
assembled per ticker with one cell per (regime, lag, dual) configuration;
configurations declared but not supplied are flagged missing, never
zero-filled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forecast import DUAL_LABELS, RegimeSpec

__all__ = [
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


@dataclass(frozen=True)
class ReportGrid:
    """Per-ticker grid of MetricTriples keyed by (regime label, lag, dual)."""

    ticker: str
    regimes: tuple[RegimeSpec, ...]
    lags: tuple[int, ...]
    duals: tuple[bool, ...]
    cells: dict

    @property
    def missing(self) -> tuple[tuple[str, int, bool], ...]:
        return tuple((regime.label, lag, dual) for regime, lag, dual, triple in self._entries() if triple is None)

    def _entries(self):
        """(regime, lag, dual, triple) per cell in the grid's order; the triple is None where missing."""
        for regime in self.regimes:
            for lag in self.lags:
                for dual in self.duals:
                    yield regime, lag, dual, self.cells[(regime.label, lag, dual)]


def assemble_grid(
    runs,
    *,
    regimes: tuple[RegimeSpec, ...],
    lags: tuple[int, ...],
    duals: tuple[bool, ...],
) -> ReportGrid:
    """Fold forecast runs for one ticker into the declared grid, one cell per (regime label, lag, dual).

    Each run must carry ticker, lag, dual, regime, predictions, and
    actuals.  Duplicate configurations and runs outside the declared set
    are errors; declared configurations without a run are flagged missing.
    """
    runs = list(runs)
    if not runs:
        raise ValueError("no runs supplied")
    tickers = sorted({r.ticker for r in runs})
    if len(tickers) > 1:
        raise ValueError(f"assemble_grid expects one ticker per grid, got {tickers}")
    declared = {(regime.label, lag, dual) for regime in regimes for lag in lags for dual in duals}
    cells: dict = {key: None for key in declared}
    for run in runs:
        key = (run.regime.label, run.lag, run.dual)
        if key not in declared:
            raise ValueError(f"run configuration {key} is outside the declared grid")
        if cells[key] is not None:
            raise ValueError(f"duplicate run for configuration {key}")
        cells[key] = MetricTriple.of(run.predictions, run.actuals)
    return ReportGrid(ticker=tickers[0], regimes=tuple(regimes), lags=tuple(lags), duals=tuple(duals), cells=cells)


def grid_table_rows(grid: ReportGrid) -> list[list[str]]:
    """Comparison table: regime blocks of RMSE/MAE/MAPE rows, lag x dual columns."""
    columns = [(lag, dual) for lag in grid.lags for dual in grid.duals]
    rows = [["regime", "metric"] + [f"lag{lag}_dual_{DUAL_LABELS[dual]}" for lag, dual in columns]]
    for regime in grid.regimes:
        for metric in _METRIC_NAMES:
            triples = [grid.cells[(regime.label, lag, dual)] for lag, dual in columns]
            values = ["" if triple is None else f"{getattr(triple, metric.lower()):.4f}" for triple in triples]
            rows.append([regime.title, metric] + values)
    return rows


def grid_to_json_dict(grid: ReportGrid) -> dict:
    cells = {}
    for regime, lag, dual, triple in grid._entries():
        key = f"{regime.label}|lag={lag}|dual={DUAL_LABELS[dual]}"
        cells[key] = (
            None
            if triple is None
            else {"rmse": triple.rmse, "mae": triple.mae, "mape": triple.mape}
        )
    return {
        "ticker": grid.ticker,
        "regimes": [regime.label for regime in grid.regimes],
        "lags": list(grid.lags),
        "duals": [DUAL_LABELS[dual] for dual in grid.duals],
        "cells": cells,
        "missing": [f"{regime}|lag={lag}|dual={DUAL_LABELS[dual]}" for regime, lag, dual in grid.missing],
    }


def long_format_rows(grids) -> list[list[str]]:
    """Flat rows ticker,regime,window,lag,dual,metric,value across grids."""
    rows = [["ticker", "regime", "window", "lag", "dual", "metric", "value"]]
    for grid in grids:
        for regime, lag, dual, triple in grid._entries():
            if triple is None:
                continue
            for metric in _METRIC_NAMES:
                value = getattr(triple, metric.lower())
                rows.append(
                    [
                        grid.ticker,
                        regime.kind,
                        "" if regime.window is None else str(regime.window),
                        str(lag),
                        DUAL_LABELS[dual],
                        metric,
                        f"{value:.4f}",
                    ]
                )
    return rows
