"""Daily mid-price series, returns, and dual-class premium statistics.

The loader forms each row's mid price 0.5 * (high + low), or reads a mid
column as it is, and the mid is the only price a series stores: every
analysis reads one price per day.  Prices are strictly positive, dates
strictly increasing.  Premiums are stored as dimensionless fractions (0.5
means +50%); percent scaling happens only at report emission.  Pairwise
analysis is defined on the date intersection of the two inputs -- there is
no calendar imputation.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "PriceSeries",
    "ReturnSeries",
    "SummaryStats",
    "CsvFormat",
    "daily_returns",
    "align_series",
    "premium_series",
    "premium_summary",
    "load_ohlc_csv",
    "summary_to_dict",
    "render_summary_csv",
]

def _frozen_array(values) -> np.ndarray:
    out = np.array(values, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError("expected a 1-D sequence")
    out.flags.writeable = False
    return out


def _check_dates(dates: tuple[dt.date, ...]) -> None:
    for i in range(len(dates) - 1):
        if dates[i] >= dates[i + 1]:
            raise ValueError(
                f"dates must be strictly increasing; violation at position {i + 1} "
                f"({dates[i]} -> {dates[i + 1]})"
            )


@dataclass(frozen=True)
class PriceSeries:
    """Date-indexed daily mid prices for one ticker.

    Invariants: dates strictly increasing and every mid finite and > 0.  The
    high/low of a day are checked by the loader and not kept.  A zero-length
    series is permitted only so that aligning date-disjoint series has a
    well-defined result.
    """

    ticker: str
    dates: tuple[dt.date, ...]
    mid: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        mid = _frozen_array(self.mid)
        if len(mid) != len(self.dates):
            raise ValueError(f"length mismatch: {len(self.dates)} dates vs {len(mid)} mids")
        _check_dates(self.dates)
        if not (np.isfinite(mid) & (mid > 0)).all():
            raise ValueError("mid prices must be finite and strictly positive")
        object.__setattr__(self, "mid", mid)

    @property
    def n(self) -> int:
        return len(self.dates)

    def take(self, indices) -> "PriceSeries":
        """Sub-series at the given (increasing) positions."""
        idx = list(indices)
        return PriceSeries(ticker=self.ticker, dates=tuple(self.dates[i] for i in idx), mid=self.mid[idx])


@dataclass(frozen=True)
class ReturnSeries:
    """Dated fractional changes: one ticker's daily returns, or a premium.

    ``daily_returns`` fills values[t] = mid[t+1]/mid[t] - 1 and names the
    ticker; ``premium_series`` fills mid_a/mid_b - 1 on the pair's common
    dates and leaves ``ticker`` as None.
    """

    dates: tuple[dt.date, ...]
    values: np.ndarray
    ticker: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", tuple(self.dates))
        values = _frozen_array(self.values)
        if len(values) != len(self.dates):
            raise ValueError("dates and values must have equal length")
        _check_dates(self.dates)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class SummaryStats:
    """Five-number summary plus mean and premium/discount/parity day counts."""

    min: float
    q1: float
    median: float
    mean: float
    q3: float
    max: float
    count_premium: int
    count_discount: int
    count_parity: int
    n: int

    def __post_init__(self) -> None:
        if not (self.min <= self.q1 <= self.median <= self.q3 <= self.max):
            raise ValueError("summary order statistics out of order")
        if self.count_premium + self.count_discount + self.count_parity != self.n:
            raise ValueError("premium/discount/parity counts must partition n")


def daily_returns(s: PriceSeries) -> ReturnSeries:
    """Fractional day-over-day changes of the mid-price (length n-1)."""
    if s.n < 2:
        raise ValueError(f"need at least 2 observations to compute returns, got {s.n}")
    values = s.mid[1:] / s.mid[:-1] - 1.0
    return ReturnSeries(ticker=s.ticker, dates=s.dates[1:], values=values)


def align_series(*series: PriceSeries) -> tuple[PriceSeries, ...]:
    """Restrict every series to the dates they all share, preserving date order.

    Date-disjoint inputs yield empty series; callers that require data must
    check ``n`` on the results.
    """
    common = set(series[0].dates).intersection(*(s.dates for s in series[1:]))
    if all(s.n == len(common) for s in series):
        return series
    return tuple(s.take([i for i, d in enumerate(s.dates) if d in common]) for s in series)


def premium_series(a: PriceSeries, b: PriceSeries) -> ReturnSeries:
    """Premium of a over b: mid_a/mid_b - 1 on their common dates."""
    a, b = align_series(a, b)
    values = a.mid / b.mid - 1.0 if a.n else np.empty(0)
    return ReturnSeries(dates=a.dates, values=values)


def _interpolated_quantile(sorted_values: list[float], q: float) -> float:
    # Linear interpolation between order statistics at position (n-1)*q.
    n = len(sorted_values)
    h = (n - 1) * q
    lo = math.floor(h)
    g = h - lo
    if g == 0.0 or lo + 1 >= n:
        return sorted_values[lo]
    return sorted_values[lo] + g * (sorted_values[lo + 1] - sorted_values[lo])


def premium_summary(p: ReturnSeries) -> SummaryStats:
    """Summary statistics and premium-day counts of a premium series.

    Quartiles use linear interpolation between order statistics at positions
    (n-1)*q.  Day classification is strict: v > 0 premium, v < 0 discount,
    v = 0 parity.
    """
    if p.n == 0:
        raise ValueError("cannot summarize an empty premium series")
    values = [float(v) for v in p.values]
    xs = sorted(values)
    return SummaryStats(
        min=xs[0],
        q1=_interpolated_quantile(xs, 0.25),
        median=_interpolated_quantile(xs, 0.5),
        mean=math.fsum(xs) / len(xs),
        q3=_interpolated_quantile(xs, 0.75),
        max=xs[-1],
        count_premium=sum(1 for v in values if v > 0),
        count_discount=sum(1 for v in values if v < 0),
        count_parity=sum(1 for v in values if v == 0),
        n=len(values),
    )


@dataclass(frozen=True)
class CsvFormat:
    """Column mapping and parsing policy for OHLC CSV ingestion.

    Either ``high_col``/``low_col`` or a single ``mid_col`` must be present
    in the file.  ``on_invalid`` controls rows with missing or non-numeric
    prices and rows violating high >= low > 0: "fail" raises naming the row,
    "skip" drops the row.
    """

    date_col: str = "date"
    high_col: str = "high"
    low_col: str = "low"
    mid_col: str | None = None
    date_format: str = "%Y-%m-%d"
    delimiter: str = ","
    on_invalid: str = "fail"

    def __post_init__(self) -> None:
        if self.on_invalid not in ("fail", "skip"):
            raise ValueError(f"on_invalid must be 'fail' or 'skip', got {self.on_invalid!r}")


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _parse_date(raw: str, date_format: str) -> dt.date:
    # date.fromisoformat accepts and rejects a dddd-dd-dd field exactly as
    # strptime with "%Y-%m-%d" does, at a fraction of the cost; every other
    # field or format goes through strptime.
    if date_format == "%Y-%m-%d" and _ISO_DATE.fullmatch(raw):
        return dt.date.fromisoformat(raw)
    return dt.datetime.strptime(raw, date_format).date()


def load_ohlc_csv(
    path: str | Path,
    fmt: CsvFormat = CsvFormat(),
    ticker: str | None = None,
) -> PriceSeries:
    """Load one ticker's daily mid prices from a headed CSV file.

    Each row's high/low (or mid column) is checked here and reduced to its
    mid.  Row-level defects follow ``fmt.on_invalid``; structural defects
    (missing columns, unordered dates, nothing loadable) always raise.  Error
    messages reference 1-based file line numbers, header included.
    """
    path = Path(path)
    name = ticker if ticker is not None else path.stem
    dates: list[dt.date] = []
    mids: list[float] = []

    def bad_row(line: int, reason: str) -> bool:
        if fmt.on_invalid == "fail":
            raise ValueError(f"{path}, line {line}: {reason}")
        return False  # skip

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=fmt.delimiter)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file, header row required")
        cols = set(reader.fieldnames)
        if fmt.mid_col is not None:
            needed = {fmt.date_col, fmt.mid_col}
        else:
            needed = {fmt.date_col, fmt.high_col, fmt.low_col}
        missing = needed - cols
        if missing:
            raise ValueError(f"{path}: missing required columns {sorted(missing)}")

        for row in reader:
            line = reader.line_num
            raw_date = (row.get(fmt.date_col) or "").strip()
            try:
                date = _parse_date(raw_date, fmt.date_format)
            except ValueError:
                bad_row(line, f"unparseable date {raw_date!r}")
                continue
            if fmt.mid_col is not None:
                raw = (row.get(fmt.mid_col) or "").strip()
                try:
                    mid = float(raw)
                except ValueError:
                    bad_row(line, f"non-numeric price {raw!r}")
                    continue
                high = low = mid
            else:
                raw_h = (row.get(fmt.high_col) or "").strip()
                raw_l = (row.get(fmt.low_col) or "").strip()
                try:
                    high = float(raw_h)
                    low = float(raw_l)
                except ValueError:
                    bad_row(line, f"non-numeric price (high={raw_h!r}, low={raw_l!r})")
                    continue
                mid = 0.5 * (high + low)
            if not (math.isfinite(high) and math.isfinite(low)) or low <= 0:
                bad_row(line, f"non-positive or non-finite price (high={high}, low={low})")
                continue
            if high < low:
                bad_row(line, f"high {high} < low {low}")
                continue
            if dates and date <= dates[-1]:
                raise ValueError(
                    f"{path}, line {line}: dates must be strictly increasing "
                    f"({dates[-1]} then {date})"
                )
            dates.append(date)
            mids.append(mid)

    if not dates:
        raise ValueError(f"{path}: no valid rows")
    return PriceSeries(ticker=name, dates=tuple(dates), mid=mids)


def summary_to_dict(stats: SummaryStats, percent: bool = False) -> dict:
    """Summary keyed by field name; float fields scaled to percent if asked and rounded to 6 decimals."""
    scale = 100.0 if percent else 1.0
    # the module's annotations are strings, so a field's declared type is "float" or "int"
    return {
        f.name: round(getattr(stats, f.name) * scale, 6) if f.type == "float" else getattr(stats, f.name)
        for f in fields(stats)
    }


def render_summary_csv(stats: SummaryStats, percent: bool = False) -> str:
    """Two-line CSV (header + values); float fields rendered with 6 decimals."""
    d = summary_to_dict(stats, percent=percent)
    cells = [f"{d[f.name]:.6f}" if f.type == "float" else str(d[f.name]) for f in fields(stats)]
    return ",".join(d) + "\n" + ",".join(cells) + "\n"
