"""Daily mid-price series, returns, and dual-class premium statistics.

The loader forms each row's mid price 0.5 * (high + low), or reads a mid
column as it is, and the mid is the only price a series stores: every
analysis reads one price per day.  Prices are strictly positive, dates
strictly increasing.  Premiums are dimensionless fractions (0.5 means
+50%), stored and written as such.  Pairwise analysis is defined on the
date intersection of the two inputs -- there is no calendar imputation.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import math
from array import array
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


@dataclass(frozen=True)
class ReturnSeries:
    """Dated fractional changes: one ticker's daily returns, or a premium.

    ``daily_returns`` fills values[t] = mid[t+1]/mid[t] - 1;
    ``premium_series`` fills mid_a/mid_b - 1 on the pair's common dates.
    """

    dates: tuple[dt.date, ...]
    values: np.ndarray

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
    return ReturnSeries(dates=s.dates[1:], values=values)


def align_series(*series: PriceSeries) -> tuple[PriceSeries, ...]:
    """Restrict every series to the dates they all share, preserving date order.

    Each series keeps the days in the intersection of all the date sets,
    picked by a membership mask; a series with no day outside it is
    returned as it is.  Date-disjoint inputs yield empty series; callers
    that require data must check ``n`` on the results.
    """
    common = set(series[0].dates).intersection(*(s.dates for s in series[1:]))

    def restrict(s: PriceSeries) -> PriceSeries:
        if s.n == len(common):
            return s
        keep = list(map(common.__contains__, s.dates))
        return PriceSeries(dates=tuple(itertools.compress(s.dates, keep)), mid=s.mid[np.array(keep, dtype=bool)])

    return tuple(map(restrict, series))


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
    in the file; each column the format reads (``columns``) fills one role,
    so no two of its keys may name the same column.  ``delimiter`` is one
    character other than csv's quote and line breaks.  ``on_invalid`` controls
    rows with missing or non-numeric prices and rows violating
    high >= low > 0: "fail" raises naming the row, "skip" drops the row.
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
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")
        if self.delimiter in '"\r\n':
            raise ValueError(f"delimiter {self.delimiter!r} is csv's quote or line break")
        keys = self._column_keys()
        names = self.columns
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"{keys[names.index(name)]} and {keys[i]} both name column {name!r}")

    def _column_keys(self) -> tuple[str, ...]:
        return ("date_col", "mid_col") if self.mid_col is not None else ("date_col", "high_col", "low_col")

    @property
    def columns(self) -> tuple[str, ...]:
        """The columns read, in the order date, high, low; or date, mid when ``mid_col`` is set."""
        return tuple(getattr(self, key) for key in self._column_keys())


_ENCODING = "utf-8-sig"  # utf-8 that drops a leading byte-order mark


def load_ohlc_csv(path: str | Path, fmt: CsvFormat = CsvFormat()) -> PriceSeries:
    """Load one ticker's daily mid prices from a headed CSV file.

    The file is read once, as UTF-8 with or without a byte-order mark, and
    its records are checked one at a time in file order: blank rows are
    skipped, a short row reads its missing fields as empty, and each row's
    high/low (or mid column) is checked and reduced to its mid.  Under the
    ISO format a ``dddd-dd-dd`` date field is read by ``date.fromisoformat``;
    ``strptime`` with ``fmt.date_format`` decides every date that reader does
    not take, after stripping it (so years in full-width or Arabic-Indic
    digits still load).  Row-level defects follow ``fmt.on_invalid``;
    structural defects (missing or repeated columns, a record that ``csv``
    cannot read, such as one with a field over ``csv.field_size_limit``,
    unordered dates, nothing loadable) always raise.  Of the defects that
    raise, the first in file order does, and its message names the 1-based
    file line, header included, on which the record ends.
    """
    path = Path(path)
    columns = fmt.columns
    iso = fmt.date_format == "%Y-%m-%d"
    dates: list[dt.date] = []
    highs, lows = array("d"), array("d")

    with path.open(newline="", encoding=_ENCODING) as fh:
        reader = csv.reader(fh, delimiter=fmt.delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file, header row required")
            missing = set(columns) - set(header)
            if missing:
                raise ValueError(f"{path}: missing required columns {sorted(missing)}")
            for col in columns:
                if header.count(col) > 1:
                    raise ValueError(f"{path}: column {col!r} appears more than once in the header")
            positions = [header.index(col) for col in columns]
            i_date, i_high, i_low = positions[0], positions[1], positions[-1]
            width = max(positions) + 1

            for raw in reader:
                if not raw:
                    continue
                if len(raw) < width:
                    raw += [""] * (width - len(raw))
                raw_date = raw[i_date]
                try:
                    # date.fromisoformat reads a dddd-dd-dd field, unstripped, and
                    # reads none that strptime would not; strptime decides the rest
                    day = None
                    if iso and len(raw_date) == 10 and raw_date[4] == raw_date[7] == "-":
                        try:
                            day = dt.date.fromisoformat(raw_date)
                        except ValueError:
                            pass
                    if day is None:
                        raw_date = raw_date.strip()
                        try:
                            day = dt.datetime.strptime(raw_date, fmt.date_format).date()
                        except ValueError:
                            raise ValueError(f"unparseable date {raw_date!r}") from None
                    # float() skips the whitespace that the messages strip
                    try:
                        high, low = float(raw[i_high]), float(raw[i_low])
                    except ValueError:
                        if fmt.mid_col is not None:
                            raise ValueError(f"non-numeric price {raw[i_high].strip()!r}") from None
                        raise ValueError(
                            f"non-numeric price (high={raw[i_high].strip()!r}, low={raw[i_low].strip()!r})"
                        ) from None
                    if not 0.0 < low <= high < math.inf:
                        if not (math.isfinite(high) and math.isfinite(low)) or low <= 0:
                            raise ValueError(f"non-positive or non-finite price (high={high}, low={low})")
                        raise ValueError(f"high {high} < low {low}")
                except ValueError as exc:
                    if fmt.on_invalid == "skip":
                        continue
                    raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
                if dates and day <= dates[-1]:
                    raise ValueError(
                        f"{path}, line {reader.line_num}: dates must be strictly increasing ({dates[-1]} then {day})"
                    )
                dates.append(day)
                highs.append(high)
                lows.append(low)
        except csv.Error as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None

    if not dates:
        raise ValueError(f"{path}: no valid rows")
    high = np.frombuffer(highs)
    mid = high if fmt.mid_col is not None else 0.5 * (high + np.frombuffer(lows))
    return PriceSeries(dates=dates, mid=mid)


def summary_to_dict(stats: SummaryStats) -> dict:
    """Summary keyed by field name; float fields rounded to 6 decimals."""
    # the module's annotations are strings, so a field's declared type is "float" or "int"
    return {
        f.name: round(float(getattr(stats, f.name)), 6) if f.type == "float" else getattr(stats, f.name)
        for f in fields(stats)
    }


def render_summary_csv(stats: SummaryStats) -> str:
    """Two-line CSV (header + values); float fields rendered with 6 decimals."""
    d = summary_to_dict(stats)
    cells = [f"{d[f.name]:.6f}" if f.type == "float" else str(d[f.name]) for f in fields(stats)]
    return ",".join(d) + "\n" + ",".join(cells) + "\n"
