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
import itertools
import math
import operator
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
        return PriceSeries(
            ticker=s.ticker,
            dates=tuple(itertools.compress(s.dates, keep)),
            mid=s.mid[np.array(keep, dtype=bool)],
        )

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
_ISO_DATE_RUN = re.compile(r"(?:[0-9]{4}-[0-9]{2}-[0-9]{2})*")
# Records parsed per column pass.  It bounds the raw strings held at once:
# at 2048 the forecast benchmark's peak RSS rose by 0.9 MB (2%), at 512 it
# did not rise.
_CHUNK_ROWS = 512
_ENCODING = "utf-8-sig"  # utf-8 that drops a leading byte-order mark


def _parse_date(raw: str, date_format: str) -> dt.date:
    # date.fromisoformat accepts and rejects a dddd-dd-dd field exactly as
    # strptime with "%Y-%m-%d" does, at a fraction of the cost; every other
    # field or format goes through strptime.
    if date_format == "%Y-%m-%d" and _ISO_DATE.fullmatch(raw):
        return dt.date.fromisoformat(raw)
    return dt.datetime.strptime(raw, date_format).date()


def _parse_dates(raw: list[str], date_format: str) -> tuple[list, np.ndarray]:
    """A column's dates (None where a field does not parse) and the mask of those fields."""
    # A column whose fields join into a run of dddd-dd-dd blocks parses in
    # one pass.  A field that straddles two blocks is in no format that
    # date.fromisoformat accepts, so it raises and the column goes per value.
    if date_format == "%Y-%m-%d" and _ISO_DATE_RUN.fullmatch("".join(raw)):
        try:
            return list(map(dt.date.fromisoformat, raw)), np.zeros(len(raw), dtype=bool)
        except ValueError:
            pass
    days = []
    for field in raw:
        try:
            days.append(_parse_date(field.strip(), date_format))
        except ValueError:
            days.append(None)
    return days, np.array([d is None for d in days])


def _parse_prices(raw: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """A column's floats (NaN where a field does not parse) and the mask of those fields."""
    try:
        return np.fromiter(map(float, raw), np.float64, len(raw)), np.zeros(len(raw), dtype=bool)
    except ValueError:
        pass
    values = np.full(len(raw), math.nan)
    bad = np.zeros(len(raw), dtype=bool)
    for i, field in enumerate(raw):
        try:
            values[i] = float(field)
        except ValueError:
            bad[i] = True
    return values, bad


def _record_chunks(reader):
    """Lists of up to _CHUNK_ROWS records from ``reader``, blank rows dropped.

    A reader error (a field over ``csv.field_size_limit``) is raised only
    after the records read before it are yielded, so that a defect earlier
    in the file raises first.
    """
    while True:
        chunk: list[list[str]] = []
        try:
            chunk.extend(itertools.islice(reader, _CHUNK_ROWS))
        except csv.Error:
            yield list(filter(None, chunk))
            raise
        if not chunk:
            return
        yield list(filter(None, chunk))


def _record_line(path: Path, fmt: CsvFormat, index: int) -> int:
    """File line on which data record ``index`` (0-based, blank rows not counted) ends."""
    with path.open(newline="", encoding=_ENCODING) as fh:
        reader = csv.reader(fh, delimiter=fmt.delimiter)
        # the header is the first row and not blank, so it is record 0 here
        next(itertools.islice(filter(None, reader), index + 1, None))
        return reader.line_num


def load_ohlc_csv(
    path: str | Path,
    fmt: CsvFormat = CsvFormat(),
    ticker: str | None = None,
) -> PriceSeries:
    """Load one ticker's daily mid prices from a headed CSV file.

    The file is read as UTF-8, with or without a byte-order mark, and blank
    rows are skipped.  Records are parsed a chunk at a time as columns: each
    row's high/low (or mid column) is checked and reduced to its mid, and
    the chunk is converted to numbers before the next is read.  Row-level
    defects follow ``fmt.on_invalid``; structural defects (missing or
    repeated columns, unordered dates, nothing loadable) always raise.  Of
    the defects that raise, the first in file order does, and its message
    names the 1-based file line, header included, on which the record ends.
    """
    path = Path(path)
    name = ticker if ticker is not None else path.stem
    if fmt.mid_col is not None:
        columns = (fmt.date_col, fmt.mid_col)
    else:
        columns = (fmt.date_col, fmt.high_col, fmt.low_col)
    dates: list[dt.date] = []
    mids: list[np.ndarray] = []
    start = 0  # data records before the current chunk

    def fail(index: int, reason: str) -> ValueError:
        return ValueError(f"{path}, line {_record_line(path, fmt, index)}: {reason}")

    with path.open(newline="", encoding=_ENCODING) as fh:
        reader = csv.reader(fh, delimiter=fmt.delimiter)
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

        for rows in _record_chunks(reader):
            if not rows:
                continue
            try:
                raw_dates, *raw_prices = [list(map(operator.itemgetter(i), rows)) for i in positions]
            except IndexError:  # a short row reads its missing fields as empty
                raw_dates, *raw_prices = [[r[i] if i < len(r) else "" for r in rows] for i in positions]
            days, bad_date = _parse_dates(raw_dates, fmt.date_format)
            prices = [_parse_prices(raw) for raw in raw_prices]
            (high, bad_high), (low, bad_low) = prices[0], prices[-1]
            kept = (
                ~(bad_date | bad_high | bad_low)
                & np.isfinite(high)
                & np.isfinite(low)
                & (low > 0)
                & (high >= low)
            )
            kept_days = list(itertools.compress(days, kept))
            ordinals = np.fromiter(map(dt.date.toordinal, kept_days), np.int64, len(kept_days))
            previous = dates[-1].toordinal() if dates else 0
            unordered = np.flatnonzero(np.diff(ordinals, prepend=previous) <= 0)
            first_unordered = int(np.flatnonzero(kept)[unordered[0]]) if len(unordered) else len(rows)
            first_fault = len(rows) if fmt.on_invalid == "skip" or kept.all() else int(np.argmax(~kept))

            if first_fault < first_unordered:
                # the row's first failing check, in the order the mask lists them
                i = first_fault
                high_i, low_i = float(high[i]), float(low[i])
                if bad_date[i]:
                    reason = f"unparseable date {raw_dates[i].strip()!r}"
                elif bad_high[i] or bad_low[i]:
                    raw = [column[i].strip() for column in raw_prices]
                    if fmt.mid_col is not None:
                        reason = f"non-numeric price {raw[0]!r}"
                    else:
                        reason = f"non-numeric price (high={raw[0]!r}, low={raw[1]!r})"
                elif not (math.isfinite(high_i) and math.isfinite(low_i)) or low_i <= 0:
                    reason = f"non-positive or non-finite price (high={high_i}, low={low_i})"
                else:
                    reason = f"high {high_i} < low {low_i}"
                raise fail(start + i, reason)
            if first_unordered < len(rows):
                j = unordered[0]
                before = kept_days[j - 1] if j else dates[-1]
                raise fail(
                    start + first_unordered,
                    f"dates must be strictly increasing ({before} then {kept_days[j]})",
                )
            dates += kept_days
            mids.append(0.5 * (high[kept] + low[kept]) if fmt.mid_col is None else high[kept])
            start += len(rows)

    if not dates:
        raise ValueError(f"{path}: no valid rows")
    return PriceSeries(ticker=name, dates=tuple(dates), mid=np.concatenate(mids))


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
