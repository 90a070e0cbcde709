import dataclasses
import datetime as dt
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualstock.timeseries import (
    CsvFormat,
    PriceSeries,
    ReturnSeries,
    SummaryStats,
    align_series,
    daily_returns,
    load_ohlc_csv,
    premium_series,
    premium_summary,
    render_summary_csv,
    summary_to_dict,
)

from _oracles import load_ohlc_csv_per_row, sorted_quantile


def make_series(mids, start=dt.date(2020, 1, 1)):
    dates = tuple(start + dt.timedelta(days=i) for i in range(len(mids)))
    mids = np.asarray(mids, dtype=float)
    return PriceSeries(dates=dates, mid=mids)


def load_one_row(tmp_path, high, low):
    path = tmp_path / "prices.csv"
    path.write_text(f"date,high,low\n2020-01-01,{high!r},{low!r}\n", encoding="utf-8")
    return load_ohlc_csv(path)


class TestMidPrice:
    # the loader forms each row's mid price; a series stores nothing else

    def test_arithmetic_mean(self, tmp_path):
        assert load_one_row(tmp_path, 10.0, 8.0).mid[0] == 9.0

    def test_identity(self, tmp_path):
        assert load_one_row(tmp_path, 5.0, 5.0).mid[0] == 5.0

    def test_hand_value(self, tmp_path):
        mid = load_one_row(tmp_path, 2.34, 2.10).mid[0]
        assert mid == 0.5 * (2.34 + 2.10)
        assert mid == pytest.approx(2.22, abs=1e-12)

    @pytest.mark.parametrize("high,low", [(1.0, 0.0), (1.0, -2.0), (2.0, 3.0)])
    def test_domain_errors(self, tmp_path, high, low):
        with pytest.raises(ValueError, match="line 2"):
            load_one_row(tmp_path, high, low)


class TestPriceSeries:
    def test_fields_are_dates_mid(self):
        s = PriceSeries((dt.date(2020, 1, 1), dt.date(2020, 1, 2)), [9.0, 10.5])
        assert [f.name for f in dataclasses.fields(s)] == ["dates", "mid"]
        assert np.array_equal(s.mid, [9.0, 10.5])

    def test_rejects_unsorted_dates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PriceSeries(dates=(dt.date(2020, 1, 2), dt.date(2020, 1, 1)), mid=[1.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            PriceSeries(dates=(dt.date(2020, 1, 1),), mid=[1.0, 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            make_series([0.0])

    @pytest.mark.parametrize("mid", [float("nan"), float("inf")])
    def test_rejects_nonfinite(self, mid):
        with pytest.raises(ValueError, match="finite"):
            make_series([1.0, mid])

    def test_arrays_immutable(self):
        s = make_series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.mid[0] = 5.0


class TestDailyReturns:
    def test_constant(self):
        r = daily_returns(make_series([1, 1, 1]))
        assert np.array_equal(r.values, [0.0, 0.0])

    def test_doubling(self):
        r = daily_returns(make_series([1, 2]))
        assert np.array_equal(r.values, [1.0])

    def test_hand_values(self):
        r = daily_returns(make_series([4, 5, 4]))
        assert r.values == pytest.approx([0.25, -0.2])

    def test_length_error(self):
        with pytest.raises(ValueError):
            daily_returns(make_series([1.0]))

    def test_dates_shift(self):
        s = make_series([1, 2, 3])
        r = daily_returns(s)
        assert r.dates == s.dates[1:]

    def test_cumulative_reconstruction(self):
        rng = np.random.default_rng(5)
        mids = np.exp(np.cumsum(rng.normal(0, 0.02, size=300))) * 20
        s = make_series(mids)
        r = daily_returns(s)
        rebuilt = np.cumprod(1.0 + r.values)
        assert np.abs(rebuilt - s.mid[1:] / s.mid[0]).max() < 1e-10


class TestAlign:
    def test_identity(self):
        a = make_series([1, 2, 3])
        b = make_series([4, 5, 6])
        ra, rb = align_series(a, b)
        assert ra is a and rb is b

    def test_intersection(self):
        d = dt.date(2020, 1, 1)
        a = PriceSeries((d, d + dt.timedelta(1), d + dt.timedelta(2)), [1, 2, 3])
        b = PriceSeries((d + dt.timedelta(1), d + dt.timedelta(2), d + dt.timedelta(3)), [4, 5, 6])
        ra, rb = align_series(a, b)
        assert ra.dates == rb.dates == (d + dt.timedelta(1), d + dt.timedelta(2))
        assert np.array_equal(ra.mid, [2, 3])
        assert np.array_equal(rb.mid, [4, 5])

    def test_disjoint_gives_empty(self):
        a = make_series([1], start=dt.date(2020, 1, 1))
        b = make_series([2], start=dt.date(2021, 1, 1))
        ra, rb = align_series(a, b)
        assert ra.n == 0 and rb.n == 0
        assert ra.mid.dtype == np.float64 and ra.mid.shape == (0,)

    def test_three_way_keeps_dates_all_share(self):
        a = make_series([1, 2, 3, 4])
        b = make_series([5, 6, 7], start=dt.date(2020, 1, 2))
        c = make_series([8, 9, 10, 11], start=dt.date(2019, 12, 31))
        ra, rb, rc = align_series(a, b, c)
        assert ra.dates == rb.dates == rc.dates == (dt.date(2020, 1, 2), dt.date(2020, 1, 3))
        assert np.array_equal(ra.mid, [2, 3])
        assert np.array_equal(rb.mid, [5, 6])
        assert np.array_equal(rc.mid, [10, 11])


class TestPremiumSeries:
    def test_self_premium_zero(self):
        s = make_series([1.5, 2.5, 3.5])
        p = premium_series(s, s)
        assert np.array_equal(p.values, np.zeros(3))

    def test_fifty_percent(self):
        a = make_series([1.5])
        b = make_series([1.0])
        assert premium_series(a, b).values[0] == pytest.approx(0.5)

    def test_stored_as_fraction(self):
        # a premium printed as 361.21% is stored as 3.6121
        b = make_series([2.0])
        a = make_series([2.0 * 4.6121])
        p = premium_series(a, b)
        assert p.values[0] == pytest.approx(3.6121, abs=1e-12)

    def test_antisymmetry_hand(self):
        a = make_series([1.3, 2.7, 0.9])
        b = make_series([1.1, 2.0, 1.4])
        vab = premium_series(a, b).values
        vba = premium_series(b, a).values
        assert np.abs((1 + vab) * (1 + vba) - 1).max() < 1e-12

    # Price range mirrors the domain (sub-200 currency units); ratios much
    # beyond 1e3 push the 1+v cancellation past the 1e-12 budget.
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=200.0),
                st.floats(min_value=0.1, max_value=200.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_antisymmetry_property(self, pairs):
        a = make_series([p[0] for p in pairs])
        b = make_series([p[1] for p in pairs])
        vab = premium_series(a, b).values
        vba = premium_series(b, a).values
        assert np.abs((1 + vab) * (1 + vba) - 1).max() < 1e-12


class TestPremiumSummary:
    def test_singleton(self):
        s = premium_summary(ReturnSeries(dates=(dt.date(2020, 1, 1),), values=[0.1]))
        assert s.min == s.q1 == s.median == s.mean == s.q3 == s.max == 0.1
        assert (s.count_premium, s.count_discount, s.count_parity) == (1, 0, 0)

    def test_hand_values(self):
        dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(4))
        s = premium_summary(ReturnSeries(dates=dates, values=[-0.1, 0.0, 0.1, 0.2]))
        assert s.min == pytest.approx(-0.1)
        assert s.q1 == pytest.approx(-0.025)
        assert s.median == pytest.approx(0.05)
        assert s.mean == pytest.approx(0.05)
        assert s.q3 == pytest.approx(0.125)
        assert s.max == pytest.approx(0.2)
        assert (s.count_premium, s.count_discount, s.count_parity) == (2, 1, 1)

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=25)
        dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(25))
        base = premium_summary(ReturnSeries(dates=dates, values=values))
        perm = premium_summary(ReturnSeries(dates=dates, values=rng.permutation(values)))
        assert base == perm

    def test_empty_error(self):
        with pytest.raises(ValueError, match="empty"):
            premium_summary(ReturnSeries(dates=(), values=[]))

    def test_quartiles_match_sort_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(1, 1000))
            values = rng.normal(size=n)
            dates = tuple(dt.date(2000, 1, 1) + dt.timedelta(days=i) for i in range(n))
            s = premium_summary(ReturnSeries(dates=dates, values=values))
            assert s.q1 == sorted_quantile(values, 0.25)
            assert s.median == sorted_quantile(values, 0.5)
            assert s.q3 == sorted_quantile(values, 0.75)
            assert s.min == values.min() and s.max == values.max()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=60))
    def test_counts_partition(self, values):
        dates = tuple(dt.date(2000, 1, 1) + dt.timedelta(days=i) for i in range(len(values)))
        s = premium_summary(ReturnSeries(dates=dates, values=values))
        assert s.count_premium + s.count_discount + s.count_parity == s.n == len(values)


STATS = dict(min=0.0, q1=1.0, median=2.0, mean=2.0, q3=3.0, max=4.0, count_premium=2, count_discount=1, count_parity=1, n=4)


class TestRecordValidation:
    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(
                lambda: ReturnSeries(dates=(dt.date(2020, 1, 1),), values=[[0.1]]), "expected a 1-D sequence", id="2-D"
            ),
            pytest.param(
                lambda: ReturnSeries(dates=(dt.date(2020, 1, 1),), values=[0.1, 0.2]),
                "dates and values must have equal length",
                id="length",
            ),
            pytest.param(lambda: SummaryStats(**{**STATS, "q1": 5.0}), "summary order statistics out of order", id="order"),
            pytest.param(
                lambda: SummaryStats(**{**STATS, "n": 5}), "premium/discount/parity counts must partition n", id="counts"
            ),
        ],
    )
    def test_rejected(self, build, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


class TestCsvLoading:
    def write(self, tmp_path, text, name="prices.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_happy_path(self, tmp_path):
        path = self.write(
            tmp_path,
            "date,high,low\n2020-01-01,10,8\n2020-01-02,11,9\n2020-01-03,12,10\n",
        )
        s = load_ohlc_csv(path)
        assert s.n == 3
        assert np.array_equal(s.mid, [9.0, 10.0, 11.0])

    def test_high_below_low_fail_names_row(self, tmp_path):
        path = self.write(tmp_path, "date,high,low\n2020-01-01,10,8\n2020-01-02,5,9\n")
        with pytest.raises(ValueError, match="line 3"):
            load_ohlc_csv(path)

    def test_high_below_low_skip_policy(self, tmp_path):
        path = self.write(
            tmp_path, "date,high,low\n2020-01-01,10,8\n2020-01-02,5,9\n2020-01-03,12,10\n"
        )
        s = load_ohlc_csv(path, CsvFormat(on_invalid="skip"))
        assert s.n == 2
        assert s.dates == (dt.date(2020, 1, 1), dt.date(2020, 1, 3))

    def test_non_numeric_fail(self, tmp_path):
        path = self.write(tmp_path, "date,high,low\n2020-01-01,abc,8\n")
        with pytest.raises(ValueError, match="line 2"):
            load_ohlc_csv(path)

    def test_missing_column(self, tmp_path):
        path = self.write(tmp_path, "date,close\n2020-01-01,10\n")
        with pytest.raises(ValueError, match="missing required columns"):
            load_ohlc_csv(path)

    def test_unsorted_dates_always_fail(self, tmp_path):
        path = self.write(
            tmp_path, "date,high,low\n2020-01-02,10,8\n2020-01-01,10,8\n"
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            load_ohlc_csv(path, CsvFormat(on_invalid="skip"))

    def test_mid_column_mode(self, tmp_path):
        path = self.write(tmp_path, "date,price\n2020-01-01,10\n2020-01-02,12\n")
        s = load_ohlc_csv(path, CsvFormat(mid_col="price"))
        assert np.array_equal(s.mid, [10.0, 12.0])

    def test_unpadded_iso_date_accepted(self, tmp_path):
        path = self.write(tmp_path, "date,high,low\n2020-01-04,10,8\n2020-1-5,11,9\n")
        s = load_ohlc_csv(path)
        assert s.dates == (dt.date(2020, 1, 4), dt.date(2020, 1, 5))

    def test_invalid_iso_month_names_line(self, tmp_path):
        path = self.write(tmp_path, "date,high,low\n2020-12-31,10,8\n2020-13-01,11,9\n")
        with pytest.raises(ValueError, match=r"line 3: unparseable date '2020-13-01'"):
            load_ohlc_csv(path)

    def test_invalid_iso_day_skipped_under_skip_policy(self, tmp_path):
        path = self.write(tmp_path, "date,high,low\n2021-02-28,10,8\n2021-02-29,11,9\n2021-03-01,12,10\n")
        s = load_ohlc_csv(path, CsvFormat(on_invalid="skip"))
        assert s.dates == (dt.date(2021, 2, 28), dt.date(2021, 3, 1))

    def test_custom_date_format(self, tmp_path):
        path = self.write(tmp_path, "date,high,low\n01/02/2020,10,8\n")
        s = load_ohlc_csv(path, CsvFormat(date_format="%d/%m/%Y"))
        assert s.dates == (dt.date(2020, 2, 1),)

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "date,high,low\n")
        with pytest.raises(ValueError, match="no valid rows"):
            load_ohlc_csv(path)

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            CsvFormat(on_invalid="ignore")

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"high_col": "low"}, "high_col and low_col both name column 'low'"),
            ({"low_col": "date"}, "date_col and low_col both name column 'date'"),
            ({"mid_col": "date"}, "date_col and mid_col both name column 'date'"),
        ],
        ids=["high-is-low", "low-is-date", "mid-is-date"],
    )
    def test_one_column_in_two_roles_rejected(self, options, message):
        with pytest.raises(ValueError) as err:
            CsvFormat(**options)
        assert str(err.value) == message

    def test_columns_are_the_roles_read(self):
        assert CsvFormat().columns == ("date", "high", "low")
        # with a mid column, high and low are not read, so they may name anything
        assert CsvFormat(mid_col="close", high_col="close").columns == ("date", "close")

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,high,low\n2020-01-01,10,8\n")
        s = load_ohlc_csv(path)
        assert s.dates == (dt.date(2020, 1, 1),)
        assert np.array_equal(s.mid, [9.0])

    @pytest.mark.parametrize("on_invalid", ["fail", "skip"])
    def test_repeated_column_rejected(self, tmp_path, on_invalid):
        path = self.write(tmp_path, "date,high,low,high\n2020-01-01,10,8,99\n")
        with pytest.raises(ValueError) as err:
            load_ohlc_csv(path, CsvFormat(on_invalid=on_invalid))
        assert str(err.value) == f"{path}: column 'high' appears more than once in the header"

    def test_error_reads_the_file_once(self, tmp_path, monkeypatch):
        # the line an error names comes from the one read, not a second pass
        path = self.write(tmp_path, HEADER + "2020-01-01,10,8\n2020-01-02,11,x\n")
        opened = []
        real_open = type(path).open

        def counting_open(self, *args, **kwargs):
            opened.append(self)
            return real_open(self, *args, **kwargs)

        monkeypatch.setattr(type(path), "open", counting_open)
        with pytest.raises(ValueError, match=r", line 3: non-numeric price"):
            load_ohlc_csv(path)
        assert opened == [path]

    @pytest.mark.parametrize(
        "text, line",
        [
            ("date,high,low\n2020-01-01,10,8\n\n\n2020-01-02,11,-9\n", 5),
            ("\n".join(["date,high,low", "2020-01-01,10,8"] + [""] * 3000 + ["2020-01-02,11,x"]), 3003),
            ('date,high,low\n2020-01-01,10,8\n2020-01-02,"11\n\n",x\n', 5),
            # a field over csv.field_size_limit, in a record or the header
            ("date,high,low\n2020-01-01,10,8\n2020-01-02," + "1" * 200_000 + ",9\n2020-01-03,12,10\n", 3),
            ("date,high,low," + "x" * 200_000 + "\n2020-01-01,10,8\n", 1),
        ],
        ids=["after_blank_rows", "after_a_chunk_of_blank_rows", "multi_line_record", "oversized_field", "oversized_header"],
    )
    def test_error_names_physical_line(self, tmp_path, text, line):
        # blank rows count as lines; a record names the line it ends on
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}, line {line}: "):
            load_ohlc_csv(path)


def _paper_length_csv(rows: int = 5640) -> str:
    """High/low CSV of business days from 2000-01-03, formatted as the benchmark's inputs."""
    rng = np.random.default_rng(7)
    days = [d for d in (dt.date(2000, 1, 3) + dt.timedelta(i) for i in range(rows * 2)) if d.weekday() < 5]
    mid = 3.0 + 177.0 / (1.0 + np.exp(-np.cumsum(rng.normal(0.0, 0.02, rows))))
    half = rng.uniform(0.001, 0.02, rows)
    lines = [
        f"{days[i].isoformat()},{mid[i] * (1 + half[i]):.4f},{mid[i] * (1 - half[i]):.4f}"
        for i in range(rows)
    ]
    return "date,high,low\n" + "\n".join(lines) + "\n"


def _with_line(text: str, index: int, line: str) -> str:
    """``text`` with its line ``index`` (0-based, header included) replaced."""
    lines = text.split("\n")
    lines[index] = line
    return "\n".join(lines)


_PAPER = _paper_length_csv()
HEADER = "date,high,low\n"
# (case id, file text, CsvFormat keyword arguments); each runs under both policies
LOADER_CASES = [
    ("plain", HEADER + "2020-01-01,10,8\n2020-01-02,11,9\n", {}),
    ("crlf", "date,high,low\r\n2020-01-01,10,8\r\n2020-01-02,11,9\r\n", {}),
    ("crlf_bad_row", "date,high,low\r\n2020-01-01,10,8\r\n2020-01-02,x,9\r\n", {}),
    ("blank_before_header", "\n\ndate,high,low\n2020-01-01,10,8\n", {}),
    ("blank_between_and_after", HEADER + "2020-01-01,10,8\n\n\r\n2020-01-02,11,9\n\n\n", {}),
    ("blank_then_bad_row", HEADER + "2020-01-01,10,8\n\n\n2020-01-02,11,-9\n", {}),
    ("quoted_delimiter_in_note", 'date,high,low,note\n2020-01-01,10,8,"a,b"\n2020-01-02,11,9,"c"\n', {}),
    ("quoted_delimiter_in_price", HEADER + '2020-01-01,"10,5",8\n2020-01-02,11,9\n', {}),
    ("quoted_newline_in_price", HEADER + '2020-01-01,10,8\n2020-01-02,"11\n",9\n2020-01-03,x,9\n', {}),
    ("quoted_newline_splits_price", HEADER + '2020-01-01,10,8\n2020-01-02,"1\n1",9\n', {}),
    ("quoted_newline_after_date", HEADER + '"2020-01-01\n",10,8\n2020-01-02,11,9\n', {}),
    ("quoted_newline_inside_date", HEADER + '2020-01-01,10,8\n"2020-01\n-02",11,9\n2020-01-03,12,10\n', {}),
    ("short_rows", HEADER + "2020-01-01,10,8\n2020-01-02,11\n2020-01-03\n2020-01-04,12,10\n", {}),
    ("extra_columns", HEADER + "2020-01-01,10,8,99,x\n2020-01-02,11,9,,\n", {}),
    ("whitespace", HEADER + " 2020-01-01 , 10 , 8 \n2020-01-02,\t11\t,9\n", {}),
    ("whitespace_around_bad_price", HEADER + "2020-01-01, abc ,8\n", {}),
    ("nan_price", HEADER + "2020-01-01,10,8\n2020-01-02,nan,9\n2020-01-03,12,10\n", {}),
    ("inf_price", HEADER + "2020-01-01,10,8\n2020-01-02,inf,9\n2020-01-03,12,10\n", {}),
    ("zero_low", HEADER + "2020-01-01,10,8\n2020-01-02,11,0\n2020-01-03,12,10\n", {}),
    ("negative_low", HEADER + "2020-01-01,10,8\n2020-01-02,11,-1\n2020-01-03,12,10\n", {}),
    ("high_below_low", HEADER + "2020-01-01,10,8\n2020-01-02,5,9\n2020-01-03,12,10\n", {}),
    ("unparseable_date", HEADER + "2020-01-01,10,8\nyesterday,11,9\n2020-01-03,12,10\n", {}),
    ("invalid_iso_month", HEADER + "2020-12-31,10,8\n2020-13-01,11,9\n2021-01-01,12,10\n", {}),
    ("unpadded_iso_date", HEADER + "2020-01-04,10,8\n2020-1-5,11,9\n", {}),
    ("non_iso_format", HEADER + "01/02/2020,10,8\n02/02/2020,11,9\n2020-02-03,12,10\n", {"date_format": "%d/%m/%Y"}),
    ("mid_column", "date,price\n2020-01-01,10\n2020-01-02,abc\n2020-01-03,-2\n2020-01-04,12\n", {"mid_col": "price"}),
    ("semicolon", "date;high;low\n2020-01-01;10;8\n2020-01-02;11,5;9\n2020-01-03;12;10\n", {"delimiter": ";"}),
    ("unordered", HEADER + "2020-01-02,10,8\n2020-01-01,10,8\n", {}),
    ("repeated_date", HEADER + "2020-01-02,10,8\n2020-01-02,11,9\n", {}),
    ("unordered_before_bad_row", HEADER + "2020-01-02,10,8\n2020-01-01,10,8\n2020-01-03,x,8\n", {}),
    ("unordered_after_skipped_row", HEADER + "2020-01-02,10,8\n2020-01-03,5,9\n2020-01-01,10,8\n", {}),
    ("skipped_row_hides_disorder", HEADER + "2020-01-01,10,8\n2020-01-05,5,9\n2020-01-02,10,8\n", {}),
    ("header_only", HEADER, {}),
    ("empty_file", "", {}),
    ("blank_only", "\n\n", {}),
    ("no_valid_rows", HEADER + "2020-01-01,x,8\n", {}),
    ("paper_length", _PAPER, {}),
    ("paper_length_fault_in_third_chunk", _with_line(_PAPER, 4500, "2017-03-01,12,-1"), {}),
    ("paper_length_disorder_at_chunk_start", _with_line(_PAPER, 2049, _PAPER.split("\n")[2048]), {}),
    ("blank_chunk", HEADER + "2020-01-01,10,8\n" + "\n" * 3000 + "2020-01-02,11,x\n", {}),
    ("oversized_field_after_bad_row", HEADER + "2020-01-01,x,8\n2020-01-02,11,9\n2020-01-03," + "1" * 200_000 + ",9\n", {}),
    ("bad_row_after_oversized_field", HEADER + "2020-01-01," + "1" * 200_000 + ",9\n2020-01-02,x,8\n", {}),
    ("oversized_field", HEADER + "2020-01-01,10,8\n2020-01-02," + "1" * 200_000 + ",9\n2020-01-03,12,10\n", {}),
    ("oversized_header_field", "date,high,low," + "x" * 200_000 + "\n2020-01-01,10,8\n", {}),
    ("paper_length_blank_rows", _PAPER.replace("\n2001-", "\n\n2001-").replace("2005-06-01,", "2005-06-01,x"), {}),
    # date.fromisoformat accepts both of these dates, and "%Y-%m-%d" rejects them
    ("iso_basic_date", HEADER + "2020-01-01,10,8\n20200102,11,9\n2020-01-03,12,10\n", {}),
    ("iso_week_date", HEADER + "2019-12-29,10,8\n2020-W01-1,11,9\n2020-01-01,12,10\n", {}),
    # dddd-dd-dd-shaped dates that date.fromisoformat rejects and strptime reads
    ("fullwidth_digit_year", HEADER + "2020-01-01,10,8\n\uff12\uff10\uff12\uff10-01-02,11,9\n2020-01-03,12,10\n", {}),
    ("arabic_indic_digit_year", HEADER + "2020-01-02,10,8\n\u0662\u0660\u0662\u0660-01-03,11,9\n2020-01-04,12,10\n", {}),
    (
        "dotted_date_semicolon_padded_prices",
        "date;high;low\n02.01.2020; 10.5 ;8\n03.01.2020;11 ; 9\n 06.01.2020 ;\t12;10\n07.01.2020; x ;9\n",
        {"delimiter": ";", "date_format": "%d.%m.%Y"},
    ),
]


def _outcome(load, path, fmt):
    try:
        s = load(path, fmt)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return s.dates, s.mid.tobytes()


class TestLoaderMatchesPerRowOracle:
    # the csv.reader record loop and the row-at-a-time DictReader loader
    # agree on every file: the series byte for byte, or the exact error

    @pytest.mark.parametrize("on_invalid", ["fail", "skip"])
    @pytest.mark.parametrize("text,options", [c[1:] for c in LOADER_CASES], ids=[c[0] for c in LOADER_CASES])
    def test_same_series_or_error(self, tmp_path, text, options, on_invalid):
        path = tmp_path / "prices.csv"
        path.write_bytes(text.encode("utf-8"))
        fmt = CsvFormat(on_invalid=on_invalid, **options)
        assert _outcome(load_ohlc_csv, path, fmt) == _outcome(load_ohlc_csv_per_row, path, fmt)


class TestSummaryRendering:
    def setup_method(self):
        dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=i) for i in range(4))
        self.stats = premium_summary(ReturnSeries(dates=dates, values=[-0.1, 0.0, 0.1, 0.2]))

    def test_keys_and_rounding(self):
        d = summary_to_dict(self.stats)
        assert list(d) == [
            "min", "q1", "median", "mean", "q3", "max",
            "count_premium", "count_discount", "count_parity", "n",
        ]
        assert d["q1"] == -0.025
        assert d["n"] == 4

    def test_csv_six_decimals(self):
        text = render_summary_csv(self.stats)
        header, row = text.strip().split("\n")
        assert header.startswith("min,q1,")
        assert row.split(",")[1] == "-0.025000"
        assert row.split(",")[-1] == "4"

    def test_hand_built_bytes(self):
        # min=0 is an int, but its field is declared float, so it prints as one
        stats = SummaryStats(
            min=0, q1=0.0123456789, median=0.5, mean=0.4, q3=1.25, max=3.6121,
            count_premium=3, count_discount=0, count_parity=1, n=4,
        )
        assert render_summary_csv(stats) == (
            "min,q1,median,mean,q3,max,count_premium,count_discount,count_parity,n\n"
            "0.000000,0.012346,0.500000,0.400000,1.250000,3.612100,3,0,1,4\n"
        )
        assert json.dumps(summary_to_dict(stats), indent=2, sort_keys=True) + "\n" == (
            '{\n  "count_discount": 0,\n  "count_parity": 1,\n  "count_premium": 3,\n'
            '  "max": 3.6121,\n  "mean": 0.4,\n  "median": 0.5,\n  "min": 0.0,\n'
            '  "n": 4,\n  "q1": 0.012346,\n  "q3": 1.25\n}\n'
        )
