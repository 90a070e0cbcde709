import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualstock.forecast import Cell, ForecastRun, RegimeSpec
from dualstock.metrics import (
    LossTable,
    MetricTriple,
    assemble_grid,
    grid_table_rows,
    grid_to_json_dict,
    long_format_rows,
    mae,
    mape,
    rmse,
)

from _oracles import mae_brute, mape_brute, rmse_brute


def rolling(window):
    return RegimeSpec(kind="rolling", test_size=10, window=window)


MECE = RegimeSpec(kind="mece", test_size=10, train_size=50)
# the paper grid's axes, declared to every grid these tests assemble
REGIMES = (rolling(5), rolling(10), rolling(20), rolling(50), MECE)
LAGS = (4, 9)
DUALS = (False, True)
AXES = dict(regimes=REGIMES, lags=LAGS, duals=DUALS)


ORIGINS = np.arange(100, 110)


@functools.cache
def ticker_actuals(ticker):
    """One read-only actuals array per ticker, shared by its runs."""
    actuals = np.random.default_rng(list(ticker.encode())).uniform(5, 50, size=len(ORIGINS))
    actuals.flags.writeable = False
    return actuals


class FakeRun:
    """Minimal run-shaped object for grid assembly tests: its ticker's origins and actuals, its own predictions.

    Unlike a ``ForecastRun`` it may hold a lag its regime cannot run at, so
    it fills every cell of the paper grid's axes.
    """

    def __init__(self, ticker="KRDMA", lag=4, dual=False, regime=MECE, seed=0):
        self.ticker = ticker
        self.cell = Cell(regime, lag, dual)
        self.origins = ORIGINS
        self.actuals = ticker_actuals(ticker)
        self.predictions = self.actuals + np.random.default_rng(seed).normal(0, 1, size=len(ORIGINS))


def grid_of(runs, ticker="KRDMA", **axes):
    return assemble_grid(LossTable(runs), ticker, **(axes or AXES))


class TestHandValues:
    def test_identical_vectors(self):
        x = np.array([3.0, 4.0, 5.0])
        assert rmse(x, x) == 0.0
        assert mae(x, x) == 0.0
        assert mape(x, x) == 0.0

    def test_rmse_hand(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)

    def test_mae_hand(self):
        assert mae([0.0, 0.0], [3.0, 4.0]) == 3.5

    def test_mape_hand(self):
        assert mape([1.0, 2.0], [1.0, 3.0]) == pytest.approx(100.0 * (1.0 / 3.0) / 2.0, abs=1e-12)
        assert mape([1.0, 2.0], [1.0, 3.0]) == pytest.approx(16.6667, abs=1e-3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        p = rng.normal(size=50)
        a = rng.normal(size=50) + 5.0
        perm = rng.permutation(50)
        assert rmse(p, a) == pytest.approx(rmse(p[perm], a[perm]), abs=1e-14)
        assert mae(p, a) == pytest.approx(mae(p[perm], a[perm]), abs=1e-14)
        assert mape(p, a) == pytest.approx(mape(p[perm], a[perm]), abs=1e-12)


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            mae([], [])

    def test_mape_zero_actual_names_index(self):
        with pytest.raises(ValueError, match=r"actual\[2\]"):
            mape([1.0, 1.0, 1.0], [1.0, 2.0, 0.0])


class TestOracles:
    def test_brute_force_large(self):
        rng = np.random.default_rng(3)
        p = rng.normal(10, 3, size=10_000)
        a = rng.normal(10, 3, size=10_000)
        a[np.abs(a) < 1e-3] = 1.0
        assert rmse(p, a) == pytest.approx(rmse_brute(p, a), abs=1e-12)
        assert mae(p, a) == pytest.approx(mae_brute(p, a), abs=1e-12)
        assert mape(p, a) == pytest.approx(mape_brute(p, a), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-100, max_value=100),
                st.floats(min_value=0.5, max_value=100),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_brute_force_property(self, pairs):
        p = [x for x, _ in pairs]
        a = [y for _, y in pairs]
        assert rmse(p, a) == pytest.approx(rmse_brute(p, a), abs=1e-12)
        assert mae(p, a) == pytest.approx(mae_brute(p, a), abs=1e-12)
        assert mape(p, a) == pytest.approx(mape_brute(p, a), abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=40),
        st.floats(min_value=-5, max_value=5),
    )
    def test_mae_le_rmse_and_translation(self, errors, delta):
        actual = np.zeros(len(errors))
        pred = np.array(errors)
        assert mae(pred, actual) <= rmse(pred, actual) + 1e-12
        shifted = pred + delta
        assert abs(mae(shifted, actual) - mae(pred, actual)) <= abs(delta) + 1e-12
        assert mae(shifted, actual) <= rmse(shifted, actual) + 1e-12


class TestMetricTriple:
    def test_of(self):
        t = MetricTriple.of([1.0, 2.0], [1.5, 2.5])
        assert t.rmse == pytest.approx(0.5)
        assert t.mae == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="exceeds"):
            MetricTriple(rmse=1.0, mae=2.0, mape=1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            MetricTriple(rmse=-1.0, mae=0.0, mape=0.0)
        for field in ("rmse", "mae", "mape"):
            with pytest.raises(ValueError, match="nonnegative"):
                MetricTriple(**{"rmse": 1.0, "mae": 1.0, "mape": 1.0, field: float("nan")})


def all_runs(ticker="KRDMA"):
    runs = []
    seed = 0
    for regime in REGIMES:
        for lag in LAGS:
            for dual in DUALS:
                runs.append(FakeRun(ticker, lag, dual, regime, seed=seed))
                seed += 1
    return runs


class TestLossTable:
    def test_columns_are_the_runs_own_arrays(self):
        runs = all_runs() + all_runs("KRDMB")
        table = LossTable(runs)
        assert table.tickers == ("KRDMA", "KRDMB")
        for run in runs:
            assert table.origins[run.ticker] is run.origins
            assert table.actuals[run.ticker] is run.actuals
            assert table.predictions[run.ticker][run.cell] is run.predictions
        assert list(table.predictions["KRDMA"]) == [run.cell for run in all_runs()]

    def test_columns_of_real_runs_are_read_only(self):
        regime = rolling(10)
        runs = [
            ForecastRun("KRDMA", lag, False, regime, 0, ticker_actuals("KRDMA") + lag, ticker_actuals("KRDMA"), ORIGINS)
            for lag in LAGS
        ]
        table = LossTable(runs)
        columns = [table.origins["KRDMA"], table.actuals["KRDMA"], *table.predictions["KRDMA"].values()]
        assert [column.flags.writeable for column in columns] == [False] * 4
        assert [column.tobytes() for column in columns[2:]] == [run.predictions.tobytes() for run in runs]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            LossTable([FakeRun(seed=1), FakeRun("KRDMB"), FakeRun(seed=2)])
        assert str(excinfo.value) == "duplicate run of KRDMA for cell mece|lag=4|dual=no"

    def test_duplicate_at_another_test_size_rejected(self):
        # a cell is one at any test size, so the second run repeats it
        other = RegimeSpec(kind="mece", test_size=20, train_size=50)
        with pytest.raises(ValueError, match=r"^duplicate run of KRDMA for cell mece\|lag=4\|dual=no$"):
            LossTable([FakeRun(), FakeRun(regime=other)])

    @pytest.mark.parametrize("change", ["origins", "actuals"])
    def test_run_off_its_tickers_origin_axis_rejected(self, change):
        off = FakeRun(lag=9)
        if change == "origins":
            off.origins = ORIGINS + 1
        else:
            off.actuals = off.actuals + 7.0
        with pytest.raises(ValueError) as excinfo:
            LossTable([FakeRun(), FakeRun("KRDMB"), off])
        assert str(excinfo.value) == (
            "run of KRDMA for cell mece|lag=9|dual=no has other origins or actuals than its run for cell mece|lag=4|dual=no"
        )

    def test_each_ticker_has_its_own_origin_axis(self):
        other = FakeRun("KRDMB")
        other.origins = ORIGINS + 5
        table = LossTable([FakeRun(), other])
        assert table.origins["KRDMB"] is other.origins

    def test_empty(self):
        assert LossTable([]).tickers == ()


class TestAssembleGrid:
    def test_full_grid(self):
        grid = grid_of(all_runs())
        assert len(grid.cells) == 20
        assert grid.missing == ()

    def test_single_run_flags_missing(self):
        grid = grid_of([FakeRun()])
        assert len(grid.missing) == 19
        assert grid.cells[Cell(MECE, 4, False)] is not None

    def test_grid_reads_its_ticker_only(self):
        grid = grid_of([FakeRun("A"), FakeRun("B", lag=9)], ticker="B")
        assert grid.ticker == "B"
        assert grid.missing == tuple(cell for cell in grid.cells if cell != Cell(MECE, 9, False))

    def test_triples_are_the_columns_metrics(self):
        runs = all_runs()
        grid = grid_of(runs)
        for run in runs:
            assert grid.cells[run.cell] == MetricTriple.of(run.predictions, run.actuals)

    def test_bytes_do_not_depend_on_run_order(self):
        runs = all_runs() + all_runs("KRDMB")
        orders = [runs, runs[::-1], [runs[k] for k in np.random.default_rng(5).permutation(len(runs))]]
        rendered = set()
        for order in orders:
            grids = [grid_of(order, ticker) for ticker in ("KRDMA", "KRDMB")]
            rendered.add(
                json.dumps([grid_to_json_dict(grid) for grid in grids])
                + repr([grid_table_rows(grid) for grid in grids])
                + repr(long_format_rows(grids))
            )
        assert len(rendered) == 1

    def test_outside_declared_set_rejected(self):
        with pytest.raises(ValueError, match="outside the declared grid"):
            grid_of([FakeRun(regime=rolling(7))])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^no runs of KRDMA$"):
            grid_of([])


class TestRendering:
    def test_table_structure(self):
        grid = grid_of([FakeRun()])
        rows = grid_table_rows(grid)
        assert len(rows) == 1 + 5 * 3  # header + 5 regimes x 3 metrics
        assert rows[0] == [
            "regime", "metric",
            "lag4_dual_no", "lag4_dual_yes", "lag9_dual_no", "lag9_dual_yes",
        ]
        assert rows[1][0] == "Training Window = 5"
        assert rows[-1][0] == "MECE"
        assert rows[-1][1] == "MAPE"

    def test_every_window_is_named_by_one_rule(self):
        grid = grid_of([FakeRun(regime=rolling(15))], regimes=(rolling(15), rolling(7), MECE), lags=LAGS, duals=DUALS)
        assert [row[0] for row in grid_table_rows(grid)[1::3]] == [
            "Training Window = 15", "Training Window = 7", "MECE",
        ]

    def test_values_rendered_four_decimals(self):
        grid = grid_of([FakeRun()])
        rows = grid_table_rows(grid)
        mece_rmse_row = next(r for r in rows if r[0] == "MECE" and r[1] == "RMSE")
        cell = mece_rmse_row[2]
        assert cell != ""
        assert len(cell.split(".")[1]) == 4

    def test_missing_cells_blank(self):
        grid = grid_of([FakeRun()])
        rows = grid_table_rows(grid)
        window5 = next(r for r in rows if r[0] == "Training Window = 5")
        assert window5[2:] == ["", "", "", ""]

    def test_json_dict(self):
        grid = grid_of([FakeRun()])
        d = grid_to_json_dict(grid)
        assert d["ticker"] == "KRDMA"
        assert len(d["cells"]) == 20
        assert len(d["missing"]) == 19
        assert d["cells"]["mece|lag=4|dual=no"] is not None

    def test_long_format(self):
        grid = grid_of([FakeRun(), FakeRun(lag=9, seed=30)])
        rows = long_format_rows([grid])
        assert rows[0] == ["ticker", "regime", "window", "lag", "dual", "metric", "value"]
        assert len(rows) == 1 + 2 * 3  # two cells x three metrics
        assert {r[1] for r in rows[1:]} == {"mece"}
