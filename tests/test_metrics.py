import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualstock.forecast import RegimeSpec
from dualstock.metrics import (
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


class FakeRun:
    """Minimal run-shaped object for grid assembly tests."""

    def __init__(self, ticker="KRDMA", lag=4, dual=False, regime=MECE, seed=0):
        rng = np.random.default_rng(seed)
        self.ticker = ticker
        self.lag = lag
        self.dual = dual
        self.regime = regime
        n = regime.test_size
        self.actuals = rng.uniform(5, 50, size=n)
        self.predictions = self.actuals + rng.normal(0, 1, size=n)


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


class TestAssembleGrid:
    def all_runs(self, ticker="KRDMA"):
        runs = []
        seed = 0
        for regime in REGIMES:
            for lag in LAGS:
                for dual in DUALS:
                    runs.append(FakeRun(ticker, lag, dual, regime, seed=seed))
                    seed += 1
        return runs

    def test_full_grid(self):
        grid = assemble_grid(self.all_runs(), **AXES)
        assert len(grid.cells) == 20
        assert grid.missing == ()

    def test_single_run_flags_missing(self):
        grid = assemble_grid([FakeRun()], **AXES)
        assert len(grid.missing) == 19
        assert grid.cells[("mece", 4, False)] is not None

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            assemble_grid([FakeRun(seed=1), FakeRun(seed=2)], **AXES)

    def test_outside_declared_set_rejected(self):
        with pytest.raises(ValueError, match="outside the declared grid"):
            assemble_grid([FakeRun(regime=rolling(7))], **AXES)

    def test_multiple_tickers_rejected(self):
        with pytest.raises(ValueError, match="one ticker"):
            assemble_grid([FakeRun("A"), FakeRun("B", lag=9)], **AXES)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no runs"):
            assemble_grid([], **AXES)


class TestRendering:
    def test_table_structure(self):
        grid = assemble_grid([FakeRun()], **AXES)
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
        grid = assemble_grid(
            [FakeRun(regime=rolling(15))], regimes=(rolling(15), rolling(7), MECE), lags=LAGS, duals=DUALS
        )
        assert [row[0] for row in grid_table_rows(grid)[1::3]] == [
            "Training Window = 15", "Training Window = 7", "MECE",
        ]

    def test_values_rendered_four_decimals(self):
        grid = assemble_grid([FakeRun()], **AXES)
        rows = grid_table_rows(grid)
        mece_rmse_row = next(r for r in rows if r[0] == "MECE" and r[1] == "RMSE")
        cell = mece_rmse_row[2]
        assert cell != ""
        assert len(cell.split(".")[1]) == 4

    def test_missing_cells_blank(self):
        grid = assemble_grid([FakeRun()], **AXES)
        rows = grid_table_rows(grid)
        window5 = next(r for r in rows if r[0] == "Training Window = 5")
        assert window5[2:] == ["", "", "", ""]

    def test_json_dict(self):
        grid = assemble_grid([FakeRun()], **AXES)
        d = grid_to_json_dict(grid)
        assert d["ticker"] == "KRDMA"
        assert len(d["cells"]) == 20
        assert len(d["missing"]) == 19
        assert d["cells"]["mece|lag=4|dual=no"] is not None

    def test_long_format(self):
        grid = assemble_grid([FakeRun(), FakeRun(lag=9, seed=30)], **AXES)
        rows = long_format_rows([grid])
        assert rows[0] == ["ticker", "regime", "window", "lag", "dual", "metric", "value"]
        assert len(rows) == 1 + 2 * 3  # two cells x three metrics
        assert {r[1] for r in rows[1:]} == {"mece"}
