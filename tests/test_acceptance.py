"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Acceptance is property-based plus desk-scale oracle equivalence on
synthetic data; every tolerance is pinned in the assertions below.
"""

import datetime as dt
import hashlib
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from dualstock import cli
from dualstock.cli import main
from dualstock.config import load_config
from dualstock.forecast import RegimeSpec, forecast
from dualstock.lstm import TrainConfig, _param_count, _Views
from dualstock.metrics import mae, mape, rmse
from dualstock.significance import MonteCarloSpec, significance
from dualstock.timeseries import premium_summary
from dualstock.wavelet import ScaleGrid, cwt

from _oracles import (
    ar1_series,
    coherence,
    cwt_direct,
    mae_brute,
    mape_brute,
    rmse_brute,
    sorted_quantile,
)
from test_lstm import gates, numeric_vs_analytic, run_cells


@contextmanager
def criterion(num: int, name: str, fixture_s: float = 0.0):
    """Print the criterion's PASS/FAIL line; the time includes ``fixture_s`` spent in its fixture."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL", flush=True)
        raise
    else:
        elapsed = fixture_s + time.perf_counter() - start
        print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.1f}s)", flush=True)


def test_01_self_coherence():
    with criterion(1, "self-coherence rho2 = 1 within 1e-6"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        grid = ScaleGrid.for_length(512)
        for _ in range(20):
            x = rng.standard_normal(512)
            field = coherence(x, x, grid)
            assert np.abs(field.rho2 - 1.0).max() < 1e-6
        assert time.perf_counter() - start < 30.0


def test_02_cwt_oracle_equivalence():
    with criterion(2, "FFT CWT matches direct double sum within 1e-8"):
        start = time.perf_counter()
        rng = np.random.default_rng(1002)
        x = rng.standard_normal(128)
        grid = ScaleGrid(dj=1 / 12, num_scales=24)
        fft_w = cwt(x, grid)
        direct_w = cwt_direct(x, grid.scales)
        assert np.abs(fft_w - direct_w).max() < 1e-8
        assert time.perf_counter() - start < 10.0


def test_03_shared_band_detection():
    with criterion(3, "shared 32-day band detected and significant"):
        start = time.perf_counter()
        rng = np.random.default_rng(1003)
        n = 1024
        t = np.arange(n)
        shared = np.cos(2 * np.pi * t / 32)
        # SNR 2: signal variance 0.5, noise variance 0.25
        a = shared + 0.5 * rng.standard_normal(n)
        b = shared + 0.5 * rng.standard_normal(n)
        grid = ScaleGrid.for_length(n)
        field = coherence(a, b, grid)
        band = (grid.fourier_periods >= 28) & (grid.fourier_periods <= 36)
        sel = band[:, None] & field.inside_coi()
        assert field.rho2[sel].mean() > 0.9
        mask = significance(a, b, grid, mc=MonteCarloSpec(seed=1003, iterations=1000)).significant
        assert mask[sel].mean() > 0.8
        assert time.perf_counter() - start < 180.0


def test_04_phase_lead_lag():
    with criterion(4, "quarter-cycle shift gives phase pi/2 +- 0.1"):
        n = 1024
        t = np.arange(n)
        grid = ScaleGrid.for_length(n)
        field = coherence(np.cos(2 * np.pi * t / 32), np.sin(2 * np.pi * t / 32), grid)
        band = (grid.fourier_periods >= 28) & (grid.fourier_periods <= 36)
        sel = band[:, None] & field.inside_coi()
        assert np.abs(field.phase[sel] - math.pi / 2).max() < 0.1


def test_05_null_calibration():
    with criterion(5, "independent AR(1) pair: significant fraction in [0.01, 0.12]"):
        rng = np.random.default_rng(2)
        n = 512
        a = ar1_series(0.5, n, rng)
        b = ar1_series(0.5, n, rng)
        grid = ScaleGrid.for_length(n)
        mask = significance(a, b, grid, mc=MonteCarloSpec(seed=2005, iterations=1000)).significant
        field = coherence(a, b, grid)
        fraction = mask[field.inside_coi()].mean()
        assert 0.01 <= fraction <= 0.12


def test_06_lstm_cell_oracle():
    with criterion(6, "LSTM forward hand values 1e-8; gradcheck < 1e-4 on 50 nets"):
        # zero parameters, zero state
        zeros = np.zeros(_param_count(1, 1))
        _, cache = run_cells(zeros, [[0.4]], hidden=1)
        for gate in gates(cache)[:3]:
            assert gate[0] == pytest.approx(0.5, abs=1e-8)
        assert gates(cache)[3][0] == 0.0 and cache.z[1, 0, 0] == 0.0
        # zero parameters, prior cell state 1
        _, cache = run_cells(zeros, [[0.0]], hidden=1, c0=1.0)
        assert cache.c[1, 0, 0] == pytest.approx(0.5, abs=1e-8)
        assert cache.z[1, 0, 0] == pytest.approx(0.5 * math.tanh(0.5), abs=1e-8)
        # saturated gates pass the candidate through
        sat = np.zeros(_param_count(1, 1))
        views = _Views(sat[None], 1, 1)
        views.biases[0, 0] = -20.0
        views.biases[0, 1] = 20.0
        views.weights[0, 3, 1] = 1.0
        for x in (0.25, -0.9):
            _, cache = run_cells(sat, [[x]], hidden=1)
            assert cache.c[1, 0, 0] == pytest.approx(math.tanh(x), abs=1e-8)
        worst = max(numeric_vs_analytic(seed) for seed in range(50))
        assert worst < 1e-4


def test_07_causality_poisoning():
    with criterion(7, "forecasts immune to out-of-window poisoning of own and sibling series"):
        rng = np.random.default_rng(1007)
        n = 80
        prices = np.clip(25 + np.cumsum(rng.normal(0, 0.3, n)), 2, 190)
        siblings = (
            np.clip(20 + np.cumsum(rng.normal(0, 0.3, n)), 2, 190),
            np.clip(30 + np.cumsum(rng.normal(0, 0.3, n)), 2, 190),
        )
        cfg = TrainConfig(epochs=4, hidden_size=3)
        rolling = [RegimeSpec(kind="rolling", window=window, test_size=6) for window in (5, 10)]
        for regime in rolling:
            base = forecast(prices, regime=regime, lag=4, cfg=cfg, seed=7)
            for k, ((start, _end), origin) in enumerate(zip(base.provenance, base.origins)):
                for poison_at in (start - 1, origin + 1):  # before window / after origin
                    if not 0 <= poison_at < n:
                        continue
                    poisoned = prices.copy()
                    poisoned[poison_at] *= 0.6
                    rerun = forecast(poisoned, regime=regime, lag=4, cfg=cfg, seed=7)
                    assert rerun.predictions[k] == base.predictions[k]
        # a dual run reads either sibling only inside its training range and
        # before its origin
        for regime in (*rolling, RegimeSpec(kind="mece", train_size=60, test_size=6)):
            base = forecast(prices, siblings, regime=regime, lag=4, cfg=cfg, seed=7)
            for k, ((start, _end), origin) in enumerate(zip(base.provenance, base.origins)):
                for which in (0, 1):
                    for poison_at in (start - 1, origin):  # before training range / at origin
                        if poison_at < 0:
                            continue
                        poisoned = list(siblings)
                        poisoned[which] = siblings[which].copy()
                        poisoned[which][poison_at] *= 0.6
                        rerun = forecast(prices, poisoned, regime=regime, lag=4, cfg=cfg, seed=7)
                        assert rerun.predictions[k] == base.predictions[k]


def test_08_regime_bookkeeping():
    with criterion(8, "MECE provenance [0, 5282); rolling provenance [t-w, t)"):
        rng = np.random.default_rng(1008)
        n = 5582
        prices = np.clip(20 + np.cumsum(rng.normal(0, 0.15, n)), 2, 190)
        cfg = TrainConfig(epochs=1, hidden_size=2)
        run = forecast(prices, regime=RegimeSpec(kind="mece", train_size=5282, test_size=300), lag=4, cfg=cfg, seed=8)
        assert len(run.provenance) == 300
        assert all(p == (0, 5282) for p in run.provenance)
        assert list(run.origins) == list(range(5282, 5582))
        for window in (5, 10, 20, 50):
            regime = RegimeSpec(kind="rolling", window=window, test_size=300)
            rolling = forecast(prices, regime=regime, lag=4, cfg=cfg, seed=8)
            for origin, (start, end) in zip(rolling.origins, rolling.provenance):
                assert (start, end) == (origin - window, origin)


def test_09_metric_oracles():
    with criterion(9, "rmse/mae/mape match brute force to 1e-12; MAPE percent at 4 decimals"):
        rng = np.random.default_rng(1009)
        for _ in range(20):
            n = int(rng.integers(1, 2000))
            p = rng.normal(20, 5, size=n)
            a = rng.normal(20, 5, size=n)
            a[np.abs(a) < 1e-3] = 2.0
            assert rmse(p, a) == pytest.approx(rmse_brute(p, a), abs=1e-12)
            assert mae(p, a) == pytest.approx(mae_brute(p, a), abs=1e-12)
            assert mape(p, a) == pytest.approx(mape_brute(p, a), rel=1e-12)
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5), abs=1e-12)
        assert mae([0.0, 0.0], [3.0, 4.0]) == 3.5
        assert mape([1.0, 2.0], [1.0, 3.0]) == pytest.approx(50.0 / 3.0, abs=1e-12)
        # percent scale at 4 decimals: 1/3 absolute error on an actual of 3
        rendered = f"{mape([1.0, 2.0], [1.0, 3.0]):.4f}"
        assert rendered == "16.6667"


def write_desk_inputs(root) -> Path:
    """Write the desk-scale 3-ticker input CSVs and run config into ``root``; return the config's path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(1010)
    n = 800
    trend = 25 + np.cumsum(rng.normal(0.005, 0.05, size=n))
    day = dt.date(2020, 1, 1)
    dates = [day + dt.timedelta(days=i) for i in range(n)]
    for k, name in enumerate(("KRA", "KRB", "KRD")):
        mids = np.clip(trend + ar1_series(0.6, n, rng, sigma=0.4) + 3 * k, 2.0, 190.0)
        lines = ["date,high,low"]
        lines += [
            f"{d.isoformat()},{m * 1.03:.6f},{m * 0.97:.6f}" for d, m in zip(dates, mids)
        ]
        (root / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = {
        "tickers": {name: f"{name}.csv" for name in ("KRA", "KRB", "KRD")},
        "seed": 2024,
        "analyses": ["premiums", "coherence", "forecast"],
        "wavelet": {"mc_iterations": 150},
        "forecast": {
            "lags": [4, 9],
            "duals": [False, True],
            "windows": [10, 20],
            "mece_train_size": 500,
            "test_size": 50,
            "epochs": 8,
            "hidden_size": 8,
        },
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return config_path


@pytest.fixture(scope="module")
def desk_scale_run(tmp_path_factory):
    """Criterion 10 fixture: synthetic 3-ticker end-to-end pipeline, run twice."""
    root = tmp_path_factory.mktemp("desk")
    config_path = write_desk_inputs(root)
    start = time.perf_counter()
    rc1 = main(["run", "--config", str(config_path), "--out", str(root / "o1")])
    rc2 = main(["run", "--config", str(config_path), "--out", str(root / "o2")])
    elapsed = time.perf_counter() - start
    return root, rc1, rc2, elapsed


def test_10_desk_scale_end_to_end(desk_scale_run):
    root, rc1, rc2, elapsed = desk_scale_run
    with criterion(10, "desk-scale 3-ticker pipeline: complete, deterministic, oracle-exact", elapsed):
        assert rc1 == 0 and rc2 == 0
        assert elapsed < 600.0  # both executions inside the 10-minute budget
        m1 = json.loads((root / "o1" / "manifest.json").read_text())
        m2 = json.loads((root / "o2" / "manifest.json").read_text())
        assert m1["failures"] == [] and m2["failures"] == []
        assert m1["outputs"] == m2["outputs"]
        for entry in m1["outputs"]:
            written = (root / "o1" / entry["path"]).read_bytes()
            assert written == (root / "o2" / entry["path"]).read_bytes()
            # the manifest's digest is of the bytes on disk
            assert entry["sha256"] == hashlib.sha256(written).hexdigest()
        # premium summary equals the sort-based oracle exactly, on the
        # unrounded premium values recomputed from the input files
        from dualstock.timeseries import align_series, load_ohlc_csv, premium_series

        a = load_ohlc_csv(root / "KRA.csv")
        b = load_ohlc_csv(root / "KRB.csv")
        premium = premium_series(*align_series(a, b))
        values = [float(v) for v in premium.values]
        stats = premium_summary(premium)
        assert stats.q1 == sorted_quantile(values, 0.25)
        assert stats.median == sorted_quantile(values, 0.5)
        assert stats.q3 == sorted_quantile(values, 0.75)
        assert stats.mean == math.fsum(values) / len(values)
        assert stats.min == min(values) and stats.max == max(values)
        assert stats.count_premium == sum(1 for v in values if v > 0)
        assert stats.count_discount == sum(1 for v in values if v < 0)
        emitted = json.loads((root / "o1" / "premiums" / "KRA_over_KRB_summary.json").read_text())
        assert emitted["median"] == round(stats.median, 6)
        assert emitted["q1"] == round(stats.q1, 6)
        assert emitted["q3"] == round(stats.q3, 6)
        assert emitted["n"] == stats.n == len(values)
        assert (
            emitted["count_premium"] + emitted["count_discount"] + emitted["count_parity"]
            == stats.n
        )
        # forecast grid emitted for every ticker
        for name in ("KRA", "KRB", "KRD"):
            assert (root / "o1" / "forecast" / "grids" / f"{name}.csv").exists()


def test_11_report_grid_structure(desk_scale_run):
    with criterion(11, "report on the desk runs writes forecast/grids byte for byte"):
        root, rc1, _, _ = desk_scale_run
        assert rc1 == 0
        runs_dir = root / "o1" / "forecast" / "runs"
        rc = main(["report", "--runs", str(runs_dir), "--out", str(root / "rep")])
        assert rc == 0
        # the runs' own axes: 3 regimes x 3 metrics x 4 columns
        for name in ("KRA", "KRB", "KRD"):
            lines = (root / "rep" / "report" / f"{name}.csv").read_text().strip().split("\n")
            assert lines[0] == (
                "regime,metric,lag4_dual_no,lag4_dual_yes,lag9_dual_no,lag9_dual_yes"
            )
            regime_order = [line.split(",")[0] for line in lines[1:]]
            assert regime_order == (
                ["Training Window = 10"] * 3 + ["Training Window = 20"] * 3 + ["MECE"] * 3
            )
            metric_cycle = [line.split(",")[1] for line in lines[1:]]
            assert metric_cycle == ["RMSE", "MAE", "MAPE"] * 3
        grids = sorted((root / "o1" / "forecast" / "grids").iterdir())
        assert len(grids) == 7
        assert sorted(p.name for p in (root / "rep" / "report").iterdir()) == [p.name for p in grids]
        for path in grids:
            assert (root / "rep" / "report" / path.name).read_bytes() == path.read_bytes()


@pytest.fixture(scope="module")
def desk_units_computed(desk_scale_run, tmp_path_factory):
    """Criteria 12 and 13 fixture: every desk unit computed before any is written.

    The output directory is under one that does not exist.  Within each
    analysis the units compute in reverse order, except the forecast grids,
    which read the runs and so compute last.  Returns the config, each
    analysis's units with their parts, and the paths that computing created
    in the input and working directories.
    """
    root = desk_scale_run[0]
    work = tmp_path_factory.mktemp("compute")
    before = set(root.rglob("*"))
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        config = load_config(root / "config.json", out_dir=work / "absent" / "out")
        series = cli._load_all(config)
        planned = []
        for analysis in config.analyses:
            units = getattr(cli, f"cmd_{analysis}")(config, series)
            independent = units[:-1] if analysis == "forecast" else units
            parts = {id(unit): unit.compute([]) for unit in reversed(independent)}
            if analysis == "forecast":
                runs = [result for unit in independent for _, result in parts[id(unit)]]
                parts[id(units[-1])] = units[-1].compute(runs)
            planned.append([(unit, parts[id(unit)]) for unit in units])
    created = sorted(set(root.rglob("*")) - before) + sorted(work.rglob("*"))
    return config, planned, created


def test_12_units_write_in_canonical_order(desk_scale_run, desk_units_computed):
    with criterion(12, "desk units computed out of order, written in canonical order: the same manifest"):
        root = desk_scale_run[0]
        config, planned, _ = desk_units_computed
        outcome = cli.CommandOutcome(roots=(config.out_dir,))
        for units in planned:
            outcome.execute([cli.Unit(unit.names, lambda written, parts=parts: parts) for unit, parts in units])
        assert outcome.failures == []
        command = "run:" + ",".join(config.analyses)
        manifest = cli._write_manifest(config.out_dir, command, config.seed, outcome)
        assert manifest.read_bytes() == (root / "o1" / "manifest.json").read_bytes()


def test_13_computing_units_writes_nothing(desk_units_computed):
    with criterion(13, "computing every desk unit creates no file or directory"):
        _, planned, created = desk_units_computed
        assert sum(len(units) for units in planned) == 3 + 3 + 13
        assert created == []
