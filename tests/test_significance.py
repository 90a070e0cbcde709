import numpy as np
import pytest

from dualstock.significance import (
    AR1Params,
    MonteCarloSpec,
    ar1_surrogate,
    fit_ar1,
    significance,
)
from dualstock.wavelet import ScaleGrid, coherence, cwt

from _oracles import ar1_series


class TestFitAr1:
    def test_white_noise(self):
        rng = np.random.default_rng(101)
        x = rng.standard_normal(10_000)
        params = fit_ar1(x)
        assert abs(params.phi) < 0.03
        assert params.sigma == pytest.approx(1.0, abs=0.05)

    def test_recovers_phi(self):
        rng = np.random.default_rng(102)
        x = ar1_series(0.7, 10_000, rng)
        params = fit_ar1(x)
        assert params.phi == pytest.approx(0.7, abs=0.03)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError, match="zero variance"):
            fit_ar1(np.full(100, 2.5))

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="length >= 3"):
            fit_ar1([1.0, 2.0])

    def test_mean_recorded(self):
        rng = np.random.default_rng(103)
        x = ar1_series(0.3, 5000, rng) + 12.0
        assert fit_ar1(x).mean == pytest.approx(12.0, abs=0.2)


class TestSurrogates:
    def test_deterministic_given_seed(self):
        params = AR1Params(phi=0.6, sigma=1.0, mean=3.0)
        a = ar1_surrogate(params, 200, np.random.Generator(np.random.PCG64(9)))
        b = ar1_surrogate(params, 200, np.random.Generator(np.random.PCG64(9)))
        assert np.array_equal(a, b)

    def test_moments(self):
        params = AR1Params(phi=0.5, sigma=1.0, mean=-2.0)
        rng = np.random.Generator(np.random.PCG64(10))
        x = ar1_surrogate(params, 50_000, rng)
        assert x.mean() == pytest.approx(-2.0, abs=0.05)
        # stationary variance sigma^2 / (1 - phi^2)
        assert x.var() == pytest.approx(1.0 / 0.75, rel=0.05)
        assert fit_ar1(x).phi == pytest.approx(0.5, abs=0.02)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="phi"):
            AR1Params(phi=1.0, sigma=1.0, mean=0.0)


class TestMonteCarloSpec:
    def test_defaults(self):
        mc = MonteCarloSpec(seed=7)
        assert mc.iterations == 1000
        assert mc.significance_level == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"significance_level": 0.0},
            {"significance_level": 1.0},
            {"significance_level": 1.5},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        base = {"seed": 1}
        base.update(kwargs)
        with pytest.raises(ValueError):
            MonteCarloSpec(**base)


class TestSignificance:
    def test_identical_series_all_significant_inside_coi(self):
        rng = np.random.default_rng(110)
        x = ar1_series(0.4, 256, rng)
        grid = ScaleGrid.for_length(256)
        mc = MonteCarloSpec(seed=3, iterations=200)
        mask = significance(x, x, grid, mc=mc)
        f = coherence(cwt(x, grid), cwt(x, grid))
        inside = f.inside_coi()
        assert mask[inside].all()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(111)
        a = ar1_series(0.5, 200, rng)
        b = ar1_series(0.5, 200, rng)
        grid = ScaleGrid.for_length(200)
        mc = MonteCarloSpec(seed=42, iterations=50)
        m1 = significance(a, b, grid, mc=mc)
        m2 = significance(a, b, grid, mc=mc)
        assert np.array_equal(m1, m2)

    def test_seed_changes_mask(self):
        rng = np.random.default_rng(112)
        a = ar1_series(0.5, 200, rng)
        b = ar1_series(0.5, 200, rng)
        grid = ScaleGrid.for_length(200)
        m1 = significance(a, b, grid, mc=MonteCarloSpec(seed=1, iterations=50))
        m2 = significance(a, b, grid, mc=MonteCarloSpec(seed=2, iterations=50))
        assert not np.array_equal(m1, m2)

    def test_length_mismatch(self):
        grid = ScaleGrid.for_length(128)
        with pytest.raises(ValueError, match="equal length"):
            significance(np.zeros(128), np.zeros(64), grid, mc=MonteCarloSpec(seed=0))

    def test_propagates_degenerate_variance(self):
        grid = ScaleGrid.for_length(128)
        with pytest.raises(ValueError, match="zero variance"):
            significance(np.ones(128), np.ones(128), grid, mc=MonteCarloSpec(seed=0))
