import importlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from dualstock.significance import (
    AR1Params,
    MonteCarloSpec,
    fit_ar1,
    significance,
)
from dualstock.wavelet import ScaleGrid, cwt, phase_field

from _oracles import ar1_series, ar1_surrogate, coherence, rho2_full, same_bytes

# the package rebinds ``dualstock.significance`` to the function
sig_module = importlib.import_module("dualstock.significance")
wavelet = importlib.import_module("dualstock.wavelet")


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
        a = sig_module._surrogate_block(params, params, 200, 9, range(3))
        b = sig_module._surrogate_block(params, params, 200, 9, range(3))
        assert np.array_equal(a, b)

    def test_moments(self):
        params = AR1Params(phi=0.5, sigma=1.0, mean=-2.0)
        x = sig_module._surrogate_block(params, params, 50_000, 10, range(1))[0]
        assert x.mean() == pytest.approx(-2.0, abs=0.05)
        # stationary variance sigma^2 / (1 - phi^2)
        assert x.var() == pytest.approx(1.0 / 0.75, rel=0.05)
        assert fit_ar1(x).phi == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize(
        "phi, sigma, message",
        [(1.0, 1.0, r"\|phi\| must be < 1 for stationarity, got 1.0"), (0.5, -1.0, "sigma must be nonnegative")],
    )
    def test_params_validation(self, phi, sigma, message):
        with pytest.raises(ValueError, match=message):
            AR1Params(phi=phi, sigma=sigma, mean=0.0)

    @pytest.mark.parametrize("phi, sigma, mean", [(-0.35, 0.7, 4.25), (0.93, 0.011, -3.0), (0.2, 13.0, 0.1)])
    def test_matches_scalar_recursion(self, phi, sigma, mean):
        # the vectorised recursion on one lane is the scalar loop, bit for bit
        params = AR1Params(phi=phi, sigma=sigma, mean=mean)
        lane = [np.array([v]) for v in (phi, sigma, mean)]
        for seed in range(12):
            z = np.random.Generator(np.random.PCG64(seed)).standard_normal(60)
            got = sig_module._ar1_paths(*lane, z[:, None])[:, 0]
            want = ar1_surrogate(params, 60, np.random.Generator(np.random.PCG64(seed)))
            assert np.array_equal(got, want)

    def test_block_draw_bit_equal_to_per_iteration_draws(self):
        params_a = AR1Params(phi=0.6, sigma=1.3, mean=-0.2)
        params_b = AR1Params(phi=0.1, sigma=0.02, mean=5.0)
        seed, n = 77, 300
        block = sig_module._surrogate_block(params_a, params_b, n, seed, range(5, 12))
        assert block.shape == (14, n)
        for k, i in enumerate(range(5, 12)):
            rng = sig_module._iteration_rng(seed, i)
            assert np.array_equal(block[2 * k], ar1_surrogate(params_a, n, rng))
            assert np.array_equal(block[2 * k + 1], ar1_surrogate(params_b, n, rng))


class TestMonteCarloSpec:
    def test_defaults(self):
        mc = MonteCarloSpec(seed=7)
        assert mc.iterations == 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        base = {"seed": 1}
        base.update(kwargs)
        with pytest.raises(ValueError):
            MonteCarloSpec(**base)

    @pytest.mark.parametrize("key, value", [("iterations", 2.5), ("iterations", True), ("seed", 1.0), ("seed", False)])
    def test_count_must_be_an_integer(self, key, value):
        # a float or a bool is not an iteration count or a seed
        with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {value!r}")):
            MonteCarloSpec(**{"seed": 1, key: value})


class TestSignificance:
    def test_identical_series_all_significant_inside_coi(self):
        rng = np.random.default_rng(110)
        x = ar1_series(0.4, 256, rng)
        grid = ScaleGrid.for_length(256)
        mc = MonteCarloSpec(seed=3, iterations=200)
        mask = significance(x, x, grid, mc=mc).significant
        f = coherence(x, x, grid)
        inside = f.inside_coi()
        assert mask[inside].all()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(111)
        a = ar1_series(0.5, 200, rng)
        b = ar1_series(0.5, 200, rng)
        grid = ScaleGrid.for_length(200)
        mc = MonteCarloSpec(seed=42, iterations=50)
        m1 = significance(a, b, grid, mc=mc).significant
        m2 = significance(a, b, grid, mc=mc).significant
        assert np.array_equal(m1, m2)

    def test_seed_changes_mask(self):
        rng = np.random.default_rng(112)
        a = ar1_series(0.5, 200, rng)
        b = ar1_series(0.5, 200, rng)
        grid = ScaleGrid.for_length(200)
        m1 = significance(a, b, grid, mc=MonteCarloSpec(seed=1, iterations=50)).significant
        m2 = significance(a, b, grid, mc=MonteCarloSpec(seed=2, iterations=50)).significant
        assert not np.array_equal(m1, m2)

    def test_length_mismatch(self):
        grid = ScaleGrid.for_length(128)
        with pytest.raises(ValueError, match="equal length"):
            significance(np.zeros(128), np.zeros(64), grid, mc=MonteCarloSpec(seed=0))

    def test_propagates_degenerate_variance(self):
        grid = ScaleGrid.for_length(128)
        with pytest.raises(ValueError, match="zero variance"):
            significance(np.ones(128), np.ones(128), grid, mc=MonteCarloSpec(seed=0))

    # 5% of m iterations: at most floor(0.05 * m) surrogates may reach a significant cell
    @pytest.mark.parametrize("iterations, allowed", [(40, 2), (19, 0)])
    def test_returns_observed_field_with_counts(self, iterations, allowed):
        rng = np.random.default_rng(113)
        a = ar1_series(0.5, 160, rng)
        b = 0.5 * a + ar1_series(0.5, 160, rng)
        grid = ScaleGrid.for_length(160)
        mc = MonteCarloSpec(seed=9, iterations=iterations)
        field = significance(a, b, grid, mc=mc)
        rho2, cross = rho2_full(cwt(a, grid), cwt(b, grid), grid)
        assert np.array_equal(field.rho2, rho2)
        assert np.array_equal(field.phase, phase_field(cross))
        assert field.exceedances.shape == field.rho2.shape
        assert field.exceedances.min() >= 0 and field.exceedances.max() <= iterations
        assert np.array_equal(field.significant, field.exceedances <= allowed)

    def test_mask_and_counts_typed_and_read_only(self):
        rng = np.random.default_rng(116)
        a = ar1_series(0.5, 128, rng)
        b = ar1_series(0.3, 128, rng)
        field = significance(a, b, ScaleGrid.for_length(128), mc=MonteCarloSpec(seed=4, iterations=10))
        assert field.significant.dtype == bool
        assert field.exceedances.dtype == np.int64
        for array in (field.significant, field.exceedances):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1

    # budget 1 gives the producer one-row batches
    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("n", [64, 128, 140, 800])
    def test_counts_match_per_iteration_reference(self, n, budget, monkeypatch):
        # one ar1_surrogate pair and one full-array coherence field per
        # iteration, compared byte for byte
        rng = np.random.default_rng(114)
        a = ar1_series(0.4, n, rng)
        b = ar1_series(0.7, n, rng)
        grid = ScaleGrid.for_length(n)
        mc = MonteCarloSpec(seed=21, iterations=12)
        observed, cross = rho2_full(cwt(a, grid), cwt(b, grid), grid)
        params_a, params_b = fit_ar1(a), fit_ar1(b)
        counts = np.zeros(observed.shape, dtype=np.int64)
        for i in range(mc.iterations):
            it_rng = sig_module._iteration_rng(mc.seed, i)
            sur_a = ar1_surrogate(params_a, n, it_rng)
            sur_b = ar1_surrogate(params_b, n, it_rng)
            counts += rho2_full(cwt(sur_a, grid), cwt(sur_b, grid), grid)[0] >= observed
        threshold = math.floor(0.05 * mc.iterations + 1e-9)
        if budget is not None:
            monkeypatch.setattr(wavelet, "ROW_BLOCK_BYTES", budget)
        field = significance(a, b, grid, mc=mc)
        assert same_bytes(field.rho2, observed)
        assert same_bytes(field.phase, phase_field(cross))
        assert same_bytes(field.exceedances, counts)
        assert same_bytes(field.significant, counts <= threshold)

    def test_peak_memory_within_three_fields(self):
        # no (num_scales, n) array per surrogate: the result's rho2, phase and
        # counts take 1.5 complex fields, the row-band producer's batches and
        # band the rest (numpy reports its buffers to tracemalloc)
        rng = np.random.default_rng(117)
        n = 2000
        a = ar1_series(0.5, n, rng)
        b = ar1_series(0.3, n, rng)
        grid = ScaleGrid.for_length(n)
        mc = MonteCarloSpec(seed=6, iterations=2)
        significance(a, b, grid, mc=mc)  # builds the cached kernel tables
        tracemalloc.start()
        try:
            significance(a, b, grid, mc=mc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * grid.num_scales * n * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_independent_of_block_size(self, block, monkeypatch):
        rng = np.random.default_rng(115)
        a = ar1_series(0.5, 140, rng)
        b = ar1_series(0.2, 140, rng)
        grid = ScaleGrid.for_length(140)
        mc = MonteCarloSpec(seed=5, iterations=70)
        monkeypatch.setattr(sig_module, "BLOCK_ITERATIONS", mc.iterations)
        reference = significance(a, b, grid, mc=mc)
        monkeypatch.setattr(sig_module, "BLOCK_ITERATIONS", block)
        field = significance(a, b, grid, mc=mc)
        assert np.array_equal(field.significant, reference.significant)
        assert np.array_equal(field.exceedances, reference.exceedances)
