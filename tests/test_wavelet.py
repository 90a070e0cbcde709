import importlib
import math
import re

import numpy as np
import pytest

from dualstock.wavelet import (
    FOURIER_FACTOR,
    ScaleGrid,
    cone_of_influence,
    cwt,
    smooth,
)

from _oracles import cwt_direct, morlet_mother, same_bytes

wavelet = importlib.import_module("dualstock.wavelet")


class TestMorletMother:
    def test_value_at_zero(self):
        psi = morlet_mother(0.0)
        assert psi.real == pytest.approx(math.pi**-0.25, abs=1e-12)
        assert psi.imag == 0.0

    def test_decay(self):
        assert abs(morlet_mother(10.0)) < 1e-20
        assert abs(morlet_mother(-10.0)) < 1e-20

    def test_unit_energy_quadrature(self):
        # trapezoid quadrature of |psi|^2 over [-8, 8]
        t = np.linspace(-8.0, 8.0, 20001)
        psi = morlet_mother(t)
        energy = np.trapezoid(np.abs(psi) ** 2, t)
        assert energy == pytest.approx(1.0, abs=1e-6)


class TestScaleGrid:
    def test_scales_increasing(self):
        grid = ScaleGrid(dj=1 / 12, num_scales=24)
        assert (np.diff(grid.scales) > 0).all()
        assert grid.scales[0] == 2.0

    def test_period_relation(self):
        grid = ScaleGrid(dj=1 / 12, num_scales=10)
        ff = 4 * math.pi / (6 + math.sqrt(2 + 36))
        assert np.allclose(grid.fourier_periods, grid.scales * ff, rtol=0, atol=1e-14)
        assert FOURIER_FACTOR == pytest.approx(1.033, abs=1e-3)

    def test_for_length_covers_band(self):
        grid = ScaleGrid.for_length(512)
        assert grid.fourier_periods[-1] >= 512 / 3
        assert grid.fourier_periods[0] <= 8  # covers the short analysis band

    def test_for_length_caps_at_512_days(self):
        grid = ScaleGrid.for_length(4096)
        assert grid.fourier_periods[-1] >= 512
        assert grid.fourier_periods[-2] < 512 * 2 ** (1 / 12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScaleGrid(dj=0.0, num_scales=4)
        with pytest.raises(ValueError):
            ScaleGrid(dj=1 / 12, num_scales=0)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_for_length_of_a_short_series_is_one_scale(self, n):
        # n / 3 is at most the smallest Fourier period, 2 * FOURIER_FACTOR
        assert ScaleGrid.for_length(n).num_scales == 1
        assert ScaleGrid.for_length(7).num_scales > 1


class TestCwt:
    def test_zero_input_gives_zero(self):
        grid = ScaleGrid(dj=1 / 4, num_scales=8)
        sg = cwt(np.zeros(64), grid)
        assert np.abs(sg).max() == 0.0

    def test_peak_at_forcing_period(self):
        n = 512
        x = np.cos(2 * np.pi * np.arange(n) / 32)
        grid = ScaleGrid.for_length(n)
        sg = cwt(x, grid)
        j_peak = int(np.abs(sg[:, n // 2]).argmax())
        assert grid.fourier_periods[j_peak] == pytest.approx(32, rel=0.05)

    @pytest.mark.parametrize(
        "n, grid",
        [
            (64, ScaleGrid(dj=1 / 6, num_scales=12)),
            (256, ScaleGrid(dj=1 / 6, num_scales=12)),
            # scales 2..27 pad to 128, 256 and 512 points
            (100, ScaleGrid(dj=1 / 4, num_scales=16)),
        ],
        ids=["64", "256", "100-three-pads"],
    )
    def test_matches_direct_summation(self, n, grid):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(n)
        fft_w = cwt(x, grid)
        direct_w = cwt_direct(x, grid.scales)
        assert np.abs(fft_w - direct_w).max() < 1e-8

    def test_rows_grouped_by_own_pad_length(self):
        # each scale pads to the power of two covering n + ceil(8 s) + 1; the
        # grid of the three-pad direct-summation case above spans 128..512
        grid = ScaleGrid(dj=1 / 4, num_scales=16)
        pads = [1 << math.ceil(math.log2(100 + math.ceil(8.0 * s) + 1)) for s in grid.scales]
        groups = wavelet._pad_groups(grid, 100)
        assert [npad for _, _, npad in groups] == [128, 256, 512]
        assert [npad for lo, hi, npad in groups for _ in range(lo, hi)] == pads

    @pytest.mark.parametrize("n", [100, 300, 799])
    def test_daughter_tables_equal_full_alias_sum(self, n):
        # skipping the aliases that underflow on a whole row leaves every
        # pad group's table bit-identical to the literal 7-alias sum
        grid = ScaleGrid.for_length(n)
        for lo, hi, npad in wavelet._pad_groups(grid, n):
            omega = 2.0 * math.pi * np.fft.fftfreq(npad)
            literal = np.empty((hi - lo, npad))
            for j, s in enumerate(grid.scales[lo:hi]):
                arg = s * omega - 6.0
                acc = np.zeros(npad)
                for image in range(-3, 4):
                    acc += np.exp(-0.5 * (arg - image * (2.0 * math.pi * s)) ** 2)
                literal[j] = math.sqrt(2.0 * math.pi * s) * math.pi**-0.25 * acc
            assert np.array_equal(wavelet._daughter_matrix(grid, lo, hi, npad), literal)

    @pytest.mark.parametrize("n", [64, 800, 5581])
    def test_tables_are_the_literal_formulas_bytes(self, n):
        # exp runs only where its argument lies within _UNDERFLOW_ARG (plus one
        # column); every table keeps the bytes of the formula on every column
        grid = ScaleGrid.for_length(n)
        for lo, hi, npad in wavelet._pad_groups(grid, n):
            scales = grid.scales[lo:hi, None]
            omega = 2.0 * math.pi * np.fft.fftfreq(npad)
            arg = scales * omega - 6.0
            acc = np.zeros((hi - lo, npad))
            for image in range(-3, 4):
                acc += np.exp(-0.5 * (arg - image * (2.0 * math.pi * scales)) ** 2)
            daughters = np.sqrt(2.0 * math.pi * scales) * math.pi**-0.25 * acc
            assert same_bytes(wavelet._daughter_matrix(grid, lo, hi, npad), daughters)
            dist = np.arange(npad // 2 + 1, dtype=np.float64)
            kernels = np.exp(-0.5 * (dist[None, :] / scales) ** 2)
            kernels = np.concatenate([kernels, kernels[:, -2:0:-1]], axis=1)
            half = np.fft.rfft(kernels, axis=1).real
            full = np.concatenate([half, half[:, -2:0:-1]], axis=1)
            got_half, got_full = wavelet._gauss_kernel_fft(grid, lo, hi, npad)
            assert same_bytes(got_half, half) and same_bytes(got_full, full)

    def test_input_validation(self):
        grid = ScaleGrid(dj=1 / 4, num_scales=4)
        with pytest.raises(ValueError, match="length >= 4"):
            cwt([1.0, 2.0], grid)
        with pytest.raises(ValueError, match="non-finite"):
            cwt([1.0, np.nan, 2.0, 3.0], grid)


class TestSmoothing:
    def setup_method(self):
        self.grid = ScaleGrid(dj=1 / 6, num_scales=13)  # scales 2..8
        self.n = 256

    def test_constant_preserved_exactly(self):
        grid_vals = np.full((self.grid.num_scales, self.n), 3.7)
        out = smooth(grid_vals, grid=self.grid)
        assert np.abs(out - 3.7).max() < 1e-12

    def test_interior_spike_mass_preserved(self):
        vals = np.zeros((self.grid.num_scales, self.n))
        vals[self.grid.num_scales // 2, self.n // 2] = 1.0
        out = smooth(vals, grid=self.grid)
        assert abs(out.sum() - 1.0) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((self.grid.num_scales, self.n))
        b = rng.standard_normal((self.grid.num_scales, self.n))
        lhs = smooth(2.5 * a - 1.25 * b, grid=self.grid)
        rhs = 2.5 * smooth(a, grid=self.grid) - 1.25 * smooth(b, grid=self.grid)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_real_rows_match_complex_path(self):
        # real rows take rfft/irfft, complex rows fft/ifft against the same kernel
        rng = np.random.default_rng(12)
        vals = rng.standard_normal((self.grid.num_scales, self.n))
        real = smooth(vals, grid=self.grid)
        cplx = smooth(vals + 0j, grid=self.grid)
        assert not np.iscomplexobj(real)
        assert np.abs(real - cplx.real).max() < 1e-13
        assert np.abs(cplx.imag).max() < 1e-13

    def test_requires_grid_for_raw_arrays(self):
        with pytest.raises(TypeError, match="grid"):
            smooth(np.zeros((4, 8)))


class TestConeOfInfluence:
    def test_edges_zero(self):
        coi = cone_of_influence(100)
        assert coi[0] == 0.0 and coi[-1] == 0.0

    def test_symmetry(self):
        coi = cone_of_influence(257)
        assert np.array_equal(coi, coi[::-1])

    def test_center_value(self):
        coi = cone_of_influence(512)
        assert coi.max() == pytest.approx(math.sqrt(2) * 255, abs=1e-12)
        assert coi.max() == pytest.approx(math.sqrt(2) * 255.5, abs=1.0)

    def test_monotone_rise_and_fall(self):
        coi = cone_of_influence(101)
        mid = 50
        assert (np.diff(coi[: mid + 1]) > 0).all()
        assert (np.diff(coi[mid:]) < 0).all()

    def test_formula(self):
        n = 64
        coi = cone_of_influence(n)
        idx = np.arange(n)
        assert np.array_equal(coi, math.sqrt(2) * np.minimum(idx, n - 1 - idx))


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: ScaleGrid.for_length(3), "series too short for a scale grid: n=3", id="for-length"),
        pytest.param(
            lambda: smooth(np.zeros((3, 8)), grid=ScaleGrid(dj=1 / 4, num_scales=4)),
            "grid expects (num_scales, n); got shape (3, 8)",
            id="smooth",
        ),
        pytest.param(lambda: cone_of_influence(1), "need n >= 2 for a cone of influence", id="coi"),
    ],
)
def test_short_or_misshapen_input_rejected(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
