import dataclasses
import importlib
import math

import numpy as np
import pytest

from dualstock.wavelet import CoherenceField, ScaleGrid, cone_of_influence, cwt, phase_field, smooth

from _oracles import ar1_series, coherence, coherence_single_pad, rho2_full, same_bytes

wavelet = importlib.import_module("dualstock.wavelet")


def field_pair(a, b, grid=None):
    grid = grid or ScaleGrid.for_length(len(a))
    return coherence(a, b, grid)


class TestSelfCoherence:
    def test_random_series(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(256)
        grid = ScaleGrid.for_length(256)
        f = coherence(x, x, grid)
        assert np.abs(f.rho2 - 1.0).max() < 1e-6

    def test_preclamp_excursion_bounded(self):
        # recompute the raw ratio without clamping: Cauchy-Schwarz keeps the
        # excursion above 1 within float roundoff
        rng = np.random.default_rng(22)
        a = rng.standard_normal(256)
        b = rng.standard_normal(256)
        grid = ScaleGrid.for_length(256)
        sa, sb = cwt(a, grid), cwt(b, grid)
        inv_s = 1.0 / grid.scales[:, None]
        num = smooth(sa * np.conj(sb) * inv_s, grid=grid)
        pa = smooth(np.abs(sa) ** 2 * inv_s, grid=grid)
        pb = smooth(np.abs(sb) ** 2 * inv_s, grid=grid)
        raw = np.abs(num) ** 2 / (pa * pb)
        assert raw.max() < 1.0 + 1e-6


class TestSymmetries:
    def setup_method(self):
        rng = np.random.default_rng(30)
        self.a = rng.standard_normal(256)
        self.b = rng.standard_normal(256)
        self.grid = ScaleGrid.for_length(256)

    def test_rho2_symmetric(self):
        fab = field_pair(self.a, self.b, self.grid)
        fba = field_pair(self.b, self.a, self.grid)
        assert np.abs(fab.rho2 - fba.rho2).max() < 1e-12

    def test_phase_antisymmetric_mod_2pi(self):
        fab = field_pair(self.a, self.b, self.grid)
        fba = field_pair(self.b, self.a, self.grid)
        wrapped = np.angle(np.exp(1j * (fab.phase + fba.phase)))
        assert np.abs(wrapped).max() < 1e-10

    def test_scaling_invariance(self):
        base = field_pair(self.a, self.b, self.grid)
        scaled = field_pair(3.7 * self.a, 0.002 * self.b, self.grid)
        assert np.abs(base.rho2 - scaled.rho2).max() < 1e-10
        assert np.abs(base.phase - scaled.phase).max() < 1e-10

    def test_time_shift_covariance(self):
        rng = np.random.default_rng(31)
        k, m = 16, 256
        long_a = rng.standard_normal(m + k)
        long_b = rng.standard_normal(m + k)
        grid = ScaleGrid(dj=1 / 6, num_scales=13)  # scales up to 8 days
        f0 = coherence(long_a[:m], long_b[:m], grid)
        f1 = coherence(long_a[k : m + k], long_b[k : m + k], grid)
        # interior: stay clear of both window edges by the full kernel reach
        margin = int(math.ceil(8 * grid.scales[-1])) + k
        interior = slice(margin, m - margin)
        diff = np.abs(f1.rho2[:, interior.start - k : interior.stop - k] - f0.rho2[:, interior])
        assert diff.max() < 1e-6


class TestDetection:
    def test_shared_band_high_coherence(self):
        rng = np.random.default_rng(40)
        n = 512
        t = np.arange(n)
        shared = np.cos(2 * np.pi * t / 32)
        a = shared + 0.5 * rng.standard_normal(n)
        b = shared + 0.5 * rng.standard_normal(n)
        grid = ScaleGrid.for_length(n)
        f = coherence(a, b, grid)
        band = (grid.fourier_periods >= 28) & (grid.fourier_periods <= 36)
        sel = band[:, None] & f.inside_coi()
        assert f.rho2[sel].mean() > 0.9

    def test_independent_white_noise_low_mean(self):
        # 20 seeded replicates of the grid-mean coherence of independent noise
        rng = np.random.default_rng(41)
        n = 1024
        grid = ScaleGrid.for_length(n)
        means = []
        for _ in range(20):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            f = coherence(a, b, grid)
            means.append(f.rho2.mean())
        assert np.mean(means) < 0.5


class TestPhase:
    def test_identical_series_zero_phase(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal(256)
        grid = ScaleGrid.for_length(256)
        f = coherence(x, x, grid)
        inside = f.inside_coi()
        assert np.abs(f.phase[inside]).max() < 1e-8

    def test_quarter_cycle_lead(self):
        n = 512
        t = np.arange(n)
        grid = ScaleGrid.for_length(n)
        f = coherence(np.cos(2 * np.pi * t / 32), np.sin(2 * np.pi * t / 32), grid)
        band = (grid.fourier_periods >= 28) & (grid.fourier_periods <= 36)
        sel = band[:, None] & f.inside_coi()
        assert np.abs(f.phase[sel] - math.pi / 2).max() < 0.1

    def test_phase_field_zero_magnitude(self):
        grid_vals = np.zeros((2, 4), dtype=complex)
        grid_vals[0, 0] = 1.0 + 1.0j
        theta = phase_field(grid_vals)
        assert theta[0, 0] == pytest.approx(math.pi / 4)
        assert (theta[grid_vals == 0] == 0.0).all()

    def test_phase_range(self):
        vals = np.array([[-1.0 + 0j, -1.0 - 1e-300j]])
        theta = phase_field(vals)
        assert (theta > -math.pi).all() and (theta <= math.pi).all()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            phase_field(np.array([[complex(np.nan, 0)]]))


class TestDegenerateCells:
    def test_zero_inputs_flagged(self):
        grid = ScaleGrid(dj=1 / 4, num_scales=6)
        zero = np.zeros(128)
        f = coherence(zero, zero, grid)
        assert (f.rho2 == 0.0).all()
        assert (f.phase == 0.0).all()


class TestFieldStructure:
    def test_fields(self):
        fields = dataclasses.fields(CoherenceField)
        assert [f.name for f in fields] == ["rho2", "phase", "grid", "coi", "significant", "exceedances"]
        # every field carries its Monte-Carlo result: no field has a default
        assert all(f.default is dataclasses.MISSING for f in fields)

    def test_inside_coi_shape_and_edges(self):
        rng = np.random.default_rng(60)
        x = rng.standard_normal(128)
        y = rng.standard_normal(128)
        grid = ScaleGrid.for_length(128)
        f = coherence(x, y, grid)
        inside = f.inside_coi()
        assert inside.shape == f.rho2.shape
        assert not inside[:, 0].any() and not inside[:, -1].any()

    def test_significance_arrays_stored(self):
        rng = np.random.default_rng(61)
        x = rng.standard_normal(128)
        grid = ScaleGrid.for_length(128)
        f = coherence(x, x, grid)
        mask = np.zeros_like(f.rho2, dtype=bool)
        counts = np.arange(f.rho2.size).reshape(f.rho2.shape)
        f2 = CoherenceField(f.rho2, f.phase, grid, f.coi, significant=mask, exceedances=counts)
        assert np.array_equal(f2.significant, mask) and f2.significant.dtype == bool
        assert np.array_equal(f2.exceedances, counts) and f2.exceedances.dtype == np.int64

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("coi", np.zeros(3), r"coi must have shape \(8,\), got \(3,\)"),
            ("coi", np.zeros((3, 8)), r"coi must have shape \(8,\), got \(3, 8\)"),
            ("significant", np.zeros((1, 1), dtype=bool), r"significant must have the shape of rho2 \(3, 8\), got \(1, 1\)"),
            ("exceedances", np.zeros((2, 2), dtype=np.int64), r"exceedances must have the shape of rho2 \(3, 8\), got \(2, 2\)"),
            ("phase", np.zeros((3, 7)), "rho2 and phase must be 2-D grids of equal shape"),
            ("grid", ScaleGrid(dj=1 / 4, num_scales=4), "grid dimension mismatch"),
        ],
    )
    def test_wrong_shape_rejected(self, name, value, message):
        arrays = dict(
            grid=ScaleGrid(dj=1 / 4, num_scales=3),
            rho2=np.full((3, 8), 0.5),
            phase=np.zeros((3, 8)),
            coi=cone_of_influence(8),
            significant=np.zeros((3, 8), dtype=bool),
            exceedances=np.zeros((3, 8), dtype=np.int64),
        )
        arrays[name] = value
        with pytest.raises(ValueError, match=message):
            CoherenceField(**arrays)

    @pytest.mark.parametrize(
        "rho2, phase, message",
        [
            (np.nan, 0.0, "rho2 must lie in"),
            (1.5, 0.0, "rho2 must lie in"),
            (0.5, np.nan, "phase must lie in"),
            (0.5, np.nextafter(math.pi, 4.0), "phase must lie in"),
        ],
    )
    def test_out_of_range_or_nan_cells_rejected(self, rho2, phase, message):
        grid = ScaleGrid(dj=1 / 4, num_scales=3)
        cells = dict(rho2=np.full((3, 8), 0.5), phase=np.full((3, 8), -math.pi))
        cells["rho2"][1, 4], cells["phase"][1, 4] = rho2, phase
        mask, counts = np.zeros((3, 8), dtype=bool), np.zeros((3, 8), dtype=np.int64)
        with pytest.raises(ValueError, match=message):
            CoherenceField(grid=grid, coi=cone_of_influence(8), significant=mask, exceedances=counts, **cells)


class TestSinglePadOracle:
    def test_matches_single_pad_complex_pipeline(self):
        # at n = 300 the default grid's rows pad to 512, 1024 and 2048 points;
        # the oracle pads them all to 2048 and smooths with complex FFTs
        n = 300
        rng = np.random.default_rng(40)
        a = ar1_series(0.3, n, rng)
        b = 0.4 * a + ar1_series(0.5, n, rng)
        grid = ScaleGrid.for_length(n)
        pads = {1 << math.ceil(math.log2(n + math.ceil(8.0 * s) + 1)) for s in grid.scales}
        assert len(pads) >= 2
        rho2, phase = coherence_single_pad(a, b, grid)
        field = coherence(a, b, grid)
        assert np.abs(field.rho2 - rho2).max() < 1e-12
        assert np.abs(np.angle(np.exp(1j * (field.phase - phase)))).max() < 1e-12


class TestRowBandProducer:
    def test_cross_term_of_one_row_is_the_whole_fields_row(self):
        # at this size numpy reuses the temporary of a * np.conj(b) and swaps
        # its operands, and a row computed alone differs from the field's row
        # in about 30% of its cells unless the operand order is fixed
        n = 5580
        grid = ScaleGrid.for_length(n)
        rng = np.random.default_rng(70)
        a, b = cwt(rng.standard_normal(n), grid), cwt(rng.standard_normal(n), grid)
        inv_s = 1.0 / grid.scales[:, None]
        field = wavelet._cross_term(a, b, inv_s)
        for j in (0, 48, 96):
            assert same_bytes(wavelet._cross_term(a[j : j + 1], b[j : j + 1], inv_s[j : j + 1])[0], field[j])

    # budget 1 gives one-row batches; the truncated grid ends in a one-row pad group
    @pytest.mark.parametrize("truncated", [False, True])
    @pytest.mark.parametrize("budget", [None, 1])
    @pytest.mark.parametrize("n", [64, 140, 800])
    def test_rows_are_the_full_array_oracles_bytes(self, n, budget, truncated, monkeypatch):
        rng = np.random.default_rng(71 + n)
        a = ar1_series(0.4, n, rng)
        b = 0.3 * a + ar1_series(0.6, n, rng)
        grid = ScaleGrid.for_length(n)
        if truncated:
            grid = ScaleGrid(dj=grid.dj, num_scales=wavelet._pad_groups(grid, n)[0][1] + 1)
            lo, hi, _ = wavelet._pad_groups(grid, n)[-1]
            assert hi - lo == 1
        rho2, cross = rho2_full(cwt(a, grid), cwt(b, grid), grid)
        if budget is not None:
            monkeypatch.setattr(wavelet, "ROW_BLOCK_BYTES", budget)
        rows = list(wavelet._rho2_rows(a, b, grid))
        assert [j for j, _, _ in rows] == list(range(grid.num_scales))
        assert same_bytes(np.array([row for _, row, _ in rows]), rho2)
        assert same_bytes(np.array([row for _, _, row in rows]), cross)
        assert same_bytes(np.array([phase_field(row) for _, _, row in rows]), phase_field(cross))

    @pytest.mark.parametrize("budget", [None, 1])
    def test_yielded_rows_are_fresh_arrays(self, budget, monkeypatch):
        # the pass reuses its work buffers; no yielded row may be one of them,
        # or a caller's list would change under it as the pass goes on
        if budget is not None:
            monkeypatch.setattr(wavelet, "ROW_BLOCK_BYTES", budget)
        rng = np.random.default_rng(72)
        a, b = rng.standard_normal(140), rng.standard_normal(140)
        rows = list(wavelet._rho2_rows(a, b, ScaleGrid.for_length(140)))
        for (_, rho2, cross), (_, next_rho2, next_cross) in zip(rows, rows[1:]):
            for x in (rho2, cross):
                for y in (next_rho2, next_cross):
                    assert not np.shares_memory(x, y)
