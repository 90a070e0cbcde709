"""Morlet continuous wavelet transform and wavelet coherence.

One sample is one trading day: scales, periods and the cone of influence
are all in days.  The method is the standard Morlet one, with fixed
constants: wave number ``OMEGA0`` = 6, smallest scale ``S0`` = 2 days, a
scale ladder of ``DJ`` = 1/12 octave per step, and coherence smoothing by
a Gaussian in time one scale wide and a boxcar of ``SCALE_WINDOW_OCTAVES``
= 0.6 octave across scales, the scale decorrelation length of this wavelet
(Torrence & Compo 1998, table 2; Grinsted, Moore & Jevrejeva 2004).  The
0.6 octave fits wave number 6 only, and none of these is an option.  The
transform uses the energy convention only: the kernel at scale s carries
a 1/sqrt(s) weight so every scale has comparable power (coherence does
not depend on this choice).  ``cwt(x, grid)`` returns the complex
coefficients as a plain (num_scales, n) array; the functions that read
them take the grid beside it.  The FFT path builds each scale's frequency
response as the exact discrete Fourier transform of the sampled Morlet
kernel (an alias-summed Gaussian), so it reproduces the direct time-domain
summation to machine precision once the series is zero-padded to a power
of two covering the kernel reach.

Padding is per scale: a row of scale s (a kernel s wide, for the transform
and for the smoothing alike) is padded to the power of two covering
n + ceil(8 * s) + 1 points, and the rows that share a pad length are
transformed together (in cache-sized batches), so small scales no longer pay
for the largest scale's reach.  The frequency tables are built per pad group
and cached; their ``exp`` runs only where its argument can leave a nonzero
value.

Squared coherence smooths scale-normalized spectra with a Gaussian kernel in
time (standard deviation one scale) and a boxcar across scales; both
kernels are renormalized at boundaries so weights always sum to one.  The
Gaussian is real and symmetric, so its spectrum is real: the two power
terms |W|^2 / s are smoothed with rfft/irfft against the half spectrum, the
complex cross term with fft/ifft against the full one.  Because numerator
and denominators share the same weights, Cauchy-Schwarz keeps rho^2 within
[0, 1] up to float roundoff.

The coherence of a pair is one band pass down the scale rows
(``_rho2_rows``): each row batch is transformed, its cross term
conj(W_b) * W_a / s and its two powers are formed and time-smoothed, and
the smoothed rows are kept in a band only until the 0.6-octave boxcar of
every row that reads them is complete; then that row's rho^2 and smoothed
cross spectrum are yielded.  So a pair never allocates a (num_scales, n)
array: beyond the cached tables it holds a band of a batch plus two boxcar
windows of rows and a few work buffers of ``ROW_BLOCK_BYTES``.  The work
buffers are allocated once per pass, viewed per pad group as (rows, npad)
and filled through ``out=`` (numpy >= 2.0 takes ``out`` in ``np.fft``), so
the pass allocates only the rows it yields.  The cross term's
operand order is fixed, because complex multiply is not bit-commutative;
with it, every cell is the same bytes as the whole-array pipeline of
``cwt`` and ``smooth``, whatever the batch size.  ``significance.significance``
builds every ``CoherenceField`` from the band pass, ``phase_field`` and
``cone_of_influence``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScaleGrid",
    "CoherenceField",
    "cwt",
    "smooth",
    "phase_field",
    "cone_of_influence",
]

_TWO_PI = 2.0 * math.pi

# Morlet wave number, smallest scale in days, coherence scale boxcar width.
OMEGA0 = 6.0
S0 = 2.0
SCALE_WINDOW_OCTAVES = 0.6
# Step of the dyadic scale ladder (Torrence & Compo 1998) in octaves: twelve scales per octave.
DJ = 1.0 / 12.0
# Ratio of Fourier period to scale.
FOURIER_FACTOR = 4.0 * math.pi / (OMEGA0 + math.sqrt(2.0 + OMEGA0 * OMEGA0))


@dataclass(frozen=True)
class ScaleGrid:
    """Dyadic scale ladder S0 * 2^(j*dj), j = 0..num_scales-1 (scales in days)."""

    dj: float
    num_scales: int

    def __post_init__(self) -> None:
        if self.dj <= 0:
            raise ValueError("dj must be positive")
        if self.num_scales < 1:
            raise ValueError("num_scales must be >= 1")

    @property
    def scales(self) -> np.ndarray:
        j = np.arange(self.num_scales)
        return S0 * 2.0 ** (j * self.dj)

    @property
    def fourier_periods(self) -> np.ndarray:
        return self.scales * FOURIER_FACTOR

    @classmethod
    def for_length(cls, n: int) -> "ScaleGrid":
        """The ``DJ`` ladder for n days: largest Fourier period >= min(span/3, 512) days."""
        if n < 4:
            raise ValueError(f"series too short for a scale grid: n={n}")
        target = min(n / 3.0, 512.0)
        smallest_period = S0 * FOURIER_FACTOR
        if target <= smallest_period:
            num = 1
        else:
            num = 1 + math.ceil(math.log2(target / smallest_period) / DJ)
        return cls(dj=DJ, num_scales=num)


# Bytes of complex FFT work per batch of rows.  Rows are transformed a few
# at a time so each batch's buffers stay in cache: at n = 5581 on a 2-vCPU
# Xeon, batches of 2 MB (16 rows) ran the CWT about a third faster, and the
# complex time smoothing about 15% faster, than one batch of all 89 rows
# that share the 8192-point pad.  Batches of 256 KB (2 rows at that pad, 1
# at 16384) ran ``significance`` as fast as 2 MB ones within the host's
# drift, and they bound what the coherence band pass holds per pair.
ROW_BLOCK_BYTES = 256 << 10


def _pad_length(n: int, reach: float) -> int:
    # Power of two covering the series plus the kernel reach (8 widths) so the
    # circular FFT convolution reproduces the plain truncated sum.
    need = n + int(math.ceil(8.0 * reach)) + 1
    return 1 << max(1, math.ceil(math.log2(need)))


@functools.lru_cache(maxsize=64)
def _pad_groups(grid: ScaleGrid, n: int) -> tuple[tuple[int, int, int], ...]:
    """Rows [lo, hi) sharing one pad length, for kernels one scale wide."""
    groups: list[tuple[int, int, int]] = []
    for j, s in enumerate(grid.scales):
        npad = _pad_length(n, float(s))
        if groups and groups[-1][2] == npad:
            groups[-1] = (groups[-1][0], j + 1, npad)
        else:
            groups.append((j, j + 1, npad))
    return tuple(groups)


def _row_batches(lo: int, hi: int, npad: int):
    """Consecutive row ranges of one pad group, each within ``ROW_BLOCK_BYTES``."""
    step = max(1, ROW_BLOCK_BYTES // (16 * npad))
    return [(r, min(hi, r + step)) for r in range(lo, hi, step)]


def _batch_sizes(grid: ScaleGrid, n: int) -> tuple[int, int]:
    """Rows of the largest batch and its rows x npad, over the grid's pad groups."""
    batches = [(r1 - r0, npad) for lo, hi, npad in _pad_groups(grid, n) for r0, r1 in _row_batches(lo, hi, npad)]
    return max(rows for rows, _ in batches), max(rows * npad for rows, npad in batches)


def _rows_view(buf: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The first rows * width elements of a flat work buffer, as (rows, width)."""
    return buf[: rows * width].reshape(rows, width)


# exp(-0.5 * x * x) rounds to exactly 0.0 for |x| >= 38.62.
_UNDERFLOW_ARG = 38.62


@functools.lru_cache(maxsize=64)
def _daughter_matrix(grid: ScaleGrid, lo: int, hi: int, npad: int) -> np.ndarray:
    """Frequency response of rows [lo, hi): exact DFT of the sampled Morlet kernel.

    That DFT is the Gaussian summed over its aliases k * 2 pi s, k = -3..3.
    The frequencies of each half of ``fftfreq``, [0, npad/2) and [npad/2,
    npad), increase with the column, so an alias's argument lies within
    ``_UNDERFLOW_ARG`` on one column range per half; ``exp`` runs on that
    range widened by one column, and every column it skips would add exactly
    0.0.  So the table is the same bytes as the literal 7-alias sum.
    """
    omega = _TWO_PI * np.fft.fftfreq(npad)
    scales = grid.scales[lo:hi]
    spacing = _TWO_PI * scales
    acc = np.zeros((hi - lo, npad))
    for image in range(-3, 4):
        # columns where |s * omega - OMEGA0 - image * 2 pi s| < _UNDERFLOW_ARG
        centre = OMEGA0 + image * spacing
        bounds = ((centre - _UNDERFLOW_ARG) / scales, (centre + _UNDERFLOW_ARG) / scales)
        for c0, c1 in ((0, npad // 2), (npad // 2, npad)):
            first = np.maximum(c0 + np.searchsorted(omega[c0:c1], bounds[0]) - 1, c0)
            stop = np.minimum(c0 + np.searchsorted(omega[c0:c1], bounds[1], side="right") + 1, c1)
            for r in np.flatnonzero(first < stop).tolist():
                cols = slice(first[r], stop[r])
                acc[r, cols] += np.exp(-0.5 * ((scales[r] * omega[cols] - OMEGA0) - image * spacing[r]) ** 2)
    norm = np.sqrt(_TWO_PI * scales[:, None])
    out = norm * math.pi ** -0.25 * acc
    out.flags.writeable = False
    return out


def _demeaned(x) -> np.ndarray:
    """A finite 1-D series of at least 4 days as float64, with its mean removed."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) < 4:
        raise ValueError(f"input must be a 1-D series of length >= 4, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")
    return x - x.mean()


def _transform_rows(xhat: np.ndarray, grid: ScaleGrid, group, r0: int, r1: int, spectrum, out) -> np.ndarray:
    """Rows [r0, r1) of one pad group's transform, npad wide, in ``out``; ``xhat`` is the series' npad-point FFT.

    ``spectrum`` and ``out`` are flat complex work buffers of at least
    (r1 - r0) * npad elements; ``spectrum`` is overwritten.
    """
    lo, hi, npad = group
    product = _rows_view(spectrum, r1 - r0, npad)
    np.multiply(xhat, _daughter_matrix(grid, lo, hi, npad)[r0 - lo : r1 - lo], out=product)
    return np.fft.ifft(product, axis=1, out=_rows_view(out, r1 - r0, npad))


def cwt(x, grid: ScaleGrid) -> np.ndarray:
    """Morlet transform of a real daily series on the grid: complex coefficients, (num_scales, n).

    The mean is removed internally.  Computed as an FFT circular convolution
    after zero-padding each scale to the power of two covering its own
    kernel reach; matches the direct summation
    sum_t x(t) * w(s) * conj(psi((t - tau) / s)) with w(s) the
    normalization weight, everywhere on the grid.
    """
    xd = _demeaned(x)
    n = len(xd)
    coeffs = np.empty((grid.num_scales, n), dtype=np.complex128)
    size = _batch_sizes(grid, n)[1]
    spectrum, rows = np.empty(size, dtype=np.complex128), np.empty(size, dtype=np.complex128)
    for group in _pad_groups(grid, n):
        xhat = np.fft.fft(xd, group[2])
        for r0, r1 in _row_batches(*group):
            coeffs[r0:r1] = _transform_rows(xhat, grid, group, r0, r1, spectrum, rows)[:, :n]
    return coeffs


@functools.lru_cache(maxsize=64)
def _gauss_kernel_fft(grid: ScaleGrid, lo: int, hi: int, npad: int):
    """Read-only real spectra of the rows' periodic Gaussians, each one scale wide: (rfft half view, full length).

    The kernels are real and symmetric, so their spectra are real; the full
    spectrum mirrors the half one and smooths complex rows.  ``exp`` runs
    only up to one column past dist = ``_UNDERFLOW_ARG`` * sigma; beyond, the
    kernel is exactly 0.0.
    """
    dist = np.arange(npad // 2 + 1, dtype=np.float64)
    kernels = np.zeros((hi - lo, npad))
    for r, sigma in enumerate(grid.scales[lo:hi]):
        reach = min(npad // 2 + 1, math.ceil(_UNDERFLOW_ARG * sigma) + 1)
        kernels[r, :reach] = np.exp(-0.5 * (dist[:reach] / sigma) ** 2)
    kernels[:, npad // 2 + 1 :] = kernels[:, npad // 2 - 1 : 0 : -1]
    full = np.empty((hi - lo, npad))
    full[:, : npad // 2 + 1] = np.fft.rfft(kernels, axis=1).real
    full[:, npad // 2 + 1 :] = full[:, npad // 2 - 1 : 0 : -1]
    full.flags.writeable = False
    return full[:, : npad // 2 + 1], full


@functools.lru_cache(maxsize=64)
def _smooth_weight_sums(grid: ScaleGrid, n: int) -> np.ndarray:
    """Per-cell sum of kernel weights inside the grid (boundary renormalizer)."""
    sums = np.empty((grid.num_scales, n))
    for lo, hi, npad in _pad_groups(grid, n):
        half, _ = _gauss_kernel_fft(grid, lo, hi, npad)
        ones_hat = np.fft.rfft(np.ones(n), npad)
        sums[lo:hi] = np.fft.irfft(ones_hat * half, npad, axis=1)[:, :n]
    sums.flags.writeable = False
    return sums


def _time_smooth_rows(values: np.ndarray, grid: ScaleGrid, group, r0: int, out: np.ndarray, spectrum, signal) -> None:
    """Gaussian time smoothing of rows r0.. of one pad group into ``out``, renormalized at the boundaries.

    Real rows go through rfft/irfft against the half spectrum; complex rows
    through fft/ifft against the full one.  ``spectrum`` (complex) and
    ``signal`` (of the rows' dtype) are flat work buffers of at least
    rows * npad elements, both overwritten.
    """
    lo, hi, npad = group
    num, n = values.shape
    rows = slice(r0 - lo, r0 - lo + num)
    half, full = _gauss_kernel_fft(grid, lo, hi, npad)
    if np.iscomplexobj(values):
        vhat = np.fft.fft(values, npad, axis=1, out=_rows_view(spectrum, num, npad))
        vhat *= full[rows]
        smoothed = np.fft.ifft(vhat, axis=1, out=_rows_view(signal, num, npad))
    else:
        vhat = np.fft.rfft(values, npad, axis=1, out=_rows_view(spectrum, num, npad // 2 + 1))
        vhat *= half[rows]
        smoothed = np.fft.irfft(vhat, npad, axis=1, out=_rows_view(signal, num, npad))
    np.divide(smoothed[:, :n], _smooth_weight_sums(grid, n)[r0 : r0 + num], out=out)


@functools.lru_cache(maxsize=64)
def _boxcar_windows(grid: ScaleGrid) -> tuple[tuple[int, int], ...]:
    """Per row j, the rows [lo, hi) that the ``SCALE_WINDOW_OCTAVES`` scale boxcar averages."""
    half = SCALE_WINDOW_OCTAVES / (2.0 * grid.dj)
    num = grid.num_scales
    return tuple((max(0, math.ceil(j - half)), min(num, math.floor(j + half) + 1)) for j in range(num))


def smooth(values, *, grid: ScaleGrid) -> np.ndarray:
    """Smooth a (num_scales, n) array on ``grid``; returns the same shape.

    Time direction: Gaussian with standard deviation one scale, in days.
    Scale direction: boxcar ``SCALE_WINDOW_OCTAVES`` wide.  Kernels are
    renormalized wherever they overhang a boundary, so constants are
    preserved exactly.
    """
    values = np.asarray(values)
    if values.ndim != 2 or values.shape[0] != grid.num_scales:
        raise ValueError(f"grid expects (num_scales, n); got shape {values.shape}")
    timed = np.empty(values.shape, dtype=np.result_type(values.dtype, np.float64))
    size = _batch_sizes(grid, values.shape[1])[1]
    spectrum, signal = np.empty(size, dtype=np.complex128), np.empty(size, dtype=timed.dtype)
    for group in _pad_groups(grid, values.shape[1]):
        for r0, r1 in _row_batches(*group):
            _time_smooth_rows(values[r0:r1], grid, group, r0, timed[r0:r1], spectrum, signal)
    out = np.empty_like(timed)
    for j, (lo, hi) in enumerate(_boxcar_windows(grid)):
        out[j] = timed[lo:hi].mean(axis=0)
    return out


def phase_field(cross_smoothed: np.ndarray) -> np.ndarray:
    """Phase angles atan2(imag, real) in (-pi, pi]; zero-magnitude cells get 0."""
    c = np.asarray(cross_smoothed)
    if not np.isfinite(c).all():
        raise ValueError("cross spectrum contains non-finite values")
    theta = np.arctan2(c.imag, c.real)
    theta = np.where(theta == -math.pi, math.pi, theta)
    theta = np.where(c == 0, 0.0, theta)
    return theta


def cone_of_influence(n: int) -> np.ndarray:
    """Maximum trustworthy Fourier period per time index: sqrt(2) * edge distance, in days."""
    if n < 2:
        raise ValueError("need n >= 2 for a cone of influence")
    idx = np.arange(n)
    return math.sqrt(2.0) * np.minimum(idx, n - 1 - idx)


@dataclass(frozen=True)
class CoherenceField:
    """Squared coherence, phase, cone of influence, and Monte-Carlo significance.

    ``significant`` (bool) and ``exceedances`` (int64: per cell, the number of
    surrogate coherences at or above the observed one) come from
    ``significance.significance``.  Every array is stored read-only.
    """

    rho2: np.ndarray
    phase: np.ndarray
    grid: ScaleGrid
    coi: np.ndarray
    significant: np.ndarray
    exceedances: np.ndarray

    def __post_init__(self) -> None:
        rho2 = np.asarray(self.rho2, dtype=np.float64)
        phase = np.asarray(self.phase, dtype=np.float64)
        if rho2.shape != phase.shape or rho2.ndim != 2:
            raise ValueError("rho2 and phase must be 2-D grids of equal shape")
        if rho2.shape[0] != self.grid.num_scales:
            raise ValueError("grid dimension mismatch")
        # Range checks written so that NaN fails them; the coherence CSV's
        # fixed-point formatting relies on both ranges.
        if not ((rho2 >= 0.0) & (rho2 <= 1.0)).all():
            raise ValueError("rho2 must lie in [0, 1] (clamp before construction)")
        if not (np.abs(phase) <= math.pi).all():
            raise ValueError("phase must lie in [-pi, pi]")
        coi = np.asarray(self.coi, dtype=np.float64)
        if coi.shape != rho2.shape[1:]:
            raise ValueError(f"coi must have shape {rho2.shape[1:]}, got {coi.shape}")
        arrays = {"rho2": rho2, "phase": phase, "coi": coi}
        for name, dtype in (("significant", bool), ("exceedances", np.int64)):
            arrays[name] = np.asarray(getattr(self, name), dtype=dtype)
            if arrays[name].shape != rho2.shape:
                raise ValueError(f"{name} must have the shape of rho2 {rho2.shape}, got {arrays[name].shape}")
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n(self) -> int:
        return self.rho2.shape[1]

    def inside_coi(self) -> np.ndarray:
        """Boolean grid: cell period within the trustworthy region."""
        periods = self.grid.fourier_periods
        return periods[:, None] <= self.coi[None, :]


def _cross_term(w_a: np.ndarray, w_b: np.ndarray, inv_s: np.ndarray, out=None) -> np.ndarray:
    """conj(W_b) * W_a / s, in that operand order, into ``out`` if given.

    numpy's complex multiply is not bit-commutative (it may fuse a multiply
    and an add), and ``a * np.conj(b)`` runs as multiply(conj(b), a) only on
    arrays large enough for numpy to reuse the temporary.  The fixed order
    makes a row computed alone the same bytes as that row of a whole field.
    """
    cross = np.conjugate(w_b, out=out)
    np.multiply(cross, w_a, out=cross)
    cross *= inv_s
    return cross


def _power_term(w: np.ndarray, inv_s: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|W|^2 / s into ``out``; ``scratch`` (of w's shape) holds Im(W)^2."""
    power = np.square(w.real, out=out)
    power += np.square(w.imag, out=scratch)
    power *= inv_s
    return power


def _rho2_rows(x_a, x_b, grid: ScaleGrid):
    """Clamped squared coherence of two daily series, one scale row at a time, in row order.

    Yields ``(j, rho2 row, smoothed cross row)`` for j = 0 .. num_scales - 1,
    each row a fresh array; rho2 is 0 where the denominator vanished.  Each
    row batch of a pad group is transformed, multiplied and time-smoothed on
    its own; the smoothed rows wait in a band only until the scale boxcar of
    every row that reads them is complete, so no (num_scales, n) array is
    allocated.  The batches' transforms, spectra, terms and the power rows'
    boxcar means live in work buffers allocated once per pass and filled
    through ``out=``.  Every cell has the arithmetic of the whole-array
    pipeline (``cwt``, then ``smooth`` of conj(W_b) * W_a / s and of the two
    powers |W|^2 / s), bit for bit.
    """
    xs = (_demeaned(x_a), _demeaned(x_b))
    n = len(xs[0])
    windows = _boxcar_windows(grid)
    inv_s = 1.0 / grid.scales[:, None]
    groups = _pad_groups(grid, n)
    # Band rows: a batch plus two boxcar windows.  One window's rows are
    # waiting when a batch arrives; the spare one lets the band be shifted
    # down only every few batches.
    step, size = _batch_sizes(grid, n)
    depth = min(grid.num_scales, step + 2 * max(hi - lo for lo, hi in windows))
    bands = (np.empty((depth, n), dtype=np.complex128), np.empty((depth, n)), np.empty((depth, n)))
    # Work buffers, each within ``ROW_BLOCK_BYTES`` (or one npad-wide row):
    # the two transforms (the first one then takes the smoothed cross term),
    # the FFT spectra, the real signal (Im(W)^2, then the smoothed powers),
    # the three terms, and the two power rows' boxcar means.
    transforms = (np.empty(size, dtype=np.complex128), np.empty(size, dtype=np.complex128))
    spectrum = np.empty(size, dtype=np.complex128)
    signal = np.empty(size)
    terms = (np.empty(step * n, dtype=np.complex128), np.empty(step * n), np.empty(step * n))
    means = (np.empty(n), np.empty(n))
    base = 0  # grid row held in band row 0
    j = 0  # next row to yield
    for group in groups:
        xhats = [np.fft.fft(x, group[2]) for x in xs]
        for r0, r1 in _row_batches(*group):
            if r1 - base > depth:
                keep = windows[j][0]  # no later window reads a row below it
                for band in bands:
                    band[: r0 - keep] = band[keep - base : r0 - base]
                base = keep
            num = r1 - r0
            w_a, w_b = (
                _transform_rows(xhat, grid, group, r0, r1, spectrum, out)[:, :n] for xhat, out in zip(xhats, transforms)
            )
            inv = inv_s[r0:r1]
            scratch = _rows_view(signal, num, n)
            cross = _cross_term(w_a, w_b, inv, out=_rows_view(terms[0], num, n))
            power_a = _power_term(w_a, inv, _rows_view(terms[1], num, n), scratch)
            power_b = _power_term(w_b, inv, _rows_view(terms[2], num, n), scratch)
            for term, band, smoothed in zip((cross, power_a, power_b), bands, (transforms[0], signal, signal)):
                _time_smooth_rows(term, grid, group, r0, band[r0 - base : r1 - base], spectrum, smoothed)
            while j < grid.num_scales and windows[j][1] <= r1:
                # the boxcar mean, as ``mean(axis=0)`` computes it: a sum, then a division by the count
                window = slice(windows[j][0] - base, windows[j][1] - base)
                count = np.intp(windows[j][1] - windows[j][0])
                cross_row = np.add.reduce(bands[0][window], axis=0)
                mean_a, mean_b = (np.add.reduce(band[window], axis=0, out=out) for band, out in zip(bands[1:], means))
                for mean in (cross_row, mean_a, mean_b):
                    np.true_divide(mean, count, out=mean)
                denom = np.multiply(mean_a, mean_b, out=mean_a)
                rho2 = np.square(cross_row.real)
                rho2 += np.square(cross_row.imag, out=mean_b)
                with np.errstate(divide="ignore", invalid="ignore"):
                    rho2 /= denom
                rho2[denom <= 0.0] = 0.0
                np.clip(rho2, 0.0, 1.0, out=rho2)
                yield j, rho2, cross_row
                j += 1
