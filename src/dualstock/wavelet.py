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
and cached.

Squared coherence smooths scale-normalized spectra with a Gaussian kernel in
time (standard deviation one scale) and a boxcar across scales; both
kernels are renormalized at boundaries so weights always sum to one.  The
Gaussian is real and symmetric, so its spectrum is real: the two power
terms |W|^2 / s are smoothed with rfft/irfft against the half spectrum, the
complex cross term with fft/ifft against the full one.  Because numerator
and denominators share the same weights, Cauchy-Schwarz keeps rho^2 within
[0, 1] up to float roundoff.  ``significance.significance`` builds every
``CoherenceField`` from ``_rho2``, ``phase_field`` and ``cone_of_influence``.
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
# that share the 8192-point pad.
ROW_BLOCK_BYTES = 2 << 20


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


# exp(-0.5 * x * x) rounds to exactly 0.0 for |x| >= 38.62.
_UNDERFLOW_ARG = 38.62


@functools.lru_cache(maxsize=64)
def _daughter_matrix(grid: ScaleGrid, lo: int, hi: int, npad: int) -> np.ndarray:
    """Frequency response of rows [lo, hi): exact DFT of the sampled Morlet kernel.

    That DFT is the Gaussian summed over its aliases k * 2 pi s,
    k = -3..3.  Along a row the Gaussian's argument is monotone in omega, so
    an alias whose argument stays beyond ``_UNDERFLOW_ARG`` at both ends of
    the row adds exactly zero there and is skipped: skipping leaves the
    table bit-identical.
    """
    omega = _TWO_PI * np.fft.fftfreq(npad)
    scales = grid.scales[lo:hi, None]
    arg = scales * omega - OMEGA0
    ends = scales * np.array([omega.min(), omega.max()]) - OMEGA0
    spacing = _TWO_PI * scales
    acc = np.zeros((hi - lo, npad))
    for image in range(-3, 4):
        shifted = ends - image * spacing
        live = (shifted[:, 0] <= 0.0) & (shifted[:, 1] >= 0.0)
        live |= np.abs(shifted).min(axis=1) < _UNDERFLOW_ARG
        rows = np.flatnonzero(live)
        if rows.size:
            r = slice(rows[0], rows[-1] + 1)
            acc[r] += np.exp(-0.5 * (arg[r] - image * spacing[r]) ** 2)
    norm = np.sqrt(_TWO_PI * scales)
    out = norm * math.pi ** -0.25 * acc
    out.flags.writeable = False
    return out


def cwt(x, grid: ScaleGrid) -> np.ndarray:
    """Morlet transform of a real daily series on the grid: complex coefficients, (num_scales, n).

    The mean is removed internally.  Computed as an FFT circular convolution
    after zero-padding each scale to the power of two covering its own
    kernel reach; matches the direct summation
    sum_t x(t) * w(s) * conj(psi((t - tau) / s)) with w(s) the
    normalization weight, everywhere on the grid.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) < 4:
        raise ValueError(f"input must be a 1-D series of length >= 4, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("input contains non-finite values")
    n = len(x)
    xd = x - x.mean()
    coeffs = np.empty((grid.num_scales, n), dtype=np.complex128)
    for lo, hi, npad in _pad_groups(grid, n):
        xhat = np.fft.fft(xd, npad)
        daughters = _daughter_matrix(grid, lo, hi, npad)
        for r0, r1 in _row_batches(lo, hi, npad):
            coeffs[r0:r1] = np.fft.ifft(xhat * daughters[r0 - lo : r1 - lo], axis=1)[:, :n]
    return coeffs


@functools.lru_cache(maxsize=64)
def _gauss_kernel_fft(grid: ScaleGrid, lo: int, hi: int, npad: int):
    """Real spectra of the rows' periodic Gaussians, each one scale wide: (rfft half, full length).

    The kernels are real and symmetric, so their spectra are real; the full
    spectrum mirrors the half one and smooths complex rows.
    """
    dist = np.arange(npad // 2 + 1, dtype=np.float64)
    sigmas = grid.scales[lo:hi]
    kernels = np.empty((hi - lo, npad))
    kernels[:, : npad // 2 + 1] = np.exp(-0.5 * (dist[None, :] / sigmas[:, None]) ** 2)
    kernels[:, npad // 2 + 1 :] = kernels[:, npad // 2 - 1 : 0 : -1]
    full = np.empty((hi - lo, npad))
    full[:, : npad // 2 + 1] = np.fft.rfft(kernels, axis=1).real
    full[:, npad // 2 + 1 :] = full[:, npad // 2 - 1 : 0 : -1]
    half = full[:, : npad // 2 + 1].copy()
    half.flags.writeable = False
    full.flags.writeable = False
    return half, full


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


def _time_smooth(values: np.ndarray, grid: ScaleGrid) -> np.ndarray:
    """Gaussian time smoothing of each row, renormalized at the boundaries.

    Real rows go through rfft/irfft against the half spectrum; complex rows
    through fft/ifft against the full one.
    """
    n = values.shape[1]
    out = np.empty(values.shape, dtype=np.result_type(values.dtype, np.float64))
    real = not np.iscomplexobj(out)
    sums = _smooth_weight_sums(grid, n)
    for lo, hi, npad in _pad_groups(grid, n):
        half, full = _gauss_kernel_fft(grid, lo, hi, npad)
        for r0, r1 in _row_batches(lo, hi, npad):
            rows = slice(r0 - lo, r1 - lo)
            if real:
                vhat = np.fft.rfft(values[r0:r1], npad, axis=1)
                vhat *= half[rows]
                smoothed = np.fft.irfft(vhat, npad, axis=1)
            else:
                vhat = np.fft.fft(values[r0:r1], npad, axis=1)
                vhat *= full[rows]
                smoothed = np.fft.ifft(vhat, axis=1)
            np.divide(smoothed[:, :n], sums[r0:r1], out=out[r0:r1])
    return out


def _scale_boxcar(values: np.ndarray, dj: float) -> np.ndarray:
    num = values.shape[0]
    half = SCALE_WINDOW_OCTAVES / (2.0 * dj)
    out = np.empty_like(values)
    for j in range(num):
        lo = max(0, math.ceil(j - half))
        hi = min(num - 1, math.floor(j + half))
        out[j] = values[lo : hi + 1].mean(axis=0)
    return out


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
    return _scale_boxcar(_time_smooth(values, grid), grid.dj)


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


def _rho2(a: np.ndarray, b: np.ndarray, grid: ScaleGrid):
    """Clamped squared coherence (0 where the denominator vanished) and the smoothed cross spectrum.

    ``a`` and ``b`` are two ``cwt`` coefficient arrays on ``grid``.
    """
    if a.shape != b.shape or a.shape[0] != grid.num_scales:
        raise ValueError(
            f"coefficients must be two ({grid.num_scales}, n) arrays of one shape; got {a.shape} and {b.shape}"
        )
    inv_s = 1.0 / grid.scales[:, None]
    cross = smooth(a * np.conj(b) * inv_s, grid=grid)
    power_a = smooth((a.real**2 + a.imag**2) * inv_s, grid=grid)
    power_b = smooth((b.real**2 + b.imag**2) * inv_s, grid=grid)
    denom = power_a * power_b
    degenerate = denom <= 0.0
    rho2 = cross.real**2
    rho2 += cross.imag**2
    with np.errstate(divide="ignore", invalid="ignore"):
        rho2 /= denom
    rho2[degenerate] = 0.0
    np.clip(rho2, 0.0, 1.0, out=rho2)
    return rho2, cross
