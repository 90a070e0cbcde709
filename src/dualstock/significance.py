"""AR(1) red-noise surrogates and Monte-Carlo significance for coherence.

A cell is significant when the observed squared coherence exceeds the
empirical (1 - level) quantile of the coherence of independently generated
AR(1) surrogate pairs fitted to the two input series.  Surrogate iterations
are seeded individually from (seed, iteration), and the per-cell exceedance
counters are order-independent sums, so the mask is bit-identical no matter
how iterations are scheduled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wavelet import MorletSpec, ScaleGrid, SmoothingSpec, coherence, cwt

__all__ = ["AR1Params", "MonteCarloSpec", "fit_ar1", "ar1_surrogate", "significance"]


@dataclass(frozen=True)
class AR1Params:
    """Lag-1 autocorrelation, innovation standard deviation, and level."""

    phi: float
    sigma: float
    mean: float

    def __post_init__(self) -> None:
        if not abs(self.phi) < 1:
            raise ValueError(f"|phi| must be < 1 for stationarity, got {self.phi}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


@dataclass(frozen=True)
class MonteCarloSpec:
    """Monte-Carlo significance configuration; the seed is mandatory."""

    seed: int
    iterations: int = 1000
    significance_level: float = 0.05

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.significance_level < 1.0:
            raise ValueError("significance_level must be in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


def fit_ar1(x) -> AR1Params:
    """Moment fit of an AR(1) process: phi from the lag-1 autocorrelation."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) < 3:
        raise ValueError("need a 1-D series of length >= 3")
    mean = float(x.mean())
    centered = x - mean
    denom = float(centered @ centered)
    if denom == 0.0:
        raise ValueError("series has zero variance; cannot fit AR(1)")
    phi = float(centered[:-1] @ centered[1:]) / denom
    if not abs(phi) < 1:
        raise ValueError(f"degenerate lag-1 autocorrelation {phi}")
    resid = centered[1:] - phi * centered[:-1]
    sigma = float(np.sqrt(np.mean(resid * resid)))
    return AR1Params(phi=phi, sigma=sigma, mean=mean)


def ar1_surrogate(params: AR1Params, n: int, rng: np.random.Generator) -> np.ndarray:
    """One AR(1) draw of length n, started from the stationary distribution."""
    z = rng.standard_normal(n)
    out = np.empty(n)
    stationary_sd = params.sigma / math.sqrt(1.0 - params.phi * params.phi)
    prev = stationary_sd * z[0]
    out[0] = prev
    phi, sigma = params.phi, params.sigma
    for t in range(1, n):
        prev = phi * prev + sigma * z[t]
        out[t] = prev
    return out + params.mean


def _iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, iteration))))


def significance(
    a,
    b,
    grid: ScaleGrid,
    sspec: SmoothingSpec = SmoothingSpec(),
    *,
    mc: MonteCarloSpec,
    morlet: MorletSpec = MorletSpec(),
    dt: float = 1.0,
) -> np.ndarray:
    """Boolean grid: observed rho2 above the surrogate (1 - level) quantile.

    The quantile is the per-cell order statistic at ceil((1 - level) * m) of
    the m surrogate coherences, computed through the same transform and
    smoothing pipeline as the observed field.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("series must have equal length")
    params_a = fit_ar1(a)
    params_b = fit_ar1(b)
    observed = coherence(cwt(a, grid, morlet, dt), cwt(b, grid, morlet, dt), sspec).rho2
    n = len(a)
    count_ge = np.zeros(observed.shape, dtype=np.int64)
    for i in range(mc.iterations):
        rng = _iteration_rng(mc.seed, i)
        sur_a = ar1_surrogate(params_a, n, rng)
        sur_b = ar1_surrogate(params_b, n, rng)
        rho2 = coherence(cwt(sur_a, grid, morlet, dt), cwt(sur_b, grid, morlet, dt), sspec).rho2
        count_ge += rho2 >= observed
    # observed > (1-level) order statistic  <=>  #{surrogate >= observed} <= floor(level*m)
    threshold = math.floor(mc.significance_level * mc.iterations + 1e-9)
    return count_ge <= threshold
