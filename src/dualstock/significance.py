"""AR(1) red-noise surrogates and Monte-Carlo significance for coherence.

A cell is significant when the observed squared coherence exceeds the
empirical (1 - ``SIGNIFICANCE_LEVEL``) quantile of the coherence of
independently generated AR(1) surrogate pairs fitted to the two input
series.  ``significance`` returns the observed ``CoherenceField`` with its
boolean mask and, per cell, the exceedance count: how many of the m
surrogate coherences reached the observed one.

Surrogate iterations are seeded individually from (seed, iteration): each
draws its z_a and then its z_b from ``SeedSequence((seed, iteration))``.
They are drawn ``BLOCK_ITERATIONS`` at a time, with the AR(1) recursion
vectorised over the block's series, and each series keeps the arithmetic
of the scalar recursion, so the surrogates are bit-identical to one scalar
AR(1) draw per series (the test suite's ``ar1_surrogate`` oracle).  The
exceedance counters are order-independent sums, so mask and counts are
bit-identical no matter how iterations are scheduled.

The observed field and every surrogate pair go through the same row-band
pass (``wavelet._rho2_rows``): the observed rho^2 and phase are filled one
scale row at a time, and each surrogate row's ``>=`` comparison with the
observed row is added to the counts as soon as the row is complete.  So no
(num_scales, n) array is allocated per surrogate iteration; a call holds
the result's rho^2, phase and counts (1.5 complex fields) plus the pass's
batches and band, within 3 complex fields at n = 2000 once the kernel
tables are cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wavelet import CoherenceField, ScaleGrid, _rho2_rows, cone_of_influence, phase_field

__all__ = ["AR1Params", "MonteCarloSpec", "fit_ar1", "significance"]

# A cell is significant at 5%, the level of Torrence & Compo (1998).
SIGNIFICANCE_LEVEL = 0.05


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

    def __post_init__(self) -> None:
        for key in ("seed", "iterations"):
            if type(getattr(self, key)) is not int:  # a float or a bool is not a count
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
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
    resid = centered[1:] - phi * centered[:-1]
    sigma = float(np.sqrt(np.mean(resid * resid)))
    return AR1Params(phi=phi, sigma=sigma, mean=mean)


def _ar1_paths(phi: np.ndarray, sigma: np.ndarray, mean: np.ndarray, z: np.ndarray) -> np.ndarray:
    """AR(1) paths driven by standard normals z (time, lane), one lane per series.

    Each lane starts from its stationary distribution.  The recursion runs
    over time for all lanes at once, in place in ``z``, with the arithmetic
    of the scalar loop prev = phi * prev + sigma * z[t], so a lane's path
    does not depend on the other lanes.
    """
    first = sigma / np.sqrt(1.0 - phi * phi) * z[0]
    z *= sigma
    z[0] = first
    for t in range(1, len(z)):
        z[t] += phi * z[t - 1]
    z += mean
    return z


def _iteration_rng(seed: int, iteration: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, iteration))))


# Surrogate iterations drawn per block.  Their AR(1) recursions run as one
# vectorised loop over time; the coherence fields are still computed one
# iteration at a time, so the block only bounds the (2 * block, n) draws.
BLOCK_ITERATIONS = 64


def _surrogate_block(params_a: AR1Params, params_b: AR1Params, n: int, seed: int, iterations) -> np.ndarray:
    """(2 * len(iterations), n) surrogates: rows 2k and 2k + 1 are iteration k's a and b.

    Iteration i draws its z_a and then its z_b from ``SeedSequence((seed, i))``,
    so every row is that iteration's scalar AR(1) draw, bit for bit.
    """
    z = np.empty((n, 2 * len(iterations)))
    for k, i in enumerate(iterations):
        rng = _iteration_rng(seed, i)
        z[:, 2 * k] = rng.standard_normal(n)
        z[:, 2 * k + 1] = rng.standard_normal(n)
    lanes = [np.tile([getattr(params_a, f), getattr(params_b, f)], len(iterations)) for f in ("phi", "sigma", "mean")]
    return _ar1_paths(*lanes, z).T.copy()


def significance(a, b, grid: ScaleGrid, *, mc: MonteCarloSpec) -> CoherenceField:
    """Observed coherence field of two daily series with its Monte-Carlo significance mask.

    The transforms use one sample per trading day, for the observed pair and
    for every surrogate pair alike.

    ``exceedances`` counts, per cell, the m surrogate coherences at or above
    the observed one.  A cell is significant when the observed rho2 lies
    above the per-cell order statistic at ceil((1 - SIGNIFICANCE_LEVEL) * m)
    of the surrogate coherences, computed through the same transform and
    smoothing pipeline as the observed field.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("series must have equal length")
    n = a.size  # the producer checks that each input is a 1-D series
    rho2 = np.empty((grid.num_scales, n))
    phase = np.empty((grid.num_scales, n))
    for j, rho2_row, cross_row in _rho2_rows(a, b, grid):
        rho2[j] = rho2_row
        phase[j] = phase_field(cross_row)
    params_a = fit_ar1(a)
    params_b = fit_ar1(b)
    count_ge = np.zeros(rho2.shape, dtype=np.int64)
    for start in range(0, mc.iterations, BLOCK_ITERATIONS):
        block = range(start, min(mc.iterations, start + BLOCK_ITERATIONS))
        surrogates = _surrogate_block(params_a, params_b, n, mc.seed, block)
        for k in range(len(block)):
            for j, rho2_row, _ in _rho2_rows(surrogates[2 * k], surrogates[2 * k + 1], grid):
                count_ge[j] += rho2_row >= rho2[j]
    # observed > (1-level) order statistic  <=>  #{surrogate >= observed} <= floor(level*m)
    threshold = math.floor(SIGNIFICANCE_LEVEL * mc.iterations + 1e-9)
    return CoherenceField(
        rho2, phase, grid, cone_of_influence(n), significant=count_ge <= threshold, exceedances=count_ge
    )
