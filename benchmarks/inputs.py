"""Seeded synthetic inputs of paper shape: three share classes of one company.

Each ticker's mid-price is a shared trend plus its own AR(1) deviation,
squashed into a fixed band so every price stays inside (2, 190) and the
forecast scaling never warns.  Each ticker misses its own ~1% of the
business days, chosen disjointly, so pairwise and n-way date alignment do
real work while every seed leaves exactly ``COMMON_DAYS`` common dates.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

TICKERS = ("KRDMA", "KRDMB", "KRDMD")
COMMON_DAYS = 5582  # paper length: MECE train 5282 + 300 test origins
DROPPED_PER_TICKER = 58  # ~1% of each ticker's calendar
START = dt.date(2000, 1, 3)
MID_LO, MID_HI = 3.0, 180.0
MAX_HALF_RANGE = 0.02  # high/low = mid * (1 +- u), u <= 2%


def _business_days(count: int) -> list[dt.date]:
    days: list[dt.date] = []
    day = START
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def _ar1(rng: np.random.Generator, phi: float, sigma: float, n: int) -> np.ndarray:
    z = rng.standard_normal(n) * sigma
    out = np.empty(n)
    out[0] = z[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        out[t] = phi * out[t - 1] + z[t]
    return out


def generate(seed: int, out_dir: Path) -> dict[str, Path]:
    """Write one high/low CSV per ticker under ``out_dir``; return ticker -> path."""
    rng = np.random.default_rng(np.random.SeedSequence((0x5EED, seed)))
    total = COMMON_DAYS + DROPPED_PER_TICKER * len(TICKERS)
    days = _business_days(total)
    # Shared log-odds trend: a slow mean-reverting walk plus a multi-year cycle.
    t = np.arange(total)
    trend = _ar1(rng, 0.9995, 0.02, total) * 0.5 + 0.6 * np.sin(2 * np.pi * t / 1500.0 + rng.uniform(0, 2 * np.pi))
    dropped = rng.permutation(np.arange(1, total - 1))[: DROPPED_PER_TICKER * len(TICKERS)]
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for k, name in enumerate(TICKERS):
        offset = 0.15 * (k - 1)  # class premium on the log-odds scale
        z = trend + offset + _ar1(rng, 0.9, 0.05, total)
        mid = MID_LO + (MID_HI - MID_LO) / (1.0 + np.exp(-z))
        half = rng.uniform(0.001, MAX_HALF_RANGE, total)
        skip = set(dropped[k * DROPPED_PER_TICKER : (k + 1) * DROPPED_PER_TICKER].tolist())
        lines = ["date,high,low"]
        lines += [
            f"{days[i].isoformat()},{mid[i] * (1 + half[i]):.4f},{mid[i] * (1 - half[i]):.4f}"
            for i in range(total)
            if i not in skip
        ]
        path = out_dir / f"{name.lower()}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths[name] = path
    return paths
