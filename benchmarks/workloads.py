"""The benchmark workloads and their projection onto the paper grid.

Each workload is one ``dualstock run`` invocation on paper-length tickers
from ``inputs.py``, repeated in a closed loop of one client.  Invocations
are kept to a few seconds so that one run holds many of them and their
median is steady on a shared machine.

The paper grid (ROADMAP aim 1) is 3 tickers and 3 pairs; 1000 Monte-Carlo
iterations per pair; lags {4, 9} x dual {no, yes} x rolling windows
{5, 10, 20, 50} plus MECE (train 5282); 300 test origins; 200 epochs.  A
window must exceed the lag, so window 5 runs only at lag 4.

``paper_grid_h`` projects one measured invocation onto that grid:

- coherence-paper: ``setup_s + P * (wall_s - setup_s - sig_s + sig_s * (1000 + 1) / (m + 1))``
  where ``sig_s`` is the time spent inside ``significance()`` (clocked per
  pair), ``m`` the workload's iterations per pair and ``P`` the paper's
  pairs over the workload's pairs.  ``significance()`` computes the
  observed field once and one surrogate field per iteration, hence the
  ``+ 1``; the output and premium costs are per pair and scale with ``P``.
- forecast-rolling: ``setup_s + (wall_s - setup_s) * paper_cell_steps / cell_steps``
  where a cell step is one LSTM cell forward and backward in training
  (samples x lag x epochs), counted for the workload's rolling regimes and
  for the paper grid's rolling regimes.  Per-run output and prediction
  costs ride along with the per-cell-step cost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from inputs import TICKERS

PAPER_MC_ITERATIONS = 1000
PAPER_LAGS = (4, 9)
PAPER_DUALS = (False, True)
PAPER_WINDOWS = (5, 10, 20, 50)
PAPER_TEST_SIZE = 300
PAPER_EPOCHS = 200


def rolling_cell_steps(tickers: int, lags, duals, windows, origins: int, epochs: int) -> int:
    return tickers * len(duals) * sum(
        origins * (w - lag) * lag * epochs for lag in lags for w in windows if w > lag
    )


PAPER_ROLLING_CELL_STEPS = rolling_cell_steps(
    len(TICKERS), PAPER_LAGS, PAPER_DUALS, PAPER_WINDOWS, PAPER_TEST_SIZE, PAPER_EPOCHS
)
PAPER_PAIRS = len(list(itertools.combinations(TICKERS, 2)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    analyses: tuple[str, ...]
    tickers: tuple[str, ...] = TICKERS
    wavelet: dict = field(default_factory=dict)
    forecast: dict = field(default_factory=dict)

    def config(self, tickers: dict, seed: int) -> dict:
        return {
            "tickers": {name: str(tickers[name]) for name in self.tickers},
            "seed": seed,
            "analyses": list(self.analyses),
            "wavelet": self.wavelet,
            "forecast": self.forecast,
        }

    def _forecast_grid(self):
        f = self.forecast
        regimes = [f"w{w}" for w in f["windows"]]
        for ticker, lag, dual, regime in itertools.product(f["tickers"], f["lags"], f["duals"], regimes):
            yield ticker, lag, dual, regime

    def expected_units(self) -> list[str]:
        """Analysis units one invocation must produce: pairs, forecast runs, grids."""
        units = []
        for a, b in self.pairs():
            if "premiums" in self.analyses:
                units.append(f"premiums:{a}_over_{b}")
            if "coherence" in self.analyses:
                units.append(f"coherence:{a}_{b}")
        if "forecast" in self.analyses:
            units += [
                f"forecast:{t}_lag{lag}_dual-{'yes' if dual else 'no'}_{regime}"
                for t, lag, dual, regime in self._forecast_grid()
            ]
            units.append("forecast:grids")
        return units

    def pairs(self) -> list[tuple[str, str]]:
        return list(itertools.combinations(self.tickers, 2))

    def mc_iterations(self) -> int:
        """Surrogate pairs drawn per invocation."""
        return len(self.pairs()) * self.wavelet["mc_iterations"] if "coherence" in self.analyses else 0

    def cell_steps(self) -> int:
        """Trained LSTM cell steps per invocation (samples x lag x epochs)."""
        if "forecast" not in self.analyses:
            return 0
        f = self.forecast
        n = len(f["tickers"])
        return rolling_cell_steps(n, f["lags"], f["duals"], f["windows"], f["test_size"], f["epochs"])

    def throughput(self) -> tuple[str, int]:
        """Name and work count of the workload's own throughput metric."""
        if "coherence" in self.analyses:
            return "mc_iter_per_s", self.mc_iterations()
        return "cell_steps_per_s", self.cell_steps()

    def paper_grid_s(self, wall_s: float, setup_s: float, sig_s: float) -> float:
        """One invocation projected onto this workload's part of the paper grid."""
        if "coherence" in self.analyses:
            scale = (PAPER_MC_ITERATIONS + 1) / (self.wavelet["mc_iterations"] + 1)
            per_pair_scale = PAPER_PAIRS / len(self.pairs())
            return setup_s + per_pair_scale * (wall_s - setup_s - sig_s + sig_s * scale)
        return setup_s + (wall_s - setup_s) * PAPER_ROLLING_CELL_STEPS / self.cell_steps()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="coherence-paper",
            why=(
                "1 pair at paper length (97 scales, npad 16384): significance and wavelet dominate the"
                " projection, plus a fixed CSV and SVG cost per pair; lstm is never called"
            ),
            analyses=("premiums", "coherence"),
            tickers=TICKERS[:2],
            wavelet={"mc_iterations": 6},
        ),
        Workload(
            name="forecast-rolling",
            why=(
                "lags {4,9} x dual x windows {10,20} x 100 origins: 800 short trainings, so per-call"
                " overhead and batching across origins show; wavelet is never called"
            ),
            analyses=("forecast",),
            forecast={
                "tickers": [TICKERS[0]],
                "lags": [4, 9],
                "duals": [False, True],
                "windows": [10, 20],
                "mece_train_size": None,
                "test_size": 100,
                "epochs": 1,
            },
        ),
    )
}
