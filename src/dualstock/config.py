"""The run configuration: ``load_config`` parses one JSON file (its keys and
each value's JSON type) and applies the flag overrides (the seed, the output
directory, a subcommand's analysis); every other rule is checked by the record
that holds the value, so a library caller gets the error the CLI prints.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
import types
import typing
from dataclasses import dataclass
from pathlib import Path

from .forecast import RegimeSpec, not_a_lag
from .lstm import TrainConfig
from .significance import MonteCarloSpec
from .timeseries import CsvFormat

__all__ = ["ANALYSES", "WaveletOptions", "ForecastOptions", "RunConfig", "load_config"]

ANALYSES = ("premiums", "coherence", "forecast")
PAIRWISE = ("premiums", "coherence")  # the analyses of ticker pairs
# a ticker name is part of output file names and CSV cells, and "_" joins two
# names in a pair's label, so it holds no path separator, "_" or ","
TICKER_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9.-]*")


@dataclass(frozen=True)
class WaveletOptions:
    mc_iterations: int = MonteCarloSpec.iterations

    def __post_init__(self) -> None:
        # the record's own check rejects a bad value before any analysis runs
        self.monte_carlo(seed=0)

    def monte_carlo(self, seed: int) -> MonteCarloSpec:
        return MonteCarloSpec(seed=seed, iterations=self.mc_iterations)


@dataclass(frozen=True)
class ForecastOptions:
    lags: tuple[int, ...] = (4, 9)
    duals: tuple[bool, ...] = (False, True)
    windows: tuple[int, ...] = (5, 10, 20, 50)
    mece_train_size: int | None = 5282  # None drops the MECE regime
    test_size: int = 300
    epochs: int = TrainConfig.epochs
    hidden_size: int = TrainConfig.hidden_size
    tickers: tuple[str, ...] | None = None  # forecast subset; all loaded tickers if None

    def __post_init__(self) -> None:
        # the lag rule and the records' own checks reject bad values before any analysis runs
        for lag in self.lags:
            if error := not_a_lag(lag):
                raise ValueError(error)
        self.train_config()
        # the grid is every ticker x lag x dual x regime: an empty axis leaves
        # no cell, and a repeated entry would run and write its cells twice
        for key in ("tickers", "lags", "duals", "windows"):
            values = getattr(self, key)
            if values == () and key != "windows":
                raise ValueError(f"forecast.{key} is empty, so the forecast grid has no cell")
            for i, value in enumerate(values or ()):
                if value in values[:i]:
                    raise ValueError(f"forecast.{key} must not repeat {value!r}")
        if not self.cells():
            raise ValueError(
                f"forecast.windows {list(self.windows)} and mece_train_size {self.mece_train_size} "
                f"give no cell at lags {list(self.lags)}: a training set runs only at lags below its size"
            )

    def regimes(self) -> list[RegimeSpec]:
        """One rolling regime per window, then MECE unless mece_train_size is None."""
        regimes = [RegimeSpec(kind="rolling", test_size=self.test_size, window=w) for w in self.windows]
        if self.mece_train_size is not None:
            regimes.append(RegimeSpec(kind="mece", test_size=self.test_size, train_size=self.mece_train_size))
        return regimes

    def cells(self) -> list[tuple[int, bool, RegimeSpec]]:
        """The (lag, dual, regime) cells that run, in grid order; the others are missing cells of the grids."""
        grid = itertools.product(self.lags, self.duals, self.regimes())
        return [(lag, dual, regime) for lag, dual, regime in grid if regime.lag_error(lag) is None]

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, hidden_size=self.hidden_size)


def _check_analyses(analyses) -> None:
    """The analyses rule: at least one, each a name from ``ANALYSES``, none repeated."""
    if not analyses:
        raise ValueError("config key analyses must name at least one analysis")
    for i, analysis in enumerate(analyses):
        if analysis not in ANALYSES:
            raise ValueError(f"config key analyses must be names from {ANALYSES}, got {analysis!r}")
        if analysis in analyses[:i]:
            raise ValueError(f"config key analyses must not repeat {analysis!r}")


@dataclass(frozen=True)
class RunConfig:
    """Validated pipeline configuration (paths resolved, files checked, the selected analyses runnable)."""

    tickers: tuple[tuple[str, Path], ...]
    out_dir: Path
    seed: int
    analyses: tuple[str, ...] = ANALYSES
    csv_format: CsvFormat = CsvFormat()
    wavelet: WaveletOptions = WaveletOptions()
    forecast: ForecastOptions = ForecastOptions()

    def __post_init__(self) -> None:
        if not self.tickers:
            raise ValueError("config must declare at least one ticker")
        _check_analyses(self.analyses)
        for name, path in self.tickers:
            if not TICKER_NAME.fullmatch(name):
                raise ValueError(f"config key tickers: name {name!r} must match {TICKER_NAME.pattern}")
            if not Path(path).is_file():
                raise ValueError(f"input file for ticker {name} not found: {path}")
        unknown = set(self.forecast.tickers or ()) - {name for name, _ in self.tickers}
        if unknown:
            raise ValueError(f"config section forecast: tickers {sorted(unknown)} are not declared inputs")
        pairwise = [analysis for analysis in self.analyses if analysis in PAIRWISE]
        if pairwise and len(self.tickers) < 2:
            raise ValueError(
                f"config key tickers must declare at least two tickers for {' and '.join(pairwise)}, "
                f"got {len(self.tickers)}"
            )
        # a dual run's features are its own series and its two siblings'
        if "forecast" in self.analyses and True in self.forecast.duals and len(self.tickers) != 3:
            raise ValueError(
                f"config key forecast.duals includes true: a dual run needs exactly three declared tickers, "
                f"got {len(self.tickers)}"
            )


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a dataclass field type (a tuple is a JSON list)."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_conforms(value, arm) for arm in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        return isinstance(value, list) and all(_conforms(v, typing.get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, hint)


def _section(raw: dict, name: str, defaults):
    """Merge one config section over a dataclass's defaults, checking keys and types."""
    data = raw.get(name, {})
    if not isinstance(data, dict):
        raise ValueError(f"config section {name!r} must be an object")
    hints = typing.get_type_hints(type(defaults))
    unknown = set(data) - set(hints)
    if unknown:
        raise ValueError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    for key, value in data.items():
        hint = hints[key]
        if not _conforms(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ValueError(f"config key {name}.{key} must be {expected}, got {value!r}")
    try:
        return dataclasses.replace(
            defaults, **{k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
        )
    except ValueError as exc:
        raise ValueError(f"config section {name}: {exc}") from None


def _unique_keys(pairs: list) -> dict:
    """JSON object hook: a repeated key is an error, not last-one-wins."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"config key {key!r} is repeated in one JSON object")
        obj[key] = value
    return obj


def load_config(
    path: str | Path,
    seed: int | None = None,
    out_dir: str | Path | None = None,
    analyses: tuple[str, ...] | None = None,
) -> RunConfig:
    """Parse and validate a JSON config file, applying flag overrides.

    ``analyses``, a subcommand's selection, replaces the ``analyses`` key, which is checked all the same.
    """
    path = Path(path)
    raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    known = {"tickers", "out_dir", "seed", "analyses", "csv", "wavelet", "forecast"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, hint in (("seed", int), ("out_dir", str), ("analyses", list)):
        if key in raw and not _conforms(raw[key], hint):
            raise ValueError(f"config key {key} must be {hint.__name__}, got {raw[key]!r}")
    paths = raw.get("tickers")
    if not isinstance(paths, dict) or not all(isinstance(p, str) for p in paths.values()):
        raise ValueError(f"config key tickers must be an object mapping names to CSV paths, got {paths!r}")
    base = path.parent
    tickers = tuple(
        (name, (base / p).resolve() if not Path(p).is_absolute() else Path(p))
        for name, p in paths.items()
    )
    # Path("") is the working directory, which an empty setting never means
    if raw.get("out_dir") == "":
        raise ValueError("config key out_dir must not be empty")
    if out_dir == "":
        raise ValueError("--out must not be empty")
    resolved_out = raw.get("out_dir") if out_dir is None else out_dir
    if resolved_out is None:
        raise ValueError("no output directory: set out_dir in config or pass --out")
    resolved_seed = seed if seed is not None else raw.get("seed")
    if resolved_seed is None:
        raise ValueError("no master seed: set seed in config or pass --seed")
    selected = tuple(raw.get("analyses", ANALYSES))
    _check_analyses(selected)
    return RunConfig(
        tickers=tickers,
        out_dir=Path(resolved_out),
        seed=int(resolved_seed),
        analyses=selected if analyses is None else analyses,
        csv_format=_section(raw, "csv", CsvFormat()),
        wavelet=_section(raw, "wavelet", WaveletOptions()),
        forecast=_section(raw, "forecast", ForecastOptions()),
    )
