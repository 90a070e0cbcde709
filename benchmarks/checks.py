"""Output checks for one ``dualstock run`` invocation.

Each output file belongs to one analysis unit: a premium pair, a coherence
pair, a forecast run, or the forecast grids.  A unit fails when the manifest
reports a failure for it, when a file is missing, unlisted or does not match
its manifest hash, or when its content disagrees with the generated inputs.

The content checks are independent of the program: dates, row counts and
actual prices are recomputed from the input CSVs, and each run's RMSE is
recomputed from its predictions.  They also give a compact reference per
unit (row count, significant-cell count and rho^2 sum per pair; RMSE per
forecast run) that the traced invocation must match: counts exactly, sums
within ``REL_TOL``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REL_TOL = 1e-9
COHERENCE_HEADER = "time_index,date,scale_days,period_days,rho2,phase_rad,significant,inside_coi"
FORECAST_HEADER = "origin_index,date,actual,predicted,train_start,train_end"
PRICE_CEILING = 400.0  # predictions far outside the (2, 190) input band mean a broken model


@dataclass
class Inputs:
    """The generated prices as the program should read them."""

    mids: dict[str, dict[str, float]]  # ticker -> ISO date -> mid

    @classmethod
    def load(cls, paths: dict[str, Path]) -> "Inputs":
        mids = {}
        for name, path in paths.items():
            with path.open(newline="", encoding="utf-8") as fh:
                mids[name] = {row["date"]: 0.5 * (float(row["high"]) + float(row["low"])) for row in csv.DictReader(fh)}
        return cls(mids)

    def common(self, names) -> list[str]:
        dates = set.intersection(*(set(self.mids[n]) for n in names))
        return sorted(dates)


@dataclass
class InvocationCheck:
    unit_hashes: dict[str, tuple] = field(default_factory=dict)
    failed: dict[str, str] = field(default_factory=dict)
    compact: dict[str, tuple] = field(default_factory=dict)
    output_bytes: int = 0


def unit_of(path: str) -> str:
    parts = path.split("/")
    stem = parts[-1].rsplit(".", 1)[0]
    if parts[0] == "premiums":
        for suffix in ("_series", "_summary"):
            if stem.endswith(suffix):
                return f"premiums:{stem[: -len(suffix)]}"
    if parts[0] == "coherence" and len(parts) == 2:
        return f"coherence:{stem}"
    if parts[:2] == ["forecast", "runs"]:
        return f"forecast:{stem}"
    if parts[:2] == ["forecast", "grids"]:
        return "forecast:grids"
    return f"other:{path}"


def _failure_unit(text: str, expected: list[str]) -> list[str]:
    """Units a manifest failure line names; a whole-analysis failure names all of them."""
    head, _, _ = text.partition(":")
    words = head.split()
    if len(words) == 1:
        return [u for u in expected if u.startswith(words[0] + ":")] or [f"other:{text}"]
    if words[0] in ("premiums", "coherence"):
        return [f"{words[0]}:{words[1]}"]
    if words[0] == "forecast" and len(words) >= 5:
        ticker, lag, dual, regime = words[1], words[2][4:], words[3][5:], words[4]
        regime = "mece" if regime == "mece" else "w" + regime.split("=")[-1]
        return [f"forecast:{ticker}_lag{lag}_dual-{dual}_{regime}"]
    return [f"other:{text}"]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_invocation(out_dir: Path, expected: list[str], inputs: Inputs, forecast: dict, content: bool) -> InvocationCheck:
    """Check one output directory; ``content`` adds the content checks and compact reference."""
    result = InvocationCheck()
    manifest_path = out_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        result.failed = {u: f"no readable manifest: {exc}" for u in expected}
        return result
    for text in manifest.get("failures", []):
        for unit in _failure_unit(text, expected):
            result.failed.setdefault(unit, f"manifest failure: {text}")

    listed = {entry["path"]: entry["sha256"] for entry in manifest.get("outputs", [])}
    on_disk = {str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file()} - {"manifest.json"}
    for path in sorted(on_disk - set(listed)):
        result.failed.setdefault(unit_of(path), f"file not in manifest: {path}")
    hashes: dict[str, list] = {}
    for path, sha in sorted(listed.items()):
        unit = unit_of(path)
        hashes.setdefault(unit, []).append((path, sha))
        file = out_dir / path
        if not file.is_file():
            result.failed.setdefault(unit, f"listed file missing: {path}")
            continue
        result.output_bytes += file.stat().st_size
        if _sha256(file) != sha:
            result.failed.setdefault(unit, f"hash differs from manifest: {path}")
    result.unit_hashes = {u: tuple(v) for u, v in hashes.items()}
    for unit in expected:
        if unit not in hashes:
            result.failed.setdefault(unit, "no output files")
    for unit in set(hashes) - set(expected):
        result.failed.setdefault(unit, "unexpected output")

    if content:
        # grids last: they are checked against the runs' recomputed RMSEs
        for unit in sorted(expected, key=lambda u: u == "forecast:grids"):
            if unit in result.failed:
                continue
            kind, name = unit.split(":", 1)
            try:
                if unit == "forecast:grids":
                    result.compact[unit] = _check_grids(out_dir, forecast, result.compact)
                else:
                    result.compact[unit] = _CONTENT[kind](out_dir, name, inputs, forecast)
            except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
                result.failed[unit] = f"content check: {exc}"
    return result


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _pair_dates(inputs: Inputs, name: str, sep: str) -> list[str]:
    a, b = name.split(sep)
    return inputs.common([a, b])


def _check_premiums(out_dir: Path, name: str, inputs: Inputs, forecast: dict) -> tuple:
    dates = _pair_dates(inputs, name, "_over_")
    summary = json.loads((out_dir / "premiums" / f"{name}_summary.json").read_text(encoding="utf-8"))
    lines = (out_dir / "premiums" / f"{name}_series.csv").read_text(encoding="utf-8").splitlines()
    _require(summary["n"] == len(dates), f"summary n={summary['n']}, expected {len(dates)}")
    _require([line.split(",")[0] for line in lines[1:]] == dates, "premium dates differ from the common dates")
    return (summary["n"], summary["mean"])


def _check_coherence(out_dir: Path, name: str, inputs: Inputs, forecast: dict) -> tuple:
    dates = _pair_dates(inputs, name, "_")[1:]  # returns start on the second common date
    path = out_dir / "coherence" / f"{name}.csv"
    with path.open(encoding="utf-8") as fh:
        _require(fh.readline().strip() == COHERENCE_HEADER, "coherence CSV header changed")
        first = [next(fh).split(",")[1] for _ in dates]
    _require(first == dates, "first scale's dates differ from the pair's return dates")
    table = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 4, 6, 7))
    rows = table.shape[0]
    _require(rows % len(dates) == 0, f"{rows} rows is not a whole number of scales")
    rho2, sig = table[:, 1], table[:, 2]
    _require(bool(((rho2 >= 0) & (rho2 <= 1)).all()), "rho2 outside [0, 1]")
    _require(bool(np.isin(sig, (0, 1)).all() and np.isin(table[:, 3], (0, 1)).all()), "flags not 0/1")
    svg = (out_dir / "coherence" / f"{name}.svg").read_bytes()
    _require(b"<svg" in svg[:512] and svg.rstrip().endswith(b"</svg>"), "SVG is not a complete document")
    return (rows, int(sig.sum()), float(rho2.sum()))


def _check_forecast(out_dir: Path, name: str, inputs: Inputs, forecast: dict) -> tuple:
    ticker, lag, dual, regime = name.split("_")
    lag = int(lag[3:])
    dates = inputs.common(list(inputs.mids))
    test = forecast["test_size"]
    first = len(dates) - test
    meta = json.loads((out_dir / "forecast" / "runs" / f"{name}.json").read_text(encoding="utf-8"))
    _require(meta["ticker"] == ticker and meta["lag"] == lag and meta["dual"] == dual[5:], "run manifest mismatch")
    lines = (out_dir / "forecast" / "runs" / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    _require(lines[0] == FORECAST_HEADER and len(lines) == test + 1, "predictions CSV shape changed")
    mids = inputs.mids[ticker]
    sq = 0.0
    for k, line in enumerate(lines[1:]):
        origin, date, actual, predicted, start, end = line.split(",")
        o = first + k
        _require(int(origin) == o and date == dates[o], f"origin {k} is {origin} {date}, expected {o} {dates[o]}")
        _require(float(actual) == mids[date], f"actual at {date} is not the input mid price")
        lo = 0 if regime == "mece" else o - int(regime[1:])
        hi = forecast["mece_train_size"] if regime == "mece" else o
        _require((int(start), int(end)) == (lo, hi), f"training range [{start}, {end}) at origin {o}")
        p = float(predicted)
        _require(math.isfinite(p) and 0.0 < p < PRICE_CEILING, f"prediction {p} at {date}")
        sq += (p - mids[date]) ** 2
    return (test, math.sqrt(sq / test))


def _check_grids(out_dir: Path, forecast: dict, compact: dict[str, tuple]) -> tuple:
    """Every grid cell's RMSE equals the one recomputed from its run's predictions."""
    cells = 0
    for ticker in forecast["tickers"]:
        grid = json.loads((out_dir / "forecast" / "grids" / f"{ticker}.json").read_text(encoding="utf-8"))
        for key, cell in grid["cells"].items():
            if cell is None:
                continue
            regime, lag, dual = key.split("|")
            window = "mece" if regime == "mece" else "w" + regime.split("=")[1]
            unit = f"forecast:{ticker}_lag{lag[4:]}_dual-{dual[5:]}_{window}"
            _require(unit in compact, f"grid cell {key} has no checked run")
            rmse = compact[unit][1]
            _require(math.isclose(cell["rmse"], rmse, rel_tol=REL_TOL), f"grid RMSE {cell['rmse']} for {key}, recomputed {rmse}")
            cells += 1
    _require((out_dir / "forecast" / "grids" / "long.csv").is_file(), "long.csv missing")
    return (cells,)


_CONTENT = {"premiums": _check_premiums, "coherence": _check_coherence, "forecast": _check_forecast}


def compact_mismatches(reference: dict[str, tuple], other: dict[str, tuple]) -> dict[str, str]:
    """Units whose compact reference differs: counts exactly, floats within REL_TOL."""
    bad = {}
    for unit, ref in reference.items():
        got = other.get(unit)
        if got is None:
            continue
        same = len(got) == len(ref) and all(
            math.isclose(g, r, rel_tol=REL_TOL) if isinstance(r, float) else g == r for g, r in zip(got, ref)
        )
        if not same:
            bad[unit] = f"compact reference {got} differs from {ref}"
    return bad
