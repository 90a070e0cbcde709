"""Batch command-line pipeline: ingestion, premiums, coherence, forecasts.

Subcommands: ``premiums``, ``coherence``, ``forecast``, ``run`` (the
analyses selected in the config), and ``report`` (re-assemble metric grids
from existing run manifests).  A single declarative JSON config plus flag
overrides drives everything; ``config.load_config``, imported here, checks
all of it.  The master seed deterministically derives one child seed per
analysis unit, so reruns with identical inputs and config are
byte-identical.  Every invocation writes a manifest listing emitted files
and the SHA-256 of the bytes written to each.

Each ``cmd_*`` returns its ``Unit``s in canonical order and writes nothing:
a premium pair, a coherence pair, the runs of one ``forecast_group`` call, a
descriptor that ``report`` reads, and last the grids over the runs written
before them.  The grids' runs, and each run ``report`` reads with those read
before it, make one ``metrics.LossTable``, the owner of the rules for a set of
runs.  ``CommandOutcome.execute`` computes and writes them one at a
time, and records an error of ``UNIT_ERRORS`` as the failure line
``<analysis> <unit>: <message>``; an analysis that cannot be planned fails as
``<analysis>: <message>``.  A failure line names paths under the output
directory (and, for ``report``, under ``--runs``) relative to it, so a failing
rerun into another directory records the same manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atomicfile import atomic_open
from .config import ANALYSES, TICKER_NAME, RunConfig, load_config
from .forecast import DUAL_LABELS, Cell, ForecastRun, RegimeSpec, TrainingDivergedError, forecast_group
from .lstm import CLIP_NORM, LEARNING_RATE, TrainConfig
from .metrics import LossTable, assemble_grid, grid_table_rows, grid_to_json_dict, long_format_rows
from .seeds import child_seed
from .significance import significance
from .svgplot import render_heatmap
from .timeseries import (
    PriceSeries,
    align_series,
    daily_returns,
    load_ohlc_csv,
    premium_series,
    premium_summary,
    render_summary_csv,
    summary_to_dict,
)
from .wavelet import ScaleGrid

__all__ = ["RunConfig", "load_config", "cmd_premiums", "cmd_coherence", "cmd_forecast", "cmd_report", "main"]

MIN_COHERENCE_LENGTH = 64

# what one failing unit records before the run goes on with the next
UNIT_ERRORS = (ValueError, OSError, FloatingPointError, TrainingDivergedError)


@dataclass
class CommandOutcome:
    """The files one invocation wrote, with their SHA-256, and the units that failed, for its manifest.

    A failure line names a path under one of ``roots`` relative to the first
    root that holds it.
    """

    roots: tuple[Path, ...] = ()
    files: dict[Path, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def _relative(self, name):
        """``name`` relative to the first of ``roots`` that holds it, else as it was."""
        for root in self.roots:
            with contextlib.suppress(TypeError, ValueError):
                return str(Path(name).relative_to(root))
        return name

    def write(self, path: Path, text: str | bytes | Iterable[str | bytes]) -> None:
        """Write ``text``, or its chunks one by one, atomically to ``path``; list it with its SHA-256.

        ``text`` and each chunk are ``str``, written as UTF-8, or ``bytes``,
        written as they are.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256()
        try:
            with atomic_open(path) as fh:
                for chunk in [text] if isinstance(text, (str, bytes)) else text:
                    data = chunk.encode("utf-8") if isinstance(chunk, str) else chunk
                    digest.update(data)
                    fh.write(data)
        except OSError as exc:  # one raised while writing (a full disk, a failing chunk) names no file
            if exc.filename is None:
                raise OSError(f"{self._relative(path)}: {exc}") from exc
            raise
        self.files[path] = digest.hexdigest()

    def execute(self, units: Iterable[Unit]) -> list:
        """Compute and write each unit in order; the results of the parts written, which each ``compute`` is given."""
        written = []
        for unit in units:
            self._run(unit, written)  # which drops the unit's parts as it returns
        return written

    def _run(self, unit: Unit, written: list) -> None:
        """Compute ``unit``, write its parts and append the results of those written whole to ``written``."""
        try:
            parts = unit.compute(written)
        except UNIT_ERRORS as exc:  # it fails every name of the unit
            parts = [exc] * len(unit.names)
        for name, part in zip(unit.names, parts):
            try:
                if isinstance(part, Exception):
                    raise part
                files, result = part
                for path, text in files.items():
                    self.write(path, text)
                written.append(result)
            except UNIT_ERRORS as exc:  # the part's failure line; the files it wrote stay listed
                for attr in ("filename", "filename2"):  # an OSError's paths; an unset one stays unset
                    if getattr(exc, attr, None) is not None:
                        setattr(exc, attr, self._relative(getattr(exc, attr)))
                self.failures.append(f"{name}: {exc}")


@dataclass(frozen=True)
class Unit:
    """Work under one or more names; ``compute(written)`` is given the results written before it and writes no file.

    For each name it returns the part's ``(files, result)``, ``files`` mapping
    paths to text, bytes or lazy chunks, or the exception that failed it alone.
    """

    names: tuple[str, ...]
    compute: Callable[[list], list]


TickerSeries = list[tuple[str, PriceSeries]]


def _load_all(config: RunConfig) -> TickerSeries:
    """Every declared ticker's series, read once per invocation and shared by the analyses."""
    return [(name, load_ohlc_csv(path, config.csv_format)) for name, path in config.tickers]


def _csv_text(rows: list[list[str]]) -> str:
    return "\n".join(",".join(row) for row in rows) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_premiums(config: RunConfig, series: TickerSeries) -> list[Unit]:
    """Premium series and summary stats for every ticker pair, one unit per pair."""
    if len(series) < 2:
        raise ValueError("premiums needs at least two tickers")

    def pair(name_a, a, name_b, b, written):
        premiums = premium_series(a, b)
        if premiums.n == 0:
            raise ValueError("empty date intersection")
        stats = premium_summary(premiums)
        lines = ["date,premium"]
        lines += [f"{d.isoformat()},{v:.6f}" for d, v in zip(premiums.dates, premiums.values)]
        out, label = config.out_dir / "premiums", f"{name_a}_over_{name_b}"
        files = {
            out / f"{label}_series.csv": "\n".join(lines) + "\n",
            out / f"{label}_summary.csv": render_summary_csv(stats),
            out / f"{label}_summary.json": _json_text(summary_to_dict(stats)),
        }
        return [(files, None)]

    pairs = itertools.combinations(series, 2)
    return [Unit((f"premiums {a}_over_{b}",), functools.partial(pair, a, sa, b, sb)) for (a, sa), (b, sb) in pairs]


_VELTKAMP = 134217729.0  # 2**27 + 1 splits a double into two 26-bit halves


def _fixed6(values: np.ndarray, out: np.ndarray) -> None:
    """ASCII of ``"%.6f" % v`` for every |v| < 9.5, into the (n, 9) uint8 ``out``.

    Column 0 is ``-`` when the sign bit is set (so -0.0 and small negatives
    print ``-0.000000``) and NUL otherwise; then the integer digit, ``.``
    and six decimals.  The decimals are rounded exactly, halves to even, as
    ``%`` rounds the exact binary value: with f the fractional part, f * 1e6
    is p + err exactly (Dekker's product; 1e6 has 20 significant bits and
    needs no split), p - floor(p) - 0.5 is exact wherever it is near 0, so
    comparing it with -err decides every half without roundoff.  The rounded
    micro-units are an integer of at most 1e6, held in float64; each decimal
    is floor(rest / 10**k), exact for integers below 2**53.
    """
    magnitude = np.abs(values)
    whole = np.floor(magnitude)
    frac = magnitude - whole
    p = frac * 1e6
    big = _VELTKAMP * frac
    hi = big - (big - frac)
    err = (hi * 1e6 - p) + (frac - hi) * 1e6
    floor_p = np.floor(p)
    above_half = (p - floor_p) - 0.5
    odd = (floor_p.astype(np.int64) & 1).astype(bool)
    micro = floor_p + ((above_half > -err) | ((above_half == -err) & odd))
    carry = micro == 1e6
    out[:, 0] = np.where(np.signbit(values), ord("-"), 0)
    out[:, 1] = whole + carry + ord("0")
    out[:, 2] = ord(".")
    rest = np.where(carry, 0.0, micro)
    for column, place in enumerate((1e5, 1e4, 1e3, 1e2, 1e1), start=3):
        digit = np.floor(rest / place)
        out[:, column] = digit + ord("0")
        rest -= digit * place
    out[:, 8] = rest + ord("0")


def _coherence_csv(field, dates) -> Iterable[bytes]:
    """Long-format CSV of a coherence field as ASCII bytes: the header, then one chunk per scale row.

    A row's lines are assembled in an (n, width) byte buffer at fixed
    columns, NUL where a line is shorter than its columns; dropping the NULs
    leaves the lines, yielded as bytes for the writer to hash and write
    without a decode.  The validated field keeps rho2 in [0, 1] and the
    phase in [-pi, pi], inside the range of ``_fixed6``.
    """
    n = field.n
    inside = field.inside_coi()
    significant = field.significant
    prefixes = np.array([f"{t},{dates[t].isoformat()}," for t in range(n)], dtype="S")
    scale_columns = [
        f"{s:.6f},{p:.6f},".encode() for s, p in zip(field.grid.scales, field.grid.fourier_periods)
    ]
    a = prefixes.itemsize
    b = a + max(map(len, scale_columns))
    # [0, a) time and date, [a, b) scale and period, [b, b + 9) rho2,
    # [b + 10, b + 19) phase, b + 20 significant, b + 22 inside_coi.
    buf = np.zeros((n, b + 24), dtype=np.uint8)
    buf[:, :a] = prefixes.view(np.uint8).reshape(n, a)
    buf[:, [b + 9, b + 19, b + 21]] = ord(",")
    buf[:, b + 23] = ord("\n")
    yield b"time_index,date,scale_days,period_days,rho2,phase_rad,significant,inside_coi\n"
    for j, scale_column in enumerate(scale_columns):
        buf[:, a:b] = 0
        buf[:, a : a + len(scale_column)] = np.frombuffer(scale_column, dtype=np.uint8)
        _fixed6(field.rho2[j], buf[:, b : b + 9])
        _fixed6(field.phase[j], buf[:, b + 10 : b + 19])
        buf[:, b + 20] = significant[j] + ord("0")
        buf[:, b + 22] = inside[j] + ord("0")
        yield buf[buf != 0].tobytes()


def cmd_coherence(config: RunConfig, series: TickerSeries) -> list[Unit]:
    """Returns -> CWT -> coherence -> significance -> CSV + SVG, one unit per pair; both files are lazy chunks."""
    if len(series) < 2:
        raise ValueError("coherence needs at least two tickers")

    def pair(name_a, a, name_b, b, written):
        aligned_a, aligned_b = align_series(a, b)
        if aligned_a.n < MIN_COHERENCE_LENGTH + 1:
            raise ValueError(f"need at least {MIN_COHERENCE_LENGTH + 1} common dates, got {aligned_a.n}")
        returns_a = daily_returns(aligned_a)
        returns_b = daily_returns(aligned_b)
        grid = ScaleGrid.for_length(returns_a.n)
        mc = config.wavelet.monte_carlo(child_seed(config.seed, f"coherence:{name_a}/{name_b}"))
        field = significance(returns_a.values, returns_b.values, grid, mc=mc)
        out, label = config.out_dir / "coherence", f"{name_a}_{name_b}"
        title = f"{name_a} / {name_b} squared coherence"
        files = {
            out / f"{label}.csv": _coherence_csv(field, returns_a.dates),
            out / f"{label}.svg": render_heatmap(field, dates=returns_a.dates, title=title),
        }
        return [(files, None)]

    pairs = itertools.combinations(series, 2)
    return [Unit((f"coherence {a}_{b}",), functools.partial(pair, a, sa, b, sb)) for (a, sa), (b, sb) in pairs]


def _run_files(run: ForecastRun, dates, cfg: TrainConfig, out: Path) -> dict[Path, str]:
    """The run's predictions CSV and its descriptor under ``out``; ``cfg`` trained it, ``dates`` index its origins."""
    stem = run.cell.stem(run.ticker)
    rows = ["origin_index,date,actual,predicted,train_start,train_end"]
    for k, (origin, (start, end)) in enumerate(zip(run.origins, run.provenance)):
        # repr of the Python float is the shortest exact round-trip, so the
        # report command reproduces the same metrics bit for bit
        rows.append(
            f"{int(origin)},{dates[origin].isoformat()},{float(run.actuals[k])!r},"
            f"{float(run.predictions[k])!r},{start},{end}"
        )
    descriptor = {
        "ticker": run.ticker,
        "lag": run.lag,
        "dual": DUAL_LABELS[run.dual],
        "regime": dataclasses.asdict(run.regime),
        "seed": run.seed,
        "hyperparameters": {
            "epochs": cfg.epochs,
            "hidden_size": cfg.hidden_size,
            "learning_rate": LEARNING_RATE,
            "clip_norm": CLIP_NORM,
            "optimizer": "adam",
        },
        "predictions_csv": f"{stem}.csv",
    }
    return {out / f"{stem}.csv": "\n".join(rows) + "\n", out / f"{stem}.json": _json_text(descriptor)}


def cmd_forecast(config: RunConfig, series: TickerSeries) -> list[Unit]:
    """The declared (ticker x lag x dual x regime) grid: one unit per cell, one part per run, then the grids.

    Each ``Cell`` of ``ForecastOptions.cells`` is one ``forecast_group`` call
    over the tickers at the cell's lag, dual and regime; each run's siblings
    are the other given series.  Every forecast ticker must be among the
    given series.  The grids unit reads the runs whose files were written.
    """
    names = [name for name, _ in series]
    f = config.forecast
    targets = names if f.tickers is None else list(f.tickers)
    if missing := [name for name in targets if name not in names]:
        raise ValueError(f"tickers {missing} are not among the given series")
    series = align_series(*(s for _, s in series))
    if series[0].n == 0:
        raise ValueError("tickers share no common dates")
    out = config.out_dir / "forecast"
    cfg = f.train_config()
    mids = {name: s.mid for name, s in zip(names, series)}
    dates = series[0].dates

    def unit(cell: Cell) -> Unit:
        def compute(written):
            results = forecast_group(
                targets,
                [mids[name] for name in targets],
                [tuple(mids[other] for other in names if other != name) for name in targets],
                [child_seed(config.seed, cell.seed_label(name)) for name in targets],
                dual=cell.dual,
                regime=cell.regime,
                lag=cell.lag,
                cfg=cfg,
            )
            return [run if isinstance(run, Exception) else (_run_files(run, dates, cfg, out / "runs"), run) for run in results]

        return Unit(tuple(cell.unit_name(name) for name in targets), compute)

    # on the declared axes, a run that failed, or a cell left out of cells(), is a missing cell
    grids = Unit(("forecast grids",), lambda written: _grids(written, targets, out / "grids", f.regimes(), f.lags, f.duals))
    return [unit(cell) for cell in f.cells()] + [grids]


def _grids(runs: list[ForecastRun], tickers, out: Path, regimes, lags, duals) -> list:
    """The grids unit's part: each ticker's grid on the axes, read from one ``LossTable`` of the runs, as CSV and JSON, in ``tickers`` order, and a long CSV."""
    table = LossTable(runs)
    grids = [assemble_grid(table, t, regimes=regimes, lags=lags, duals=duals) for t in tickers if t in table.tickers]
    files = {}
    for grid in grids:
        files[out / f"{grid.ticker}.csv"] = _csv_text(grid_table_rows(grid))
        files[out / f"{grid.ticker}.json"] = _json_text(grid_to_json_dict(grid))
    if grids:
        files[out / "long.csv"] = _csv_text(long_format_rows(grids))
    return [(files, None)]


def _read_run(manifest_path: Path, written: list[ForecastRun]) -> ForecastRun:
    """Forecast run rebuilt from a run descriptor and its CSV: its training ranges are its regime's, and it fits a ``LossTable`` with ``written``."""
    try:
        meta = json.loads(manifest_path.read_text(encoding="utf-8"))
        if not (isinstance(meta["ticker"], str) and TICKER_NAME.fullmatch(meta["ticker"])):
            raise ValueError(f"key ticker must match {TICKER_NAME.pattern}, got {meta['ticker']!r}")
        if meta["dual"] not in DUAL_LABELS:
            raise ValueError(f"key dual must be {' or '.join(map(repr, DUAL_LABELS[::-1]))}, got {meta['dual']!r}")
        if type(meta["seed"]) is not int:  # a bool is not a seed
            raise ValueError(f"key seed must be an integer, got {meta['seed']!r}")
        csv_name = meta["predictions_csv"]
        # a descriptor names its predictions CSV beside it, never a path elsewhere
        if not isinstance(csv_name, str) or Path(csv_name).name != csv_name or csv_name in ("", ".."):
            raise ValueError(f"key predictions_csv must be a file name in the descriptor's directory, got {csv_name!r}")
        with (manifest_path.parent / csv_name).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        run = ForecastRun(
            ticker=meta["ticker"],
            lag=meta["lag"],
            dual=bool(DUAL_LABELS.index(meta["dual"])),
            regime=RegimeSpec(**meta["regime"]),
            seed=meta["seed"],
            predictions=[float(row["predicted"]) for row in rows],
            actuals=[float(row["actual"]) for row in rows],
            origins=[int(row["origin_index"]) for row in rows],
        )
        for row, origin, expected in zip(rows, run.origins, run.provenance):
            start, end = int(row["train_start"]), int(row["train_end"])
            if (start, end) != expected:
                raise ValueError(
                    f"provenance [{start}, {end}) at origin {origin} must be the {run.regime.label} "
                    f"training range [{expected[0]}, {expected[1]})"
                )
        LossTable([*written, run])
        return run
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path.name}: {exc}") from exc


def cmd_report(runs_dir: Path, out_dir: Path) -> list[Unit]:
    """Re-assemble the metric grids from existing run descriptors: one unit per descriptor read, then the grids.

    The axes are the runs': their regimes, one per label, in ``order``; lags
    ascending; the duals present, false before true.  The tickers come
    ascending.  So the grids are those ``forecast`` wrote when each of its
    declared windows, lags and duals has a run and it lists windows, lags and
    tickers ascending.  A descriptor that cannot be read, or whose run the
    ``LossTable`` of the runs read before it rejects, is a failure line; the
    other runs still make their grids.
    """
    manifests = sorted(Path(runs_dir).glob("*.json"))
    if not manifests:
        raise ValueError(f"no run manifests (*.json) found in {runs_dir}")

    def grids(runs):
        by_label = {r.regime.label: r.regime for r in runs}
        regimes = sorted(by_label.values(), key=lambda regime: regime.order)
        lags = sorted({r.lag for r in runs})
        duals = sorted({r.dual for r in runs})
        return _grids(runs, sorted({r.ticker for r in runs}), Path(out_dir) / "report", regimes, lags, duals)

    def read(path, written):
        return [({}, _read_run(path, written))]

    reads = [Unit(("report",), functools.partial(read, path)) for path in manifests]
    return reads + [Unit(("report grids",), grids)]


def _write_manifest(out_dir: Path, command: str, seed: int | None, outcome: CommandOutcome) -> Path:
    root = out_dir.resolve()
    entries = sorted({str(p.resolve().relative_to(root)): sha for p, sha in outcome.files.items()}.items())
    manifest = {
        "command": command,
        "seed": seed,
        "outputs": [{"path": p, "sha256": sha} for p, sha in entries],
        "failures": sorted(outcome.failures),
    }
    path = out_dir / "manifest.json"
    with atomic_open(path) as fh:
        fh.write(_json_text(manifest).encode("utf-8"))
    return path


def _unlisted_files(out_dir: Path, outcome: CommandOutcome) -> list[Path]:
    """Files under the output's analysis subdirectories that the manifest does not list.

    They are left by earlier invocations into the same directory; nothing
    here removes them.
    """
    listed = {p.resolve() for p in outcome.files}
    return sorted(
        path.relative_to(out_dir)
        for sub in (*ANALYSES, "report")
        for path in (out_dir / sub).rglob("*")
        if path.is_file() and path.resolve() not in listed
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualstock",
        description="Dual-class stock analytics: premiums, wavelet coherence, LSTM forecasts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("premiums", "pairwise premium series and summary statistics"),
        ("coherence", "wavelet coherence fields with Monte-Carlo significance"),
        ("forecast", "LSTM forecast grid over regimes, lags, and dual options"),
        ("run", "analyses selected by the config"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
    rep = sub.add_parser("report", help="re-assemble metric grids from run manifests")
    rep.add_argument("--runs", required=True, help="directory containing run manifests (*.json)")
    rep.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            for flag in ("runs", "out"):
                if getattr(args, flag) == "":
                    raise ValueError(f"--{flag} must not be empty")
            seed = None
            out_dir = Path(args.out)
            command = "report"
            outcome = CommandOutcome(roots=(Path(args.runs), out_dir))
            plans = [Unit(("report",), lambda written: [({}, cmd_report(Path(args.runs), out_dir))])]
        else:
            subcommand = None if args.command == "run" else (args.command,)
            config = load_config(args.config, seed=args.seed, out_dir=args.out, analyses=subcommand)
            seed = config.seed
            out_dir = config.out_dir
            command = "run:" + ",".join(config.analyses) if args.command == "run" else args.command
            outcome = CommandOutcome(roots=(out_dir,))
            handlers = {"premiums": cmd_premiums, "coherence": cmd_coherence, "forecast": cmd_forecast}
            series = functools.cache(lambda: _load_all(config))  # a read that fails is retried, and fails alike
            plans = [Unit((a,), lambda written, a=a: [({}, handlers[a](config, series()))]) for a in config.analyses]
        # an output path that cannot be a directory fails before any input is read
        out_dir.mkdir(parents=True, exist_ok=True)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    for plan in plans:  # a unit named after its analysis, whose one result is the analysis's units
        for units in outcome.execute([plan]):
            outcome.execute(units)
    manifest_path = _write_manifest(out_dir, command, seed, outcome)
    print(f"{len(outcome.files)} files written under {out_dir} (manifest: {manifest_path.name})")
    for failure in outcome.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for path in _unlisted_files(out_dir, outcome):
        print(f"WARNING: {path} is not listed in {manifest_path.name} (left by an earlier run?)", file=sys.stderr)
    return 1 if outcome.failures else 0


if __name__ == "__main__":
    sys.exit(main())
