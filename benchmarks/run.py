"""Benchmark of the ``dualstock run`` CLI on seeded synthetic inputs of paper shape.

    python3 benchmarks/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload (see ``workloads.py``) is a closed loop of one client: one
fresh child process per ``dualstock run`` invocation, each into an empty
output directory, started only when the previous one has exited.  The loop
runs at least once and starts another invocation only while it fits in
``--seconds``.  Before it, several children only import the CLI and load
the config, so set-up time has a median of its own.

With ``--trace 0`` the last stdout line reports the end-to-end metrics as
medians over the invocations; with ``--trace 1`` the same loop runs, then
one traced invocation that wraps every layer and reports the per-layer
metrics.

A shared host slows every process on it, by up to ~1.8x for seconds to
minutes at a time, and CPU time slows with wall time.  So the benchmark and
its children are pinned to one CPU, and every child times a fixed loop of
the benchmark's own in a side thread while it runs (``child.py``).  The
child's times are scaled by ``HOST_PROBE_NOMINAL_S`` over the median of
those loop times: the host speed.  The gated times ``wall_ref_s``,
``setup_s`` and ``paper_grid_ref_h`` are medians of the scaled times; the
raw medians (``wall_s``, ``setup_raw_s``, ``paper_grid_h``) and the host
speed are printed beside them.  The loop is not the program's code, so a
change to the program moves the scaled times as much as the raw ones.

Every invocation's outputs are checked (``checks.py``); a failed
check counts its analysis unit as failed.  Deterministic counts must repeat
exactly across the invocations of a run.

Everything is written under ``.benchmarks_work/`` in the checkout and
removed at the end, except the last traced run's spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".benchmarks_work"
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"  # numpy's FFTs are single-threaded; one BLAS thread keeps runs comparable
HOST_PROBE_NOMINAL_S = 1.1e-3  # child.probe_host's loop on a 2-vCPU Intel Xeon VM (Python 3.11), quiet host


@dataclass
class Invocation:
    code: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    cpu_s: float
    report: dict
    speed: float  # nominal over measured host probe time: above 1 when the host ran fast


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: THREADS for var in THREAD_VARS})
    return env


def spawn(mode: str, config: Path, out_dir: Path, report: Path, log: Path, timeout: float) -> Invocation:
    """Run one child to completion and measure it from spawn to exit."""
    with log.open("ab") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), mode, str(config), str(out_dir), str(report)],
            stdout=fh,
            stderr=fh,
            env=child_env(),
            cwd=ROOT,
        )
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        data = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    setup_end = data.get("setup_end")
    probe = data.get("host_probe_s")
    return Invocation(
        code=proc.returncode,
        wall_s=end - start,
        setup_s=None if setup_end is None else setup_end - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        report=data,
        speed=HOST_PROBE_NOMINAL_S / statistics.median(probe) if probe else 1.0,
    )


def unit_counts(inv: Invocation, output_bytes: int) -> dict:
    """Deterministic counts of one invocation; they must repeat exactly."""
    stats = inv.report.get("stats", {})
    counts = inv.report.get("counts", {})
    return {
        "wavelet.cwt.calls": stats.get("wavelet.cwt", [0])[0],
        "wavelet.coherence.calls": stats.get("wavelet.coherence", [0])[0],
        "wavelet.cwt.fft_points": counts.get("cwt_fft_points", 0),
        "wavelet.coherence.fft_points": counts.get("coherence_fft_points", 0),
        "significance.iterations": counts.get("mc_iterations", 0),
        "lstm.train.calls": stats.get("lstm.train", [0])[0],
        "lstm.cell_steps": counts.get("cell_steps", 0),
        "forecast.origins": counts.get("origins", 0),
        "cli.output_bytes": output_bytes,
    }


def environment() -> dict:
    blas = "unknown"
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: THREADS for var in THREAD_VARS},
    }


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, started: float) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = started
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.expected = workload.expected_units()
        self.attempted = 0
        self.failed: list[str] = []
        self.reference_hashes: dict | None = None
        self.reference_compact: dict | None = None
        self.reference_counts: dict | None = None

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def prepare(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        paths = inputs.generate(self.seed, self.dir / "inputs")
        self.inputs = checks.Inputs.load(paths)
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(self.w.config(paths, self.seed), indent=2), encoding="utf-8")

    def invoke(self, mode: str, index: int) -> tuple[Invocation, checks.InvocationCheck | None]:
        out = self.dir / f"out-{index}"
        report = self.dir / f"report-{index}.json"
        log = self.dir / "child.log"
        inv = spawn(mode, self.config, out, report, log, self.remaining())
        if inv.code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-5:]
            print(f"  {mode} child exited with {inv.code}: " + " | ".join(tail))
        if mode == "setup":
            return inv, None
        first = self.reference_hashes is None
        result = checks.check_invocation(out, self.expected, self.inputs, self.w.forecast, content=first or mode == "trace")
        if inv.code != 0 and not result.failed:
            result.failed = {u: f"exit code {inv.code}" for u in self.expected}
        if first:
            self.reference_hashes = result.unit_hashes
            self.reference_compact = result.compact
        else:
            for unit, hashes in self.reference_hashes.items():
                if result.unit_hashes.get(unit) != hashes:
                    result.failed.setdefault(unit, "output hashes differ from the first invocation")
            for unit, why in checks.compact_mismatches(self.reference_compact, result.compact).items():
                result.failed.setdefault(unit, why)
        counts = unit_counts(inv, result.output_bytes)
        if self.reference_counts is None:
            self.reference_counts = counts
        for name, value in counts.items():
            if value != self.reference_counts[name]:
                result.failed.setdefault(f"count:{name}", f"{value} != {self.reference_counts[name]}")
        attempted = len(set(self.expected) | set(result.failed))
        self.attempted += attempted
        self.failed += [f"{unit}: {why}" for unit, why in sorted(result.failed.items())]
        inv.report.update(output_bytes=result.output_bytes, units_attempted=attempted, units_failed=len(result.failed))
        shutil.rmtree(out, ignore_errors=True)
        return inv, result

    def execute(self):
        self.prepare()
        setups = [self.invoke("setup", -i - 1)[0] for i in range(SETUP_PROBES)]
        measured: list[Invocation] = []
        loop_start = time.monotonic()
        while True:
            inv, _ = self.invoke("run", len(measured))
            measured.append(inv)
            elapsed = time.monotonic() - loop_start
            typical = statistics.median(i.wall_s for i in measured)
            if inv.code != 0 or elapsed + typical > self.seconds:
                break
        traced = None
        if self.trace and self.remaining() > 1.5 * max(i.wall_s for i in measured):
            traced, _ = self.invoke("trace", len(measured))
        elif self.trace:
            self.failed.append("trace: no time left for the traced invocation")
        return setups, measured, traced


def median_of(values) -> tuple[float, int]:
    values = [v for v in values if v is not None]
    return (statistics.median(values), len(values)) if values else (float("nan"), 0)


def end_to_end(run: Run, setups, measured) -> dict:
    w = run.w
    spawns = setups + measured
    setup_s, setup_n = median_of(i.setup_s for i in spawns)
    setup_ref_s, _ = median_of(None if i.setup_s is None else i.setup_s * i.speed for i in spawns)
    per_inv_setup = [i.setup_s if i.setup_s is not None else setup_s for i in measured]
    sig = [i.report.get("stats", {}).get("significance.significance", [0, 0.0])[1] for i in measured]
    grid_h = [w.paper_grid_s(i.wall_s, s, g) / 3600.0 for i, s, g in zip(measured, per_inv_setup, sig)]
    throughput_name, work = w.throughput()
    n = len(measured)
    return {
        # scaled to the reference host speed; these are the gated metrics
        "wall_ref_s": (*median_of(i.wall_s * i.speed for i in measured), "s"),
        "setup_s": (setup_ref_s, setup_n, "s"),
        "paper_grid_ref_h": (*median_of(i.speed * g for i, g in zip(measured, grid_h)), "h"),
        "peak_rss_mb": (*median_of(i.peak_rss_mb for i in measured), "MB"),
        # as measured on the host as it was
        "wall_s": (*median_of(i.wall_s for i in measured), "s"),
        "setup_raw_s": (setup_s, setup_n, "s"),
        "paper_grid_h": (*median_of(grid_h), "h"),
        "host_speed": (*median_of(i.speed for i in spawns), "ratio"),
        throughput_name: (*median_of(work / i.wall_s for i in measured), "1/s"),
        "failed_share": (len(run.failed) / max(run.attempted, 1), n, "ratio"),
    }


BENCHMARK_E2E = ("wall_ref_s", "setup_s", "paper_grid_ref_h", "peak_rss_mb")


def per_layer(measured, traced: Invocation) -> tuple[dict, list[str]]:
    rep = traced.report
    stats, counts, top = rep.get("stats", {}), rep.get("counts", {}), rep.get("top_level", {})
    absent = set(rep.get("absent", []))
    hook_errors = set(rep.get("hook_errors", []))
    missing: list[str] = []

    def s(key, field=1):
        if key in absent:
            missing.append(key)
            return 0
        return stats.get(key, [0, 0.0, 0.0])[field]

    def self_s(key):
        return s(key, 1) - s(key, 2)

    def c(name, *hook_keys):
        if all(k in absent or k in hook_errors for k in hook_keys):
            missing.append(f"{'/'.join(hook_keys)} ({name})")
            return 0
        return counts.get(name, 0)

    untraced_wall = statistics.median(i.wall_s * i.speed for i in measured)
    setup_s = traced.setup_s or 0.0
    iterations = c("mc_iterations", "significance.significance")
    cell_steps = c("cell_steps", "lstm.train")
    cli_self = s("cli.main") - s("cli.main", 2)
    accounted = sum(v for k, v in top.items() if k != "cli.load_config") + cli_self
    forecast_keys = ("forecast.forecast_mece", "forecast.forecast_rolling")
    forecast_children = sum(s(k, 2) for k in forecast_keys)
    metrics = {
        "timeseries.load_ohlc_csv.calls": (s("timeseries.load_ohlc_csv", 0), "count"),
        "timeseries.load_ohlc_csv.s": (s("timeseries.load_ohlc_csv"), "s"),
        "timeseries.rows_loaded": (c("rows_loaded", "timeseries.load_ohlc_csv"), "count"),
        "timeseries.premium.s": (s("timeseries.premium_series") + s("timeseries.premium_summary"), "s"),
        "wavelet.cwt.calls": (s("wavelet.cwt", 0), "count"),
        "wavelet.cwt.s": (s("wavelet.cwt"), "s"),
        "wavelet.cwt.fft_points": (c("cwt_fft_points", "wavelet.cwt"), "points"),
        "wavelet.coherence.calls": (s("wavelet.coherence", 0), "count"),
        "wavelet.coherence.s": (s("wavelet.coherence"), "s"),
        "wavelet.coherence.fft_points": (c("coherence_fft_points", "wavelet.coherence"), "points"),
        "significance.s": (s("significance.significance"), "s"),
        "significance.self_s": (self_s("significance.significance"), "s"),
        "significance.iterations": (iterations, "count"),
        "significance.ms_per_iter": (1e3 * s("significance.significance") / iterations if iterations else 0.0, "ms"),
        "significance.ar1_surrogate.s": (s("significance.ar1_surrogate"), "s"),
        "significance.fit_ar1.s": (s("significance.fit_ar1"), "s"),
        "lstm.train.calls": (s("lstm.train", 0), "count"),
        "lstm.train.s": (s("lstm.train"), "s"),
        "lstm.train.self_s": (self_s("lstm.train"), "s"),
        "lstm.forward_sequence.calls": (s("lstm.forward_sequence", 0), "count"),
        "lstm.forward_sequence.s": (s("lstm.forward_sequence"), "s"),
        "lstm.backward.calls": (s("lstm.backward", 0), "count"),
        "lstm.backward.s": (s("lstm.backward"), "s"),
        "lstm.predict.calls": (s("lstm.predict", 0), "count"),
        "lstm.predict.s": (s("lstm.predict"), "s"),
        "lstm.cell_steps": (cell_steps, "count"),
        "lstm.us_per_cell_step": (1e6 * s("lstm.train") / cell_steps if cell_steps else 0.0, "us"),
        "forecast.runs": (sum(s(k, 0) for k in forecast_keys), "count"),
        "forecast.origins": (c("origins", *forecast_keys), "count"),
        "forecast.s": (sum(s(k) for k in forecast_keys), "s"),
        "forecast.self_s": (sum(s(k) for k in forecast_keys) - forecast_children, "s"),
        "forecast.build_supervised.s": (s("forecast.build_supervised"), "s"),
        "metrics.assemble_grid.s": (s("metrics.assemble_grid"), "s"),
        "svgplot.render_heatmap.calls": (s("svgplot.render_heatmap", 0), "count"),
        "svgplot.render_heatmap.s": (s("svgplot.render_heatmap"), "s"),
        "svgplot.bytes": (c("svg_bytes", "svgplot.render_heatmap"), "bytes"),
        "cli.self_s": (cli_self, "s"),
        "cli.write_manifest.s": (s("cli._write_manifest"), "s"),
        "cli.output_bytes": (rep.get("output_bytes", 0), "bytes"),
        "cli.units_attempted": (rep.get("units_attempted", 0), "count"),
        "cli.units_failed": (rep.get("units_failed", 0), "count"),
        "proc.cpu_s": (traced.cpu_s, "s"),
        "proc.cpu_per_wall": (traced.cpu_s / traced.wall_s, "ratio"),
        "trace.overhead_s": (traced.wall_s * traced.speed - untraced_wall, "s"),
        "trace.accounted_share": (accounted / (traced.wall_s - setup_s), "ratio"),
        "trace.absent": (len(set(missing)), "count"),
    }
    return metrics, sorted(set(missing))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    run = Run(WORKLOADS[name], seed, seconds, trace, started)
    try:
        setups, measured, traced = run.execute()
        e2e = end_to_end(run, setups, measured)
        print(f"workload {name}  seed {seed}  env {json.dumps(environment())}")
        print("  invocation wall_s: " + " ".join(f"{i.wall_s:.3f}" for i in measured))
        print("  invocation cpu_s:  " + " ".join(f"{i.cpu_s:.3f}" for i in measured))
        print("  host speed:        " + " ".join(f"{i.speed:.3f}" for i in measured))
        for metric, (value, n, unit) in e2e.items():
            print(f"  {metric:<28} {value:>14.6g} {unit:<6} (median of {n})")
        if trace and traced is not None:
            layers, missing = per_layer(measured, traced)
            spans = traced.report.get("spans", [])
            WORK.mkdir(exist_ok=True)
            (WORK / f"trace-{name}.json").write_text(json.dumps(spans), encoding="utf-8")
            for metric, (value, unit) in layers.items():
                note = " (computed from scales x npad)" if unit == "points" else ""
                print(f"  {metric:<32} {value:>14.6g} {unit}{note}")
            by_layer: dict[str, float] = {}
            for key, busy in traced.report.get("top_level", {}).items():
                if key != "cli.load_config":
                    by_layer[key.split(".")[0]] = by_layer.get(key.split(".")[0], 0.0) + busy
            by_layer["cli.self"] = layers["cli.self_s"][0]
            print("  top-level busy s: " + ", ".join(f"{k} {v:.3f}" for k, v in by_layer.items())
                  + f"; sum {sum(by_layer.values()):.3f} of traced wall - setup {traced.wall_s - (traced.setup_s or 0.0):.3f}")
            if missing:
                print(f"  absent: {', '.join(missing)}")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        else:
            metrics = {k: {"value": e2e[k][0], "unit": e2e[k][2]} for k in BENCHMARK_E2E}
        for failure in run.failed:
            print(f"  FAILED {failure}")
        return {
            "correct": not run.failed,
            "attempted": max(run.attempted, 1),
            "failed": len(run.failed),
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dualstock" / "cli.py").is_file():
        print(f"no dualstock sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # One CPU for this process and every child, so that a child's host probe
    # times the CPU its main thread runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
