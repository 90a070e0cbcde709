"""Wrap dualstock's functions from outside the package and record where time goes.

Modules are reached through ``sys.modules``: the package ``__init__`` rebinds
names such as ``dualstock.significance`` to functions, so attribute access on
the package does not reliably give the module.  Every module of the package
that holds a reference to a wrapped function gets the wrapper, because the
CLI imports functions by name.

Two target sets share one wrapper.  ``UNIT_TARGETS`` are coarse calls (per
config load, per pair, per forecast run, per training, per transform) that
every measured child installs: they give the set-up clock, the Monte-Carlo
clock behind ``paper_grid_h`` and the deterministic counts.  ``TRACE_TARGETS``
add the per-sample calls (about 10^5 per run) and are installed only in the
traced child.  Coarse calls are kept as spans; per-sample calls are folded
into count and busy time.  A target missing from the program is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from pathlib import Path

PACKAGE = "dualstock"
MAIN = "cli.main"
LOAD_CONFIG = "cli.load_config"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _pow2_at_least(need: int) -> int:
    return 1 << max(1, math.ceil(math.log2(need)))


def _count_rows(counts, args, kwargs, result):
    counts["rows_loaded"] = counts.get("rows_loaded", 0) + result.n


def _count_cwt_points(counts, args, kwargs, result):
    # Computed, not measured: one forward FFT of npad points plus one inverse
    # FFT of npad points per scale, with the padding rule of wavelet.cwt.
    x, grid = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "grid")
    dt = _arg(args, kwargs, 3, "dt", 1.0)
    npad = _pow2_at_least(len(x) + math.ceil(8.0 * float(grid.scales[-1]) / dt) + 1)
    counts["cwt_fft_points"] = counts.get("cwt_fft_points", 0) + npad * (grid.num_scales + 1)


def _count_coherence_points(counts, args, kwargs, result):
    # Computed: three smoothed fields, each a forward and an inverse FFT per
    # scale at the time-smoothing pad length.
    a, spec = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 2, "spec")
    time_std = 1.0 if spec is None else spec.time_std_scales
    max_sigma = time_std * float(a.grid.scales[-1]) / a.dt
    npad = _pow2_at_least(a.n + math.ceil(8.0 * max_sigma) + 1)
    counts["coherence_fft_points"] = counts.get("coherence_fft_points", 0) + 6 * a.grid.num_scales * npad


def _count_iterations(counts, args, kwargs, result):
    counts["mc_iterations"] = counts.get("mc_iterations", 0) + kwargs["mc"].iterations


def _count_cell_steps(counts, args, kwargs, result):
    samples, cfg = _arg(args, kwargs, 0, "samples"), _arg(args, kwargs, 1, "cfg")
    steps = len(samples) * samples[0].lag * cfg.epochs
    counts["cell_steps"] = counts.get("cell_steps", 0) + steps


def _count_origins(counts, args, kwargs, result):
    counts["origins"] = counts.get("origins", 0) + len(result.origins)


def _count_svg_bytes(counts, args, kwargs, result):
    counts["svg_bytes"] = counts.get("svg_bytes", 0) + Path(result).stat().st_size


# (module, function, kept as span, counter hook)
UNIT_TARGETS = (
    ("cli", "load_config", True, None),
    ("cli", "main", True, None),
    ("significance", "significance", True, _count_iterations),
    ("wavelet", "cwt", False, _count_cwt_points),
    ("wavelet", "coherence", False, _count_coherence_points),
    ("lstm", "train", True, _count_cell_steps),
    ("forecast", "forecast_mece", True, _count_origins),
    ("forecast", "forecast_rolling", True, _count_origins),
)
TRACE_TARGETS = UNIT_TARGETS + (
    ("cli", "_write_manifest", True, None),
    ("timeseries", "load_ohlc_csv", True, _count_rows),
    ("timeseries", "premium_series", False, None),
    ("timeseries", "premium_summary", False, None),
    ("significance", "fit_ar1", False, None),
    ("significance", "ar1_surrogate", False, None),
    ("lstm", "forward_sequence", False, None),
    ("lstm", "backward", False, None),
    ("lstm", "predict", False, None),
    ("forecast", "build_supervised", False, None),
    ("metrics", "assemble_grid", True, None),
    ("svgplot", "render_heatmap", True, _count_svg_bytes),
)


class Tracer:
    """Call statistics, counters and spans for the wrapped functions of one process."""

    def __init__(self, keep_spans: bool) -> None:
        self.keep_spans = keep_spans
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, child_s]
        self.top_level: dict[str, float] = {}  # busy time of calls made directly by cli.main
        self.counts: dict[str, int] = {}
        self.spans: list[list] = []  # [key, start, end, parent span index]
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self.setup_end: float | None = None
        self._stack: list[list] = []  # [key, child_s, enclosing span index]

    def install(self, targets) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module_name, func_name, span, hook in targets:
            key = f"{module_name}.{func_name}"
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(module, func_name, None) if module is not None else None
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original, span, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def function(self, key: str):
        module_name, func_name = key.split(".", 1)
        return getattr(sys.modules[f"{PACKAGE}.{module_name}"], func_name)

    def _wrap(self, key, fn, span, hook):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack, top_level, spans = self._stack, self.top_level, self.spans
        keep = span and self.keep_spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            enclosing = parent[2] if parent else -1
            frame = [key, 0.0, enclosing]
            if keep:
                frame[2] = len(spans)
                spans.append([key, 0.0, 0.0, enclosing])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                stats[0] += 1
                stats[1] += busy
                stats[2] += frame[1]
                if parent is not None:
                    parent[1] += busy
                    if parent[0] == MAIN:
                        top_level[key] = top_level.get(key, 0.0) + busy
                if keep:
                    spans[frame[2]][1:3] = [start, end]
            if key == LOAD_CONFIG and self.setup_end is None:
                self.setup_end = time.monotonic()
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError, ValueError, OSError):
                    if key not in self.hook_errors:
                        self.hook_errors.append(key)
            return result

        return wrapper

    def report(self) -> dict:
        return {
            "setup_end": self.setup_end,
            "stats": self.stats,
            "top_level": self.top_level,
            "counts": self.counts,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
            "spans": self.spans,
        }
