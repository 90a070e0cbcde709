"""Deterministic SVG rendering of coherence fields.

Pure text emission, no plotting dependency: the output of a given field is
byte-identical across runs, which keeps plots diffable in tests.  Layout
follows the usual coherence display: time on x, log2(period) on y with
period increasing downward, rho^2 as the colormap, phase arrows decimated to
one per 16x4 cell block in significant cells (east = in phase, north =
+pi/2), the cone of influence shaded, and the significance mask contoured.

The SVG text is yielded in chunks for a writer to stream to its file; the
two large parts are found with numpy and yielded one scale row at a time.
The heatmap is drawn at plot resolution: each scale row is cut into bins of
k = ceil(n / ``PLOT_W``) consecutive cells (the last bin may be shorter), so
a row has at most ``PLOT_W`` bins, and n <= ``PLOT_W`` gives one bin per
cell.  A bin's level is its mean rho^2 quantized to ``QUANT_LEVELS``, the
mean being the cells' sum, left to right from 0.0, over their count.  One
``<rect>`` is drawn per run of bins of equal level, spanning the run's
cells; a run starts at bin 0 and wherever the level differs from the bin
before.  The significance contour is the set of cell edges between a
significant cell and a non-significant cell or the plot border; comparing
the mask with its four shifted neighbours in a zero-padded copy gives one
boolean array per side.  Left and right edges are drawn one per cell; the
top and bottom edges of consecutive cells in a row merge into one segment.
The cells are visited in row-major order, each drawing its left edge, its
right edge, then the top and the bottom run that starts at it.  Cell-edge
coordinates and run widths are formatted once each, with the same
arithmetic as a per-cell formula, so the bytes do not depend on how the
runs and edges were found.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .wavelet import CoherenceField

__all__ = ["render_heatmap"]

MARGIN_LEFT = 72.0
MARGIN_RIGHT = 16.0
MARGIN_TOP = 34.0
MARGIN_BOTTOM = 46.0
PLOT_W = 880.0
PLOT_H = 420.0
ARROW_BLOCK_T = 16  # time cells per arrow block
ARROW_BLOCK_S = 4  # scale cells per arrow block
ARROW_LEN = 11.0
QUANT_LEVELS = 32

# Dark blue -> cyan -> yellow -> dark red, interpolated linearly.
_COLOR_STOPS = (
    (0.00, (13, 35, 97)),
    (0.35, (28, 132, 198)),
    (0.65, (245, 213, 71)),
    (1.00, (156, 22, 21)),
)


def _color(v: float) -> str:
    v = min(1.0, max(0.0, v))
    for (p0, c0), (p1, c1) in zip(_COLOR_STOPS, _COLOR_STOPS[1:]):
        if v <= p1:
            t = 0.0 if p1 == p0 else (v - p0) / (p1 - p0)
            rgb = tuple(round(a + t * (b - a)) for a, b in zip(c0, c1))
            return "#{:02x}{:02x}{:02x}".format(*rgb)


# The heatmap only shows rho^2 quantized to QUANT_LEVELS, each drawn at its
# level's midpoint.
_LEVEL_COLORS = tuple(_color((level + 0.5) / QUANT_LEVELS) for level in range(QUANT_LEVELS))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _escape(text: str) -> str:
    """Text content for XML: ``&``, ``<`` and ``>`` as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _heatmap_rows(rho2: np.ndarray, xs: list[str], ys: list[str], cell_w: float, cell_h: float):
    """One chunk of ``<rect>`` lines per scale row, one rect per run of bins of a color level."""
    n = rho2.shape[1]
    k = math.ceil(n / PLOT_W)  # cells per bin
    bins = -(-n // k)
    counts = np.full(bins, float(k))
    counts[-1] = n - (bins - 1) * k
    cells = np.minimum(np.arange(bins + 1) * k, n)  # first cell of each bin, then n
    height = _fmt(cell_h)
    widths: dict[int, str] = {}
    sums = np.empty(bins)
    for j, values in enumerate(rho2):
        # one row at a time, so no whole-field temporaries
        sums[:] = 0.0
        for offset in range(k):
            column = values[offset::k]
            sums[: len(column)] += column
        level = np.minimum((sums / counts * QUANT_LEVELS).astype(int), QUANT_LEVELS - 1)
        runs = np.flatnonzero(np.diff(level, prepend=-1, append=-1))
        starts, stops = cells[runs[:-1]].tolist(), cells[runs[1:]].tolist()
        lengths = [stop - start for start, stop in zip(starts, stops)]
        for length in set(lengths).difference(widths):
            widths[length] = _fmt(length * cell_w)
        y = f'" y="{ys[j]}" width="'
        fill = f'" height="{height}" fill="'
        yield "".join(
            [
                f'<rect class="cell" x="{xs[t]}{y}{widths[length]}{fill}{_LEVEL_COLORS[lv]}"/>\n'
                for t, length, lv in zip(starts, lengths, level[runs[:-1]].tolist())
            ]
        )


def _run_stops(edges: np.ndarray) -> np.ndarray:
    """Per cell of a row, the end of the run of set cells that starts there, else 0."""
    stops = np.zeros(len(edges), dtype=np.int64)
    bounds = np.flatnonzero(np.diff(edges, prepend=False, append=False))  # run starts and ends, alternating
    stops[bounds[::2]] = bounds[1::2]
    return stops


def _contour_rows(mask: np.ndarray, xs: list[str], ys: list[str]):
    """Path segments of the significance contour, one chunk per scale row."""
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    sides = (
        mask & ~padded[1:-1, :-2],  # left neighbour or border not significant
        mask & ~padded[1:-1, 2:],  # right
        mask & ~padded[:-2, 1:-1],  # top
        mask & ~padded[2:, 1:-1],  # bottom
    )
    for j in range(mask.shape[0]):
        left, right = sides[0][j], sides[1][j]
        top, bottom = _run_stops(sides[2][j]), _run_stops(sides[3][j])
        cells = np.flatnonzero(left | right | (top > 0) | (bottom > 0))
        y0, y1 = ys[j], ys[j + 1]
        segments: list[str] = []
        for t, has_left, has_right, top_stop, bottom_stop in zip(
            cells.tolist(), *(side[cells].tolist() for side in (left, right, top, bottom))
        ):
            x0, x1 = xs[t], xs[t + 1]
            if has_left:
                segments.append(f"M{x0} {y0}L{x0} {y1}")
            if has_right:
                segments.append(f"M{x1} {y0}L{x1} {y1}")
            if top_stop:
                segments.append(f"M{x0} {y0}L{xs[top_stop]} {y0}")
            if bottom_stop:
                segments.append(f"M{x0} {y1}L{xs[bottom_stop]} {y1}")
        yield "".join(segments)


def render_heatmap(field: CoherenceField, dates, title: str) -> Iterable[str]:
    """The coherence field as SVG text, in chunks that join to the whole document."""
    rho2 = field.rho2
    num_scales, n = rho2.shape
    periods = field.grid.fourier_periods
    dj = field.grid.dj

    width = MARGIN_LEFT + PLOT_W + MARGIN_RIGHT
    height = MARGIN_TOP + PLOT_H + MARGIN_BOTTOM
    cell_w = PLOT_W / n
    cell_h = PLOT_H / num_scales

    def x_of(t: float) -> float:
        return MARGIN_LEFT + t * cell_w

    def y_of_row(j: float) -> float:
        return MARGIN_TOP + j * cell_h

    # Cell edges, each formatted once: xs[t] is x_of(t) and ys[j] is y_of_row(j).
    xs = [_fmt(x_of(t)) for t in range(n + 1)]
    ys = [_fmt(y_of_row(j)) for j in range(num_scales + 1)]
    mask = field.significant

    opening: list[str] = []
    opening.append('<?xml version="1.0" encoding="UTF-8"?>')
    opening.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    opening.append(
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>'
    )
    opening.append(
        f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
    )

    parts: list[str] = []
    # Phase arrows: one per block, suppressed outside the significant region
    # and outside the cone of influence.
    inside = field.inside_coi()
    for jb in range(ARROW_BLOCK_S // 2, num_scales, ARROW_BLOCK_S):
        for tb in range(ARROW_BLOCK_T // 2, n, ARROW_BLOCK_T):
            if not inside[jb, tb]:
                continue
            if not mask[jb, tb]:
                continue
            theta = float(field.phase[jb, tb])
            cx = x_of(tb + 0.5)
            cy = y_of_row(jb + 0.5)
            dx = math.cos(theta)
            dy = -math.sin(theta)  # SVG y grows downward; north = up
            x1, y1 = cx - dx * ARROW_LEN / 2, cy - dy * ARROW_LEN / 2
            x2, y2 = cx + dx * ARROW_LEN / 2, cy + dy * ARROW_LEN / 2
            parts.append(
                f'<line class="phase-arrow" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
                f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="#000000" stroke-width="1.2"/>'
            )
            head = 3.5
            for rot in (2.6, -2.6):
                hx = x2 + head * math.cos(theta + rot)
                hy = y2 - head * math.sin(theta + rot)
                parts.append(
                    f'<path class="phase-arrow-head" d="M{_fmt(x2)} {_fmt(y2)}'
                    f'L{_fmt(hx)} {_fmt(hy)}" stroke="#000000" stroke-width="1.2" fill="none"/>'
                )

    # Cone of influence: shade everything below the trustworthy-period curve.
    # Row coordinate of a period P: j = log2(P / periods[0]) / dj.
    coi_points = []
    for t in range(n):
        p = float(field.coi[t])
        if p <= float(periods[0]):
            j = 0.0
        else:
            j = min(float(num_scales), math.log2(p / float(periods[0])) / dj + 0.5)
        coi_points.append((x_of(t + 0.5), y_of_row(j)))
    bottom = y_of_row(num_scales)
    d = [f"M{_fmt(MARGIN_LEFT)} {_fmt(bottom)}"]
    d.append(f"L{_fmt(MARGIN_LEFT)} {_fmt(coi_points[0][1])}")
    for px, py in coi_points:
        d.append(f"L{_fmt(px)} {_fmt(py)}")
    d.append(f"L{_fmt(MARGIN_LEFT + PLOT_W)} {_fmt(coi_points[-1][1])}")
    d.append(f"L{_fmt(MARGIN_LEFT + PLOT_W)} {_fmt(bottom)}")
    d.append("Z")
    parts.append(
        f'<path class="coi" d="{"".join(d)}" fill="#ffffff" fill-opacity="0.55" stroke="none"/>'
    )

    # Axes.
    parts.append(
        f'<rect x="{_fmt(MARGIN_LEFT)}" y="{_fmt(MARGIN_TOP)}" width="{_fmt(PLOT_W)}" '
        f'height="{_fmt(PLOT_H)}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    exp_min = math.ceil(math.log2(float(periods[0])))
    exp_max = math.floor(math.log2(float(periods[-1])))
    for exp in range(exp_min, exp_max + 1):
        p = 2.0**exp
        j = math.log2(p / float(periods[0])) / dj + 0.5
        y = y_of_row(j)
        parts.append(
            f'<line x1="{_fmt(MARGIN_LEFT - 4)}" y1="{_fmt(y)}" x2="{_fmt(MARGIN_LEFT)}" '
            f'y2="{_fmt(y)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(MARGIN_LEFT - 8)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{p:g}</text>'
        )
    parts.append(
        f'<text x="14" y="{_fmt(MARGIN_TOP + PLOT_H / 2)}" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {_fmt(MARGIN_TOP + PLOT_H / 2)})" '
        f'text-anchor="middle">period (days)</text>'
    )
    n_ticks = min(6, n)
    for k in range(n_ticks):
        t = round(k * (n - 1) / max(1, n_ticks - 1))
        x = x_of(t + 0.5)
        label = str(dates[t])
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(MARGIN_TOP + PLOT_H)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(MARGIN_TOP + PLOT_H + 4)}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(MARGIN_TOP + PLOT_H + 18)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append(
        f'<text x="{_fmt(MARGIN_LEFT + PLOT_W / 2)}" y="{_fmt(height - 10)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">time</text>'
    )
    parts.append("</svg>")

    # The heatmap and the significance contour (edges between significant
    # and non-significant cells, merged into a single path element) are
    # yielded a scale row at a time.
    yield "\n".join(opening) + "\n"
    yield from _heatmap_rows(rho2, xs, ys, cell_w, cell_h)
    if mask.any():
        yield '<path class="significance-contour" d="'
        yield from _contour_rows(mask, xs, ys)
        yield '" stroke="#000000" stroke-width="1" fill="none"/>\n'
    yield "\n".join(parts) + "\n"
