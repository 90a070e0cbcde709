"""Independent brute-force oracles used across the test suite.

Each oracle recomputes a quantity by the most literal method available
(double loops, sorting, exact summation) without touching the library's
implementation paths.
"""

from __future__ import annotations

import csv
import datetime
import math
import re
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from dualstock.svgplot import (
    ARROW_BLOCK_S,
    ARROW_BLOCK_T,
    ARROW_LEN,
    MARGIN_BOTTOM,
    MARGIN_LEFT,
    MARGIN_RIGHT,
    MARGIN_TOP,
    PLOT_H,
    PLOT_W,
    QUANT_LEVELS,
    _LEVEL_COLORS,
    _fmt,
)
from dualstock.timeseries import CsvFormat, PriceSeries
from dualstock.wavelet import CoherenceField, _rho2_rows, cone_of_influence, phase_field, smooth


def morlet_mother(t, omega0: float = 6.0):
    """Unit-energy Morlet wavelet pi^(-1/4) exp(i*omega0*t) exp(-t^2/2)."""
    t = np.asarray(t, dtype=np.float64)
    psi = math.pi**-0.25 * np.exp(1j * omega0 * t) * np.exp(-0.5 * t * t)
    return complex(psi) if psi.ndim == 0 else psi


def cwt_direct(x, scales, omega0: float = 6.0, dt: float = 1.0) -> np.ndarray:
    """Direct double-sum CWT: W[j, tau] = sum_t x_t sqrt(dt/s) conj(psi((t-tau)dt/s))."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    xd = x - x.mean()
    t_idx = np.arange(n)
    out = np.zeros((len(scales), n), dtype=complex)
    for j, s in enumerate(scales):
        weight = math.sqrt(dt / s)
        for tau in range(n):
            eta = (t_idx - tau) * dt / s
            out[j, tau] = np.sum(xd * weight * np.conj(morlet_mother(eta, omega0)))
    return out


def sorted_quantile(values, q: float) -> float:
    """Sort-and-interpolate quantile at position (n-1)*q."""
    xs = sorted(float(v) for v in values)
    h = (len(xs) - 1) * q
    lo = math.floor(h)
    frac = h - lo
    if frac == 0.0 or lo + 1 >= len(xs):
        return xs[lo]
    return xs[lo] + frac * (xs[lo + 1] - xs[lo])


def rmse_brute(pred, actual) -> float:
    total = math.fsum((float(p) - float(a)) ** 2 for p, a in zip(pred, actual))
    return math.sqrt(total / len(pred))


def mae_brute(pred, actual) -> float:
    return math.fsum(abs(float(p) - float(a)) for p, a in zip(pred, actual)) / len(pred)


def mape_brute(pred, actual) -> float:
    total = math.fsum(abs(float(p) - float(a)) / abs(float(a)) for p, a in zip(pred, actual))
    return 100.0 * total / len(pred)


def ar1_series(phi: float, n: int, rng: np.random.Generator, sigma: float = 1.0) -> np.ndarray:
    """Stationary AR(1) draw used to build test inputs."""
    z = rng.standard_normal(n)
    out = np.empty(n)
    prev = sigma / math.sqrt(1.0 - phi * phi) * z[0]
    out[0] = prev
    for t in range(1, n):
        prev = phi * prev + sigma * z[t]
        out[t] = prev
    return out


def ar1_surrogate(params, n: int, rng: np.random.Generator) -> np.ndarray:
    """One AR(1) surrogate of length n with fitted ``params``, one step at a time.

    The scalar recursion from the stationary distribution, then the mean
    added.  ``dualstock.significance`` draws its surrogates in vectorised
    blocks that must match this, bit for bit.
    """
    return ar1_series(params.phi, n, rng, sigma=params.sigma) + params.mean


def lstm_forward_literal(flat, window, hidden_size: int, cells=None) -> float:
    """Prediction of one model for one (L, D) window, one cell at a time.

    ``flat`` is the model's (P,) buffer, sliced here by the layout [weights
    (4H, H+D) row-major, biases (4H,), head_w (H,), head_b]; every product
    is a 1-D matrix-vector product.  When ``cells`` is a list, each cell's
    (z, f, i, o, c_hat, c_prev, tanh_c, h) is appended to it.
    """
    hsz = hidden_size
    width = hsz + window.shape[1]
    n_w = 4 * hsz * width
    weights = flat[:n_w].reshape(4 * hsz, width)
    biases = flat[n_w : n_w + 4 * hsz]
    head_w = flat[n_w + 4 * hsz : -1]
    h, c = np.zeros(hsz), np.zeros(hsz)
    for x in window:
        z = np.concatenate([h, x])
        pre = weights @ z + biases
        with np.errstate(over="ignore"):
            gates = 1.0 / (1.0 + np.exp(-pre[: 3 * hsz]))
        f, i, o = gates[:hsz], gates[hsz : 2 * hsz], gates[2 * hsz :]
        c_hat = np.tanh(pre[3 * hsz :])
        c_prev, c = c, i * c_hat + f * c
        tanh_c = np.tanh(c)
        h = o * tanh_c
        if cells is not None:
            cells.append((z, f, i, o, c_hat, c_prev, tanh_c, h))
    return float(head_w @ h + flat[-1])


def lstm_grads_literal(flat, window, loss_grad: float, hidden_size: int, per_cell_outer: bool = False) -> np.ndarray:
    """One model's (P,) gradient for one (L, D) window, by BPTT one cell at a time.

    ``loss_grad`` is dLoss/dPrediction.  The forward is
    ``lstm_forward_literal`` and every product is written left to right as
    in the textbook formulas.  The weight gradient is the sum over cells of
    outer(dz, z): by default one 2-D matmul of the cells' dz columns with
    their inputs, cells in ascending order; with ``per_cell_outer`` one
    ``np.outer`` per cell, added in reverse cell order.  The two differ
    only in the rounding of that sum.
    """
    hsz = hidden_size
    width = hsz + window.shape[1]
    n_w = 4 * hsz * width
    weights = flat[:n_w].reshape(4 * hsz, width)
    head_w = flat[n_w + 4 * hsz : -1]
    cells = []
    lstm_forward_literal(flat, window, hsz, cells)
    grads = np.zeros(len(flat))
    grad_w = grads[:n_w].reshape(4 * hsz, width)
    grad_b = grads[n_w : n_w + 4 * hsz]
    grads[n_w + 4 * hsz : -1] = loss_grad * cells[-1][-1]
    grads[-1] = loss_grad
    dh = loss_grad * head_w
    dc = np.zeros(hsz)
    dzs = []  # in reverse cell order
    for z, f, i, o, c_hat, c_prev, tanh_c, _ in reversed(cells):
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        dz = np.concatenate(
            [
                dc * c_prev * f * (1.0 - f),
                dc * c_hat * i * (1.0 - i),
                do * o * (1.0 - o),
                dc * i * (1.0 - c_hat * c_hat),
            ]
        )
        dzs.append(dz)
        grad_b += dz
        dh = (weights.T @ dz)[:hsz]
        dc = dc * f
    zs = [cell[0] for cell in cells]
    if per_cell_outer:
        for dz, z in zip(dzs, reversed(zs)):
            grad_w += np.outer(dz, z)
    else:
        grad_w[...] = np.array(dzs[::-1]).T @ np.array(zs)
    return grads


def lstm_train_per_sample(inputs, targets, cfg, seed):
    """Per-sample Adam training of one model, one sample and one cell at a time.

    ``inputs`` is (N, L, D) and ``targets`` (N,).  The literal form of
    ``dualstock.lstm.train_batch`` for one model: the init drawn from
    ``PCG64(seed)`` (weights, then head weights, uniform in
    +-1/sqrt(H+D); forget-gate biases 1), one permutation per epoch,
    ``lstm_forward_literal`` for the forward, ``lstm_grads_literal`` for the
    gradient, the gradient norm summed per segment in buffer order and
    clipped to 1.0, and Adam with step size 0.01, beta1 0.9, beta2 0.999 and
    epsilon 1e-8.
    Returns the flat parameter buffer and the epoch loss trace.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    hsz = cfg.hidden_size
    width = hsz + inputs.shape[2]
    n_w = 4 * hsz * width
    size = n_w + 5 * hsz + 1

    def segments(buf):
        return buf[:n_w].reshape(4 * hsz, width), buf[n_w : n_w + 4 * hsz], buf[n_w + 4 * hsz : -1]

    flat = np.zeros(size)
    weights, biases, head_w = segments(flat)
    bound = 1.0 / math.sqrt(width)
    weights[:] = rng.uniform(-bound, bound, size=weights.shape)
    head_w[:] = rng.uniform(-bound, bound, size=hsz)
    biases[:hsz] = 1.0
    m = np.zeros(size)
    v = np.zeros(size)
    step = 0
    trace = []
    for _ in range(cfg.epochs):
        sq_sum = 0.0
        for idx in rng.permutation(len(inputs)):
            err = lstm_forward_literal(flat, inputs[idx], hsz) - targets[idx]
            sq_sum += err * err
            grads = lstm_grads_literal(flat, inputs[idx], 2.0 * err, hsz)
            grad_w, grad_b, grad_head_w = segments(grads)
            norm = math.sqrt(sum(float((g * g).sum()) for g in (grad_w, grad_b, grad_head_w, grads[-1:])))
            if norm > 1.0:
                grads *= 1.0 / norm
            step += 1
            m = 0.9 * m + (1.0 - 0.9) * grads
            v = 0.999 * v + (1.0 - 0.999) * grads**2
            scale = 0.01 / (1.0 - 0.9**step)
            flat -= scale * m / (np.sqrt(v / (1.0 - 0.999**step)) + 1e-8)
        trace.append(sq_sum / len(inputs))
    return flat, trace


def same_bytes(x, y) -> bool:
    """Equal dtype, shape and bytes: unlike ``np.array_equal``, -0.0 differs from 0.0."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def rho2_full(a, b, grid):
    """Clamped squared coherence (0 where the denominator vanished) and the smoothed cross spectrum.

    ``a`` and ``b`` are two ``cwt`` coefficient arrays on ``grid``.  The
    whole-array pipeline, kept as the bitwise reference of the row-band
    producer ``wavelet._rho2_rows``: every (num_scales, n) term is smoothed
    at once by the public ``smooth``.  The cross term is conj(b) * a in that
    operand order, as the producer forms it (complex multiply is not
    bit-commutative).
    """
    if a.shape != b.shape or a.shape[0] != grid.num_scales:
        raise ValueError(
            f"coefficients must be two ({grid.num_scales}, n) arrays of one shape; got {a.shape} and {b.shape}"
        )
    inv_s = 1.0 / grid.scales[:, None]
    cross = smooth(np.multiply(np.conj(b), a) * inv_s, grid=grid)
    power_a = smooth((a.real**2 + a.imag**2) * inv_s, grid=grid)
    power_b = smooth((b.real**2 + b.imag**2) * inv_s, grid=grid)
    denom = power_a * power_b
    degenerate = denom <= 0.0
    rho2 = cross.real**2
    rho2 += cross.imag**2
    with np.errstate(divide="ignore", invalid="ignore"):
        rho2 /= denom
    rho2[degenerate] = 0.0
    np.clip(rho2, 0.0, 1.0, out=rho2)
    return rho2, cross


def coherence(x_a, x_b, grid) -> CoherenceField:
    """The observed field of two daily series on ``grid``, built as ``significance`` builds it.

    No Monte-Carlo run.

    Not an oracle: a test helper for tests whose unit is rho2 and phase.  The
    mask is all False and the exceedance counts are zero.
    """
    n = len(x_a)
    rho2 = np.empty((grid.num_scales, n))
    phase = np.empty((grid.num_scales, n))
    for j, rho2_row, cross_row in _rho2_rows(x_a, x_b, grid):
        rho2[j] = rho2_row
        phase[j] = phase_field(cross_row)
    return CoherenceField(
        rho2,
        phase,
        grid,
        cone_of_influence(n),
        significant=np.zeros(rho2.shape, dtype=bool),
        exceedances=np.zeros(rho2.shape, dtype=np.int64),
    )


def coherence_single_pad(x_a, x_b, grid, time_std: float = 1.0, octaves: float = 0.6, dt: float = 1.0):
    """rho^2 and phase by one pad length for every scale and complex FFTs throughout.

    The earlier coherence pipeline, kept literal: every scale is padded to
    the power of two covering the largest scale's reach, all three smoothed
    terms go through ``fft``/``ifft`` against the complex kernel spectrum,
    and the scale boxcar is a per-row mean.
    """
    n = len(x_a)
    scales = grid.scales

    def pad_length(reach):
        return 1 << max(1, math.ceil(math.log2(n + math.ceil(8.0 * reach) + 1)))

    def transform(x):
        x = np.asarray(x, dtype=np.float64)
        npad = pad_length(float(scales[-1]) / dt)
        omega = 2.0 * math.pi * np.fft.fftfreq(npad, d=dt)
        daughters = np.empty((len(scales), npad))
        for j, s in enumerate(scales):
            arg = s * omega - 6.0
            acc = np.zeros(npad)
            for image in range(-3, 4):
                acc += np.exp(-0.5 * (arg - image * 2.0 * math.pi * s / dt) ** 2)
            daughters[j] = math.sqrt(2.0 * math.pi * s / dt) * math.pi**-0.25 * acc
        xhat = np.fft.fft(x - x.mean(), npad)
        return np.fft.ifft(xhat[None, :] * daughters, axis=1)[:, :n]

    def smooth(values):
        npad = pad_length(time_std * float(scales[-1]) / dt)
        m = np.arange(npad)
        dist = np.minimum(m, npad - m).astype(np.float64)
        sigmas = time_std * scales / dt
        khat = np.fft.fft(np.exp(-0.5 * (dist[None, :] / sigmas[:, None]) ** 2), axis=1)
        sums = np.fft.ifft(np.fft.fft(np.ones(n), npad)[None, :] * khat, axis=1).real[:, :n]
        smoothed = np.fft.ifft(np.fft.fft(values, n=npad, axis=1) * khat, axis=1)[:, :n]
        if not np.iscomplexobj(values):
            smoothed = smoothed.real
        smoothed = smoothed / sums
        half = octaves / (2.0 * grid.dj)
        out = np.empty_like(smoothed)
        for j in range(len(scales)):
            lo = max(0, math.ceil(j - half))
            hi = min(len(scales) - 1, math.floor(j + half))
            out[j] = smoothed[lo : hi + 1].mean(axis=0)
        return out

    wa, wb = transform(x_a), transform(x_b)
    inv_s = 1.0 / scales[:, None]
    cross = smooth(wa * np.conj(wb) * inv_s)
    denom = smooth(np.abs(wa) ** 2 * inv_s) * smooth(np.abs(wb) ** 2 * inv_s)
    rho2 = np.clip(np.abs(cross) ** 2 / denom, 0.0, 1.0)
    return rho2, np.angle(cross)


def coherence_csv_per_cell(field, dates) -> str:
    """The coherence long CSV formatted one f-string per cell, as one string."""
    inside = field.inside_coi()
    scales = field.grid.scales
    periods = field.grid.fourier_periods
    day_s = [dates[t].isoformat() for t in range(field.n)]
    # One joined block per scale keeps a few thousand row strings alive at a
    # time instead of the whole field's; the trailing "" ends the last line.
    blocks = ["time_index,date,scale_days,period_days,rho2,phase_rad,significant,inside_coi"]
    for j in range(field.grid.num_scales):
        scale_s = f"{scales[j]:.6f}"
        period_s = f"{periods[j]:.6f}"
        rows = []
        for t in range(field.n):
            rows.append(
                f"{t},{day_s[t]},{scale_s},{period_s},"
                f"{field.rho2[j, t]:.6f},{field.phase[j, t]:.6f},{int(field.significant[j, t])},{int(inside[j, t])}"
            )
        blocks.append("\n".join(rows))
    blocks.append("")
    return "\n".join(blocks)


def render_heatmap_per_cell(field, out_path, dates, title) -> Path:
    """The coherence SVG with per-bin run and per-cell edge loops, joined and written at once.

    Each scale row is cut into bins of k = ceil(n / PLOT_W) cells; a bin's
    level is the quantized mean of its cells, summed one by one from 0.0,
    and one rect is drawn per run of bins of one level.  The contour lists
    every cell's edges, then merges the top and the bottom edges of
    consecutive cells in a row into one segment, drawn at the run's first
    cell.
    """
    rho2 = np.asarray(field.rho2)
    if not np.isfinite(rho2).all():
        raise ValueError("field contains non-finite rho2 values")
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

    parts: list[str] = []
    parts.append('<?xml version="1.0" encoding="UTF-8"?>')
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    parts.append(
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>'
    )
    parts.append(
        f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>'
    )

    # Heatmap: bins of k cells, each at its mean's quantized color level,
    # run-length encoded along each scale row.
    k = math.ceil(n / PLOT_W)
    for j in range(num_scales):
        bins = []  # (first cell, stop cell, level)
        for first in range(0, n, k):
            stop = min(first + k, n)
            total = 0.0
            for t in range(first, stop):
                total += float(rho2[j, t])
            level = min(int(total / (stop - first) * QUANT_LEVELS), QUANT_LEVELS - 1)
            if bins and bins[-1][2] == level:
                bins[-1] = (bins[-1][0], stop, level)
            else:
                bins.append((first, stop, level))
        for first, stop, level in bins:
            parts.append(
                f'<rect class="cell" x="{_fmt(x_of(first))}" y="{_fmt(y_of_row(j))}" '
                f'width="{_fmt((stop - first) * cell_w)}" height="{_fmt(cell_h)}" '
                f'fill="{_LEVEL_COLORS[level]}"/>'
            )

    # Significance contour: edges between significant and non-significant
    # cells (or the border), listed per cell as (side, row, column).
    mask = np.asarray(field.significant, dtype=bool)
    edges = set()
    for j in range(num_scales):
        for t in range(n):
            if not mask[j, t]:
                continue
            if t == 0 or not mask[j, t - 1]:
                edges.add(("left", j, t))
            if t == n - 1 or not mask[j, t + 1]:
                edges.add(("right", j, t))
            if j == 0 or not mask[j - 1, t]:
                edges.add(("top", j, t))
            if j == num_scales - 1 or not mask[j + 1, t]:
                edges.add(("bottom", j, t))
    # Merged into one path: per cell in row-major order its left and right
    # edges, then the top and the bottom run of consecutive edges that
    # starts at it, one segment each.
    segments: list[str] = []
    for j in range(num_scales):
        y0, y1 = y_of_row(j), y_of_row(j + 1)
        for t in range(n):
            x0, x1 = x_of(t), x_of(t + 1)
            if ("left", j, t) in edges:
                segments.append(f"M{_fmt(x0)} {_fmt(y0)}L{_fmt(x0)} {_fmt(y1)}")
            if ("right", j, t) in edges:
                segments.append(f"M{_fmt(x1)} {_fmt(y0)}L{_fmt(x1)} {_fmt(y1)}")
            for side, y in (("top", y0), ("bottom", y1)):
                if (side, j, t) in edges and (side, j, t - 1) not in edges:
                    stop = t + 1
                    while (side, j, stop) in edges:
                        stop += 1
                    segments.append(f"M{_fmt(x0)} {_fmt(y)}L{_fmt(x_of(stop))} {_fmt(y)}")
    if segments:
        parts.append(
            f'<path class="significance-contour" d="{"".join(segments)}" '
            f'stroke="#000000" stroke-width="1" fill="none"/>'
        )

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

    out = Path(out_path)
    try:
        out.write_text("\n".join(parts) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"failed to write SVG to {out}: {exc}") from exc
    return out


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _parse_date_per_row(raw: str, date_format: str) -> datetime.date:
    if date_format == "%Y-%m-%d" and _ISO_DATE.fullmatch(raw):
        return datetime.date.fromisoformat(raw)
    return datetime.datetime.strptime(raw, date_format).date()


def load_ohlc_csv_per_row(path, fmt: CsvFormat = CsvFormat()) -> PriceSeries:
    """Row-at-a-time ``csv.DictReader`` loader: each row parsed, checked and appended in turn."""
    path = Path(path)
    dates: list[datetime.date] = []
    mids: list[float] = []

    def bad_row(line: int, reason: str) -> bool:
        if fmt.on_invalid == "fail":
            raise ValueError(f"{path}, line {line}: {reason}")
        return False  # skip

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=fmt.delimiter)
        try:
            if reader.fieldnames is None:
                raise ValueError(f"{path}: empty file, header row required")
            cols = set(reader.fieldnames)
            if fmt.mid_col is not None:
                needed = {fmt.date_col, fmt.mid_col}
            else:
                needed = {fmt.date_col, fmt.high_col, fmt.low_col}
            missing = needed - cols
            if missing:
                raise ValueError(f"{path}: missing required columns {sorted(missing)}")

            for row in reader:
                line = reader.line_num
                raw_date = (row.get(fmt.date_col) or "").strip()
                try:
                    date = _parse_date_per_row(raw_date, fmt.date_format)
                except ValueError:
                    bad_row(line, f"unparseable date {raw_date!r}")
                    continue
                if fmt.mid_col is not None:
                    raw = (row.get(fmt.mid_col) or "").strip()
                    try:
                        mid = float(raw)
                    except ValueError:
                        bad_row(line, f"non-numeric price {raw!r}")
                        continue
                    high = low = mid
                else:
                    raw_h = (row.get(fmt.high_col) or "").strip()
                    raw_l = (row.get(fmt.low_col) or "").strip()
                    try:
                        high = float(raw_h)
                        low = float(raw_l)
                    except ValueError:
                        bad_row(line, f"non-numeric price (high={raw_h!r}, low={raw_l!r})")
                        continue
                    mid = 0.5 * (high + low)
                if not (math.isfinite(high) and math.isfinite(low)) or low <= 0:
                    bad_row(line, f"non-positive or non-finite price (high={high}, low={low})")
                    continue
                if high < low:
                    bad_row(line, f"high {high} < low {low}")
                    continue
                if dates and date <= dates[-1]:
                    raise ValueError(
                        f"{path}, line {line}: dates must be strictly increasing "
                        f"({dates[-1]} then {date})"
                    )
                dates.append(date)
                mids.append(mid)
        except csv.Error as exc:
            # DictReader's own line_num is set only after a row is read
            raise ValueError(f"{path}, line {reader.reader.line_num}: {exc}") from None

    if not dates:
        raise ValueError(f"{path}: no valid rows")
    return PriceSeries(dates=tuple(dates), mid=mids)
