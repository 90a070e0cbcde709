"""Independent brute-force oracles used across the test suite.

Each oracle recomputes a quantity by the most literal method available
(double loops, sorting, exact summation) without touching the library's
implementation paths.
"""

from __future__ import annotations

import math

import numpy as np


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
            psi = math.pi**-0.25 * np.exp(1j * omega0 * eta) * np.exp(-0.5 * eta * eta)
            out[j, tau] = np.sum(xd * weight * np.conj(psi))
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


def lstm_train_per_sample(samples, cfg):
    """Per-sample Adam training written one sample and one cell at a time.

    The literal form of ``dualstock.lstm.train``: 1-D matrix-vector products,
    ``np.outer`` for the weight gradient, and the clip norm summed per
    segment in buffer order.  Returns the flat parameter buffer and the
    epoch loss trace.
    """
    from dualstock.lstm import LstmParams

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    hsz = cfg.hidden_size
    params = LstmParams.init(rng, hsz, samples[0].dim)
    weights, biases, head_w = params.weights, params.biases, params.head_w
    m = np.zeros_like(params.flat)
    v = np.zeros_like(params.flat)
    step = 0
    trace = []
    for _ in range(cfg.epochs):
        sq_sum = 0.0
        for idx in rng.permutation(len(samples)):
            sample = samples[idx]
            h, c = np.zeros(hsz), np.zeros(hsz)
            cells = []
            for x in sample.inputs:
                z = np.concatenate([h, x])
                pre = weights @ z + biases
                with np.errstate(over="ignore"):
                    gates = 1.0 / (1.0 + np.exp(-pre[: 3 * hsz]))
                f, i, o = gates[:hsz], gates[hsz : 2 * hsz], gates[2 * hsz :]
                c_hat = np.tanh(pre[3 * hsz :])
                c_prev, c = c, i * c_hat + f * c
                tanh_c = np.tanh(c)
                h = o * tanh_c
                cells.append((z, f, i, o, c_hat, c_prev, tanh_c))
            err = float(head_w @ h + params.head_b) - sample.target
            sq_sum += err * err
            grads = LstmParams.zeros(hsz, params.input_size)
            grads.head_w[:] = 2.0 * err * h
            grads.head_b = 2.0 * err
            dh = 2.0 * err * head_w
            dc = np.zeros(hsz)
            for z, f, i, o, c_hat, c_prev, tanh_c in reversed(cells):
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
                grads.weights += np.outer(dz, z)
                grads.biases += dz
                dh = (weights.T @ dz)[:hsz]
                dc = dc * f
            segments = (grads.weights, grads.biases, grads.head_w, grads.flat[-1:])
            norm = math.sqrt(sum(float((g * g).sum()) for g in segments))
            if norm > cfg.clip_norm:
                grads.flat *= cfg.clip_norm / norm
            step += 1
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * grads.flat
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * grads.flat**2
            scale = cfg.learning_rate / (1.0 - cfg.beta1**step)
            params.flat -= scale * m / (np.sqrt(v / (1.0 - cfg.beta2**step)) + cfg.epsilon)
        trace.append(sq_sum / len(samples))
    return params.flat, trace


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
            arg = s * omega - grid.omega0
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
