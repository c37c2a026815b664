"""Textbook references for the periodized per-axis passes.

Each reference moves the target axis last, builds the periodic extension
(or the zero-stuffed upsampling) of its input, and sums every tap over
it, in tap order from a +0.0 start.  The kernels instead run their
valid-mode passes over margins wrapped from the data's own ends, so on
finite input every result must be byte-identical to these.  The oracles
of the per-axis passes (``test_wavelet_axis_oracle``) and of the 2-D
strips (``test_wavelet_strip_oracle``) are both built from this module,
which shares no code with :mod:`repro.wavelet` beyond the lifting
factorization (the scheme is the reference's input, not its arithmetic).
"""

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet import lifting_scheme


def _f64(arr):
    return np.asarray(arr, dtype=np.float64)


def _check_axis_length(n, taps):
    if n % 2 != 0:
        raise ConfigurationError(f"axis length must be even for decimation, got {n}")
    if n < taps:
        raise ConfigurationError(f"axis length {n} is shorter than the filter")


def ref_analyze_axis(data, taps, axis):
    taps = _f64(taps)
    moved = np.moveaxis(_f64(data), axis, -1)
    n = moved.shape[-1]
    m = taps.size
    _check_axis_length(n, m)
    extended = np.concatenate([moved, moved[..., : m - 1]], axis=-1)
    acc = np.zeros(moved.shape[:-1] + (n // 2,), dtype=np.float64)
    for k in range(m):
        acc += taps[k] * extended[..., k : k + n : 2]
    return np.moveaxis(acc, -1, axis)


def ref_synthesize_axis(data, taps, axis):
    taps = _f64(taps)
    moved = np.moveaxis(_f64(data), axis, -1)
    n = moved.shape[-1] * 2
    m = taps.size
    _check_axis_length(n, m)
    upsampled = np.zeros(moved.shape[:-1] + (n,), dtype=np.float64)
    upsampled[..., ::2] = moved
    if m > 1:
        extended = np.concatenate([upsampled[..., n - (m - 1) :], upsampled], axis=-1)
    else:
        extended = upsampled
    acc = np.zeros(moved.shape[:-1] + (n,), dtype=np.float64)
    for k in range(m):
        start = m - 1 - k
        acc += taps[k] * extended[..., start : start + n]
    return np.moveaxis(acc, -1, axis)


def _ref_circular_step(target, source, step, sign, axis=-1):
    """``target[n] += sign * sum_j c[j] * source[(n + dmin + j) mod N]``
    along ``axis``, in place, over an explicit periodic extension."""
    target = np.moveaxis(target, axis, -1)
    source = np.moveaxis(source, axis, -1)
    n = source.shape[-1]
    lo = step.dmin
    hi = step.dmin + len(step.coeffs) - 1
    pre, post = max(0, -lo), max(0, hi)
    if pre > n or post > n:
        raise ConfigurationError("lifting step would wrap more than once")
    parts = [source[..., n - pre :]] if pre else []
    parts.append(source)
    if post:
        parts.append(source[..., :post])
    extended = np.concatenate(parts, axis=-1) if len(parts) > 1 else source
    for j, c in enumerate(step.coeffs):
        offset = pre + lo + j
        target += (sign * c) * extended[..., offset : offset + n]


def _ref_circular_shift(arr, k, axis=-1):
    """Left-rotate ``axis`` by ``k`` (``out[n] = arr[(n + k) mod N]``)."""
    moved = np.moveaxis(arr, axis, -1)
    n = moved.shape[-1]
    k %= n
    if k == 0:
        return arr
    return np.moveaxis(np.concatenate([moved[..., k:], moved[..., :k]], axis=-1), -1, axis)


def _ref_split_lanes(moved):
    return np.ascontiguousarray(moved[..., 0::2]), np.ascontiguousarray(moved[..., 1::2])


def _other(lane):
    return "o" if lane == "e" else "e"


def ref_lifting_analyze_axis(data, scheme, axis):
    moved = np.moveaxis(_f64(data), axis, -1)
    n = moved.shape[-1]
    _check_axis_length(n, scheme.filter_length)
    lanes = dict(zip("eo", _ref_split_lanes(moved)))
    for step in scheme.steps:
        _ref_circular_step(lanes[step.target], lanes[_other(step.target)], step, 1.0)
    approx = scheme.low_scale * _ref_circular_shift(lanes[scheme.low_lane], scheme.low_shift)
    detail = scheme.high_scale * _ref_circular_shift(lanes[scheme.high_lane], scheme.high_shift)
    return np.moveaxis(approx, -1, axis), np.moveaxis(detail, -1, axis)


def ref_lifting_synthesize_axis(approx, detail, scheme, axis):
    approx, detail = _f64(approx), _f64(detail)
    if approx.shape != detail.shape:
        raise ConfigurationError("approx and detail shapes differ")
    a = np.moveaxis(approx, axis, -1)
    d = np.moveaxis(detail, axis, -1)
    # The signal it synthesizes must be one the analysis accepts.
    _check_axis_length(2 * a.shape[-1], scheme.filter_length)
    lanes = {
        scheme.low_lane: _ref_circular_shift(a * (1.0 / scheme.low_scale), -scheme.low_shift),
        scheme.high_lane: _ref_circular_shift(d * (1.0 / scheme.high_scale), -scheme.high_shift),
    }
    for step in reversed(scheme.steps):
        _ref_circular_step(lanes[step.target], lanes[_other(step.target)], step, -1.0)
    out = np.empty(a.shape[:-1] + (2 * a.shape[-1],), dtype=np.float64)
    out[..., 0::2] = lanes["e"]
    out[..., 1::2] = lanes["o"]
    return np.moveaxis(out, -1, axis)


def ref_kernel_analyze(kernel, data, bank, axis):
    """The textbook periodized analysis ``kernel`` (a name) computes:
    ``(low, high)``, both of conv's banks at once."""
    if kernel == "conv":
        return ref_analyze_axis(data, bank.lowpass, axis), ref_analyze_axis(
            data, bank.highpass, axis
        )
    return ref_lifting_analyze_axis(data, lifting_scheme(bank), axis)


def ref_kernel_synthesize(kernel, low, high, bank, axis):
    """The textbook periodized synthesis ``kernel`` (a name) computes."""
    if kernel == "conv":
        return ref_synthesize_axis(low, bank.lowpass, axis) + ref_synthesize_axis(
            high, bank.highpass, axis
        )
    return ref_lifting_synthesize_axis(low, high, lifting_scheme(bank), axis)
