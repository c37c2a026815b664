"""Periodized filtering primitives for the Mallat transform.

The decomposition treats each image axis as circular (periodized), which is
the convention that keeps every level's subbands exactly half the size of
their parent and makes the orthonormal transform perfectly invertible.

Two primitives cover both directions of the transform:

* :func:`analyze_axis` — correlate with a filter and decimate by two
  (steps 1+2 / 3+4 of the paper's algorithm description).
* :func:`synthesize_axis` — upsample by two and circularly convolve
  (the reconstruction mirror, Figure 2 of the paper).

Both are vectorized over every other axis: the filter loop runs only over
the (2-20) taps, and each tap is one multiply-add over a slice of the
target axis taken where that axis lies, so a column pass (``axis=0``) of
a C-ordered image adds whole contiguous rows and nothing is transposed.

* A periodic wrap is a direct slice plus a wrapped slice: the outputs
  whose window runs past the end read the front of the axis.  No
  periodic extension of the input is built.
* Synthesis is polyphase: output ``2q + p`` of the upsampled convolution
  meets only taps ``k ≡ p (mod 2)``, because every other tap lands on a
  zero-stuffed sample.  No zero-stuffed array is built, and those terms
  are skipped.

Skipping the zero terms is exact.  Every accumulator starts at +0.0, and
a float sum that starts at +0.0 never becomes −0.0 (a zero sum of nonzero
terms rounds to +0.0), so adding a ±0.0 product never changes it.  Each
output element therefore gets the same products, in the same tap order,
as the textbook rolled or zero-stuffed formulation, and for finite input
the results are bit-identical to it.  Outputs are C-ordered.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

try:
    from numpy.lib.array_utils import normalize_axis_index
except ImportError:  # numpy < 2.0
    from numpy.core.multiarray import normalize_axis_index

__all__ = [
    "analyze_axis",
    "analyze_axis_valid",
    "synthesize_axis",
    "synthesize_axis_valid",
]


def _as_f64(arr) -> np.ndarray:
    """Return ``arr`` as float64 without re-dispatching through
    ``np.asarray`` when it already is one (the pyramid calls these
    primitives once per level on arrays that are float64 after level 0)."""
    if type(arr) is np.ndarray and arr.dtype == np.float64:
        return arr
    return np.asarray(arr, dtype=np.float64)


def _along(arr: np.ndarray, axis: int, start, stop, step: int = 1) -> np.ndarray:
    """The view ``arr[..., start:stop:step, ...]`` with the slice on
    ``axis`` (non-negative) and every other axis whole."""
    return arr[(slice(None),) * axis + (slice(start, stop, step),)]


def _resized(shape: tuple, axis: int, length: int) -> tuple:
    return shape[:axis] + (length,) + shape[axis + 1 :]


def _validate_axis_length(n: int, taps: int) -> None:
    if n % 2 != 0:
        raise ConfigurationError(f"axis length must be even for decimation, got {n}")
    if n < taps:
        raise ConfigurationError(
            f"axis length {n} is shorter than the filter ({taps} taps); "
            "periodized filtering would wrap more than once"
        )


def analyze_axis(data: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Periodized correlation with ``taps`` followed by decimation by 2.

    Computes ``out[n] = sum_k taps[k] * data[(2n + k) mod N]`` along the
    given axis, halving that axis.

    Parameters
    ----------
    data:
        Input array; the target axis must have even length >= the tap count.
    taps:
        1-D filter coefficients.
    axis:
        Axis to filter and decimate.
    """
    taps = _as_f64(taps)
    data = _as_f64(data)
    axis = normalize_axis_index(axis, data.ndim)
    n = data.shape[axis]
    m = taps.size
    _validate_axis_length(n, m)

    half = n // 2
    acc = np.zeros(_resized(data.shape, axis, half), dtype=np.float64)
    for k in range(m):
        # Outputs [0, direct) read data[2q + k]; the rest wrap to
        # data[2q + k - n], the same-parity samples below k.
        direct = (n - k + 1) // 2
        head = _along(acc, axis, 0, direct)
        head += taps[k] * _along(data, axis, k, n, 2)
        if direct < half:
            tail = _along(acc, axis, direct, half)
            tail += taps[k] * _along(data, axis, k % 2, k, 2)
    return acc


def analyze_axis_valid(
    data: np.ndarray, taps: np.ndarray, axis: int, out_len: int
) -> np.ndarray:
    """Decimating correlation without periodization (valid mode).

    Computes ``out[n] = sum_k taps[k] * data[2n + k]`` for ``n`` in
    ``[0, out_len)``.  This is the primitive the coarse-grain SPMD
    decomposition and the sequential 2-D strips use on a stripe extended
    by its guard zone: the guard rows supply exactly the samples that
    periodization (or the neighbor) would, so stitching the outputs
    reproduces the periodized transform bit-for-bit.
    """
    taps = _as_f64(taps)
    data = _as_f64(data)
    axis = normalize_axis_index(axis, data.ndim)
    n = data.shape[axis]
    m = taps.size
    if out_len < 0:
        raise ConfigurationError(f"out_len must be >= 0, got {out_len}")
    needed = 2 * (out_len - 1) + m if out_len else 0
    if needed > n:
        raise ConfigurationError(
            f"valid-mode analysis needs {needed} input samples for "
            f"out_len={out_len} with {m} taps, got {n}"
        )
    out = np.zeros(_resized(data.shape, axis, out_len), dtype=np.float64)
    for k in range(m):
        out += taps[k] * _along(data, axis, k, k + 2 * out_len, 2)
    return out


def synthesize_axis(data: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Upsample by 2 then periodically convolve with ``taps`` (adjoint of
    :func:`analyze_axis`).

    Computes ``out[m] = sum_n data[n] * taps[(m - 2n) mod N]`` along the
    axis, doubling it.  Summing the low- and high-channel syntheses of an
    orthonormal bank reconstructs the original signal exactly.
    """
    taps = _as_f64(taps)
    data = _as_f64(data)
    axis = normalize_axis_index(axis, data.ndim)
    half = data.shape[axis]
    n = half * 2
    m = taps.size
    _validate_axis_length(n, m)

    out = np.zeros(_resized(data.shape, axis, n), dtype=np.float64)
    for k in range(m):
        # Tap k = p + 2s adds taps[k] * data[(q - s) mod half] to output
        # 2q + p: directly for q >= s, wrapped from the end for q < s.
        s = k // 2
        phase = _along(out, axis, k % 2, n, 2)
        head = _along(phase, axis, s, half)
        head += taps[k] * _along(data, axis, 0, half - s)
        if s:
            tail = _along(phase, axis, 0, s)
            tail += taps[k] * _along(data, axis, half - s, half)
    return out


def synthesize_axis_valid(
    data: np.ndarray, taps: np.ndarray, axis: int, out_len: int, lead: int
) -> np.ndarray:
    """Upsampling synthesis without periodization (valid mode).

    ``data`` holds a contiguous run of subband samples whose first ``lead``
    entries are guard samples from the preceding (north) neighbor.  With
    ``u`` the 2x zero-stuffed upsampling of ``data``, computes

        ``out[j] = sum_k taps[k] * u[2*lead + j - k]``

    for ``j`` in ``[0, out_len)`` — i.e. the synthesis outputs aligned with
    the *owned* (non-guard) part of the stripe.  This is the reconstruction
    counterpart of :func:`analyze_axis_valid`: guard samples supply what
    periodization (or the neighbor) would, so stitching per-rank outputs
    reproduces the sequential inverse transform exactly.

    Requires ``lead >= (len(taps) - 1) // 2`` and enough trailing samples
    (``out_len <= 2 * (data_len - lead)``).  At that minimum guard the
    deepest tap of an even-length filter reaches one sample before
    ``data``, but only ever a zero-stuffed one.
    """
    taps = _as_f64(taps)
    data = _as_f64(data)
    axis = normalize_axis_index(axis, data.ndim)
    length = data.shape[axis]
    m = taps.size
    if out_len < 0:
        raise ConfigurationError(f"out_len must be >= 0, got {out_len}")
    if lead < (m - 1) // 2:
        raise ConfigurationError(
            f"valid-mode synthesis needs a guard of at least {(m - 1) // 2} "
            f"samples for {m} taps, got {lead}"
        )
    if out_len > 2 * (length - lead):
        raise ConfigurationError(
            f"valid-mode synthesis has only {2 * (length - lead)} producible "
            f"outputs, asked for {out_len}"
        )
    out = np.zeros(_resized(data.shape, axis, out_len), dtype=np.float64)
    for k in range(m):
        # Tap k = p + 2s meets data[lead + q - s] at output 2q + p.
        p = k % 2
        start = lead - k // 2
        phase = _along(out, axis, p, out_len, 2)
        phase += taps[k] * _along(data, axis, start, start + (out_len - p + 1) // 2)
    return out
