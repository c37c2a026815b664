"""Direct filtering primitives for the Mallat transform.

The decomposition treats each image axis as circular (periodized), which is
the convention that keeps every level's subbands exactly half the size of
their parent and makes the orthonormal transform perfectly invertible.  The
primitives here never wrap: they filter a segment extended by guard
samples, which a neighbor's data or the segment's own wrapped ends supply
(:meth:`repro.wavelet.kernels.WaveletKernel.analyze` builds the periodized
pass from them), so one arithmetic serves the sequential transform and the
SPMD programs.  Two primitives cover both directions of the transform:

* :func:`analyze_axis_valid` — correlate with a filter and decimate by two
  (steps 1+2 / 3+4 of the paper's algorithm description).
* :func:`synthesize_axis_valid` — upsample by two and convolve (the
  reconstruction mirror, Figure 2 of the paper).

Both are vectorized over every other axis: the filter loop runs only over
the (2-20) taps, and each tap is one multiply-add over a slice of the
target axis taken where that axis lies, so a column pass (``axis=0``) of
a C-ordered image adds whole contiguous rows and nothing is transposed.
Synthesis is polyphase: output ``2q + p`` of the upsampled convolution
meets only taps ``k ≡ p (mod 2)``, because every other tap lands on a
zero-stuffed sample.  No zero-stuffed array is built, and those terms are
skipped.

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
    "analyze_axis_valid",
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


def analyze_axis_valid(
    data: np.ndarray, taps: np.ndarray, axis: int, out_len: int
) -> np.ndarray:
    """Decimating correlation without periodization (valid mode).

    Computes ``out[n] = sum_k taps[k] * data[2n + k]`` for ``n`` in
    ``[0, out_len)``.  This is the primitive the coarse-grain SPMD
    decomposition and the sequential transform use on a segment extended
    by its guard zone: the guard samples supply exactly what
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
    reproduces the periodized inverse transform exactly.

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
