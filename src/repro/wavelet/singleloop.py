"""Monolithic single-loop 2-D lifting sweep (Barina et al., "Parallel
Wavelet Schemes for Images", PAPERS.md).

The separable lifting kernels run a full row pass and then a full column
pass per level, materializing half-band intermediates.  The single-loop
scheme instead splits the image *once* into its four polyphase lanes

    ``lane[(r, c)] = image[r::2, c::2]``    (r, c in {even, odd})

and interleaves the lifting steps: every step is applied horizontally
(within each row-parity pair of lanes) and immediately vertically
(within each column-parity pair), so each pixel is visited once per
level and no intermediate subband image ever exists.  Because a
vertical step ``V ⊗ I`` commutes with a horizontal step ``I ⊗ H`` as
linear operators, the interleaved product ``(V_n H_n) ··· (V_1 H_1)``
equals the separable ``(V_n ··· V_1)(H_n ··· H_1)`` exactly — the two
kernels agree to float rounding, and both match direct convolution
within :data:`repro.wavelet.lifting.VERIFY_TOLERANCE`.

The diagonal output scaling is deferred and fused: each subband is one
multiply by the *product* of the two axes' scales, applied during lane
extraction (the separable form scales twice, once per pass).

Both sweeps run in valid mode over tiles with guard margins on both
axes, calling the one step primitive of :mod:`repro.wavelet.lifting`,
``_valid_step``, with ``axis=1`` (horizontal) or ``axis=0`` (vertical),
and track the intervals of valid rows and columns of every lane, raising
:class:`~repro.errors.ConfigurationError` when the guards are too
shallow:

* :func:`single_loop_analyze_valid` — the forward sweep.  The sequential
  kernel runs it over each 32-row strip of
  :class:`~repro.wavelet.kernels.WaveletKernel`'s strip traversal, whose
  margins wrap the image, the striped SPMD program over each rank's
  stripe, whose column margins wrap the stripe's own rows, and the block
  program over each block, whose margins all come from its neighbors.
* :func:`single_loop_synthesize_valid` — the inverse sweep, which the
  sequential kernel runs over each strip.  (``striped_reconstruct_program``
  reconstructs a single-loop pyramid through the separable lifting
  passes.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet.lifting import LiftingScheme, _valid_step

__all__ = [
    "single_loop_analyze_valid",
    "single_loop_synthesize_valid",
]

_PARITIES = ("e", "o")
_OFFSET = {"e": 0, "o": 1}


def _split_quads(image: np.ndarray) -> dict:
    """Copy the four polyphase lanes out of an even-sided image (always a
    copy: a 1x1 lane is a contiguous view, and the steps update lanes in
    place)."""
    return {
        (r, c): image[_OFFSET[r] :: 2, _OFFSET[c] :: 2].copy()
        for r in _PARITIES
        for c in _PARITIES
    }


def _band_specs(scheme: LiftingScheme):
    """(vertical, horizontal) (lane, scale, shift) triples in subband
    order ``ll, lh, hl, hh`` — ``lh`` is the vertically-highpassed band,
    matching the separable row-then-column convention."""
    low = (scheme.low_lane, scheme.low_scale, scheme.low_shift)
    high = (scheme.high_lane, scheme.high_scale, scheme.high_shift)
    return ((low, low), (high, low), (low, high), (high, high))


def _intersect(a: tuple, b: tuple) -> tuple:
    """The common part of two half-open intervals (empty as ``(lo, lo)``)."""
    lo = max(a[0], b[0])
    return lo, max(lo, min(a[1], b[1]))


def _validate_even(rows: int, cols: int) -> None:
    if rows % 2 or cols % 2:
        raise ConfigurationError(
            f"image dimensions must be even for decimation, got {rows}x{cols}"
        )


def single_loop_analyze_valid(
    ext: np.ndarray,
    scheme: LiftingScheme,
    out_rows: int,
    out_cols: int,
    lead_rows: int,
    lead_cols: int,
):
    """Valid-mode single-loop sweep over a guard-extended tile.

    ``ext`` is the owned tile extended with guards: the first
    ``lead_rows`` rows (even) come from the north, the row tail from the
    south, the first ``lead_cols`` columns (even) from the west and the
    column tail from the east.  Returns ``(ll, lh, hl, hh)`` of
    ``out_rows x out_cols`` samples aligned with the owned tile — output
    ``(i, j)`` corresponds to input offset ``(2i, 2j)`` past the guards.
    Raises :class:`ConfigurationError` when the guards are too shallow
    (:meth:`repro.wavelet.kernels.WaveletKernel.analysis_guard_depths`
    gives sufficient depths — the sweep's per-axis validity erosion is
    exactly the separable lifting pass's).
    """
    ext = np.asarray(ext, dtype=np.float64)
    if ext.ndim != 2:
        raise ConfigurationError(f"expected a 2-D tile, got shape {ext.shape}")
    if out_rows < 0 or out_cols < 0:
        raise ConfigurationError(
            f"output sizes must be >= 0, got {out_rows}x{out_cols}"
        )
    if lead_rows < 0 or lead_rows % 2 or lead_cols < 0 or lead_cols % 2:
        raise ConfigurationError(
            f"leads must be even and >= 0, got ({lead_rows}, {lead_cols})"
        )
    rows, cols = ext.shape
    _validate_even(rows, cols)
    lanes = _split_quads(ext)
    row_valid = {key: (0, lane.shape[0]) for key, lane in lanes.items()}
    col_valid = {key: (0, lane.shape[1]) for key, lane in lanes.items()}
    for step in scheme.steps:
        other = "o" if step.target == "e" else "e"
        for r in _PARITIES:
            t, s = (r, step.target), (r, other)
            # Rows where the source lane is stale poison the target rows,
            # and a stale row never becomes valid again: a horizontal step
            # updates the valid rows only.
            row_valid[t] = lo, hi = _intersect(row_valid[t], row_valid[s])
            col_valid[t] = _valid_step(
                lanes[t][lo:hi], lanes[s][lo:hi], step, col_valid[t], col_valid[s], 1.0, 1
            )
        for c in _PARITIES:
            t, s = (step.target, c), (other, c)
            row_valid[t] = _valid_step(
                lanes[t], lanes[s], step, row_valid[t], row_valid[s], 1.0, 0
            )
            col_valid[t] = _intersect(col_valid[t], col_valid[s])
    bands = []
    for v, h in _band_specs(scheme):
        key = (v[0], h[0])
        r0, c0 = lead_rows // 2 + v[2], lead_cols // 2 + h[2]
        _check_window(row_valid[key], r0, out_rows, "row", inverse=False)
        _check_window(col_valid[key], c0, out_cols, "column", inverse=False)
        bands.append((v[1] * h[1]) * lanes[key][r0 : r0 + out_rows, c0 : c0 + out_cols])
    return tuple(bands)


def _check_window(valid: tuple, start: int, count: int, axis: str, *, inverse: bool) -> None:
    """Refuse a lane window ``[start, start + count)`` outside ``valid``."""
    if start < valid[0] or start + count > valid[1]:
        sweep, depths = ("inverse sweep", "synthesis") if inverse else ("sweep", "analysis")
        raise ConfigurationError(
            f"insufficient {axis} guard for the single-loop {sweep}: need "
            f"lane[{start}:{start + count}] valid, have [{valid[0]}:{valid[1]}) "
            f"(see WaveletKernel.{depths}_guard_depths)"
        )


def single_loop_synthesize_valid(
    ll, lh, hl, hh, scheme: LiftingScheme, lead: int, out: np.ndarray
) -> np.ndarray:
    """Valid-mode inverse sweep over guard-extended subbands, into ``out``.

    The four subbands are owned tiles extended with guards on both axes:
    the first ``lead`` rows and ``lead`` columns come from before them,
    the tails from after.  Fills ``out`` with the image samples aligned
    with the owned subband start — ``out[j, k]`` is image sample
    ``(2 * (row_start + lead) + j, 2 * (col_start + lead) + k)`` of the
    periodized inverse — and returns it.
    Raises :class:`ConfigurationError` when the guards are too shallow
    (:meth:`repro.wavelet.kernels.WaveletKernel.synthesis_guard_depths`
    gives sufficient depths on each axis — the sweep's validity erodes
    exactly as in the separable lifting passes).
    """
    bands = [np.asarray(b, dtype=np.float64) for b in (ll, lh, hl, hh)]
    if any(b.ndim != 2 or b.shape != bands[0].shape for b in bands):
        raise ConfigurationError(
            f"expected four 2-D subbands of one shape, got {[b.shape for b in bands]}"
        )
    if lead < 0:
        raise ConfigurationError(f"lead must be >= 0, got {lead}")
    if out.ndim != 2:
        raise ConfigurationError(f"out must be 2-D, got shape {out.shape}")
    n_rows, n_cols = bands[0].shape
    lanes, row_valid, col_valid = {}, {}, {}
    for band, (v, h) in zip(bands, _band_specs(scheme)):
        # lane[i, j] = band[i - v_shift, j - h_shift] / scale where defined,
        # scaled straight into place (a scaled temporary costs more than
        # the lane itself); the rest is zero and never valid.
        key = (v[0], h[0])
        r_lo, r_hi = min(max(0, v[2]), n_rows), max(0, min(n_rows, n_rows + v[2]))
        c_lo, c_hi = min(max(0, h[2]), n_cols), max(0, min(n_cols, n_cols + h[2]))
        lane = lanes[key] = np.zeros(band.shape)
        np.multiply(
            band[r_lo - v[2] : r_hi - v[2], c_lo - h[2] : c_hi - h[2]],
            1.0 / (v[1] * h[1]),
            out=lane[r_lo:r_hi, c_lo:c_hi],
        )
        row_valid[key], col_valid[key] = (r_lo, r_hi), (c_lo, c_hi)
    for step in reversed(scheme.steps):
        other = "o" if step.target == "e" else "e"
        for c in _PARITIES:
            t, s = (step.target, c), (other, c)
            row_valid[t] = _valid_step(
                lanes[t], lanes[s], step, row_valid[t], row_valid[s], -1.0, 0
            )
            col_valid[t] = _intersect(col_valid[t], col_valid[s])
        for r in _PARITIES:
            t, s = (r, step.target), (r, other)
            row_valid[t] = lo, hi = _intersect(row_valid[t], row_valid[s])
            col_valid[t] = _valid_step(
                lanes[t][lo:hi], lanes[s][lo:hi], step, col_valid[t], col_valid[s], -1.0, 1
            )
    rows, cols = out.shape
    need = {"e": ((rows + 1) // 2, (cols + 1) // 2), "o": (rows // 2, cols // 2)}
    for (r, c), lane in lanes.items():
        n_r, n_c = need[r][0], need[c][1]
        _check_window(row_valid[(r, c)], lead, n_r, "row", inverse=True)
        _check_window(col_valid[(r, c)], lead, n_c, "column", inverse=True)
        out[_OFFSET[r] :: 2, _OFFSET[c] :: 2] = lane[lead : lead + n_r, lead : lead + n_c]
    return out
