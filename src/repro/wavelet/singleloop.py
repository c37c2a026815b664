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

Both sweeps run in valid mode over guard-extended rows, calling the step
primitives of :mod:`repro.wavelet.lifting` with ``axis=1`` (horizontal)
or ``axis=0`` (vertical), and track the interval of valid rows of every
lane, raising :class:`~repro.errors.ConfigurationError` when the guards
are too shallow:

* :func:`single_loop_analyze_valid` — the forward sweep.  The sequential
  kernel runs it over each 32-row strip of
  :class:`~repro.wavelet.kernels.WaveletKernel`'s strip traversal, and
  the striped SPMD program over each rank's stripe, both with the column
  axis periodized (``periodic_cols=True``); the block program runs both
  axes in valid mode and also tracks an interval of valid columns.
* :func:`single_loop_synthesize_valid` — the inverse sweep, valid rows
  and periodized columns, which the sequential kernel runs over each
  strip.  (``striped_reconstruct_program`` reconstructs a single-loop
  pyramid through the separable lifting passes.)
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet.lifting import (
    LiftingScheme,
    _circular_shift,
    _circular_step,
    _valid_step,
)

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
    lead_cols: int = 0,
    *,
    periodic_cols: bool = False,
):
    """Valid-mode single-loop sweep over a guard-extended tile.

    ``ext`` is the owned tile extended with neighbor guards: the first
    ``lead_rows`` rows (even) come from the north neighbor, the row tail
    from the south; with ``periodic_cols=False`` the first ``lead_cols``
    columns (even) come from the west and the column tail from the east,
    while ``periodic_cols=True`` treats the column axis as fully owned
    and periodized (the striped decomposition).  Returns
    ``(ll, lh, hl, hh)`` of ``out_rows x out_cols`` samples aligned with
    the owned tile — output ``(i, j)`` corresponds to input offset
    ``(2i, 2j)`` past the guards.  Raises :class:`ConfigurationError`
    when the guards are too shallow
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
            if periodic_cols:
                _circular_step(lanes[t][lo:hi], lanes[s][lo:hi], step, 1.0, 1)
            else:
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
        lane = lanes[key]
        r0 = lead_rows // 2 + v[2]
        r_lo, r_hi = row_valid[key]
        if r0 < r_lo or r0 + out_rows > r_hi:
            raise ConfigurationError(
                f"insufficient row guard for the single-loop sweep: need "
                f"lane[{r0}:{r0 + out_rows}] valid, have [{r_lo}:{r_hi}) "
                "(see WaveletKernel.analysis_guard_depths)"
            )
        if periodic_cols:
            if out_cols != lane.shape[1]:
                raise ConfigurationError(
                    f"periodic columns own the whole axis: expected "
                    f"out_cols == {lane.shape[1]}, got {out_cols}"
                )
            seg = _circular_shift(lane[r0 : r0 + out_rows], h[2], 1)
        else:
            c0 = lead_cols // 2 + h[2]
            c_lo, c_hi = col_valid[key]
            if c0 < c_lo or c0 + out_cols > c_hi:
                raise ConfigurationError(
                    f"insufficient column guard for the single-loop sweep: "
                    f"need lane[{c0}:{c0 + out_cols}] valid, have "
                    f"[{c_lo}:{c_hi}) (see WaveletKernel.analysis_guard_depths)"
                )
            seg = lane[r0 : r0 + out_rows, c0 : c0 + out_cols]
        bands.append((v[1] * h[1]) * seg)
    return tuple(bands)


def single_loop_synthesize_valid(
    ll, lh, hl, hh, scheme: LiftingScheme, lead_rows: int, out: np.ndarray
) -> np.ndarray:
    """Valid-mode inverse sweep over guard-extended subband rows, into
    ``out``.

    The four subbands are owned rows extended with guard rows: the first
    ``lead_rows`` come from the rows before them, the tail from the rows
    after; the column axis is whole and periodized.  Fills ``out`` (its
    row count is the number of image rows wanted, its column count twice
    the subbands') with the image rows aligned with the owned subband
    start — ``out`` row ``j`` is row ``2 * (segment_start + lead_rows) +
    j`` of the periodized inverse — and returns it.  Raises
    :class:`ConfigurationError` when the guards are too shallow
    (:meth:`repro.wavelet.kernels.WaveletKernel.synthesis_guard_depths`
    gives sufficient depths — the sweep's row validity erodes exactly as
    in the separable lifting column pass).
    """
    bands = [np.asarray(b, dtype=np.float64) for b in (ll, lh, hl, hh)]
    if any(b.ndim != 2 or b.shape != bands[0].shape or not b.shape[1] for b in bands):
        raise ConfigurationError(
            "expected four 2-D subbands of one shape with columns, got "
            f"{[b.shape for b in bands]}"
        )
    n, cols = bands[0].shape
    if lead_rows < 0:
        raise ConfigurationError(f"lead_rows must be >= 0, got {lead_rows}")
    if out.ndim != 2 or out.shape[1] != 2 * cols:
        raise ConfigurationError(
            f"out must have {2 * cols} columns for {cols}-column subbands, "
            f"got shape {out.shape}"
        )
    lanes, row_valid = {}, {}
    for band, (v, h) in zip(bands, _band_specs(scheme)):
        # lane[i, j] = band[i - v_shift, j - h_shift] / scale where defined,
        # scaled straight into the rotated columns (a scaled or rotated
        # temporary costs more than the lane itself).
        key, shift, k = (v[0], h[0]), v[2], -h[2] % cols
        lo, hi = min(max(0, shift), n), max(0, min(n, n + shift))
        lane = lanes[key] = np.empty(band.shape)
        lane[:lo] = lane[hi:] = 0.0
        rows, scale = band[lo - shift : hi - shift], 1.0 / (v[1] * h[1])
        np.multiply(rows[:, k:], scale, out=lane[lo:hi, : cols - k])
        np.multiply(rows[:, :k], scale, out=lane[lo:hi, cols - k :])
        row_valid[key] = (lo, hi)
    for step in reversed(scheme.steps):
        other = "o" if step.target == "e" else "e"
        for c in _PARITIES:
            t, s = (step.target, c), (other, c)
            row_valid[t] = _valid_step(
                lanes[t], lanes[s], step, row_valid[t], row_valid[s], -1.0, 0
            )
        for r in _PARITIES:
            t, s = (r, step.target), (r, other)
            row_valid[t] = lo, hi = _intersect(row_valid[t], row_valid[s])
            _circular_step(lanes[t][lo:hi], lanes[s][lo:hi], step, -1.0, 1)
    need = {"e": (out.shape[0] + 1) // 2, "o": out.shape[0] // 2}
    for (r, c), lane in lanes.items():
        r_lo, r_hi = row_valid[(r, c)]
        if lead_rows < r_lo or lead_rows + need[r] > r_hi:
            raise ConfigurationError(
                f"insufficient row guard for the single-loop inverse sweep: "
                f"need lane[{lead_rows}:{lead_rows + need[r]}] valid, have "
                f"[{r_lo}:{r_hi}) (see WaveletKernel.synthesis_guard_depths)"
            )
        out[_OFFSET[r] :: 2, _OFFSET[c] :: 2] = lane[lead_rows : lead_rows + need[r]]
    return out
