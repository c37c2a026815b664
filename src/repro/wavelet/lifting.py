"""Lifting-scheme factorization of the orthonormal filter banks.

Daubechies & Sweldens showed that any FIR wavelet filter bank factors
into a sequence of elementary *lifting steps* — alternately updating the
even and odd polyphase lanes with short predictions of each other —
followed by a diagonal scaling.  The factored transform performs roughly
half the multiply-adds of direct convolution and works in place on the
two lanes, which is why it is the fast path behind `kernel="lifting"`
and `kernel="fused"` (see :mod:`repro.wavelet.kernels`).

The factorization is computed numerically with the Euclidean algorithm
on Laurent polynomials over the bank's polyphase matrix

    ``M(t) = [[Le, Lo], [He, Ho]]``,   ``[A; D] = M(t) [Xe; Xo]``

where ``Le(t) = sum_j l[2j] t^j`` etc. (advance variable ``t``, matching
the ``a[n] = sum_k l[k] x[2n+k]`` convention of :mod:`repro.wavelet.conv`).
Column operations peel off lifting steps until the top row is a monomial;
the leftover diagonal (or anti-diagonal) supplies the two scale/shift
pairs.  Every factored scheme is verified against the convolution
primitives on a fixed random vector before it is cached; the observed
error is recorded on the scheme (``verify_error``) and documented bounds
are enforced (:data:`VERIFY_TOLERANCE`).

Every pass slices the target axis where it lies, as the convolution
primitives do: the lanes are the even and odd samples of that axis, and
a column pass (``axis=0``) updates whole contiguous rows, with nothing
transposed.  The passes run in valid mode over a segment extended by
guard samples (a neighbor's, or the segment's own wrapped ends for the
periodized pass of :meth:`repro.wavelet.kernels.WaveletKernel.analyze`):
they track the exact interval of valid lane samples through every step
and raise when the caller's guard margins are insufficient — the SPMD
programs size their guard exchanges from
:meth:`LiftingScheme.analysis_margins` /
:meth:`LiftingScheme.synthesis_margins`.  One step primitive,
:func:`_valid_step`, drives the separable passes here (and so the 2-D
strips) and the single-loop sweeps of :mod:`repro.wavelet.singleloop`.
Every lane it updates is C-ordered and of one shape, so each tap is one
contiguous slice of the flattened lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet.conv import _along, _resized, normalize_axis_index
from repro.wavelet.filters import FilterBank

__all__ = [
    "LiftingStep",
    "LiftingScheme",
    "lifting_scheme",
    "lifting_analyze_axis_valid",
    "lifting_synthesize_axis_valid",
    "VERIFY_TOLERANCE",
]

# Coefficients at or below this magnitude are treated as exact zeros while
# factoring (spectral-factorization banks carry ~1e-12 noise).
_CHOP = 1e-10

# A factored scheme must reproduce the convolution analysis of a fixed
# random vector to this max-abs error, else lifting_scheme() refuses it.
# Haar/D4 factor to ~1e-15; D8 to ~2e-12; the longest supported spectral
# factorizations stay under ~1e-9.
VERIFY_TOLERANCE = 5e-8

_SCHEME_CACHE: dict = {}


# --------------------------------------------------------------------------
# Laurent polynomials (internal to the factorization)
# --------------------------------------------------------------------------


class _Laurent:
    """Dense Laurent polynomial ``sum_i c[i] t^(dmin+i)`` with chopping."""

    __slots__ = ("c", "dmin")

    def __init__(self, coeffs, dmin: int) -> None:
        c = np.asarray(coeffs, dtype=np.float64)
        nz = np.nonzero(np.abs(c) > _CHOP)[0]
        if nz.size == 0:
            self.c = np.zeros(0)
            self.dmin = 0
        else:
            self.c = c[nz[0] : nz[-1] + 1].copy()
            self.dmin = int(dmin) + int(nz[0])

    @property
    def zero(self) -> bool:
        return self.c.size == 0

    @property
    def width(self) -> int:
        return max(0, self.c.size - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Laurent({list(np.round(self.c, 6))}, t^{self.dmin})"

    def sub(self, other: "_Laurent") -> "_Laurent":
        if other.zero:
            return _Laurent(self.c, self.dmin)
        if self.zero:
            return _Laurent(-other.c, other.dmin)
        lo = min(self.dmin, other.dmin)
        hi = max(self.dmin + self.c.size, other.dmin + other.c.size)
        out = np.zeros(hi - lo)
        out[self.dmin - lo : self.dmin - lo + self.c.size] += self.c
        out[other.dmin - lo : other.dmin - lo + other.c.size] -= other.c
        return _Laurent(out, lo)

    def mul(self, other: "_Laurent") -> "_Laurent":
        if self.zero or other.zero:
            return _Laurent([], 0)
        return _Laurent(np.convolve(self.c, other.c), self.dmin + other.dmin)


def _divmod_top(a: _Laurent, b: _Laurent):
    """Division cancelling the highest-order terms first."""
    ac = a.c.copy()
    bc = b.c
    qlen = ac.size - bc.size + 1
    if qlen <= 0:
        return _Laurent([], 0), _Laurent(a.c, a.dmin)
    q = np.zeros(qlen)
    for i in range(qlen - 1, -1, -1):
        q[i] = ac[i + bc.size - 1] / bc[-1]
        ac[i : i + bc.size] -= q[i] * bc
    return _Laurent(q, a.dmin - b.dmin), _Laurent(ac, a.dmin)


def _divmod_bottom(a: _Laurent, b: _Laurent):
    """Division cancelling the lowest-order terms (mirror via reversal)."""
    ar = _Laurent(a.c[::-1], -(a.dmin + a.c.size - 1))
    br = _Laurent(b.c[::-1], -(b.dmin + b.c.size - 1))
    q, r = _divmod_top(ar, br)
    qf = _Laurent(q.c[::-1], -(q.dmin + q.c.size - 1)) if not q.zero else _Laurent([], 0)
    rf = _Laurent(r.c[::-1], -(r.dmin + r.c.size - 1)) if not r.zero else _Laurent([], 0)
    return qf, rf


def _laurent_divmod(a: _Laurent, b: _Laurent):
    """Laurent division is not unique; try both pivots, keep the division
    whose remainder is narrower (tie-break on remainder magnitude)."""
    qt, rt = _divmod_top(a, b)
    qb, rb = _divmod_bottom(a, b)
    keyt = (rt.width if not rt.zero else -1, np.abs(rt.c).max() if not rt.zero else 0.0)
    keyb = (rb.width if not rb.zero else -1, np.abs(rb.c).max() if not rb.zero else 0.0)
    return (qt, rt) if keyt <= keyb else (qb, rb)


# --------------------------------------------------------------------------
# Scheme dataclasses
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LiftingStep:
    """One elementary lifting step.

    Applied during analysis as

        ``lane[target][n] += sum_j coeffs[j] * lane[other][n + dmin + j]``

    where ``target`` is ``"e"`` (even lane updated from odd) or ``"o"``
    (odd lane updated from even); synthesis applies the same step with the
    sign flipped, in reverse order.
    """

    target: str
    coeffs: tuple
    dmin: int

    def __post_init__(self) -> None:
        if self.target not in ("e", "o"):
            raise ConfigurationError(f"lifting target must be 'e'|'o', got {self.target!r}")
        if not self.coeffs:
            raise ConfigurationError("lifting step must have at least one tap")

    @property
    def taps(self) -> int:
        """Number of filter taps in this step."""
        return len(self.coeffs)


@dataclass(frozen=True)
class LiftingScheme:
    """A filter bank factored into lifting steps plus output scaling.

    Analysis: split into even/odd lanes, run ``steps`` in order, then

        ``a[n] = low_scale  * lane[low_lane][n + low_shift]``
        ``d[n] = high_scale * lane[high_lane][n + high_shift]``

    (``low_lane``/``high_lane`` are ``"e"``/``"o"``; they are swapped
    relative to the usual convention when the Euclidean reduction ends on
    an anti-diagonal matrix.)  Synthesis inverts the scaling and replays
    the steps backwards with negated coefficients.
    """

    filter_name: str
    filter_length: int
    steps: tuple
    low_lane: str
    low_scale: float
    low_shift: int
    high_lane: str
    high_scale: float
    high_shift: int
    verify_error: float = 0.0

    @property
    def step_taps(self) -> tuple:
        """Tap count per lifting step (the cost model's input)."""
        return tuple(step.taps for step in self.steps)

    @property
    def total_taps(self) -> int:
        """Total taps across all lifting steps."""
        return sum(self.step_taps)

    @cached_property
    def analysis_margins(self) -> tuple:
        """``(front, back)`` guard samples (input grid, front is even)
        required around an owned segment for valid-mode analysis."""
        return _probe_analysis_margins(self)

    @cached_property
    def synthesis_margins(self) -> tuple:
        """``(front, back)`` guard samples (subband grid) required around
        owned subband segments for valid-mode synthesis."""
        return _probe_synthesis_margins(self)


# --------------------------------------------------------------------------
# Factorization
# --------------------------------------------------------------------------


def _factor(bank: FilterBank) -> LiftingScheme:
    lowpass, highpass = bank.lowpass, bank.highpass
    M = [
        [_Laurent(lowpass[0::2], 0), _Laurent(lowpass[1::2], 0)],
        [_Laurent(highpass[0::2], 0), _Laurent(highpass[1::2], 0)],
    ]
    ops: list = []

    def col1_minus(q: _Laurent) -> None:
        # column op: col1 -= q * col2  <=>  execution step xo += q * xe
        M[0][0] = M[0][0].sub(q.mul(M[0][1]))
        M[1][0] = M[1][0].sub(q.mul(M[1][1]))
        ops.append(("o", q))

    def col2_minus(q: _Laurent) -> None:
        # column op: col2 -= q * col1  <=>  execution step xe += q * xo
        M[0][1] = M[0][1].sub(q.mul(M[0][0]))
        M[1][1] = M[1][1].sub(q.mul(M[1][0]))
        ops.append(("e", q))

    swapped = False
    for _ in range(200):
        Le, Lo = M[0]
        if Lo.zero and not Le.zero and Le.width == 0:
            break
        if Le.zero and not Lo.zero and Lo.width == 0:
            swapped = True
            break
        if Le.zero and Lo.zero:
            raise ConfigurationError(
                f"degenerate polyphase matrix for bank {bank.name!r}"
            )
        # Reduce the wider top-row entry with the narrower one.  The strict
        # `>` matters: on ties (e.g. two monomials) we must reduce col2, or
        # the reduction oscillates between (g, 0) and (0, g) forever.
        if Le.zero or (not Lo.zero and Le.width > Lo.width):
            q, _ = _laurent_divmod(Le, Lo)
            col1_minus(q)
        else:
            q, _ = _laurent_divmod(Lo, Le)
            col2_minus(q)
    else:
        raise ConfigurationError(
            f"lifting factorization did not terminate for bank {bank.name!r}"
        )

    if not swapped:
        g1 = M[0][0]
        He_, Ho_ = M[1]
        if Ho_.zero or Ho_.width != 0:
            raise ConfigurationError(
                f"bank {bank.name!r} is not invertible under lifting "
                f"(bottom-row residual is not a monomial)"
            )
        if not He_.zero:
            col1_minus(_Laurent(He_.c / Ho_.c[0], He_.dmin - Ho_.dmin))
        g2 = M[1][1]
        low_lane, high_lane = "e", "o"
    else:
        # Top row reduced to (0, g): the final matrix is anti-diagonal, so
        # the low output reads the odd lane and the high output the even.
        g1 = M[0][1]
        He_, Ho_ = M[1]
        if He_.zero or He_.width != 0:
            raise ConfigurationError(
                f"bank {bank.name!r} is not invertible under lifting "
                f"(bottom-row residual is not a monomial)"
            )
        if not Ho_.zero:
            col2_minus(_Laurent(Ho_.c / He_.c[0], Ho_.dmin - He_.dmin))
        g2 = M[1][0]
        low_lane, high_lane = "o", "e"

    if g1.zero or g1.width != 0 or g2.zero or g2.width != 0:
        raise ConfigurationError(
            f"lifting factorization of bank {bank.name!r} left non-monomial scales"
        )
    steps = tuple(
        LiftingStep(target=t, coeffs=tuple(float(c) for c in q.c), dmin=q.dmin)
        for t, q in ops
    )
    return LiftingScheme(
        filter_name=bank.name,
        filter_length=bank.length,
        steps=steps,
        low_lane=low_lane,
        low_scale=float(g1.c[0]),
        low_shift=g1.dmin,
        high_lane=high_lane,
        high_scale=float(g2.c[0]),
        high_shift=g2.dmin,
    )


def _verify(bank: FilterBank, scheme: LiftingScheme) -> float:
    """Max-abs error of the scheme vs the convolution primitives on a
    fixed random vector (analysis both subbands + round trip).  Both run
    in valid mode over one whole period of the vector on each side, so
    no margin of an unverified scheme is probed."""
    from repro.wavelet.conv import analyze_axis_valid

    n = max(64, 4 * bank.length)
    x = np.random.RandomState(12345).standard_normal(n)
    wrapped = np.tile(x, 3)
    a_ref = analyze_axis_valid(wrapped[n:], bank.lowpass, 0, n // 2)
    d_ref = analyze_axis_valid(wrapped[n:], bank.highpass, 0, n // 2)
    a, d = lifting_analyze_axis_valid(wrapped, scheme, 0, n // 2, n)
    back = lifting_synthesize_axis_valid(
        np.tile(a, 3), np.tile(d, 3), scheme, 0, n, n // 2
    )
    return float(
        max(
            np.abs(a - a_ref).max(),
            np.abs(d - d_ref).max(),
            np.abs(back - x).max(),
        )
    )


def lifting_scheme(bank: FilterBank) -> LiftingScheme:
    """Factor ``bank`` into a verified :class:`LiftingScheme` (cached).

    Raises
    ------
    ConfigurationError
        If the factorization fails or its error against the convolution
        primitives exceeds :data:`VERIFY_TOLERANCE`.
    """
    key = (bank.name, bank.lowpass.tobytes(), bank.highpass.tobytes())
    cached = _SCHEME_CACHE.get(key)
    if cached is not None:
        return cached
    scheme = _factor(bank)
    error = _verify(bank, scheme)
    if not error <= VERIFY_TOLERANCE:
        raise ConfigurationError(
            f"lifting factorization of bank {bank.name!r} verified at "
            f"max-abs error {error:.3e}, above tolerance {VERIFY_TOLERANCE:.0e}"
        )
    scheme = LiftingScheme(
        filter_name=scheme.filter_name,
        filter_length=scheme.filter_length,
        steps=scheme.steps,
        low_lane=scheme.low_lane,
        low_scale=scheme.low_scale,
        low_shift=scheme.low_shift,
        high_lane=scheme.high_lane,
        high_scale=scheme.high_scale,
        high_shift=scheme.high_shift,
        verify_error=error,
    )
    _SCHEME_CACHE[key] = scheme
    return scheme


# --------------------------------------------------------------------------
# Valid-mode application (guard-zone SPMD, the periodized passes, 2-D strips)
# --------------------------------------------------------------------------


def _split_lanes(data: np.ndarray, axis: int):
    """Copy the even and odd polyphase lanes of ``axis`` out of ``data``
    (always a copy: a one-sample lane is a contiguous view, and the steps
    update lanes in place)."""
    return _along(data, axis, 0, None, 2).copy(), _along(data, axis, 1, None, 2).copy()


def _valid_step(target, source, step, t_valid, s_valid, sign, axis):
    """Apply a lifting step along ``axis`` where source samples exist;
    intersect validity.

    ``t_valid``/``s_valid`` are half-open index intervals of lane samples
    that are correct; returns the target's new valid interval.  Samples the
    step cannot compute (missing source neighbors) drop out of the valid
    interval.

    Both lanes must be C-ordered and of one shape: each tap is then one
    contiguous slice of the flattened lanes, from the first outer index's
    sample ``a`` to the last one's sample ``b``, and the source slice sits
    ``k * prod(shape[axis + 1:])`` entries further on for tap offset
    ``k``.  Between one outer index's ``[a, b)`` and the next, the slice
    also updates samples outside ``[a, b)`` from the neighboring index's
    samples; like those the step cannot compute, they leave the valid
    interval, and every valid sample gets the same products in the same
    order as from a per-index slice.
    """
    if target.shape != source.shape or not (
        target.flags.c_contiguous and source.flags.c_contiguous
    ):
        # A copy made to flatten the lane would silently drop the update.
        raise ValueError(
            f"lifting lanes must be C-ordered and of one shape, got "
            f"{target.shape} and {source.shape}"
        )
    n = target.shape[axis]
    lo = step.dmin
    hi = step.dmin + len(step.coeffs) - 1
    a = max(0, -lo)
    b = min(n, n - hi)
    if b > a and target.size:
        inner = math.prod(target.shape[axis + 1 :])
        last = target.size - n * inner
        flat_t, flat_s = target.reshape(-1), source.reshape(-1)
        acc = flat_t[a * inner : last + b * inner]
        for j, c in enumerate(step.coeffs):
            s0 = (a + lo + j) * inner
            acc += (sign * c) * flat_s[s0 : s0 + acc.size]
    new_lo = max(t_valid[0], s_valid[0] - lo, a)
    new_hi = min(t_valid[1], s_valid[1] - hi, b)
    return (new_lo, new_hi)


def lifting_analyze_axis_valid(
    data: np.ndarray, scheme: LiftingScheme, axis: int, out_len: int, lead: int
):
    """Valid-mode (non-periodized) lifting analysis along ``axis``.

    ``data`` is an owned segment extended with guard samples: the first
    ``lead`` entries (``lead`` even) come from the preceding neighbor and
    the tail from the following one.  Returns ``(approx, detail)`` of
    ``out_len`` samples aligned with the owned segment — output ``n``
    corresponds to input offset ``2n`` past the guard.  Raises
    :class:`ConfigurationError` when the guards are too shallow
    (:meth:`LiftingScheme.analysis_margins` gives sufficient depths).
    """
    data = np.asarray(data, dtype=np.float64)
    if out_len < 0:
        raise ConfigurationError(f"out_len must be >= 0, got {out_len}")
    if lead < 0 or lead % 2 != 0:
        raise ConfigurationError(f"lead must be even and >= 0, got {lead}")
    axis = normalize_axis_index(axis, data.ndim)
    if data.shape[axis] % 2 != 0:
        # An odd sample count would misalign the even/odd lanes; callers
        # extend with whole neighbor sample pairs.
        raise ConfigurationError(
            f"valid-mode lifting needs an even segment length, got {data.shape[axis]}"
        )
    xe, xo = _split_lanes(data, axis)
    valid = {"e": (0, xe.shape[axis]), "o": (0, xo.shape[axis])}
    lanes = {"e": xe, "o": xo}
    for step in scheme.steps:
        other = "o" if step.target == "e" else "e"
        valid[step.target] = _valid_step(
            lanes[step.target], lanes[other], step, valid[step.target], valid[other], 1.0, axis
        )
    outputs = []
    for lane, scale, shift in (
        (scheme.low_lane, scheme.low_scale, scheme.low_shift),
        (scheme.high_lane, scheme.high_scale, scheme.high_shift),
    ):
        start = lead // 2 + shift
        v_lo, v_hi = valid[lane]
        if start < v_lo or start + out_len > v_hi:
            raise ConfigurationError(
                f"insufficient guard for valid-mode lifting analysis: need "
                f"lane[{start}:{start + out_len}] valid, have [{v_lo}:{v_hi}) "
                f"(see LiftingScheme.analysis_margins)"
            )
        outputs.append(scale * _along(lanes[lane], axis, start, start + out_len))
    return outputs[0], outputs[1]


def lifting_synthesize_axis_valid(
    approx: np.ndarray,
    detail: np.ndarray,
    scheme: LiftingScheme,
    axis: int,
    out_len: int,
    lead: int,
) -> np.ndarray:
    """Valid-mode lifting synthesis along ``axis``.

    ``approx``/``detail`` are owned subband segments extended with ``lead``
    front guard samples (and any needed tail guards).  Returns ``out_len``
    interleaved outputs aligned with the owned subband start — output ``j``
    is signal sample ``2 * (segment_start + lead) + j`` of the sequential
    inverse.  Raises when guards are too shallow
    (:meth:`LiftingScheme.synthesis_margins`).
    """
    approx = np.asarray(approx, dtype=np.float64)
    detail = np.asarray(detail, dtype=np.float64)
    if approx.shape != detail.shape:
        raise ConfigurationError(
            f"approx shape {approx.shape} does not match detail shape {detail.shape}"
        )
    if out_len < 0:
        raise ConfigurationError(f"out_len must be >= 0, got {out_len}")
    if lead < 0:
        raise ConfigurationError(f"lead must be >= 0, got {lead}")
    axis = normalize_axis_index(axis, approx.ndim)
    n = approx.shape[axis]
    lanes = {}
    valid = {}
    for (lane, scale, shift), segment in (
        ((scheme.low_lane, scheme.low_scale, scheme.low_shift), approx),
        ((scheme.high_lane, scheme.high_scale, scheme.high_shift), detail),
    ):
        # lane[i] = segment[i - shift] / scale where defined.
        arr = np.zeros(segment.shape, dtype=np.float64)
        if shift >= 0:
            _along(arr, axis, shift, None)[...] = _along(segment, axis, 0, n - shift)
            valid[lane] = (shift, n)
        else:
            _along(arr, axis, 0, n + shift)[...] = _along(segment, axis, -shift, None)
            valid[lane] = (0, n + shift)
        arr *= 1.0 / scale
        lanes[lane] = arr
    for step in reversed(scheme.steps):
        other = "o" if step.target == "e" else "e"
        valid[step.target] = _valid_step(
            lanes[step.target], lanes[other], step, valid[step.target], valid[other], -1.0, axis
        )
    even_lo, even_hi = lead, lead + (out_len + 1) // 2
    odd_lo, odd_hi = lead, lead + out_len // 2
    if (
        even_lo < valid["e"][0]
        or even_hi > valid["e"][1]
        or odd_lo < valid["o"][0]
        or odd_hi > valid["o"][1]
    ):
        raise ConfigurationError(
            f"insufficient guard for valid-mode lifting synthesis: need "
            f"e[{even_lo}:{even_hi}) o[{odd_lo}:{odd_hi}), have "
            f"e{valid['e']} o{valid['o']} (see LiftingScheme.synthesis_margins)"
        )
    out = np.empty(_resized(approx.shape, axis, out_len), dtype=np.float64)
    _along(out, axis, 0, None, 2)[...] = _along(lanes["e"], axis, even_lo, even_hi)
    _along(out, axis, 1, None, 2)[...] = _along(lanes["o"], axis, odd_lo, odd_hi)
    return out


# --------------------------------------------------------------------------
# Margin probing
# --------------------------------------------------------------------------


def _probe_analysis_margins(scheme: LiftingScheme) -> tuple:
    limit = 4 * scheme.filter_length + 8
    for front in range(0, limit, 2):
        for back in range(0, limit):
            probe = np.zeros(front + 8 + back)
            try:
                lifting_analyze_axis_valid(probe, scheme, 0, 4, front)
            except ConfigurationError:
                continue
            return (front, back)
    raise ConfigurationError(
        f"could not determine analysis margins for scheme {scheme.filter_name!r}"
    )


def _probe_synthesis_margins(scheme: LiftingScheme) -> tuple:
    limit = 4 * scheme.filter_length + 8
    for front in range(0, limit):
        for back in range(0, limit):
            probe = np.zeros(front + 4 + back)
            try:
                lifting_synthesize_axis_valid(probe, probe, scheme, 0, 8, front)
            except ConfigurationError:
                continue
            return (front, back)
    raise ConfigurationError(
        f"could not determine synthesis margins for scheme {scheme.filter_name!r}"
    )
