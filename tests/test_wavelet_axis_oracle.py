"""Differential oracle for the axis-native conv and lifting passes.

The references are the textbook formulation of the separable passes:
move the target axis last, build the periodic extension (or the
zero-stuffed upsampling) of the input, and sum every tap over it.  The
periodized references live in :mod:`tests._wavelet_reference`, shared
with the strip oracle; the valid-mode ones are below.  The kernels'
periodized passes instead run their valid-mode passes over margins
wrapped from the data's own ends, and the valid-mode primitives slice
the target axis where it lies and synthesize polyphase.  Each output
element still gets the same products in the same tap order from a +0.0
start, so on finite input every result must be byte-identical to the
reference (including the sign of every zero), inf/NaN input must agree
up to NaN payloads, and every rejected input must raise the same
exception type.

The one intended difference: at its documented minimum guard
``lead == (len(taps) - 1) // 2`` the reference ``synthesize_axis_valid``
crashes on every even-length filter (its deepest tap slices from index
-1), while the polyphase form answers with what the reference gives for
one more leading guard sample.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.wavelet import (
    KERNEL_NAMES,
    analyze_axis_valid,
    dwt_1d,
    filter_bank_for_length,
    get_kernel,
    idwt_1d,
    lifting_analyze_axis_valid,
    lifting_scheme,
    lifting_synthesize_axis_valid,
    synthesize_axis_valid,
)
from tests._wavelet_reference import (
    _f64,
    _other,
    _ref_split_lanes,
    ref_kernel_analyze,
    ref_kernel_synthesize,
)

CONV_LENGTHS = tuple(range(2, 21, 2))  # D2-D20
LIFTING_LENGTHS = tuple(range(2, 15, 2))  # D2-D14; D16 and longer do not factor
LIFTING_KERNELS = tuple(name for name in KERNEL_NAMES if name != "conv")


# ---------------------------------------------------------------------------
# Valid-mode references: work axis moved last, zero-stuffed copies.
# ---------------------------------------------------------------------------


def ref_analyze_axis_valid(data, taps, axis, out_len):
    taps = _f64(taps)
    moved = np.moveaxis(_f64(data), axis, -1)
    n = moved.shape[-1]
    m = taps.size
    if out_len < 0:
        raise ConfigurationError(f"out_len must be >= 0, got {out_len}")
    if (2 * (out_len - 1) + m if out_len else 0) > n:
        raise ConfigurationError("valid-mode analysis needs more input samples")
    out = np.zeros(moved.shape[:-1] + (out_len,), dtype=np.float64)
    for k in range(m):
        out += taps[k] * moved[..., k : k + 2 * out_len : 2]
    return np.moveaxis(out, -1, axis)


def ref_synthesize_axis_valid(data, taps, axis, out_len, lead):
    taps = _f64(taps)
    moved = np.moveaxis(_f64(data), axis, -1)
    length = moved.shape[-1]
    m = taps.size
    if out_len < 0:
        raise ConfigurationError(f"out_len must be >= 0, got {out_len}")
    if lead < (m - 1) // 2:
        raise ConfigurationError("valid-mode synthesis guard too shallow")
    if out_len > 2 * (length - lead):
        raise ConfigurationError("valid-mode synthesis has too few outputs")
    upsampled = np.zeros(moved.shape[:-1] + (2 * length,), dtype=np.float64)
    upsampled[..., ::2] = moved
    out = np.zeros(moved.shape[:-1] + (out_len,), dtype=np.float64)
    for k in range(m):
        start = 2 * lead - k
        out += taps[k] * upsampled[..., start : start + out_len]
    return np.moveaxis(out, -1, axis)


def _ref_valid_step(target, source, step, t_valid, s_valid, sign):
    lo = step.dmin
    hi = step.dmin + len(step.coeffs) - 1
    a = max(0, -lo)
    b = min(target.shape[-1], source.shape[-1] - hi)
    if b > a:
        acc = target[..., a:b]
        for j, c in enumerate(step.coeffs):
            s0 = a + lo + j
            acc += (sign * c) * source[..., s0 : s0 + (b - a)]
    return (max(t_valid[0], s_valid[0] - lo, a), min(t_valid[1], s_valid[1] - hi, b))


def ref_lifting_analyze_axis_valid(data, scheme, axis, out_len, lead):
    data = _f64(data)
    if out_len < 0:
        raise ConfigurationError(f"out_len must be >= 0, got {out_len}")
    if lead < 0 or lead % 2 != 0:
        raise ConfigurationError(f"lead must be even and >= 0, got {lead}")
    moved = np.moveaxis(data, axis, -1)
    if moved.shape[-1] % 2 != 0:
        raise ConfigurationError("valid-mode lifting needs an even segment length")
    xe, xo = _ref_split_lanes(moved)
    valid = {"e": (0, xe.shape[-1]), "o": (0, xo.shape[-1])}
    lanes = {"e": xe, "o": xo}
    for step in scheme.steps:
        t, s = step.target, _other(step.target)
        valid[t] = _ref_valid_step(lanes[t], lanes[s], step, valid[t], valid[s], 1.0)
    outputs = []
    for lane, scale, shift in (
        (scheme.low_lane, scheme.low_scale, scheme.low_shift),
        (scheme.high_lane, scheme.high_scale, scheme.high_shift),
    ):
        start = lead // 2 + shift
        if start < valid[lane][0] or start + out_len > valid[lane][1]:
            raise ConfigurationError("insufficient guard for valid-mode lifting analysis")
        outputs.append(scale * lanes[lane][..., start : start + out_len])
    return np.moveaxis(outputs[0], -1, axis), np.moveaxis(outputs[1], -1, axis)


def ref_lifting_synthesize_axis_valid(approx, detail, scheme, axis, out_len, lead):
    approx, detail = _f64(approx), _f64(detail)
    if approx.shape != detail.shape:
        raise ConfigurationError("approx and detail shapes differ")
    if out_len < 0:
        raise ConfigurationError(f"out_len must be >= 0, got {out_len}")
    if lead < 0:
        raise ConfigurationError(f"lead must be >= 0, got {lead}")
    a = np.moveaxis(approx, axis, -1)
    d = np.moveaxis(detail, axis, -1)
    n = a.shape[-1]
    lanes, valid = {}, {}
    for (lane, scale, shift), segment in (
        ((scheme.low_lane, scheme.low_scale, scheme.low_shift), a),
        ((scheme.high_lane, scheme.high_scale, scheme.high_shift), d),
    ):
        arr = np.zeros_like(segment)
        if shift >= 0:
            arr[..., shift:] = segment[..., : n - shift] if shift else segment
            valid[lane] = (shift, n)
        else:
            arr[..., : n + shift] = segment[..., -shift:]
            valid[lane] = (0, n + shift)
        arr *= 1.0 / scale
        lanes[lane] = arr
    for step in reversed(scheme.steps):
        t, s = step.target, _other(step.target)
        valid[t] = _ref_valid_step(lanes[t], lanes[s], step, valid[t], valid[s], -1.0)
    even_hi, odd_hi = lead + (out_len + 1) // 2, lead + out_len // 2
    if (
        lead < valid["e"][0]
        or even_hi > valid["e"][1]
        or lead < valid["o"][0]
        or odd_hi > valid["o"][1]
    ):
        raise ConfigurationError("insufficient guard for valid-mode lifting synthesis")
    out = np.empty(a.shape[:-1] + (out_len,), dtype=np.float64)
    out[..., 0::2] = lanes["e"][..., lead:even_hi]
    out[..., 1::2] = lanes["o"][..., lead:odd_hi]
    return np.moveaxis(out, -1, axis)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return exc


def _copies(args):
    return [a.copy() if isinstance(a, np.ndarray) else a for a in args]


def _check(primitive, reference, args, *, finite, ref_args=None):
    """Run ``primitive`` and ``reference`` on their own copies of ``args``
    (or ``ref_args``) and compare the outcomes.  The primitive must leave
    its array arguments untouched."""
    before = _copies(args)
    with np.errstate(all="ignore"):  # inf/NaN inputs
        want = _outcome(reference, *_copies(ref_args if ref_args is not None else args))
        got = _outcome(primitive, *args)
    for arg, copy in zip(args, before):
        if isinstance(arg, np.ndarray):
            assert arg.tobytes() == copy.tobytes(), "primitive wrote to its input"
    if isinstance(want, Exception):
        assert type(got) is type(want), f"expected {want!r}, got {got!r}"
        return
    assert not isinstance(got, Exception), f"reference returned, got {got!r}"
    if isinstance(want, np.ndarray):
        got, want = (got,), (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype == np.float64
        assert g.flags.c_contiguous
        if finite:
            assert g.tobytes() == w.tobytes()
        else:
            assert np.array_equal(g, w, equal_nan=True)


# ---------------------------------------------------------------------------
# Inputs: 1-3 dimensions, any (also negative) axis, ±0.0 and optional inf/NaN.
# ---------------------------------------------------------------------------


def _draw_values(data, shape, *, finite):
    """Normal samples with a drawn share set to +0.0 or -0.0 and, unless
    ``finite``, to inf, -inf or NaN.  Generic values make a changed
    summation order show in the last bits."""
    rng = np.random.RandomState(data.draw(st.integers(0, 2**32 - 1), label="values seed"))
    values = 100.0 * rng.standard_normal(shape)
    share = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="special share")
    special = rng.random_sample(shape) < share
    choices = [0.0, -0.0] if finite else [0.0, -0.0, np.inf, -np.inf, np.nan]
    values[special] = rng.choice(choices, size=int(special.sum()))
    return values


def _draw_array(data, axis_len, *, finite):
    """Draw ``(array, axis)`` whose target axis has ``axis_len`` samples."""
    ndim = data.draw(st.integers(1, 3), label="ndim")
    axis = data.draw(st.integers(-ndim, ndim - 1), label="axis")
    shape = [data.draw(st.integers(1, 3)) for _ in range(ndim)]
    shape[axis] = axis_len
    return _draw_values(data, tuple(shape), finite=finite), axis


def _pad_front(arr, axis):
    """Prepend one guard sample along ``axis``."""
    shape = list(arr.shape)
    shape[axis] = 1
    return np.concatenate([np.full(shape, 7.0), arr], axis=axis)


# Lengths are drawn as offsets from the shortest valid case, so the
# simplest draw computes; the offsets also reach every rejection.


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_conv_primitives_match_reference(data):
    m = data.draw(st.sampled_from(CONV_LENGTHS), label="taps")
    bank = filter_bank_for_length(m)
    taps = bank.lowpass if data.draw(st.booleans(), label="lowpass") else bank.highpass
    finite = data.draw(st.integers(0, 4), label="finite") > 0
    kind = data.draw(st.sampled_from(["analyze", "synth", "analyze_valid", "synth_valid"]))
    conv = get_kernel("conv")
    if kind == "analyze":
        x, axis = _draw_array(data, m + data.draw(st.integers(-2, 12)), finite=finite)
        reference = partial(ref_kernel_analyze, "conv")
        _check(conv.analyze, reference, (x, bank, axis), finite=finite)
    elif kind == "synth":
        a, axis = _draw_array(data, m // 2 + data.draw(st.integers(-1, 6)), finite=finite)
        d = _draw_values(data, a.shape, finite=finite)
        reference = partial(ref_kernel_synthesize, "conv")
        _check(conv.synthesize, reference, (a, d, bank, axis), finite=finite)
    elif kind == "analyze_valid":
        x, axis = _draw_array(data, m + data.draw(st.integers(-m, 10)), finite=finite)
        full = (x.shape[axis] - m) // 2 + 1
        out_len = full - data.draw(st.integers(-1, max(0, full) + 1), label="out_len short")
        args = (x, taps, axis, out_len)
        _check(analyze_axis_valid, ref_analyze_axis_valid, args, finite=finite)
    else:
        x, axis = _draw_array(data, m // 2 + data.draw(st.integers(-(m // 2), 6)), finite=finite)
        guard = (m - 1) // 2
        lead = guard + data.draw(st.integers(-1, 3), label="lead offset")
        full = 2 * (x.shape[axis] - lead)
        out_len = full - data.draw(st.integers(-1, max(0, full) + 1), label="out_len short")
        args = (x, taps, axis, out_len, lead)
        ref_args = None
        if lead == guard and m % 2 == 0:
            # The reference needs one more leading guard sample here.
            ref_args = (_pad_front(x, axis), taps, axis, out_len, lead + 1)
        _check(
            synthesize_axis_valid, ref_synthesize_axis_valid, args,
            finite=finite, ref_args=ref_args,
        )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lifting_primitives_match_reference(data):
    m = data.draw(st.sampled_from(LIFTING_LENGTHS), label="taps")
    bank = filter_bank_for_length(m)
    scheme = lifting_scheme(bank)
    finite = data.draw(st.integers(0, 4), label="finite") > 0
    kind = data.draw(st.sampled_from(["analyze", "synth", "analyze_valid", "synth_valid"]))
    name = data.draw(st.sampled_from(LIFTING_KERNELS), label="kernel")
    kernel = get_kernel(name)
    if kind == "analyze":
        x, axis = _draw_array(data, m + data.draw(st.integers(-2, 12)), finite=finite)
        reference = partial(ref_kernel_analyze, name)
        _check(kernel.analyze, reference, (x, bank, axis), finite=finite)
    elif kind == "synth":
        # A subband of m // 2 - 1 samples synthesizes fewer than the
        # filter length: the kernel and the reference both refuse it.
        a, axis = _draw_array(data, m // 2 + data.draw(st.integers(-1, 6)), finite=finite)
        d = _draw_values(data, a.shape, finite=finite)
        reference = partial(ref_kernel_synthesize, name)
        _check(kernel.synthesize, reference, (a, d, bank, axis), finite=finite)
    elif kind == "analyze_valid":
        front, back = scheme.analysis_margins
        lead = front + 2 * data.draw(st.integers(-1, 1), label="lead offset")
        out_len = 4 - data.draw(st.integers(-1, 5), label="out_len short")
        n = lead + 2 * out_len + back + data.draw(st.integers(-2, 2))
        x, axis = _draw_array(data, max(0, n), finite=finite)
        args = (x, scheme, axis, out_len, lead)
        _check(lifting_analyze_axis_valid, ref_lifting_analyze_axis_valid, args, finite=finite)
    else:
        front, back = scheme.synthesis_margins
        lead = front + data.draw(st.integers(-1, 1), label="lead offset")
        out_len = 8 - data.draw(st.integers(-1, 9), label="out_len short")
        n = lead + (out_len + 1) // 2 + back + data.draw(st.integers(-1, 1))
        a, axis = _draw_array(data, max(0, n), finite=finite)
        d = _draw_values(data, a.shape, finite=finite)
        args = (a, d, scheme, axis, out_len, lead)
        _check(
            lifting_synthesize_axis_valid, ref_lifting_synthesize_axis_valid, args,
            finite=finite,
        )


@pytest.mark.parametrize("m", CONV_LENGTHS)
def test_synthesize_valid_at_minimum_guard(m):
    """At ``lead == (m - 1) // 2`` the deepest tap meets only zero-stuffed
    samples: the result equals the reference's with one extra leading
    guard sample, where the reference itself fails."""
    taps = filter_bank_for_length(m).highpass
    rng = np.random.RandomState(m)
    data = rng.standard_normal((3, m + 4))
    lead = (m - 1) // 2
    out_len = 2 * (data.shape[1] - lead)
    with pytest.raises(ValueError, match="broadcast"):
        ref_synthesize_axis_valid(data, taps, 1, out_len, lead)
    got = synthesize_axis_valid(data, taps, 1, out_len, lead)
    want = ref_synthesize_axis_valid(_pad_front(data, 1), taps, 1, out_len, lead + 1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", KERNEL_NAMES)
def test_per_axis_passes_refuse_exactly_where_the_1d_transform_does(kernel):
    """Every kernel x every bank it factors x axis lengths 0 to
    ``min_side + 2``, on 1-D and 2-D inputs: a periodized pass returns
    the textbook reference bitwise, or raises ConfigurationError exactly
    where ``dwt_1d`` / ``idwt_1d`` refuse that length."""
    impl = get_kernel(kernel)
    rng = np.random.RandomState(7)
    for m in CONV_LENGTHS if kernel == "conv" else LIFTING_LENGTHS:
        bank = filter_bank_for_length(m)
        for n in range(impl.min_side(bank) + 3):
            zeros = np.zeros(n)
            analysis_refused = isinstance(
                _outcome(partial(dwt_1d, kernel=kernel), zeros, bank), ConfigurationError
            )
            synthesis_refused = isinstance(
                _outcome(partial(idwt_1d, kernel=kernel), zeros, [zeros], bank),
                ConfigurationError,
            )
            for shape, axis in (((n,), 0), ((n, 3), 0), ((3, n), 1)):
                x, y = rng.standard_normal(shape), rng.standard_normal(shape)
                case = (kernel, m, n, shape)
                got = _outcome(impl.analyze, x, bank, axis)
                if analysis_refused:
                    assert isinstance(got, ConfigurationError), case
                else:
                    assert not isinstance(got, Exception), case
                    want = ref_kernel_analyze(kernel, x, bank, axis)
                    assert [g.tobytes() for g in got] == [w.tobytes() for w in want], case
                got = _outcome(impl.synthesize, x, y, bank, axis)
                if synthesis_refused:
                    assert isinstance(got, ConfigurationError), case
                else:
                    assert not isinstance(got, Exception), case
                    want = ref_kernel_synthesize(kernel, x, y, bank, axis)
                    assert got.tobytes() == want.tobytes(), case
