"""Differential oracle for the strip traversal of the 2-D step.

The references below are the whole-image forms of each kernel's level,
built from the textbook periodized passes of
:mod:`tests._wavelet_reference`.  For the separable kernels it is the
paper's Mallat step: the periodized row pass over the whole image, then
the periodized column pass over each half, and the mirrored synthesis.
For single-loop it is the periodized single-loop sweep over the four
polyphase lanes of the whole image, and its inverse.  The kernels
instead run each level over 32-row strips, in valid mode along both axes
over margins copied periodically.  Each output element still gets the
same products in the same step and tap order, so every band must be
byte-identical to the reference and C-ordered, including where one
strip's margins wrap the image more than once and where the last strip
is partial.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.wavelet import (
    DetailTriple,
    WaveletPyramid,
    filter_bank_for_length,
    get_kernel,
    lifting_scheme,
    mallat_decompose_2d,
    max_decomposition_levels,
)
from repro.wavelet.lifting import LiftingScheme
from repro.wavelet.singleloop import (
    _OFFSET,
    _PARITIES,
    _band_specs,
    _split_quads,
    _validate_even,
)
from tests._wavelet_reference import (
    _ref_circular_shift,
    _ref_circular_step,
    ref_kernel_analyze,
    ref_kernel_synthesize,
)

ALL = ("conv", "lifting", "fused", "single-loop")

# (shape, filter length, kernels); lifting factors only D2-D14.
CASES = [
    # Minimum sides: the guard rows of one strip wrap the image more than once.
    ((8, 8), 8, ALL),
    ((14, 14), 14, ALL),
    ((20, 20), 20, ("conv",)),
    # Heights that are whole strips.
    ((64, 24), 4, ALL),
    ((128, 48), 8, ALL),
    ((192, 16), 2, ALL),
    # A partial last strip, in both orientations.
    ((200, 40), 8, ALL),
    ((40, 200), 8, ALL),
    ((136, 72), 14, ALL),
    ((72, 136), 20, ("conv",)),
]

PARAMS = [
    pytest.param(kernel, shape, m, id=f"{kernel}-{shape[0]}x{shape[1]}-D{m}")
    for shape, m, kernels in CASES
    for kernel in kernels
]


def single_loop_analyze_2d(image: np.ndarray, scheme: LiftingScheme):
    """One periodized single-loop analysis sweep over the whole image:
    ``(ll, lh, hl, hh)``."""
    image = np.asarray(image, dtype=np.float64)
    rows, cols = image.shape
    _validate_even(rows, cols)
    if min(rows, cols) < scheme.filter_length:
        raise ConfigurationError(
            f"image {rows}x{cols} is shorter than the filter "
            f"({scheme.filter_length} taps); periodized filtering would "
            "wrap more than once"
        )
    lanes = _split_quads(image)
    for step in scheme.steps:
        other = "o" if step.target == "e" else "e"
        for r in _PARITIES:
            _ref_circular_step(lanes[(r, step.target)], lanes[(r, other)], step, 1.0, 1)
        for c in _PARITIES:
            _ref_circular_step(lanes[(step.target, c)], lanes[(other, c)], step, 1.0, 0)
    bands = []
    for v, h in _band_specs(scheme):
        lane = lanes[(v[0], h[0])]
        shifted = _ref_circular_shift(_ref_circular_shift(lane, v[2], 0), h[2], 1)
        bands.append(np.ascontiguousarray((v[1] * h[1]) * shifted))
    return tuple(bands)


def single_loop_synthesize_2d(ll, lh, hl, hh, scheme: LiftingScheme) -> np.ndarray:
    """Invert :func:`single_loop_analyze_2d`: unscale/unshift the four
    lanes, replay the interleaved steps backwards with the sign flipped,
    and re-interleave the quads."""
    bands = [np.asarray(b, dtype=np.float64) for b in (ll, lh, hl, hh)]
    shape = bands[0].shape
    for b in bands[1:]:
        if b.shape != shape:
            raise ConfigurationError(
                f"subband shapes differ: {[b.shape for b in bands]}"
            )
    lanes = {}
    for band, (v, h) in zip(bands, _band_specs(scheme)):
        lane = band * (1.0 / (v[1] * h[1]))
        lane = _ref_circular_shift(_ref_circular_shift(lane, -v[2], 0), -h[2], 1)
        lanes[(v[0], h[0])] = np.ascontiguousarray(lane)
    for step in reversed(scheme.steps):
        other = "o" if step.target == "e" else "e"
        for c in _PARITIES:
            _ref_circular_step(lanes[(step.target, c)], lanes[(other, c)], step, -1.0, 0)
        for r in _PARITIES:
            _ref_circular_step(lanes[(r, step.target)], lanes[(r, other)], step, -1.0, 1)
    out = np.empty((2 * shape[0], 2 * shape[1]), dtype=np.float64)
    for r in _PARITIES:
        for c in _PARITIES:
            out[_OFFSET[r] :: 2, _OFFSET[c] :: 2] = lanes[(r, c)]
    return out


def whole_image_forward(kernel, image, bank):
    """The kernel's level over the whole image: the single-loop sweep, or
    the row pass then the column pass of each half."""
    if kernel.name == "single-loop":
        return single_loop_analyze_2d(image, lifting_scheme(bank))
    low, high = ref_kernel_analyze(kernel.name, image, bank, 1)
    bands = (
        *ref_kernel_analyze(kernel.name, low, bank, 0),
        *ref_kernel_analyze(kernel.name, high, bank, 0),
    )
    # C-ordered, as the kernels' bands are, so a sum over a band adds in
    # the same order.
    return tuple(np.ascontiguousarray(band) for band in bands)


def whole_image_inverse(kernel, ll, lh, hl, hh, bank):
    """The inverse sweep, or the column synthesis of each half then the
    row synthesis."""
    if kernel.name == "single-loop":
        return single_loop_synthesize_2d(ll, lh, hl, hh, lifting_scheme(bank))
    low = ref_kernel_synthesize(kernel.name, ll, lh, bank, 0)
    high = ref_kernel_synthesize(kernel.name, hl, hh, bank, 0)
    return ref_kernel_synthesize(kernel.name, low, high, bank, 1)


def _image(shape, m):
    return np.random.RandomState(100 * shape[0] + shape[1] + m).standard_normal(shape)


def _assert_same_bytes(got, ref):
    assert got.flags.c_contiguous
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("kernel_name, shape, m", PARAMS)
def test_strip_step_is_byte_identical_to_whole_image(kernel_name, shape, m):
    kernel, bank = get_kernel(kernel_name), filter_bank_for_length(m)
    image = _image(shape, m)
    bands = kernel.forward_step_2d(image, bank)
    ref = whole_image_forward(kernel, image, bank)
    got = (bands.ll, bands.lh, bands.hl, bands.hh)
    for band, ref_band in zip(got, ref):
        _assert_same_bytes(band, ref_band)
    _assert_same_bytes(
        kernel.inverse_step_2d(bands, bank), whole_image_inverse(kernel, *ref, bank)
    )


@pytest.mark.parametrize("kernel_name, shape, m", PARAMS)
def test_strip_pyramid_energy_is_bitwise_whole_image(kernel_name, shape, m):
    kernel, bank = get_kernel(kernel_name), filter_bank_for_length(m)
    image = _image(shape, m)
    levels = max_decomposition_levels(shape, bank.length)
    details, current = [], image
    for _ in range(levels):
        ll, lh, hl, hh = whole_image_forward(kernel, current, bank)
        details.append(DetailTriple(lh=lh, hl=hl, hh=hh))
        current = ll
    ref = WaveletPyramid(current, tuple(details), bank.name)
    got = mallat_decompose_2d(image, bank, levels, kernel=kernel_name)
    assert got.total_energy() == ref.total_energy()
