"""Differential oracle for the strip traversal of the separable 2-D step.

The reference below is the whole-image composition of the paper's Mallat
step: the periodized row pass over the whole image, then the periodized
column pass over each half, and the mirrored synthesis.  The kernels
instead run both passes over 32-row strips, with the column pass in valid
mode over guard rows gathered periodically.  Each output element still
gets the same products in the same tap order, so every band must be
byte-identical to the reference and C-ordered, including where one strip
wraps the image more than once and where the last strip is partial.
"""

import numpy as np
import pytest

from repro.wavelet import (
    DetailTriple,
    WaveletPyramid,
    filter_bank_for_length,
    get_kernel,
    mallat_decompose_2d,
    max_decomposition_levels,
)

SEPARABLE = ("conv", "lifting", "fused")

# (shape, filter length, kernels); lifting factors only D2-D14.
CASES = [
    # Minimum sides: the guard rows of one strip wrap the image more than once.
    ((8, 8), 8, SEPARABLE),
    ((14, 14), 14, SEPARABLE),
    ((20, 20), 20, ("conv",)),
    # Heights that are whole strips.
    ((64, 24), 4, SEPARABLE),
    ((128, 48), 8, SEPARABLE),
    ((192, 16), 2, SEPARABLE),
    # A partial last strip, in both orientations.
    ((200, 40), 8, SEPARABLE),
    ((40, 200), 8, SEPARABLE),
    ((136, 72), 14, SEPARABLE),
    ((72, 136), 20, ("conv",)),
]

PARAMS = [
    pytest.param(kernel, shape, m, id=f"{kernel}-{shape[0]}x{shape[1]}-D{m}")
    for shape, m, kernels in CASES
    for kernel in kernels
]


def whole_image_forward(kernel, image, bank):
    """Row pass over the whole image, then the column pass of each half."""
    low, high = kernel.analyze(image, bank, 1)
    return (*kernel.analyze(low, bank, 0), *kernel.analyze(high, bank, 0))


def whole_image_inverse(kernel, ll, lh, hl, hh, bank):
    """Column synthesis of each half, then the row synthesis."""
    low = kernel.synthesize(ll, lh, bank, 0)
    high = kernel.synthesize(hl, hh, bank, 0)
    return kernel.synthesize(low, high, bank, 1)


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
