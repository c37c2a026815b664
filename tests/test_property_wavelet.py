"""Property-based tests for the wavelet core (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.wavelet import (
    dwt_1d,
    filter_bank_for_length,
    get_kernel,
    idwt_1d,
    mallat_decompose_2d,
    mallat_reconstruct_2d,
)

filter_lengths = st.sampled_from([2, 4, 8])


def signals(min_pow=4, max_pow=7):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.integers(min_pow, max_pow).map(lambda p: 2**p),
        elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
    )


def images(side_pows=(4, 5)):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.sampled_from([2**p for p in side_pows]),
            st.sampled_from([2**p for p in side_pows]),
        ),
        elements=st.floats(-1e4, 1e4, allow_nan=False, width=64),
    )


class TestOneDimensionalProperties:
    @given(signal=signals(), length=filter_lengths)
    @settings(max_examples=40, deadline=None)
    def test_perfect_reconstruction(self, signal, length):
        bank = filter_bank_for_length(length)
        approx, details = dwt_1d(signal, bank, levels=1)
        reconstructed = idwt_1d(approx, details, bank)
        scale = max(1.0, np.abs(signal).max())
        assert np.abs(reconstructed - signal).max() < 1e-9 * scale

    @given(signal=signals(), length=filter_lengths)
    @settings(max_examples=40, deadline=None)
    def test_energy_conservation(self, signal, length):
        bank = filter_bank_for_length(length)
        approx, details = dwt_1d(signal, bank, levels=1)
        decomposed = (approx**2).sum() + sum((d**2).sum() for d in details)
        original = (signal**2).sum()
        assert decomposed == pytest.approx(original, rel=1e-9, abs=1e-9)

    @given(signal=signals(), length=filter_lengths)
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, signal, length):
        bank = filter_bank_for_length(length)
        double, _ = dwt_1d(2.0 * signal, bank, levels=1)
        single, _ = dwt_1d(signal, bank, levels=1)
        assert np.abs(double - 2.0 * single).max() < 1e-9 * max(
            1.0, np.abs(single).max()
        )

    @given(
        signal=signals(),
        length=filter_lengths,
        shift=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_even_shift_covariance(self, signal, length, shift):
        """Shifting the input by 2k circularly shifts every subband by k
        (the decimated transform is covariant to even shifts only)."""
        bank = filter_bank_for_length(length)
        base_a, base_d = dwt_1d(signal, bank, levels=1)
        shifted = np.roll(signal, 2 * shift)
        shift_a, shift_d = dwt_1d(shifted, bank, levels=1)
        scale = max(1.0, np.abs(base_a).max())
        assert np.abs(shift_a - np.roll(base_a, shift)).max() < 1e-9 * scale
        assert np.abs(shift_d[0] - np.roll(base_d[0], shift)).max() < 1e-9 * max(
            1.0, np.abs(base_d[0]).max()
        )

    @given(signal=signals(min_pow=5), length=filter_lengths)
    @settings(max_examples=30, deadline=None)
    def test_adjoint_identity(self, signal, length):
        """synthesize(analyze(x)) over both channels is the identity
        (the two-channel filter bank is a perfect-reconstruction pair)."""
        bank = filter_bank_for_length(length)
        conv = get_kernel("conv")
        low, high = conv.analyze(signal, bank, 0)
        back = conv.synthesize(low, high, bank, 0)
        assert np.abs(back - signal).max() < 1e-9 * max(1.0, np.abs(signal).max())


class TestTwoDimensionalProperties:
    @given(image=images(), length=filter_lengths, levels=st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, image, length, levels):
        bank = filter_bank_for_length(length)
        pyramid = mallat_decompose_2d(image, bank, levels=levels)
        reconstructed = mallat_reconstruct_2d(pyramid, bank)
        assert np.abs(reconstructed - image).max() < 1e-8 * max(
            1.0, np.abs(image).max()
        )

    @given(image=images(), length=filter_lengths)
    @settings(max_examples=25, deadline=None)
    def test_transpose_commutes(self, image, length):
        """Decomposing the transpose swaps the LH and HL subbands."""
        bank = filter_bank_for_length(length)
        direct = mallat_decompose_2d(image, bank, 1)
        transposed = mallat_decompose_2d(image.T, bank, 1)
        np.testing.assert_allclose(
            transposed.approximation, direct.approximation.T, atol=1e-8
        )
        np.testing.assert_allclose(
            transposed.details[0].lh, direct.details[0].hl.T, atol=1e-8
        )

    @given(image=images(), length=filter_lengths)
    @settings(max_examples=25, deadline=None)
    def test_critical_sampling(self, image, length):
        bank = filter_bank_for_length(length)
        pyramid = mallat_decompose_2d(image, bank, 1)
        assert pyramid.coefficient_count() == image.size

    @given(
        image=images(),
        constant=st.floats(-1e3, 1e3, allow_nan=False),
        length=filter_lengths,
    )
    @settings(max_examples=25, deadline=None)
    def test_constant_offset_only_moves_ll(self, image, constant, length):
        """Adding a constant leaves every detail band untouched (the
        high-pass filter sums to zero)."""
        bank = filter_bank_for_length(length)
        base = mallat_decompose_2d(image, bank, 1)
        offset = mallat_decompose_2d(image + constant, bank, 1)
        tol = 1e-8 * max(1.0, np.abs(image).max() + abs(constant))
        assert np.abs(offset.details[0].hh - base.details[0].hh).max() < tol
        assert np.abs(offset.details[0].lh - base.details[0].lh).max() < tol
        assert np.abs(offset.details[0].hl - base.details[0].hl).max() < tol
