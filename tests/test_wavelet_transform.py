"""Tests for the 1-D and 2-D Mallat transform steps."""

import numpy as np
import pytest

from repro.data import checkerboard
from repro.errors import ConfigurationError
from repro.wavelet import (
    daubechies_filter,
    dwt_1d,
    get_kernel,
    haar_filter,
    idwt_1d,
    mallat_inverse_step_2d,
    mallat_step_2d,
    max_decomposition_levels,
)


@pytest.fixture
def image():
    return np.random.default_rng(42).random((32, 32)) * 255


class TestMallatStep2D:
    def test_subband_shapes(self, image):
        bands = mallat_step_2d(image, haar_filter())
        assert bands.shape == (16, 16)
        assert bands.ll.shape == bands.lh.shape == bands.hl.shape == bands.hh.shape

    def test_energy_conservation(self, image):
        for length in (2, 4, 8):
            bands = mallat_step_2d(image, daubechies_filter(length))
            assert bands.total_energy() == pytest.approx((image**2).sum(), rel=1e-12)

    def test_constant_image_has_no_detail(self):
        bands = mallat_step_2d(np.full((16, 16), 7.0), daubechies_filter(4))
        assert bands.detail_energy() == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(bands.ll, np.full((8, 8), 14.0))  # gain 2

    def test_haar_ll_is_block_average(self, image):
        bands = mallat_step_2d(image, haar_filter())
        blocks = image.reshape(16, 2, 16, 2).sum(axis=(1, 3)) / 2.0
        np.testing.assert_allclose(bands.ll, blocks)

    def test_period2_checkerboard_is_pure_hh(self):
        # A period-2 checkerboard alternates every pixel: pure diagonal
        # detail under Haar.
        img = checkerboard((16, 16), period=1)
        bands = mallat_step_2d(img, haar_filter())
        assert np.abs(bands.lh).max() < 1e-10
        assert np.abs(bands.hl).max() < 1e-10
        assert np.abs(bands.hh).max() > 1.0

    def test_inverse_step_roundtrip(self, image):
        for length in (2, 4, 8):
            bank = daubechies_filter(length)
            bands = mallat_step_2d(image, bank)
            rec = mallat_inverse_step_2d(bands, bank)
            np.testing.assert_allclose(rec, image, atol=1e-10)

    def test_non_2d_raises(self):
        with pytest.raises(ConfigurationError):
            mallat_step_2d(np.ones(16), haar_filter())

    def test_separability(self, image):
        """Row-then-column filtering must match the direct 2-D outer-product
        transform (the separability assumption of Section 2)."""
        bank = daubechies_filter(4)
        conv = get_kernel("conv")
        lo_rows, _ = conv.analyze(image, bank, axis=1)
        expected_ll, _ = conv.analyze(lo_rows, bank, axis=0)
        np.testing.assert_allclose(mallat_step_2d(image, bank).ll, expected_ll)


class TestDwt1D:
    def test_roundtrip_multilevel(self):
        rng = np.random.default_rng(0)
        signal = rng.random(64)
        for length in (2, 4, 8):
            bank = daubechies_filter(length)
            approx, details = dwt_1d(signal, bank, levels=3)
            assert approx.shape == (8,)
            assert [d.shape for d in details] == [(32,), (16,), (8,)]
            np.testing.assert_allclose(idwt_1d(approx, details, bank), signal, atol=1e-10)

    def test_energy_conservation(self):
        signal = np.random.default_rng(1).random(64)
        bank = daubechies_filter(8)
        approx, details = dwt_1d(signal, bank, levels=2)
        energy = (approx**2).sum() + sum((d**2).sum() for d in details)
        assert energy == pytest.approx((signal**2).sum(), rel=1e-12)

    def test_zero_levels_raises(self):
        with pytest.raises(ConfigurationError):
            dwt_1d(np.ones(8), haar_filter(), levels=0)

    def test_2d_input_raises(self):
        with pytest.raises(ConfigurationError):
            dwt_1d(np.ones((4, 4)), haar_filter())

    def test_idwt_shape_mismatch_raises(self):
        with pytest.raises(ConfigurationError):
            idwt_1d(np.ones(4), [np.ones(8)], haar_filter())


class TestMaxLevels:
    def test_512_haar(self):
        assert max_decomposition_levels((512, 512), 2) == 9

    def test_512_daub8(self):
        # Stops once the running approximation would drop under 8 samples:
        # 512 -> 256 -> ... -> 8 is seven halvings.
        assert max_decomposition_levels((512, 512), 8) == 7

    def test_rectangular_limited_by_short_axis(self):
        assert max_decomposition_levels((512, 8), 2) == 3

    def test_odd_shape(self):
        assert max_decomposition_levels((7, 8), 2) == 0
