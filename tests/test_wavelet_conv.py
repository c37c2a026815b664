"""Tests for the periodized conv passes (the kernel's analysis and
synthesis over wrapped margins) and the valid-mode primitive."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.wavelet import FilterBank, get_kernel, haar_filter
from repro.wavelet.conv import analyze_axis_valid

CONV = get_kernel("conv")


def _bank(rng, taps):
    """A bank of two random ``taps``-tap filters."""
    return FilterBank(rng.random(taps), rng.random(taps))


def brute_analyze(x, taps):
    n = len(x)
    out = np.zeros(n // 2)
    for i in range(n // 2):
        out[i] = sum(taps[k] * x[(2 * i + k) % n] for k in range(len(taps)))
    return out


def brute_synthesize(a, taps, n):
    out = np.zeros(n)
    for m_idx in range(n):
        for j in range(len(a)):
            k = (m_idx - 2 * j) % n
            if k < len(taps):
                out[m_idx] += a[j] * taps[k]
    return out


class TestAnalyzeAxis:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(0)
        x = rng.random(16)
        bank = _bank(rng, 4)
        low, high = CONV.analyze(x, bank, 0)
        np.testing.assert_allclose(low, brute_analyze(x, bank.lowpass))
        np.testing.assert_allclose(high, brute_analyze(x, bank.highpass))

    def test_matches_bruteforce_long_filter(self):
        rng = np.random.default_rng(1)
        x = rng.random(12)
        bank = _bank(rng, 8)
        low, high = CONV.analyze(x, bank, 0)
        np.testing.assert_allclose(low, brute_analyze(x, bank.lowpass))
        np.testing.assert_allclose(high, brute_analyze(x, bank.highpass))

    def test_2d_axis0_vs_axis1(self):
        rng = np.random.default_rng(2)
        img = rng.random((8, 8))
        bank = _bank(rng, 2)
        for got, want in zip(CONV.analyze(img, bank, 0), CONV.analyze(img.T, bank, 1)):
            np.testing.assert_allclose(got, want.T)

    def test_halves_target_axis_only(self):
        low, high = CONV.analyze(np.ones((6, 10)), haar_filter(), axis=1)
        assert low.shape == high.shape == (6, 5)

    def test_odd_length_raises(self):
        with pytest.raises(ConfigurationError):
            CONV.analyze(np.ones(7), haar_filter(), 0)

    def test_filter_longer_than_axis_raises(self):
        with pytest.raises(ConfigurationError):
            CONV.analyze(np.ones(4), FilterBank(np.ones(8), np.ones(8)), 0)

    def test_constant_input_lowpass(self):
        # A normalized lowpass filter (sum sqrt(2)) scales a constant.
        low, _ = CONV.analyze(np.full(8, 3.0), haar_filter(), 0)
        np.testing.assert_allclose(low, np.full(4, 3.0 * np.sqrt(2)))


class TestAnalyzeAxisValid:
    def test_matches_periodized_interior(self):
        rng = np.random.default_rng(3)
        x = rng.random(16)
        bank = _bank(rng, 4)
        periodized, _ = CONV.analyze(x, bank, 0)
        # Interior outputs (those not wrapping) agree with valid mode.
        valid = analyze_axis_valid(x, bank.lowpass, 0, out_len=6)
        np.testing.assert_allclose(valid, periodized[:6])

    def test_guard_extension_reproduces_wrap(self):
        rng = np.random.default_rng(4)
        x = rng.random(16)
        bank = _bank(rng, 4)
        periodized, _ = CONV.analyze(x, bank, 0)
        extended = np.concatenate([x, x[: bank.length]])
        valid = analyze_axis_valid(extended, bank.lowpass, 0, out_len=8)
        np.testing.assert_allclose(valid, periodized)

    def test_insufficient_input_raises(self):
        with pytest.raises(ConfigurationError):
            analyze_axis_valid(np.ones(5), np.ones(4), 0, out_len=2)

    def test_zero_out_len(self):
        out = analyze_axis_valid(np.ones(4), np.ones(2), 0, out_len=0)
        assert out.shape == (0,)

    def test_negative_out_len_raises(self):
        with pytest.raises(ConfigurationError):
            analyze_axis_valid(np.ones(4), np.ones(2), 0, out_len=-1)


class TestSynthesizeAxis:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        a, d = rng.random(8), rng.random(8)
        bank = _bank(rng, 4)
        np.testing.assert_allclose(
            CONV.synthesize(a, d, bank, 0),
            brute_synthesize(a, bank.lowpass, 16) + brute_synthesize(d, bank.highpass, 16),
        )

    def test_doubles_axis(self):
        out = CONV.synthesize(np.ones((3, 4)), np.ones((3, 4)), haar_filter(), axis=1)
        assert out.shape == (3, 8)

    def test_adjoint_of_analyze(self):
        # <analyze(x), (y, z)> == <x, synthesize(y, z)> for any x, y, z.
        rng = np.random.default_rng(6)
        bank = _bank(rng, 4)
        x = rng.random(16)
        y, z = rng.random(8), rng.random(8)
        low, high = CONV.analyze(x, bank, 0)
        lhs = low @ y + high @ z
        rhs = x @ CONV.synthesize(y, z, bank, 0)
        assert lhs == pytest.approx(rhs)
