"""Tests for the periodized filtering primitives."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.wavelet.conv import (
    analyze_axis,
    analyze_axis_valid,
    synthesize_axis,
)


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
        taps = rng.random(4)
        np.testing.assert_allclose(analyze_axis(x, taps, 0), brute_analyze(x, taps))

    def test_matches_bruteforce_long_filter(self):
        rng = np.random.default_rng(1)
        x = rng.random(12)
        taps = rng.random(8)
        np.testing.assert_allclose(analyze_axis(x, taps, 0), brute_analyze(x, taps))

    def test_2d_axis0_vs_axis1(self):
        rng = np.random.default_rng(2)
        img = rng.random((8, 8))
        taps = rng.random(2)
        np.testing.assert_allclose(
            analyze_axis(img, taps, 0), analyze_axis(img.T, taps, 1).T
        )

    def test_halves_target_axis_only(self):
        out = analyze_axis(np.ones((6, 10)), np.ones(2), axis=1)
        assert out.shape == (6, 5)

    def test_odd_length_raises(self):
        with pytest.raises(ConfigurationError):
            analyze_axis(np.ones(7), np.ones(2), 0)

    def test_filter_longer_than_axis_raises(self):
        with pytest.raises(ConfigurationError):
            analyze_axis(np.ones(4), np.ones(8), 0)

    def test_constant_input_lowpass(self):
        # A normalized lowpass filter (sum sqrt(2)) scales a constant.
        taps = np.array([1.0, 1.0]) / np.sqrt(2)
        out = analyze_axis(np.full(8, 3.0), taps, 0)
        np.testing.assert_allclose(out, np.full(4, 3.0 * np.sqrt(2)))


class TestAnalyzeAxisValid:
    def test_matches_periodized_interior(self):
        rng = np.random.default_rng(3)
        x = rng.random(16)
        taps = rng.random(4)
        periodized = analyze_axis(x, taps, 0)
        # Interior outputs (those not wrapping) agree with valid mode.
        valid = analyze_axis_valid(x, taps, 0, out_len=6)
        np.testing.assert_allclose(valid, periodized[:6])

    def test_guard_extension_reproduces_wrap(self):
        rng = np.random.default_rng(4)
        x = rng.random(16)
        taps = rng.random(4)
        periodized = analyze_axis(x, taps, 0)
        extended = np.concatenate([x, x[: len(taps)]])
        valid = analyze_axis_valid(extended, taps, 0, out_len=8)
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
        a = rng.random(8)
        taps = rng.random(4)
        np.testing.assert_allclose(
            synthesize_axis(a, taps, 0), brute_synthesize(a, taps, 16)
        )

    def test_doubles_axis(self):
        out = synthesize_axis(np.ones((3, 4)), np.ones(2), axis=1)
        assert out.shape == (3, 8)

    def test_adjoint_of_analyze(self):
        # <analyze(x), y> == <x, synthesize(y)> for any x, y.
        rng = np.random.default_rng(6)
        taps = rng.random(4)
        x = rng.random(16)
        y = rng.random(8)
        lhs = analyze_axis(x, taps, 0) @ y
        rhs = x @ synthesize_axis(y, taps, 0)
        assert lhs == pytest.approx(rhs)
