"""Wavelet shrinkage denoising.

A standard application of the 1-D transform (Donoho-Johnstone soft
thresholding): decompose, shrink detail coefficients toward zero, and
reconstruct.  The noise level is estimated robustly from the finest
detail band's median absolute deviation, and the default threshold is
the universal ``sigma * sqrt(2 ln n)``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet.filters import FilterBank, daubechies_filter
from repro.wavelet.transform import dwt_1d, idwt_1d, max_decomposition_levels

__all__ = ["soft_threshold", "estimate_noise_sigma", "denoise_1d", "denoise_2d"]


def soft_threshold(coefficients: np.ndarray, threshold: float) -> np.ndarray:
    """Shrink coefficients toward zero by ``threshold`` (soft rule)."""
    if threshold < 0:
        raise ConfigurationError(f"threshold must be >= 0, got {threshold}")
    coefficients = np.asarray(coefficients, dtype=np.float64)
    return np.sign(coefficients) * np.maximum(np.abs(coefficients) - threshold, 0.0)


def estimate_noise_sigma(finest_detail: np.ndarray) -> float:
    """Robust noise estimate: ``MAD / 0.6745`` of the finest detail band
    (detail coefficients of smooth signals are almost pure noise)."""
    finest_detail = np.asarray(finest_detail, dtype=np.float64)
    if finest_detail.size == 0:
        raise ConfigurationError("empty detail band")
    return float(np.median(np.abs(finest_detail)) / 0.6745)


def denoise_1d(
    signal: np.ndarray,
    *,
    bank: FilterBank | None = None,
    levels: int | None = None,
    threshold: float | None = None,
    kernel: str = "conv",
) -> np.ndarray:
    """Soft-threshold denoising of a 1-D signal.

    Parameters
    ----------
    signal:
        Input samples (length divisible by ``2**levels``).
    bank:
        Analysis bank (default daub8 — smoother than Haar for denoising).
    levels:
        Decomposition depth (default: down to >= 32 samples).
    threshold:
        Shrinkage amount; defaults to the universal threshold computed
        from the estimated noise level.
    kernel:
        Transform kernel (``"conv"``/``"lifting"``/``"fused"``/
        ``"single-loop"``; see :mod:`repro.wavelet.kernels`).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ConfigurationError(f"expected a 1-D signal, got ndim={signal.ndim}")
    bank = bank or daubechies_filter(8)
    allowed = max_decomposition_levels((signal.size, signal.size), bank.length)
    if levels is None:
        levels = 1
        size = signal.size
        while levels < allowed and size // 2 >= 32:
            levels += 1
            size //= 2
    if not 1 <= levels <= allowed:
        raise ConfigurationError(f"levels={levels} out of range (max {allowed})")

    approx, details = dwt_1d(signal, bank, levels, kernel=kernel)
    if threshold is None:
        sigma = estimate_noise_sigma(details[0])
        threshold = sigma * np.sqrt(2.0 * np.log(max(2, signal.size)))
    shrunk = [soft_threshold(d, threshold) for d in details]
    return idwt_1d(approx, shrunk, bank, kernel=kernel)


def denoise_2d(
    image: np.ndarray,
    *,
    bank: FilterBank | None = None,
    levels: int | None = None,
    threshold: float | None = None,
    kernel: str = "conv",
) -> np.ndarray:
    """Soft-threshold denoising of a 2-D image.

    The noise level is estimated from the finest diagonal (HH) band,
    which for natural imagery is nearly pure noise.  With no explicit
    ``threshold``, each detail band gets the adaptive BayesShrink
    threshold ``sigma^2 / sigma_band`` (the universal 1-D rule
    over-smooths images, where detail bands carry real structure); an
    explicit ``threshold`` is applied globally instead.
    """
    from repro.wavelet.pyramid import (
        DetailTriple,
        WaveletPyramid,
        mallat_decompose_2d,
        mallat_reconstruct_2d,
    )

    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ConfigurationError(f"expected a 2-D image, got ndim={image.ndim}")
    bank = bank or daubechies_filter(8)
    allowed = max_decomposition_levels(image.shape, bank.length)
    if levels is None:
        levels = max(1, min(3, allowed))
    if not 1 <= levels <= allowed:
        raise ConfigurationError(f"levels={levels} out of range (max {allowed})")

    pyramid = mallat_decompose_2d(image, bank, levels, kernel=kernel)
    if threshold is None:
        sigma = estimate_noise_sigma(pyramid.details[0].hh)

        def band_threshold(band: np.ndarray) -> float:
            # var() sums in memory order, so fix the order (column-major)
            # to keep the threshold's bits independent of band layout.
            signal_var = max(float(np.asfortranarray(band).var()) - sigma**2, 0.0)
            if signal_var == 0.0:
                return float(np.abs(band).max())  # pure noise: kill the band
            return sigma**2 / np.sqrt(signal_var)

    else:

        def band_threshold(band: np.ndarray) -> float:
            return float(threshold)

    shrunk = tuple(
        DetailTriple(
            lh=soft_threshold(t.lh, band_threshold(t.lh)),
            hl=soft_threshold(t.hl, band_threshold(t.hl)),
            hh=soft_threshold(t.hh, band_threshold(t.hh)),
        )
        for t in pyramid.details
    )
    cleaned = WaveletPyramid(pyramid.approximation, shrunk, pyramid.filter_name)
    return mallat_reconstruct_2d(cleaned, bank, kernel=kernel)
