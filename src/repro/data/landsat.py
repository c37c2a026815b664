"""Synthetic Landsat-Thematic-Mapper-like test imagery.

The ICPP'96 experiments used a 512x512 Landsat-TM scene of the Pacific
Northwest.  The scene itself is not redistributable, and the wavelet
decomposition's runtime is data-independent, so for reproduction purposes we
only need imagery with comparable *statistics*: spatially correlated,
non-negative, 8-bit-ranged intensity with large-scale structure (terrain)
plus fine texture (sensor noise and land-cover detail).

:func:`landsat_like_scene` builds that by spectrally shaping white noise
with a power-law (1/f^beta) filter — the standard model for natural-scene
statistics — and adding a small white-noise floor.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["landsat_like_scene", "checkerboard", "impulse_image"]


def _scene_shape(shape) -> tuple[int, int]:
    """``shape`` as two ints, each at least 2 (NumPy integers accepted)."""
    try:
        rows, cols = (operator.index(n) for n in shape)
    except (TypeError, ValueError):
        raise ConfigurationError(f"scene shape must be two integers, got {shape!r}") from None
    if rows < 2 or cols < 2:
        raise ConfigurationError(f"scene shape must be at least 2x2, got {shape}")
    return rows, cols


def landsat_like_scene(
    shape: tuple[int, int] = (512, 512),
    *,
    beta: float = 2.2,
    noise_floor: float = 0.02,
    seed: int = 1996,
    dtype: type = np.float64,
) -> np.ndarray:
    """Generate a spatially correlated scene resembling remotely sensed data.

    Parameters
    ----------
    shape:
        Output image shape ``(rows, cols)``: two integers, each at least 2.
    beta:
        Power-law exponent of the spatial spectrum (|F(k)|^2 ~ 1/|k|^beta).
        Natural terrain imagery sits near ``beta ~ 2``.  Must be finite.
    noise_floor:
        Relative amplitude of the additive white-noise component modelling
        sensor noise.  Must be finite and non-negative.
    seed:
        Seed for the deterministic random generator.
    dtype:
        Floating dtype of the result.

    Returns
    -------
    numpy.ndarray
        Array of ``shape`` with values in ``[0, 255]``.

    Raises
    ------
    ConfigurationError
        For any argument outside the ranges above.
    """
    rows, cols = _scene_shape(shape)
    if not math.isfinite(beta):
        raise ConfigurationError(f"beta must be finite, got {beta!r}")
    if not (math.isfinite(noise_floor) and noise_floor >= 0):
        raise ConfigurationError(
            f"noise_floor must be finite and non-negative, got {noise_floor!r}"
        )
    try:
        floating = np.issubdtype(np.dtype(dtype), np.floating)
    except TypeError:
        floating = False
    if not floating:
        raise ConfigurationError(f"dtype must be a floating dtype, got {dtype!r}")
    rng = np.random.default_rng(seed)

    # The 2-D FFTs run as the per-axis passes ``fft2``/``ifft2`` make, in
    # their order (axis -1, then axis -2), so the bytes are theirs.  Each
    # pass's input is dropped when its output is bound, so the peak is one
    # complex input plus one complex output: 4x the float64 scene.
    spectrum = rng.standard_normal((rows, cols)).astype(np.complex128)
    spectrum = np.fft.fft(spectrum, axis=-1)
    spectrum = np.fft.fft(spectrum, axis=-2)
    radius = np.hypot(np.fft.fftfreq(rows)[:, None], np.fft.fftfreq(cols)[None, :])
    radius[0, 0] = radius.flat[1]  # avoid the DC singularity
    spectrum *= radius ** (-beta / 2.0)
    del radius
    spectrum = np.fft.ifft(spectrum, axis=-1)
    spectrum = np.fft.ifft(spectrum, axis=-2)
    terrain = spectrum.real.copy()
    del spectrum

    terrain += noise_floor * terrain.std() * rng.standard_normal((rows, cols))

    lo, hi = terrain.min(), terrain.max()
    terrain -= lo
    terrain /= hi - lo
    terrain *= 255.0
    return terrain.astype(dtype, copy=False)


def checkerboard(
    shape: tuple[int, int] = (64, 64), *, period: int = 8, dtype: type = np.float64
) -> np.ndarray:
    """Deterministic checkerboard image, useful for eyeballing subband energy.

    A checkerboard with period ``2`` concentrates all its energy in the HH
    subband of a Haar decomposition, which makes it a sharp unit-test probe.
    """
    if period < 1:
        raise ConfigurationError(f"period must be >= 1, got {period}")
    rows, cols = shape
    yy, xx = np.mgrid[0:rows, 0:cols]
    return (((yy // period) + (xx // period)) % 2).astype(dtype) * 255.0


def impulse_image(
    shape: tuple[int, int] = (64, 64),
    at: tuple[int, int] | None = None,
    *,
    dtype: type = np.float64,
) -> np.ndarray:
    """Image that is zero except for a single unit impulse.

    Decomposing an impulse exposes the filter taps directly in the subbands,
    which the test suite uses to verify convolution alignment.
    """
    out = np.zeros(shape, dtype=dtype)
    if at is None:
        at = (shape[0] // 2, shape[1] // 2)
    out[at] = 1.0
    return out
