"""Multi-level decomposition pyramids.

A :class:`WaveletPyramid` stores the full multi-resolution representation:
the deepest approximation image I_K plus the (LH, HL, HH) detail triple of
every level, finest first.  The paper repeatedly renames LL_{k+1} to
I_{k+1} and recurses; the pyramid captures that iteration's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.wavelet.filters import FilterBank
from repro.wavelet.transform import (
    Subbands2D,
    mallat_inverse_step_2d,
    mallat_step_2d,
    max_decomposition_levels,
)

__all__ = ["DetailTriple", "WaveletPyramid", "mallat_decompose_2d", "mallat_reconstruct_2d"]


@dataclass(frozen=True)
class DetailTriple:
    """The three detail subbands of one decomposition level."""

    lh: np.ndarray
    hl: np.ndarray
    hh: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        """Shape of each detail subband."""
        return tuple(self.lh.shape)

    def energy(self) -> float:
        """Sum of squares across the triple."""
        return float((self.lh**2).sum() + (self.hl**2).sum() + (self.hh**2).sum())


@dataclass(frozen=True)
class WaveletPyramid:
    """Complete multi-resolution representation of an image.

    Attributes
    ----------
    approximation:
        The deepest LL image (I_K in the paper's notation).
    details:
        Per-level detail triples, ``details[0]`` being the finest level
        (level 1).
    filter_name:
        Name of the analysis bank used, for provenance.
    """

    approximation: np.ndarray
    details: tuple
    filter_name: str = "custom"

    @property
    def levels(self) -> int:
        """Number of decomposition levels."""
        return len(self.details)

    @property
    def original_shape(self) -> tuple[int, int]:
        """Shape of the image that produced this pyramid."""
        rows, cols = self.approximation.shape
        scale = 2**self.levels
        return (rows * scale, cols * scale)

    def total_energy(self) -> float:
        """Energy across every coefficient (conserved for orthonormal banks)."""
        return float((self.approximation**2).sum()) + sum(
            triple.energy() for triple in self.details
        )

    def coefficient_count(self) -> int:
        """Total number of stored coefficients (equals the original pixel
        count — the transform is critically sampled)."""
        count = self.approximation.size
        for triple in self.details:
            count += triple.lh.size + triple.hl.size + triple.hh.size
        return count

    def compression_candidates(self, keep_fraction: float) -> "WaveletPyramid":
        """Zero all but the largest-magnitude ``keep_fraction`` of detail
        coefficients — the classic wavelet compression step the paper's
        introduction motivates (EOSDIS image compression)."""
        if not 0.0 < keep_fraction <= 1.0:
            raise ConfigurationError(
                f"keep_fraction must be in (0, 1], got {keep_fraction}"
            )
        magnitudes = np.concatenate(
            [np.abs(band).ravel() for t in self.details for band in (t.lh, t.hl, t.hh)]
        )
        if magnitudes.size == 0:
            return self
        keep = max(1, int(round(keep_fraction * magnitudes.size)))
        threshold = np.partition(magnitudes, -keep)[-keep]
        new_details = tuple(
            DetailTriple(
                lh=np.where(np.abs(t.lh) >= threshold, t.lh, 0.0),
                hl=np.where(np.abs(t.hl) >= threshold, t.hl, 0.0),
                hh=np.where(np.abs(t.hh) >= threshold, t.hh, 0.0),
            )
            for t in self.details
        )
        return WaveletPyramid(self.approximation.copy(), new_details, self.filter_name)


def mallat_decompose_2d(
    image: np.ndarray, bank: FilterBank, levels: int = 1, *, kernel: str = "conv"
) -> WaveletPyramid:
    """Run the paper's steps (0)-(5): iterate the 2-D Mallat step ``levels``
    times, recursing on the LL band.

    ``kernel`` selects the per-level implementation (``"conv"`` — the
    byte-identical default — ``"lifting"``, ``"fused"``, or
    ``"single-loop"``; see :mod:`repro.wavelet.kernels`).

    Raises
    ------
    ConfigurationError
        If ``levels`` exceeds what the image shape and filter length allow.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ConfigurationError(f"expected a 2-D image, got ndim={image.ndim}")
    allowed = max_decomposition_levels(image.shape, bank.length)
    if not 1 <= levels <= allowed:
        raise ConfigurationError(
            f"levels={levels} out of range for shape {image.shape} and "
            f"{bank.length}-tap filter (max {allowed})"
        )

    details: list[DetailTriple] = []
    current = image
    for _ in range(levels):
        bands: Subbands2D = mallat_step_2d(current, bank, kernel=kernel)
        details.append(DetailTriple(lh=bands.lh, hl=bands.hl, hh=bands.hh))
        current = bands.ll
    return WaveletPyramid(current, tuple(details), bank.name)


def mallat_reconstruct_2d(
    pyramid: WaveletPyramid, bank: FilterBank, *, kernel: str = "conv"
) -> np.ndarray:
    """Invert :func:`mallat_decompose_2d` (the Figure 2 reverse process)."""
    current = pyramid.approximation
    for triple in reversed(pyramid.details):
        if triple.shape != current.shape:
            raise ConfigurationError(
                f"detail shape {triple.shape} does not match running "
                f"approximation shape {current.shape}"
            )
        current = mallat_inverse_step_2d(
            Subbands2D(ll=current, lh=triple.lh, hl=triple.hl, hh=triple.hh),
            bank,
            kernel=kernel,
        )
    return current
