"""Parallel wavelet decomposition algorithms (the paper's Section 4)."""

from repro.wavelet.parallel.decomposition import (
    BlockDecomposition,
    StripeDecomposition,
    factor_grid,
)
from repro.wavelet.parallel.simd_mallat import SimdWaveletOutcome, simd_mallat_decompose
from repro.wavelet.parallel.simd_reconstruct import simd_mallat_reconstruct
from repro.wavelet.parallel.spmd import (
    SpmdWaveletOutcome,
    block_wavelet_program,
    run_spmd_wavelet,
    striped_wavelet_program,
)
from repro.wavelet.parallel.spmd_1d import (
    Spmd1dOutcome,
    dwt_1d_program,
    idwt_1d_program,
    run_spmd_dwt_1d,
    run_spmd_idwt_1d,
)
from repro.wavelet.parallel.spmd_reconstruct import (
    SpmdReconstructOutcome,
    run_spmd_reconstruct,
    striped_reconstruct_program,
)

__all__ = [
    "StripeDecomposition",
    "BlockDecomposition",
    "factor_grid",
    "SpmdWaveletOutcome",
    "striped_wavelet_program",
    "block_wavelet_program",
    "run_spmd_wavelet",
    "SpmdReconstructOutcome",
    "striped_reconstruct_program",
    "run_spmd_reconstruct",
    "Spmd1dOutcome",
    "dwt_1d_program",
    "run_spmd_dwt_1d",
    "idwt_1d_program",
    "run_spmd_idwt_1d",
    "SimdWaveletOutcome",
    "simd_mallat_decompose",
    "simd_mallat_reconstruct",
]
