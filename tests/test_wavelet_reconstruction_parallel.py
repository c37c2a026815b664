"""Tests for the parallel wavelet reconstruction (Figure 2's reverse
process on both machine families), including the full SPMD
decompose-then-reconstruct pipeline."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DecompositionError
from repro.machines import paragon
from repro.machines.simd import MasParMachine, maspar_mp2
from repro.wavelet import (
    daubechies_filter,
    filter_bank_for_length,
    mallat_decompose_2d,
)
from repro.wavelet.conv import synthesize_axis_valid
from repro.wavelet.parallel import (
    run_spmd_reconstruct,
    run_spmd_wavelet,
    simd_mallat_decompose,
    simd_mallat_reconstruct,
)
from tests._wavelet_reference import ref_synthesize_axis


@pytest.fixture(scope="module")
def image():
    return np.random.default_rng(21).random((128, 64)) * 255


class TestSynthesizeAxisValid:
    def test_matches_periodized_with_wrap_guard(self):
        rng = np.random.default_rng(0)
        data = rng.random(16)
        taps = rng.random(4)
        periodized = ref_synthesize_axis(data, taps, 0)
        lead = 2
        extended = np.concatenate([data[-lead:], data])
        valid = synthesize_axis_valid(extended, taps, 0, out_len=32, lead=lead)
        np.testing.assert_allclose(valid, periodized, atol=1e-12)

    def test_partial_output_window(self):
        rng = np.random.default_rng(1)
        data = rng.random(16)
        taps = rng.random(4)
        periodized = ref_synthesize_axis(data, taps, 0)
        lead = 2
        extended = np.concatenate([data[2 - lead : 2], data[2:10]])
        valid = synthesize_axis_valid(extended, taps, 0, out_len=10, lead=lead)
        np.testing.assert_allclose(valid, periodized[4:14], atol=1e-12)

    def test_insufficient_guard_raises(self):
        with pytest.raises(ConfigurationError):
            synthesize_axis_valid(np.ones(8), np.ones(8), 0, out_len=4, lead=1)

    def test_too_many_outputs_raise(self):
        with pytest.raises(ConfigurationError):
            synthesize_axis_valid(np.ones(8), np.ones(2), 0, out_len=17, lead=1)

    def test_negative_out_len_raises(self):
        with pytest.raises(ConfigurationError):
            synthesize_axis_valid(np.ones(8), np.ones(2), 0, out_len=-1, lead=1)


class TestSpmdReconstruct:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    @pytest.mark.parametrize("length,levels", [(8, 1), (4, 2), (2, 4)])
    def test_matches_original(self, image, nranks, length, levels):
        bank = filter_bank_for_length(length)
        pyramid = mallat_decompose_2d(image, bank, levels)
        outcome = run_spmd_reconstruct(paragon(nranks), pyramid, bank)
        np.testing.assert_allclose(outcome.image, image, atol=1e-8)

    def test_full_spmd_pipeline(self, image):
        """Decompose and reconstruct both on the simulated machine."""
        bank = daubechies_filter(4)
        decomposed = run_spmd_wavelet(paragon(4), image, bank, 2)
        reconstructed = run_spmd_reconstruct(paragon(4), decomposed.pyramid, bank)
        np.testing.assert_allclose(reconstructed.image, image, atol=1e-8)

    def test_reconstruction_charges_work_and_comm(self, image):
        bank = daubechies_filter(4)
        pyramid = mallat_decompose_2d(image, bank, 2)
        outcome = run_spmd_reconstruct(paragon(4), pyramid, bank)
        budget = outcome.run.mean_budget()
        assert budget.work_s > 0
        assert budget.comm_s > 0

    def test_stripe_too_small_raises(self, image):
        bank = daubechies_filter(8)
        pyramid = mallat_decompose_2d(image, bank, 3)
        # 128 rows / 16 ranks at level 3 = 1-row stripes < the 4-row guard.
        with pytest.raises(DecompositionError):
            run_spmd_reconstruct(paragon(16), pyramid, bank)

    def test_reconstruct_cost_comparable_to_decompose(self, image):
        """Synthesis and analysis do the same arithmetic volume."""
        bank = daubechies_filter(4)
        decomposed = run_spmd_wavelet(paragon(4), image, bank, 2)
        reconstructed = run_spmd_reconstruct(paragon(4), decomposed.pyramid, bank)
        ratio = (
            reconstructed.run.mean_budget().work_s
            / decomposed.run.mean_budget().work_s
        )
        assert 0.5 < ratio < 2.0


class TestSimdReconstruct:
    @pytest.mark.parametrize("length,levels", [(8, 1), (4, 2), (2, 4)])
    def test_matches_original(self, image, length, levels):
        bank = filter_bank_for_length(length)
        pyramid = mallat_decompose_2d(image, bank, levels)
        machine = MasParMachine(maspar_mp2(pe_side=32))
        reconstructed, stats, elapsed = simd_mallat_reconstruct(machine, pyramid, bank)
        np.testing.assert_allclose(reconstructed, image, atol=1e-8)
        assert elapsed > 0

    def test_uses_router_for_upsampling(self, image):
        bank = daubechies_filter(4)
        pyramid = mallat_decompose_2d(image, bank, 1)
        machine = MasParMachine(maspar_mp2(pe_side=32))
        _, stats, _ = simd_mallat_reconstruct(machine, pyramid, bank)
        assert stats.router_cycles > 0

    def test_simd_roundtrip_on_machine(self, image):
        """Decompose and reconstruct entirely on the SIMD model."""
        bank = daubechies_filter(8)
        machine = MasParMachine(maspar_mp2(pe_side=32))
        forward = simd_mallat_decompose(machine, image, bank, 1)
        reconstructed, _, _ = simd_mallat_reconstruct(machine, forward.pyramid, bank)
        np.testing.assert_allclose(reconstructed, image, atol=1e-8)
