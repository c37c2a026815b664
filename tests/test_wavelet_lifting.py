"""Unit tests for the lifting factorization and its parallel wiring."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machines import paragon
from repro.machines.simd import MasParMachine, maspar_mp2
from repro.wavelet import (
    daubechies_filter,
    dwt_1d,
    filter_bank_for_length,
    get_kernel,
    haar_filter,
    lifting_analyze_axis_valid,
    lifting_scheme,
    lifting_synthesize_axis_valid,
    mallat_decompose_2d,
    mallat_reconstruct_2d,
)
from repro.wavelet.parallel import run_spmd_wavelet, simd_mallat_decompose
from repro.wavelet.parallel.spmd_1d import run_spmd_dwt_1d, run_spmd_idwt_1d
from repro.wavelet.parallel.spmd_reconstruct import run_spmd_reconstruct
from tests._wavelet_reference import ref_kernel_analyze

BANKS = [haar_filter(), daubechies_filter(4), daubechies_filter(8)]


def _pyramid_err(a, b):
    err = np.abs(a.approximation - b.approximation).max()
    for ta, tb in zip(a.details, b.details):
        err = max(
            err,
            np.abs(ta.lh - tb.lh).max(),
            np.abs(ta.hl - tb.hl).max(),
            np.abs(ta.hh - tb.hh).max(),
        )
    return float(err)


class TestFactorization:
    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_scheme_verifies_against_conv(self, bank):
        scheme = lifting_scheme(bank)
        assert scheme.filter_length == bank.length
        assert scheme.verify_error < 5e-8

    def test_haar_is_two_steps(self):
        assert len(lifting_scheme(haar_filter()).steps) == 2

    def test_daub4_is_textbook_three_steps(self):
        scheme = lifting_scheme(daubechies_filter(4))
        assert scheme.step_taps == (1, 2, 1)

    def test_scheme_is_cached(self):
        bank = daubechies_filter(4)
        assert lifting_scheme(bank) is lifting_scheme(bank)

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_periodized_matches_conv(self, bank):
        rng = np.random.RandomState(0)
        data = rng.standard_normal((6, 64))
        approx, detail = get_kernel("lifting").analyze(data, bank, axis=1)
        ref_a, ref_d = ref_kernel_analyze("conv", data, bank, 1)
        assert np.abs(approx - ref_a).max() < 1e-9
        assert np.abs(detail - ref_d).max() < 1e-9

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_periodized_round_trip(self, bank):
        rng = np.random.RandomState(1)
        data = rng.standard_normal(128)
        lifting = get_kernel("lifting")
        approx, detail = lifting.analyze(data, bank, axis=0)
        back = lifting.synthesize(approx, detail, bank, axis=0)
        assert np.abs(back - data).max() < 1e-10

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_valid_mode_matches_periodized(self, bank):
        rng = np.random.RandomState(2)
        n = 64
        data = rng.standard_normal(n)
        scheme = lifting_scheme(bank)
        ref_a, ref_d = ref_kernel_analyze("lifting", data, bank, 0)
        lifting = get_kernel("lifting")
        front, back = lifting.analysis_guard_depths(bank)
        ext = np.concatenate([data[n - front :], data, data[:back]])
        a, d = lifting_analyze_axis_valid(ext, scheme, 0, n // 2, front)
        assert np.abs(a - ref_a).max() < 1e-12
        assert np.abs(d - ref_d).max() < 1e-12

        s_front, s_back = lifting.synthesis_guard_depths(bank)
        half = n // 2
        ext_a = np.concatenate([ref_a[half - s_front :], ref_a, ref_a[:s_back]])
        ext_d = np.concatenate([ref_d[half - s_front :], ref_d, ref_d[:s_back]])
        back_sig = lifting_synthesize_axis_valid(ext_a, ext_d, scheme, 0, n, s_front)
        assert np.abs(back_sig - data).max() < 1e-10

    def test_insufficient_guards_raise(self):
        bank = daubechies_filter(8)
        scheme = lifting_scheme(bank)
        data = np.arange(32, dtype=np.float64)
        with pytest.raises(ConfigurationError):
            lifting_analyze_axis_valid(data, scheme, 0, 16, 0)

    def test_odd_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            get_kernel("lifting").analyze(np.zeros(31), haar_filter(), axis=0)

    def test_one_sample_lanes_leave_the_input_untouched(self):
        # A lane of one sample per column is a contiguous view of the input;
        # the in-place steps must run on a copy.
        scheme = lifting_scheme(haar_filter())
        data = np.ones((2, 4))
        get_kernel("lifting").analyze(data, haar_filter(), axis=0)
        lifting_analyze_axis_valid(data, scheme, 0, 1, 0)
        assert (data == 1.0).all()


class TestGuardDepths:
    def test_conv_depths_keep_seed_convention(self):
        bank = daubechies_filter(8)
        conv = get_kernel("conv")
        assert conv.analysis_guard_depths(bank) == (0, bank.length)
        assert conv.synthesis_guard_depths(bank) == (bank.length // 2, 0)

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_lifting_depths_match_scheme_margins(self, bank):
        scheme = lifting_scheme(bank)
        front, back = get_kernel("lifting").analysis_guard_depths(bank)
        sfront, sback = scheme.analysis_margins
        assert (front, back) == (sfront, sback + sback % 2)
        assert get_kernel("fused").synthesis_guard_depths(bank) == scheme.synthesis_margins


class TestSpmdLifting:
    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    @pytest.mark.parametrize("decomposition", ["striped", "block"])
    def test_2d_matches_sequential(self, bank, decomposition):
        rng = np.random.RandomState(3)
        image = rng.standard_normal((64, 64))
        ref = mallat_decompose_2d(image, bank, 2)
        outcome = run_spmd_wavelet(
            paragon(4), image, bank, 2, decomposition=decomposition, kernel="lifting"
        )
        assert _pyramid_err(outcome.pyramid, ref) < 1e-9

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_1d_matches_sequential(self, bank):
        rng = np.random.RandomState(4)
        signal = rng.standard_normal(256)
        ref_a, ref_d = dwt_1d(signal, bank, 2)
        outcome = run_spmd_dwt_1d(paragon(4), signal, bank, 2, kernel="fused")
        assert np.abs(outcome.approximation - ref_a).max() < 1e-9
        for got, ref in zip(outcome.details, ref_d):
            assert np.abs(got - ref).max() < 1e-9
        _, rec = run_spmd_idwt_1d(paragon(4), ref_a, ref_d, bank, kernel="fused")
        assert np.abs(rec - signal).max() < 1e-9

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_reconstruct_matches_sequential(self, bank):
        rng = np.random.RandomState(5)
        image = rng.standard_normal((64, 64))
        pyramid = mallat_decompose_2d(image, bank, 2)
        outcome = run_spmd_reconstruct(paragon(4), pyramid, bank, kernel="lifting")
        assert np.abs(outcome.image - image).max() < 1e-9

    def test_unknown_kernel_rejected(self):
        image = np.zeros((16, 16))
        with pytest.raises(ConfigurationError):
            run_spmd_wavelet(paragon(1), image, haar_filter(), 1, kernel="nope")


class TestSimdLifting:
    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_matches_sequential(self, bank):
        rng = np.random.RandomState(6)
        image = rng.standard_normal((32, 32))
        ref = mallat_decompose_2d(image, bank, 2)
        outcome = simd_mallat_decompose(
            MasParMachine(maspar_mp2()), image, bank, 2, algorithm="lifting"
        )
        assert _pyramid_err(outcome.pyramid, ref) < 1e-9
        assert outcome.algorithm == "lifting"

    def test_cheaper_than_systolic_for_long_filters(self):
        rng = np.random.RandomState(7)
        image = rng.standard_normal((32, 32))
        bank = daubechies_filter(8)
        lifting = simd_mallat_decompose(
            MasParMachine(maspar_mp2()), image, bank, 1, algorithm="lifting"
        )
        systolic = simd_mallat_decompose(
            MasParMachine(maspar_mp2()), image, bank, 1, algorithm="systolic"
        )
        assert lifting.elapsed_s < systolic.elapsed_s


class TestSequentialKernels:
    @pytest.mark.parametrize("kernel", ["lifting", "fused"])
    @pytest.mark.parametrize("length", [2, 4, 8])
    def test_pyramid_round_trip(self, kernel, length):
        rng = np.random.RandomState(8)
        image = rng.standard_normal((64, 64))
        bank = filter_bank_for_length(length)
        pyramid = mallat_decompose_2d(image, bank, 3, kernel=kernel)
        ref = mallat_decompose_2d(image, bank, 3)
        assert _pyramid_err(pyramid, ref) < 1e-9
        back = mallat_reconstruct_2d(pyramid, bank, kernel=kernel)
        assert np.abs(back - image).max() < 1e-10
