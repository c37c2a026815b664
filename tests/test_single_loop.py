"""Single-loop 2-D lifting kernel: equivalence, byte-identity of the
pre-existing kernels through the plan/executor refactor, valid-mode
guard handling, and the SPMD/SIMD parallel paths.

The sha256 pins were captured on the pre-refactor kernel stack: the
conv/lifting/fused pipelines must produce byte-identical output after
the refactor, proving the plan layer changed structure, not numerics.
"""

import hashlib

import numpy as np
import pytest
from numpy.random import RandomState

from repro.errors import ConfigurationError, DecompositionError
from repro.machines.specs import paragon
from repro.wavelet import (
    dwt_1d,
    filter_bank_for_length,
    get_kernel,
    idwt_1d,
    lifting_scheme,
    mallat_decompose_2d,
    mallat_reconstruct_2d,
    mallat_step_2d,
)
from repro.wavelet.parallel.spmd import run_spmd_wavelet
from repro.wavelet.singleloop import (
    single_loop_analyze_valid,
    single_loop_synthesize_valid,
)
from tests.test_wavelet_strip_oracle import (
    single_loop_analyze_2d,
    single_loop_synthesize_2d,
)

BANK_LENGTHS = (2, 4, 8)


def _wrapped(front, n, back):
    """Indices of ``n`` owned entries with ``front``/``back`` margins,
    wrapped periodically."""
    return np.arange(-front, n + back) % n

# Agreement bounds for unit-normal inputs: measured worst case is ~1e-11
# (D8); these match the kernel-roundtrip benchmark's checks.
FORWARD_TOL = 1e-9
ROUND_TRIP_TOL = 1e-10


def _max_diff(p, q):
    diff = float(np.abs(p.approximation - q.approximation).max())
    for a, b in zip(p.details, q.details):
        diff = max(
            diff,
            float(np.abs(a.lh - b.lh).max()),
            float(np.abs(a.hl - b.hl).max()),
            float(np.abs(a.hh - b.hh).max()),
        )
    return diff


# -- byte-identity of the pre-refactor kernels ------------------------------

_PIPELINE_DIGESTS = {
    "conv": "80a15cb0aa6c3a8cbfdccb541485a6b21fba12c97457ab425ff04ea8161ce973",
    "lifting": "e7b42bd555ac3cae1fae5acb25ed7bc7fbe764d30f178f427268cbb6bb72a6fc",
    "fused": "e7b42bd555ac3cae1fae5acb25ed7bc7fbe764d30f178f427268cbb6bb72a6fc",
}


def _pipeline_digest(kernel):
    h = hashlib.sha256()
    for m in BANK_LENGTHS:
        rng = RandomState(777 + m)
        image = rng.standard_normal((64, 96))
        signal = rng.standard_normal(256)
        bank = filter_bank_for_length(m)
        pyramid = mallat_decompose_2d(image, bank, 3, kernel=kernel)
        h.update(pyramid.approximation.tobytes())
        for t in pyramid.details:
            h.update(t.lh.tobytes())
            h.update(t.hl.tobytes())
            h.update(t.hh.tobytes())
        h.update(mallat_reconstruct_2d(pyramid, bank, kernel=kernel).tobytes())
        approx, details = dwt_1d(signal, bank, 3, kernel=kernel)
        h.update(approx.tobytes())
        for d in details:
            h.update(d.tobytes())
        h.update(idwt_1d(approx, details, bank, kernel=kernel).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kernel", sorted(_PIPELINE_DIGESTS))
def test_refactor_left_existing_kernels_byte_identical(kernel):
    assert _pipeline_digest(kernel) == _PIPELINE_DIGESTS[kernel]


# -- sequential equivalence -------------------------------------------------

class TestSequentialEquivalence:
    @pytest.mark.parametrize("m", BANK_LENGTHS)
    @pytest.mark.parametrize("shape", [(64, 64), (64, 96), (32, 48), (16, 80)])
    def test_step_matches_conv(self, m, shape):
        bank = filter_bank_for_length(m)
        image = RandomState(m).standard_normal(shape)
        ref = mallat_step_2d(image, bank, kernel="conv")
        got = mallat_step_2d(image, bank, kernel="single-loop")
        for name in ("ll", "lh", "hl", "hh"):
            assert np.abs(getattr(got, name) - getattr(ref, name)).max() < FORWARD_TOL

    @pytest.mark.parametrize("m", BANK_LENGTHS)
    def test_matches_separable_lifting_exactly_enough(self, m):
        # Interleaved (V H) product == separable (V..)(H..) as operators;
        # only float reassociation separates the two lifting traversals.
        bank = filter_bank_for_length(m)
        image = RandomState(10 + m).standard_normal((64, 96))
        lift = mallat_decompose_2d(image, bank, 3, kernel="lifting")
        sweep = mallat_decompose_2d(image, bank, 3, kernel="single-loop")
        assert _max_diff(lift, sweep) < 1e-10

    @pytest.mark.parametrize("m", BANK_LENGTHS)
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_multi_level_pyramid_matches_conv(self, m, levels):
        bank = filter_bank_for_length(m)
        image = RandomState(20 + m).standard_normal((64, 96))
        ref = mallat_decompose_2d(image, bank, levels, kernel="conv")
        got = mallat_decompose_2d(image, bank, levels, kernel="single-loop")
        assert _max_diff(ref, got) < FORWARD_TOL

    @pytest.mark.parametrize("m", BANK_LENGTHS)
    def test_round_trip(self, m):
        bank = filter_bank_for_length(m)
        image = RandomState(30 + m).standard_normal((64, 96))
        pyramid = mallat_decompose_2d(image, bank, 3, kernel="single-loop")
        back = mallat_reconstruct_2d(pyramid, bank, kernel="single-loop")
        assert np.abs(back - image).max() < ROUND_TRIP_TOL

    @pytest.mark.parametrize("m", BANK_LENGTHS)
    def test_1d_degenerates_to_lifting(self, m):
        bank = filter_bank_for_length(m)
        signal = RandomState(40 + m).standard_normal(256)
        a_ref, d_ref = dwt_1d(signal, bank, 3, kernel="lifting")
        a_got, d_got = dwt_1d(signal, bank, 3, kernel="single-loop")
        assert np.array_equal(a_ref, a_got)
        assert all(np.array_equal(r, g) for r, g in zip(d_ref, d_got))

    def test_analyze_synthesize_primitives_invert(self):
        # The valid-mode sweeps over periodically gathered guard rows and
        # columns.
        bank = filter_bank_for_length(8)
        scheme = lifting_scheme(bank)
        kernel = get_kernel("single-loop")
        image = RandomState(3).standard_normal((32, 48))
        front, back = kernel.analysis_guard_depths(bank)
        ext = image[_wrapped(front, 32, back), :][:, _wrapped(front, 48, back)]
        bands = single_loop_analyze_valid(ext, scheme, 16, 24, front, front)
        front, back = kernel.synthesis_guard_depths(bank)
        rows, cols = _wrapped(front, 16, back), _wrapped(front, 24, back)
        back_image = single_loop_synthesize_valid(
            *(band[rows][:, cols] for band in bands), scheme, front, np.empty((32, 48))
        )
        assert np.abs(back_image - image).max() < ROUND_TRIP_TOL

    def test_too_small_image_rejected(self):
        bank = filter_bank_for_length(8)
        with pytest.raises(ConfigurationError, match="too small"):
            get_kernel("single-loop").forward_step_2d(np.zeros((4, 32)), bank)

    def test_one_pixel_lanes_leave_the_input_untouched(self):
        # The four lanes of a 2x2 image are contiguous views of it; the
        # in-place steps must run on copies.  The inverse sweep builds its
        # lanes afresh, so it leaves its subbands untouched too.
        scheme = lifting_scheme(filter_bank_for_length(2))
        image = np.ones((2, 2))
        bands = single_loop_analyze_valid(image, scheme, 1, 1, 0, 0)
        assert (image == 1.0).all()
        copies = [band.copy() for band in bands]
        single_loop_synthesize_valid(*bands, scheme, 0, np.empty((2, 2)))
        assert all(np.array_equal(b, c) for b, c in zip(bands, copies))


# -- valid-mode sweep -------------------------------------------------------

class TestValidMode:
    @pytest.mark.parametrize("m", BANK_LENGTHS)
    def test_periodic_extension_reproduces_periodized_interior(self, m):
        bank = filter_bank_for_length(m)
        scheme = lifting_scheme(bank)
        front, back = get_kernel("single-loop").analysis_guard_depths(bank)
        image = RandomState(50 + m).standard_normal((64, 48))
        ref = single_loop_analyze_2d(image, scheme)

        # Rebuild each 16-row stripe from its periodically wrapped guard
        # rows and columns.
        cols = _wrapped(front, 48, back)
        for start in range(0, 64, 16):
            ext = image[np.arange(start - front, start + 16 + back) % 64][:, cols]
            got = single_loop_analyze_valid(ext, scheme, 8, 24, front, front)
            for got_band, ref_band in zip(got, ref):
                assert np.array_equal(got_band, ref_band[start // 2 : start // 2 + 8])

    @pytest.mark.parametrize("m", BANK_LENGTHS)
    def test_periodic_extension_reproduces_periodized_inverse(self, m):
        bank = filter_bank_for_length(m)
        scheme = lifting_scheme(bank)
        front, back = get_kernel("single-loop").synthesis_guard_depths(bank)
        image = RandomState(55 + m).standard_normal((64, 48))
        bands = single_loop_analyze_2d(image, scheme)
        ref = single_loop_synthesize_2d(*bands, scheme)

        # Rebuild each 16-row output stripe from periodically gathered
        # subband rows and columns.
        cols = _wrapped(front, 24, back)
        for start in range(0, 64, 16):
            seg = np.arange(start // 2 - front, start // 2 + 8 + back) % 32
            got = single_loop_synthesize_valid(
                *(band[seg][:, cols] for band in bands), scheme, front, np.empty((16, 48))
            )
            assert got.tobytes() == ref[start : start + 16].tobytes()

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10, 12, 14])
    def test_inverse_guard_depths_are_exact(self, m):
        bank = filter_bank_for_length(m)
        scheme = lifting_scheme(bank)
        front, back = get_kernel("single-loop").synthesis_guard_depths(bank)
        # Haar's steps reach no neighbor sample; every longer filter's do.
        assert (front > 0, back > 0) == (m > 2, m > 2)
        bands = RandomState(m).standard_normal((4, front + 8 + back, front + 16 + back))
        out = np.empty((16, 32))
        single_loop_synthesize_valid(*bands, scheme, front, out)
        if front:
            # One lead serves both axes; the rows are checked first.
            with pytest.raises(ConfigurationError, match="row guard"):
                single_loop_synthesize_valid(*bands[:, 1:, 1:], scheme, front - 1, out)
        if back:
            with pytest.raises(ConfigurationError, match="row guard"):
                single_loop_synthesize_valid(*bands[:, :-1], scheme, front, out)
            with pytest.raises(ConfigurationError, match="column guard"):
                single_loop_synthesize_valid(*bands[:, :, :-1], scheme, front, out)

    def test_insufficient_row_guard_raises(self):
        scheme = lifting_scheme(filter_bank_for_length(8))
        ext = RandomState(0).standard_normal((20, 32))
        with pytest.raises(ConfigurationError, match="row guard"):
            single_loop_analyze_valid(ext, scheme, 10, 8, 0, 0)

    def test_insufficient_column_guard_raises(self):
        scheme = lifting_scheme(filter_bank_for_length(8))
        ext = RandomState(1).standard_normal((32, 20))
        front, _ = 4, 0
        with pytest.raises(ConfigurationError, match="column guard"):
            single_loop_analyze_valid(ext, scheme, 8, 10, front, 0)

    def test_odd_lead_rejected(self):
        scheme = lifting_scheme(filter_bank_for_length(2))
        with pytest.raises(ConfigurationError, match="even"):
            single_loop_analyze_valid(np.zeros((8, 8)), scheme, 2, 4, 3, 0)


# -- SPMD programs ----------------------------------------------------------

class TestSpmd:
    @pytest.mark.parametrize("m", BANK_LENGTHS)
    @pytest.mark.parametrize("decomposition,nranks", [
        ("striped", 1), ("striped", 4), ("block", 4), ("block", 8),
    ])
    def test_parallel_matches_sequential_bitwise(self, m, decomposition, nranks):
        bank = filter_bank_for_length(m)
        levels = 2
        image = RandomState(60 + m).standard_normal((64, 96))
        seq = mallat_decompose_2d(image, bank, levels, kernel="single-loop")
        outcome = run_spmd_wavelet(
            paragon(nranks), image, bank, levels,
            kernel="single-loop", decomposition=decomposition,
        )
        assert _max_diff(outcome.pyramid, seq) == 0.0

    def test_striped_uses_the_sweep_guard_tags(self):
        from repro.machines import tags
        from repro.runtime import JobSpec, RunOptions, launch

        # D8 has non-zero margins on both sides, so both guard
        # directions must flow (D4's front margin is 0).
        bank = filter_bank_for_length(8)
        image = RandomState(2).standard_normal((64, 64))
        spec = JobSpec(
            program="wavelet",
            params={"image": image, "bank": bank, "levels": 2},
            options=RunOptions(
                machine="paragon", nranks=4, kernel="single-loop",
                record_trace=True,
            ),
        )
        run = launch(spec).run
        sent = {e.tag for e in run.trace if e.kind == "send"}
        assert tags.WAVELET_SWEEP_GUARD in sent
        assert tags.WAVELET_SWEEP_GUARD_FRONT in sent
        # The raw-tile sweep replaces the per-pass row/col guard tags.
        assert tags.WAVELET_ROW_GUARD not in sent
        assert tags.WAVELET_COL_GUARD not in sent

    def test_block_uses_both_sweep_guard_axes(self):
        from repro.machines import tags
        from repro.runtime import JobSpec, RunOptions, launch

        bank = filter_bank_for_length(4)
        image = RandomState(5).standard_normal((64, 64))
        spec = JobSpec(
            program="wavelet",
            params={"image": image, "bank": bank, "levels": 1},
            options=RunOptions(
                machine="paragon", nranks=4, kernel="single-loop",
                decomposition="block", record_trace=True,
            ),
        )
        run = launch(spec).run
        sent = {e.tag for e in run.trace if e.kind == "send"}
        assert tags.WAVELET_SWEEP_GUARD in sent
        assert tags.WAVELET_SWEEP_COL_GUARD in sent

    def test_too_shallow_stripe_rejected_up_front(self):
        bank = filter_bank_for_length(8)
        image = RandomState(6).standard_normal((64, 64))
        with pytest.raises(DecompositionError):
            run_spmd_wavelet(
                paragon(4), image, bank, 3, kernel="single-loop",
                decomposition="striped",
            )


# -- MasPar SIMD ------------------------------------------------------------

class TestSimd:
    @pytest.mark.parametrize("m", BANK_LENGTHS)
    def test_simd_single_loop_matches_sequential(self, m):
        from repro.machines.simd import MasParMachine, maspar_mp2
        from repro.wavelet.parallel import simd_mallat_decompose

        bank = filter_bank_for_length(m)
        image = RandomState(70 + m).standard_normal((32, 32))
        seq = mallat_decompose_2d(image, bank, 2, kernel="single-loop")
        outcome = simd_mallat_decompose(
            MasParMachine(maspar_mp2(pe_side=32)), image, bank, 2,
            algorithm="single-loop",
        )
        assert outcome.algorithm == "single-loop"
        assert _max_diff(outcome.pyramid, seq) == 0.0

    def test_unknown_algorithm_lists_single_loop(self):
        from repro.machines.simd import MasParMachine, maspar_mp2
        from repro.wavelet.parallel import simd_mallat_decompose

        bank = filter_bank_for_length(2)
        with pytest.raises(ConfigurationError, match="single-loop"):
            simd_mallat_decompose(
                MasParMachine(maspar_mp2(pe_side=8)), np.zeros((8, 8)), bank, 1,
                algorithm="warped",
            )
