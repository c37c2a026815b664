"""Tests for the coarse-grain SPMD and fine-grain SIMD parallel wavelet
decompositions: both must reproduce the sequential transform exactly."""

import itertools
import tracemalloc

import numpy as np
import pytest

from tests._digest_util import digest
from repro.errors import ConfigurationError, DecompositionError
from repro.machines import paragon
from repro.machines.simd import MasParMachine, maspar_mp2
from repro.runtime import JobSpec, RunOptions, build_launch, launch, run_program
from repro.wavelet import (
    KERNEL_NAMES,
    DetailTriple,
    WaveletPyramid,
    daubechies_filter,
    dwt_1d,
    filter_bank_for_length,
    idwt_1d,
    mallat_decompose_2d,
    mallat_reconstruct_2d,
)
from repro.wavelet.parallel import (
    BlockDecomposition,
    StripeDecomposition,
    factor_grid,
    run_spmd_dwt_1d,
    run_spmd_idwt_1d,
    run_spmd_reconstruct,
    run_spmd_wavelet,
    simd_mallat_decompose,
)


@pytest.fixture(scope="module")
def image():
    # 128 rows so 8 ranks can carry 4 levels (128 = 8 ranks * 2^4); the
    # rectangular shape also exercises non-square handling.
    return np.random.default_rng(11).random((128, 64)) * 255


def assert_pyramids_equal(a, b, atol=1e-10):
    np.testing.assert_allclose(a.approximation, b.approximation, atol=atol)
    assert a.levels == b.levels
    for ta, tb in zip(a.details, b.details):
        np.testing.assert_allclose(ta.lh, tb.lh, atol=atol)
        np.testing.assert_allclose(ta.hl, tb.hl, atol=atol)
        np.testing.assert_allclose(ta.hh, tb.hh, atol=atol)


class TestStripeDecomposition:
    def test_row_ranges_partition(self):
        decomp = StripeDecomposition(64, 64, 4, 2)
        ranges = [decomp.row_range(r) for r in range(4)]
        assert ranges[0] == (0, 16)
        assert ranges[-1] == (48, 64)

    def test_rows_halve_per_level(self):
        decomp = StripeDecomposition(64, 64, 4, 2)
        assert decomp.local_rows(0) == 16
        assert decomp.local_rows(1) == 8

    def test_neighbors_wrap(self):
        decomp = StripeDecomposition(64, 64, 4, 1)
        assert decomp.south_neighbor(3) == 0
        assert decomp.north_neighbor(0) == 3

    def test_indivisible_raises(self):
        with pytest.raises(DecompositionError):
            StripeDecomposition(100, 64, 3, 2)

    def test_bad_rank_raises(self):
        with pytest.raises(DecompositionError):
            StripeDecomposition(64, 64, 4, 1).row_range(4)


class TestBlockDecomposition:
    def test_factor_grid_square(self):
        assert factor_grid(16) == (4, 4)
        assert factor_grid(8) == (2, 4)
        assert factor_grid(7) == (1, 7)

    def test_block_ranges(self):
        decomp = BlockDecomposition(64, 64, 2, 2, 1)
        (r0, r1), (c0, c1) = decomp.block_ranges(3)
        assert (r0, r1, c0, c1) == (32, 64, 32, 64)

    def test_neighbors(self):
        decomp = BlockDecomposition(64, 64, 2, 2, 1)
        assert decomp.east_neighbor(0) == 1
        assert decomp.east_neighbor(1) == 0  # wraps within the grid row
        assert decomp.south_neighbor(0) == 2
        assert decomp.north_neighbor(0) == 2  # wraps

    def test_indivisible_raises(self):
        with pytest.raises(DecompositionError):
            BlockDecomposition(64, 64, 3, 2, 2)


class TestSpmdStriped:
    @pytest.mark.parametrize("nranks", [1, 2, 4, 8])
    @pytest.mark.parametrize("length,levels", [(8, 1), (4, 2), (2, 4)])
    def test_matches_sequential(self, image, nranks, length, levels):
        bank = filter_bank_for_length(length)
        reference = mallat_decompose_2d(image, bank, levels)
        outcome = run_spmd_wavelet(paragon(nranks), image, bank, levels)
        assert_pyramids_equal(outcome.pyramid, reference)

    def test_naive_placement_also_correct(self, image):
        bank = daubechies_filter(4)
        reference = mallat_decompose_2d(image, bank, 2)
        outcome = run_spmd_wavelet(paragon(8, "naive"), image, bank, 2)
        assert_pyramids_equal(outcome.pyramid, reference)

    def test_without_staging_faster(self, image):
        bank = daubechies_filter(4)
        staged = run_spmd_wavelet(paragon(8), image, bank, 2)
        bare = run_spmd_wavelet(
            paragon(8), image, bank, 2, distribute=False, collect=False
        )
        assert bare.run.elapsed_s < staged.run.elapsed_s
        assert bare.pyramid is None

    def test_stripe_too_small_raises(self, image):
        bank = daubechies_filter(8)
        # 128 rows / 32 ranks = 4-row stripes < the 8-tap filter at level 1.
        with pytest.raises(DecompositionError):
            run_spmd_wavelet(paragon(32), image, bank, 1)

    def test_unknown_decomposition_raises(self, image):
        with pytest.raises(DecompositionError):
            run_spmd_wavelet(paragon(2), image, daubechies_filter(4), 1, decomposition="spiral")

    def test_more_ranks_less_work_each(self, image):
        bank = daubechies_filter(4)
        r2 = run_spmd_wavelet(paragon(2), image, bank, 1).run
        r8 = run_spmd_wavelet(paragon(8), image, bank, 1).run
        assert r8.budgets[0].work_s < r2.budgets[0].work_s

    def test_comm_grows_with_levels(self, image):
        """Section 5's observation: deeper decompositions communicate more."""
        bank = daubechies_filter(2)
        one = run_spmd_wavelet(
            paragon(8), image, bank, 1, distribute=False, collect=False
        ).run.mean_comm_s()
        four = run_spmd_wavelet(
            paragon(8), image, bank, 4, distribute=False, collect=False
        ).run.mean_comm_s()
        assert four > one


class TestSpmdBlock:
    @pytest.mark.parametrize("nranks", [1, 2, 4])
    def test_matches_sequential(self, image, nranks):
        bank = daubechies_filter(4)
        reference = mallat_decompose_2d(image, bank, 2)
        outcome = run_spmd_wavelet(
            paragon(nranks), image, bank, 2, decomposition="block"
        )
        assert_pyramids_equal(outcome.pyramid, reference)

    def test_block_sends_more_messages_than_striped(self, image):
        """Figure 3's point: block needs two guard exchanges per level."""
        bank = daubechies_filter(2)
        striped = run_spmd_wavelet(
            paragon(4), image, bank, 2, distribute=False, collect=False
        ).run.messages_sent
        block = run_spmd_wavelet(
            paragon(4),
            image,
            bank,
            2,
            decomposition="block",
            distribute=False,
            collect=False,
        ).run.messages_sent
        assert block > striped


def _pyramid_or_refusal(decompose):
    """The pyramid's arrays, or the ``ConfigurationError`` it raised."""
    try:
        pyramid = decompose()
    except ConfigurationError as exc:
        return exc
    return [pyramid.approximation] + [
        band for triple in pyramid.details for band in (triple.lh, triple.hl, triple.hh)
    ]


class TestSpmdEqualsSequential:
    """One property over the knob grid: wherever the SPMD program runs,
    its pyramid is bitwise the sequential pyramid of the same kernel, and
    wherever the sequential transform refuses a configuration, the SPMD
    program refuses it too, at every rank count."""

    #: Small tiles around the kernels' size limits, square and not.
    SHAPES = ((4, 64), (8, 64), (16, 64), (32, 32), (64, 16), (12, 48))

    @staticmethod
    def _fitting_shape(decomposition, nranks, length, levels):
        """The smallest image whose last-level tiles are ``length`` on a
        side: rectangular unless the rank grid is square."""
        prows, pcols = (nranks, 1) if decomposition == "striped" else factor_grid(nranks)
        return (prows * length << levels, pcols * length << levels)

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("decomposition", ["striped", "block"])
    def test_bitwise_or_both_refuse(self, decomposition, kernel):
        rng = np.random.default_rng(2)
        ran = 0
        for nranks, length, levels in itertools.product(
            (1, 2, 4, 8), range(2, 22, 2), (1, 2, 3)
        ):
            bank = filter_bank_for_length(length)
            fitting = self._fitting_shape(decomposition, nranks, length, levels)
            for shape in self.SHAPES + (fitting,):
                image = rng.random(shape) * 255
                case = (nranks, bank.name, levels, shape)
                sequential = _pyramid_or_refusal(
                    lambda: mallat_decompose_2d(image, bank, levels, kernel=kernel)
                )
                parallel = _pyramid_or_refusal(
                    lambda: run_spmd_wavelet(
                        paragon(nranks),
                        image,
                        bank,
                        levels,
                        decomposition=decomposition,
                        kernel=kernel,
                    ).pyramid
                )
                if isinstance(sequential, ConfigurationError):
                    assert isinstance(parallel, ConfigurationError), case
                elif not isinstance(parallel, ConfigurationError):
                    ran += 1
                    assert [(a.shape, a.tobytes()) for a in parallel] == [
                        (b.shape, b.tobytes()) for b in sequential
                    ], case
        assert ran >= 150  # the equality check is not vacuous


def _outcome(transform, *args, **kwargs):
    """``transform(*args, **kwargs)``, or the ``ConfigurationError`` it
    raised."""
    try:
        return transform(*args, **kwargs)
    except ConfigurationError as exc:
        return exc


class TestOneDAndInverseEqualSequential:
    """The same property for the 1-D forward and inverse programs and the
    striped reconstruction, over kernel x P in {1, 2, 4, 8} x D2-D20 x
    1-3 levels x the samples (or rows) each rank owns at the coarsest
    level: wherever the SPMD program runs it is bitwise the sequential
    transform, and wherever that refuses, so does the program.  The
    single-loop reconstruction runs the separable lifting passes, so its
    reference is the lifting kernel's."""

    LOCAL = (1, 2, 3, 6)
    #: Coarsest-level (rows per rank, columns) of the reconstructed pyramids.
    TILES = ((1, 4), (2, 2), (3, 6), (6, 1))

    @staticmethod
    def _agree(sequential, parallel, arrays, case) -> bool:
        """Assert the property for one case, with ``arrays`` listing each
        side's result; True when both ran."""
        if isinstance(sequential, ConfigurationError):
            assert isinstance(parallel, ConfigurationError), case
            return False
        if isinstance(parallel, ConfigurationError):
            return False
        assert [(a.shape, a.tobytes()) for a in arrays(parallel)] == [
            (b.shape, b.tobytes()) for b in arrays(sequential)
        ], case
        return True

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_dwt_1d(self, kernel):
        rng = np.random.default_rng(3)
        ran = 0
        for nranks, length, levels, local in itertools.product(
            (1, 2, 4, 8), range(2, 22, 2), (1, 2, 3), self.LOCAL
        ):
            bank = filter_bank_for_length(length)
            signal = rng.random(nranks * local << levels)
            ran += self._agree(
                _outcome(dwt_1d, signal, bank, levels, kernel=kernel),
                _outcome(run_spmd_dwt_1d, paragon(nranks), signal, bank, levels, kernel=kernel),
                lambda out: (
                    [out[0], *out[1]]
                    if isinstance(out, tuple)
                    else [out.approximation, *out.details]
                ),
                (nranks, bank.name, levels, local),
            )
        assert ran >= 60  # the equality check is not vacuous

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_idwt_1d(self, kernel):
        rng = np.random.default_rng(4)
        ran = 0
        for nranks, length, levels, local in itertools.product(
            (1, 2, 4, 8), range(2, 22, 2), (1, 2, 3), self.LOCAL
        ):
            bank = filter_bank_for_length(length)
            approx = rng.random(nranks * local)
            details = [rng.random(nranks * local << (levels - 1 - i)) for i in range(levels)]
            ran += self._agree(
                _outcome(idwt_1d, approx, details, bank, kernel=kernel),
                _outcome(run_spmd_idwt_1d, paragon(nranks), approx, details, bank, kernel=kernel),
                lambda out: [out[1] if isinstance(out, tuple) else out],
                (nranks, bank.name, levels, local),
            )
        assert ran >= 60

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_reconstruct(self, kernel):
        reference = "lifting" if kernel == "single-loop" else kernel
        rng = np.random.default_rng(5)
        ran = 0
        for nranks, length, levels, (local, cols) in itertools.product(
            (1, 2, 4, 8), range(2, 22, 2), (1, 2, 3), self.TILES
        ):
            bank = filter_bank_for_length(length)
            shapes = [(nranks * local << k, cols << k) for k in range(levels)]
            pyramid = WaveletPyramid(
                rng.random(shapes[0]),
                tuple(
                    DetailTriple(*(rng.random(shape) for _ in range(3)))
                    for shape in shapes[::-1]
                ),
                bank.name,
            )
            ran += self._agree(
                _outcome(mallat_reconstruct_2d, pyramid, bank, kernel=reference),
                _outcome(run_spmd_reconstruct, paragon(nranks), pyramid, bank, kernel=kernel),
                lambda out: [getattr(out, "image", out)],
                (nranks, bank.name, levels, local, cols),
            )
        assert ran >= 60


class TestLaunchMemory:
    """Guard zones are built in place and the gathered pieces are views of
    the assembled pyramid, so a launch holds about one image's worth of
    host buffers at a time: the rank tiles, then the result."""

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    @pytest.mark.parametrize("decomposition", ["striped", "block"])
    def test_traced_peak_within_bound(self, decomposition, kernel):
        image = np.random.default_rng(5).random((512, 512)) * 255
        spec = JobSpec(
            program="wavelet",
            params={"image": image, "bank": filter_bank_for_length(8), "levels": 3},
            options=RunOptions(
                machine="paragon", nranks=16, kernel=kernel, decomposition=decomposition
            ),
        )
        tracemalloc.start()
        try:
            execution = launch(spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * image.nbytes, peak / image.nbytes
        assert held <= 1.25 * image.nbytes, held / image.nbytes

        pyramid = execution.outcome.pyramid
        pieces = execution.run.results[0]
        assert len(pieces) == 16
        for piece in pieces:
            assert np.shares_memory(piece["approx"], pyramid.approximation)
            for level, triple in enumerate(pyramid.details):
                for view, band in zip(piece["details"][level], (triple.lh, triple.hl, triple.hh)):
                    assert np.shares_memory(view, band)

    @pytest.mark.parametrize("kernel", ["conv", "lifting"])
    @pytest.mark.parametrize("nranks", [1, 4])
    @pytest.mark.parametrize("decomposition", ["striped", "block"])
    def test_assembly_leaves_results_digest_unchanged(self, image, decomposition, nranks, kernel):
        """Rebinding the pieces to views of the pyramid keeps the dtype,
        shape and bytes that ``run_result_digest`` reads."""
        spec = JobSpec(
            program="wavelet",
            params={"image": image, "bank": filter_bank_for_length(4), "levels": 2},
            options=RunOptions(kernel=kernel, decomposition=decomposition),
        )
        job = build_launch(spec, nranks)
        run = run_program(paragon(nranks), job.program, *job.args, **job.kwargs).run
        before = digest(run.results)
        job.assemble(run)
        assert digest(run.results) == before


class TestSimdAlgorithms:
    @pytest.mark.parametrize("algorithm", ["systolic", "dilution"])
    @pytest.mark.parametrize("length,levels", [(8, 1), (4, 2), (2, 4)])
    def test_matches_sequential(self, image, algorithm, length, levels):
        bank = filter_bank_for_length(length)
        reference = mallat_decompose_2d(image, bank, levels)
        machine = MasParMachine(maspar_mp2(pe_side=32))
        outcome = simd_mallat_decompose(machine, image, bank, levels, algorithm=algorithm)
        assert_pyramids_equal(outcome.pyramid, reference, atol=1e-9)

    def test_dilution_avoids_router(self, image):
        machine = MasParMachine(maspar_mp2(pe_side=32))
        outcome = simd_mallat_decompose(
            machine, image, daubechies_filter(4), 2, algorithm="dilution"
        )
        assert outcome.stats.router_cycles == 0.0

    def test_systolic_uses_router(self, image):
        machine = MasParMachine(maspar_mp2(pe_side=32))
        outcome = simd_mallat_decompose(
            machine, image, daubechies_filter(4), 2, algorithm="systolic"
        )
        assert outcome.stats.router_cycles > 0.0

    def test_hierarchical_beats_cut_and_stack(self, image):
        """The virtualization comparison of [Chan95]: hierarchical locality
        wins when the image over-subscribes the PE array."""
        bank = daubechies_filter(8)
        hier = simd_mallat_decompose(
            MasParMachine(maspar_mp2(pe_side=16), "hierarchical"), image, bank, 1
        )
        stack = simd_mallat_decompose(
            MasParMachine(maspar_mp2(pe_side=16), "cut_and_stack"), image, bank, 1
        )
        assert hier.elapsed_s < stack.elapsed_s

    def test_unknown_algorithm_raises(self, image):
        machine = MasParMachine(maspar_mp2(pe_side=32))
        with pytest.raises(Exception):
            simd_mallat_decompose(machine, image, daubechies_filter(4), 1, algorithm="wavefront")

    def test_counters_reset_between_runs(self, image):
        machine = MasParMachine(maspar_mp2(pe_side=32))
        first = simd_mallat_decompose(machine, image, daubechies_filter(4), 1)
        second = simd_mallat_decompose(machine, image, daubechies_filter(4), 1)
        assert first.elapsed_s == pytest.approx(second.elapsed_s)
