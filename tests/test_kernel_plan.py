"""Tests for the kernel registry and the per-kernel contracts.

Each :mod:`repro.wavelet.kernels` kernel owns its arithmetic: the
registry resolves exactly four names to fresh instances, and every
kernel answers its own minimum image side, guard depths and per-pass
costs, and validates its inputs at the kernel boundary.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.machines import paragon
from repro.runtime import JobSpec, RunOptions, execute
from repro.wavelet import (
    ConvKernel,
    FusedKernel,
    KERNEL_NAMES,
    LiftingKernel,
    SingleLoopKernel,
    Subbands2D,
    daubechies_filter,
    filter_bank_for_length,
    get_kernel,
    haar_filter,
    idwt_1d,
    lifting_scheme,
    single_loop_sweep_cost,
)
from repro.wavelet.parallel.decomposition import StripeDecomposition
from repro.wavelet.parallel.spmd import striped_wavelet_program
from tests.test_kernel_cost_consistency import drive

BANKS = [haar_filter(), daubechies_filter(4), daubechies_filter(8)]


def _names_all_kernels(error) -> bool:
    return all(repr(name) in str(error.value) for name in KERNEL_NAMES)


class TestParse:
    def test_registered_names(self):
        assert KERNEL_NAMES == ("conv", "lifting", "fused", "single-loop")

    def test_fused_parameterized(self):
        # The strip height is a constant of the fused kernel, not a spec
        # parameter: "fused:N" is rejected like any unknown name.
        with pytest.raises(ConfigurationError) as error:
            get_kernel("fused:16")
        assert _names_all_kernels(error)

    @pytest.mark.parametrize(
        "spec",
        ["winograd", "", "conv:2", "lifting:4", "single-loop:8",
         "fused:", "fused:x", "fused:0", "fused:-1", "fused:1.5"],
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ConfigurationError):
            get_kernel(spec)

    def test_non_string_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown kernel 16"):
            get_kernel(16)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="single-loop"):
            get_kernel("winograd")

    def test_job_spec_rejects_parameterized_kernel(self):
        spec = JobSpec(
            program="wavelet",
            params={"image": np.zeros((32, 32)), "bank": haar_filter(), "levels": 1},
            options=RunOptions(kernel="fused:16"),
        )
        with pytest.raises(ConfigurationError) as error:
            execute(paragon(4), spec)
        assert _names_all_kernels(error)


class TestRegistry:
    def test_factories_return_fresh_instances(self):
        a = get_kernel("fused")
        b = get_kernel("fused")
        assert a is not b
        assert type(a) is FusedKernel

    def test_instances_pass_through(self):
        kernel = FusedKernel()
        assert get_kernel(kernel) is kernel

    def test_spec_reaches_executor_configuration(self):
        assert get_kernel("fused").block_rows == 32

    def test_every_name_resolves_to_its_class(self):
        classes = {
            "conv": ConvKernel,
            "lifting": LiftingKernel,
            "fused": FusedKernel,
            "single-loop": SingleLoopKernel,
        }
        for name, cls in classes.items():
            kernel = get_kernel(name)
            assert type(kernel) is cls
            assert kernel.name == name

    def test_malformed_spec_surfaces_through_get_kernel(self):
        with pytest.raises(ConfigurationError):
            get_kernel("fused:zero")


class TestMinSize:
    @pytest.mark.parametrize("name", ["conv", "lifting", "fused", "single-loop"])
    def test_min_size_guard_is_uniform_and_actionable(self, name):
        bank = daubechies_filter(8)
        need = get_kernel(name).min_side(bank)
        small = np.zeros((need - 2 + (need % 2), 32))
        with pytest.raises(ConfigurationError, match="minimum image is"):
            get_kernel(name).forward_step_2d(small, bank)

    def test_odd_dimensions_rejected(self):
        bank = haar_filter()
        with pytest.raises(ConfigurationError, match="even"):
            get_kernel("single-loop").forward_step_2d(np.zeros((7, 8)), bank)

    def test_conv_min_side_is_filter_length(self):
        for bank in BANKS:
            assert ConvKernel().min_side(bank) == bank.length

    def test_lifting_family_shares_effective_length(self):
        for bank in BANKS:
            need = lifting_scheme(bank).filter_length
            for name in ("lifting", "fused", "single-loop"):
                assert get_kernel(name).min_side(bank) == need

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_shape_errors_raised_at_the_kernel_boundary(self, name):
        kernel, bank = get_kernel(name), daubechies_filter(4)
        for bad in (np.zeros(16), np.zeros((16, 16, 2))):
            with pytest.raises(ConfigurationError, match="2-D image"):
                kernel.forward_step_2d(bad, bank)
        ragged = Subbands2D(
            ll=np.zeros((8, 8)), lh=np.zeros((8, 8)),
            hl=np.zeros((8, 8)), hh=np.zeros((8, 6)),
        )
        with pytest.raises(ConfigurationError, match="subbands of one shape"):
            kernel.inverse_step_2d(ragged, bank)

    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_inverse_rejects_what_the_forward_step_refuses(self, name):
        # Subbands that synthesize a side shorter than the filter, and
        # empty ones, fail at the boundary like the forward step does.
        kernel, bank = get_kernel(name), daubechies_filter(8)
        for shape in ((0, 0), (2, 8), (3, 4), (8, 3)):
            bands = Subbands2D(*(np.zeros(shape) for _ in range(4)))
            with pytest.raises(ConfigurationError, match="minimum image is 8x8"):
                kernel.inverse_step_2d(bands, bank)
        for length in (0, 2, 3):
            with pytest.raises(ConfigurationError, match="synthesizes fewer"):
                idwt_1d(np.zeros(length), [np.zeros(length)], bank, kernel=name)

    @pytest.mark.parametrize("name", ["lifting", "fused", "single-loop"])
    def test_valid_synthesis_rejects_segments_shorter_than_a_lane_shift(self, name):
        # D10's low lane shift is 4: three-sample subband segments cannot
        # be placed in their lanes.
        bank = filter_bank_for_length(10)
        assert lifting_scheme(bank).low_shift == 4
        segment = np.ones((3, 4))
        with pytest.raises(ConfigurationError, match="lane shift"):
            get_kernel(name).synthesize_valid(segment, segment, bank, 0, 2, 0)


class TestGuardDepths:
    def test_conv_guards(self):
        for bank in BANKS:
            assert ConvKernel().analysis_guard_depths(bank) == (0, bank.length)

    def test_lifting_family_guards_agree_and_preserve_parity(self):
        for bank in BANKS:
            depths = {
                name: get_kernel(name).analysis_guard_depths(bank)
                for name in ("lifting", "fused", "single-loop")
            }
            assert len(set(depths.values())) == 1
            front, back = depths["single-loop"]
            assert front % 2 == 0 and back % 2 == 0


class TestCostModel:
    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_separable_traversals_charge_two_passes(self, bank):
        for name in ("conv", "lifting", "fused"):
            kernel = get_kernel(name)
            row_pass = kernel.analysis_pass_cost(2 * 64 * 48, bank)
            col_pass = kernel.analysis_pass_cost(4 * 32 * 48, bank)
            assert kernel.level_cost(64, 96, bank) == row_pass + col_pass

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_single_loop_charges_one_sweep(self, bank):
        taps = lifting_scheme(bank).step_taps
        assert get_kernel("single-loop").level_cost(64, 96, bank) == (
            single_loop_sweep_cost(64, 96, taps)
        )

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_level_cost_sums_passes(self, bank):
        # On a non-square level, a kernel's level cost is the sum of the
        # passes the striped program charges for that level.
        image = np.random.RandomState(4).standard_normal((64, 96))
        decomp = StripeDecomposition(64, 96, 1, 1)
        for name in KERNEL_NAMES:
            ctx = drive(striped_wavelet_program, image, bank, 1, decomp, kernel=name)
            total = sum(ctx.charged[1:], start=ctx.charged[0])
            assert total == get_kernel(name).level_cost(64, 96, bank)

    @pytest.mark.parametrize("bank", BANKS, ids=lambda b: b.name)
    def test_single_loop_strictly_cheaper_than_separable_lifting(self, bank):
        sweep = get_kernel("single-loop").level_cost(64, 64, bank)
        separable = get_kernel("lifting").level_cost(64, 64, bank)
        assert sweep.flops < separable.flops
        assert sweep.memops < separable.memops

    def test_level_cost_rejects_odd_input(self):
        with pytest.raises(ConfigurationError):
            get_kernel("lifting").level_cost(33, 32, haar_filter())
