"""Back-compat pins for the runtime-layer refactor.

The legacy drivers (``run_spmd_wavelet``, ``run_parallel_nbody``,
``run_parallel_pic``, ``run_with_recovery``) became thin wrappers over
:mod:`repro.runtime`.  The sha256 digests below were captured from the
pre-refactor drivers on identical inputs; a digest mismatch means the
refactor changed an observable result byte and must be treated as a
regression, not re-pinned.
"""

import numpy as np
import pytest

from tests._digest_util import digest, run_result_digest
from repro.data import landsat_like_scene, plummer_sphere, uniform_cube
from repro.errors import ConfigurationError, DecompositionError
from repro.machines import paragon, t3d
from repro.machines.faults import FaultPlan, run_with_recovery
from repro.nbody import run_parallel_nbody
from repro.pic import Grid3D, run_parallel_pic
from repro.runtime import JobSpec, RunOptions, execute, launch, program_names
from repro.wavelet import filter_bank_for_length
from repro.wavelet.parallel import run_spmd_wavelet
from repro.wavelet.parallel.decomposition import StripeDecomposition
from repro.wavelet.parallel.spmd import striped_wavelet_program
from repro.workload import nas_suite

WAVELET_STRIPED = "d3be181e785b0743fc27ab1091bd36bc87441920eb4833b50367d0a138168033"
WAVELET_STRIPED_PYR = "6ba270725d67d6b761be546ea01930b77b07d56aef0f3a890ed3ec73e2de8324"
WAVELET_BLOCK_LIFTING = (
    "d38fecd691d7643d3e8620fbc06236fa894cab3e4e955cfa2e363c32954906ba"
)
NBODY_MW = "ab2f4ace55a6717c129a89269e31413d0032d484a379b80cc3378f4138f3d490"
PIC = "15d467737f8c8e9bebb29cf4317a18a583d18a47d48970c7d7bb03f52b8de2df"
RECOVERY = "a420a99f28b0fc3a8e3aa188562fe06d05afadcbbf8e6f24e0c62b4cbb378fcf"


@pytest.fixture(scope="module")
def image():
    return landsat_like_scene((64, 64))


@pytest.fixture(scope="module")
def bank():
    return filter_bank_for_length(4)


class TestDriverDigests:
    def test_wavelet_striped(self, image, bank):
        outcome = run_spmd_wavelet(paragon(8), image, bank, 2)
        assert run_result_digest(outcome.run) == WAVELET_STRIPED
        pyr = outcome.pyramid
        assert (
            digest(
                {
                    "a": pyr.approximation,
                    "d": [(t.lh, t.hl, t.hh) for t in pyr.details],
                }
            )
            == WAVELET_STRIPED_PYR
        )

    def test_wavelet_block_lifting(self, image, bank):
        outcome = run_spmd_wavelet(
            paragon(8), image, bank, 2, decomposition="block", kernel="lifting"
        )
        assert run_result_digest(outcome.run) == WAVELET_BLOCK_LIFTING

    def test_nbody_manager_worker(self):
        particles = plummer_sphere(96, dim=2, seed=3)
        outcome = run_parallel_nbody(paragon(4), particles, steps=2)
        assert run_result_digest(outcome.run) == NBODY_MW

    def test_pic(self):
        particles = uniform_cube(256, thermal_speed=0.05, seed=1)
        outcome = run_parallel_pic(
            t3d(4), Grid3D(8), particles, steps=2, collect=False
        )
        assert run_result_digest(outcome.run) == PIC

    def test_recovery(self, image, bank):
        reference = run_spmd_wavelet(paragon(8), image, bank, 2)
        plan = FaultPlan.sampled(7, 4, 0.2, t_horizon=reference.run.elapsed_s)
        outcome = run_with_recovery(
            paragon(4),
            striped_wavelet_program,
            image,
            bank,
            2,
            StripeDecomposition(64, 64, 4, 2),
            faults=plan,
            checkpoint_interval=1,
        )
        assert run_result_digest(outcome.run) == RECOVERY
        assert outcome.restarts == 1
        assert outcome.total_virtual_s == pytest.approx(
            0.047310696407658615, rel=0, abs=0
        )


class TestJobSpecEquivalence:
    """A JobSpec through execute/launch equals the legacy wrapper call."""

    def test_execute_matches_wrapper(self, image, bank):
        spec = JobSpec(
            program="wavelet",
            params={"image": image, "bank": bank, "levels": 2},
        )
        execution = execute(paragon(8), spec)
        assert run_result_digest(execution.run) == WAVELET_STRIPED

    def test_launch_resolves_named_machine(self, image, bank):
        spec = JobSpec(
            program="wavelet",
            params={"image": image, "bank": bank, "levels": 2},
            options=RunOptions(machine="paragon", nranks=8),
        )
        assert run_result_digest(launch(spec).run) == WAVELET_STRIPED


class TestRegistryValidation:
    def test_builtins_registered(self):
        assert set(program_names()) >= {"wavelet", "nbody", "pic", "workload"}

    def test_unknown_program_rejected(self):
        with pytest.raises(ConfigurationError):
            launch(JobSpec(program="fft", options=RunOptions(machine="workstation")))

    def test_kernel_rejected_off_wavelet(self):
        particles = plummer_sphere(16, dim=2, seed=0)
        spec = JobSpec(
            program="nbody",
            params={"particles": particles, "steps": 1},
            options=RunOptions(machine="paragon", nranks=2, kernel="lifting"),
        )
        with pytest.raises(ConfigurationError):
            launch(spec)

    def test_checkpointing_rejected_off_striped(self, image, bank):
        spec = JobSpec(
            program="wavelet",
            params={"image": image, "bank": bank, "levels": 1},
            options=RunOptions(
                machine="paragon",
                nranks=4,
                decomposition="block",
                checkpoint_interval=1,
            ),
        )
        with pytest.raises(ConfigurationError):
            launch(spec)

    def test_unset_machine_rejected(self, image, bank):
        spec = JobSpec(
            program="wavelet", params={"image": image, "bank": bank, "levels": 1}
        )
        with pytest.raises(ConfigurationError):
            launch(spec)

    @pytest.mark.parametrize(
        "change",
        [
            pytest.param({"levels": 2.5}, id="levels-2.5"),
            pytest.param({"levels": 1.9}, id="levels-1.9"),
            pytest.param({"image": np.zeros(64)}, id="1d-image"),
            pytest.param({"image": np.zeros((64, 64, 2))}, id="3d-image"),
            pytest.param({"bank": "daub4"}, id="bank-name"),
            pytest.param({"levels": None}, id="missing-levels"),
        ],
    )
    def test_bad_wavelet_params_are_configuration_errors(self, image, bank, change):
        params = {"image": image, "bank": bank, "levels": 1, **change}
        spec = JobSpec(
            program="wavelet",
            params={key: value for key, value in params.items() if value is not None},
            options=RunOptions(machine="paragon", nranks=4),
        )
        with pytest.raises(ConfigurationError):
            launch(spec)

    @pytest.mark.parametrize(
        "program, params",
        [
            pytest.param(
                "nbody",
                {"particles": plummer_sphere(16, dim=2, seed=0), "steps": 1.5},
                id="nbody-steps",
            ),
            pytest.param(
                "pic",
                {
                    "grid": Grid3D(8),
                    "particles": uniform_cube(64, thermal_speed=0.05, seed=1),
                    "steps": 1.5,
                },
                id="pic-steps",
            ),
            pytest.param(
                "workload", {"trace": nas_suite(0.05)[0], "repeats": 1.5}, id="workload-repeats"
            ),
        ],
    )
    def test_fractional_counts_are_rejected_not_truncated(self, program, params):
        spec = JobSpec(
            program=program, params=params, options=RunOptions(machine="paragon", nranks=2)
        )
        with pytest.raises(ConfigurationError, match="integer"):
            launch(spec)

    @pytest.mark.parametrize("nranks,levels", [(6, 1), (8, 4)])
    def test_bad_decomposition_is_a_configuration_error(self, image, bank, nranks, levels):
        """64 rows do not split into 6 stripes, nor into 8 stripes of 2**4."""
        spec = JobSpec(
            program="wavelet",
            params={"image": image, "bank": bank, "levels": levels},
            options=RunOptions(machine="paragon", nranks=nranks),
        )
        with pytest.raises(ConfigurationError) as excinfo:
            launch(spec)
        assert isinstance(excinfo.value, DecompositionError)
