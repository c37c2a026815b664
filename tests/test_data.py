"""Tests for the synthetic data generators."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.data import (
    ParticleSet,
    checkerboard,
    impulse_image,
    landsat_like_scene,
    plummer_sphere,
    two_galaxies,
    uniform_cube,
    uniform_disk,
)
from repro.errors import ConfigurationError


class TestLandsatScene:
    def test_shape_and_range(self):
        scene = landsat_like_scene((128, 128))
        assert scene.shape == (128, 128)
        assert scene.min() >= 0.0
        assert scene.max() <= 255.0

    def test_deterministic(self):
        a = landsat_like_scene((64, 64), seed=3)
        b = landsat_like_scene((64, 64), seed=3)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_output(self):
        a = landsat_like_scene((64, 64), seed=1)
        b = landsat_like_scene((64, 64), seed=2)
        assert np.abs(a - b).max() > 1.0

    def test_spatially_correlated(self):
        """Neighboring pixels must correlate far more than white noise."""
        scene = landsat_like_scene((256, 256))
        flat = scene - scene.mean()
        autocorr = (flat[:, :-1] * flat[:, 1:]).mean() / flat.var()
        assert autocorr > 0.8

    def test_tiny_shape_raises(self):
        with pytest.raises(ConfigurationError):
            landsat_like_scene((1, 10))

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_beta_raises(self, beta):
        with pytest.raises(ConfigurationError, match="beta"):
            landsat_like_scene((8, 8), beta=beta)

    @pytest.mark.parametrize("noise_floor", [float("nan"), float("inf"), -0.5])
    def test_bad_noise_floor_raises(self, noise_floor):
        with pytest.raises(ConfigurationError, match="noise_floor"):
            landsat_like_scene((8, 8), noise_floor=noise_floor)

    @pytest.mark.parametrize("shape", [(8,), (8, 8, 3), 8])
    def test_shape_not_two_dims_raises(self, shape):
        with pytest.raises(ConfigurationError, match="shape"):
            landsat_like_scene(shape)

    @pytest.mark.parametrize("shape", [(4.5, 8), (8, "8")])
    def test_non_integer_shape_raises(self, shape):
        with pytest.raises(ConfigurationError, match="shape"):
            landsat_like_scene(shape)

    def test_numpy_integer_shape_accepted(self):
        np.testing.assert_array_equal(
            landsat_like_scene((np.int64(16), np.int32(8))), landsat_like_scene((16, 8))
        )

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.complex128, bool])
    def test_non_floating_dtype_raises(self, dtype):
        with pytest.raises(ConfigurationError, match="dtype"):
            landsat_like_scene((8, 8), dtype=dtype)

    def test_traced_peak_within_bound(self):
        """The 2-D FFTs run one axis at a time and drop each input, so the
        peak is one complex input plus one complex output (4x the scene)."""
        tracemalloc.start()
        try:
            scene = landsat_like_scene((512, 512))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * scene.nbytes, peak / scene.nbytes

    #: sha256 of the scene's bytes.  Every Landsat-based artifact and every
    #: ``paragon-wavelet`` pin is computed from these scenes.
    PINS = {
        "default": "e3883dcfbd430fc9a781f842eb7e06e8cac523b5d13a6ad1e115ab063465fea8",
        "float32-100x37": "0d7fd0505f1580605967d7e3bd420a1c90ba824adfceb74d4171283e51428c04",
        "smallest": "c8cf430e4f62f8e4f762e2cea6164ab2c67f7ce49453ed914b46bd63644f3c1e",
        "beta-noise": "43449b8ebaec3ba93fadc9d9bc4e7fb593ae67e518faaab61d5652cec095827b",
    }

    @pytest.mark.parametrize(
        "case,shape,kwargs",
        [
            ("default", (512, 512), {}),
            ("float32-100x37", (100, 37), {"seed": 7, "dtype": np.float32}),
            ("smallest", (2, 2), {}),
            ("beta-noise", (64, 48), {"beta": 1.5, "noise_floor": 0.1, "seed": 11}),
        ],
    )
    def test_bytes_pinned(self, case, shape, kwargs):
        scene = landsat_like_scene(shape, **kwargs)
        assert scene.shape == shape
        assert scene.dtype == kwargs.get("dtype", np.float64)
        assert scene.flags.c_contiguous
        assert hashlib.sha256(scene.tobytes()).hexdigest() == self.PINS[case]

    def test_checkerboard_period(self):
        board = checkerboard((8, 8), period=2)
        assert board[0, 0] != board[0, 2]
        assert board[0, 0] == board[0, 4]

    def test_checkerboard_bad_period(self):
        with pytest.raises(ConfigurationError):
            checkerboard(period=0)

    def test_impulse_default_center(self):
        img = impulse_image((8, 8))
        assert img[4, 4] == 1.0
        assert img.sum() == 1.0

    def test_impulse_explicit_position(self):
        img = impulse_image((8, 8), at=(1, 2))
        assert img[1, 2] == 1.0


class TestParticleSet:
    def test_basic_properties(self):
        ps = uniform_cube(100, seed=0)
        assert ps.n == 100
        assert ps.dim == 3
        assert ps.total_mass == pytest.approx(1.0)

    def test_validation_velocity_shape(self):
        with pytest.raises(ConfigurationError):
            ParticleSet(np.zeros((4, 2)), np.zeros((3, 2)), np.ones(4))

    def test_validation_mass_shape(self):
        with pytest.raises(ConfigurationError):
            ParticleSet(np.zeros((4, 2)), np.zeros((4, 2)), np.ones(3))

    def test_subset(self):
        ps = uniform_cube(10, seed=0)
        sub = ps.subset(np.array([0, 5]))
        assert sub.n == 2
        np.testing.assert_array_equal(sub.positions[1], ps.positions[5])

    def test_copy_is_independent(self):
        ps = uniform_cube(10, seed=0)
        cp = ps.copy()
        cp.positions[0, 0] = 99.0
        assert ps.positions[0, 0] != 99.0

    def test_momentum_of_cold_start_is_zero(self):
        ps = uniform_cube(50, seed=0)
        np.testing.assert_allclose(ps.momentum(), 0.0)

    def test_kinetic_energy_nonnegative(self):
        ps = plummer_sphere(200, seed=0)
        assert ps.kinetic_energy() >= 0.0


class TestGenerators:
    def test_uniform_cube_in_bounds(self):
        ps = uniform_cube(500, extent=2.0, seed=1)
        assert ps.positions.min() >= 0.0
        assert ps.positions.max() < 2.0

    def test_uniform_cube_2d(self):
        assert uniform_cube(10, dim=2).dim == 2

    def test_uniform_cube_bad_dim(self):
        with pytest.raises(ConfigurationError):
            uniform_cube(10, dim=4)

    def test_uniform_disk_radius(self):
        ps = uniform_disk(500, radius=3.0, seed=1)
        radii = np.linalg.norm(ps.positions, axis=1)
        assert radii.max() <= 3.0

    def test_plummer_centrally_concentrated(self):
        """Plummer has strong density contrast: the median radius is well
        inside the maximum (the tree-code-friendly regime of Appendix B)."""
        ps = plummer_sphere(2000, seed=2)
        radii = np.linalg.norm(ps.positions, axis=1)
        assert np.median(radii) < 0.25 * radii.max()

    def test_plummer_virial_velocities_bounded(self):
        ps = plummer_sphere(1000, seed=3)
        speeds = np.linalg.norm(ps.velocities, axis=1)
        v_esc_center = np.sqrt(2.0)
        assert speeds.max() <= v_esc_center + 1e-9

    def test_plummer_cold(self):
        ps = plummer_sphere(100, virial=False, seed=4)
        assert ps.kinetic_energy() == 0.0

    def test_two_galaxies_total(self):
        ps = two_galaxies(1000, seed=5)
        assert ps.n == 1000
        assert ps.total_mass == pytest.approx(1.0)

    def test_two_galaxies_separated(self):
        ps = two_galaxies(1000, separation=6.0, seed=6)
        x = ps.positions[:, 0]
        # Two clusters around +-3.
        assert (x < -1).sum() > 300
        assert (x > 1).sum() > 300

    def test_two_galaxies_mass_ratio(self):
        ps = two_galaxies(300, mass_ratio=2.0, seed=7)
        assert ps.n == 300

    def test_bad_mass_ratio_raises(self):
        with pytest.raises(ConfigurationError):
            two_galaxies(10, mass_ratio=-1)

    def test_zero_particles_raise(self):
        with pytest.raises(ConfigurationError):
            uniform_cube(0)
