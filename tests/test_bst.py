import math

import numpy as np
import pytest

from fanbeam import (
    Ellipse,
    ParallelSinogram,
    PolarSpectrum,
    analytic_radon,
    backproject_parallel,
    bst,
    bst_backproject,
    polar_to_cartesian,
)

from conftest import disk_mask, rel_l2
from oracles import polar_to_cartesian_full_plane


def random_ellipse_phantom(seed, count=5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        r = rng.uniform(0.08, 0.3)
        c = rng.uniform(-0.55, 0.55, size=2)
        norm = math.hypot(*c)
        if norm + r > 0.95:
            c *= (0.95 - r) / norm
        out.append(Ellipse(tuple(c), (r, r * rng.uniform(0.5, 1.0)), rng.uniform(0, math.pi), rng.uniform(0.3, 1.0)))
    return out


class TestBstBackproject:
    def test_unit_disk_is_radial_with_central_max(self):
        p = analytic_radon([Ellipse((0, 0), (1, 1))], 128, 128)
        img = bst_backproject(p, 128).data
        n = 128
        assert img.argmax() in (n // 2 * n + n // 2 - 1, n // 2 * n + n // 2,
                                (n // 2 - 1) * n + n // 2 - 1, (n // 2 - 1) * n + n // 2)
        # radial symmetry: compare against the 90-degree rotation
        assert rel_l2(np.rot90(img), img) < 5e-3

    def test_zero_input_zero_output(self):
        p = ParallelSinogram(np.zeros((32, 33)))
        img = bst_backproject(p, 32)
        np.testing.assert_allclose(img.data, 0.0, atol=1e-14)

    def test_matches_direct_backprojection(self):
        p = analytic_radon(random_ellipse_phantom(42), 128, 128)
        fast = bst_backproject(p, 128).data
        ref = backproject_parallel(p, 128).data
        assert rel_l2(fast, ref) < 0.05

    def test_linearity(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((32, 33))
        b = rng.standard_normal((32, 33))
        alpha, beta = 1.7, -0.4
        combo = bst_backproject(ParallelSinogram(alpha * a + beta * b), 32).data
        parts = alpha * bst_backproject(ParallelSinogram(a), 32).data + beta * bst_backproject(ParallelSinogram(b), 32).data
        scale = np.abs(parts).max()
        np.testing.assert_allclose(combo, parts, atol=1e-10 * scale)

    def test_dc_neutrality(self):
        # mean-subtracted input plus the mass restore reproduces the
        # direct route's disk mean
        p = analytic_radon(random_ellipse_phantom(3), 64, 64)
        ref = backproject_parallel(p, 64).data
        img = bst_backproject(p, 64).data
        m = disk_mask(64, 1.0)
        assert img[m].mean() == pytest.approx(ref[m].mean(), rel=5e-3)


class TestPolarToCartesian:
    def test_constant_spectrum_on_annulus(self):
        spec = PolarSpectrum(np.ones((64, 33), dtype=complex), sigma_max=16.0)
        grid = polar_to_cartesian(spec, 16, step=1.0)
        m = np.arange(16) - 8
        k1, k2 = np.meshgrid(m, m, indexing="xy")
        sigma = np.hypot(k1, k2)
        annulus = (sigma > 0.5) & (sigma < 15.5) & (k1 > -8) & (k2 > -8)
        np.testing.assert_allclose(grid[annulus].real, 1.0, atol=1e-12)
        np.testing.assert_allclose(grid[sigma > 16.0], 0.0, atol=1e-14)

    def test_hermitian_symmetry_enforced(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal((64, 33)) + 1j * rng.standard_normal((64, 33))
        spec = PolarSpectrum(data, sigma_max=20.0)
        n = 24
        grid = polar_to_cartesian(spec, n, step=1.0)
        flipped = np.roll(np.roll(grid[::-1, ::-1], 1, axis=0), 1, axis=1)
        np.testing.assert_allclose(grid, np.conj(flipped), atol=1e-12)

    def test_ring_impulse_maps_to_cartesian_ring(self):
        n_sigma = 33
        data = np.zeros((128, n_sigma), dtype=complex)
        k0 = 10
        data[:, k0] = 1.0
        spec = PolarSpectrum(data, sigma_max=float(n_sigma - 1))
        grid = polar_to_cartesian(spec, 40, step=1.0)
        m = np.arange(40) - 20
        k1, k2 = np.meshgrid(m, m, indexing="xy")
        sigma = np.hypot(k1, k2)
        # on-ring samples keep the impulse, samples a full bin away drop it
        on_ring = np.isclose(sigma, k0, atol=1e-9)
        assert on_ring.any()
        np.testing.assert_allclose(grid[on_ring].real, 1.0, atol=1e-9)
        off_ring = (np.abs(sigma - k0) >= 1.0) & (sigma < n_sigma - 2)
        np.testing.assert_allclose(grid[off_ring], 0.0, atol=1e-9)


class TestCachedResampling:
    @pytest.mark.parametrize("n", [24, 25])
    @pytest.mark.parametrize("n_theta", [64, 63])
    def test_matches_full_plane_formula(self, n, n_theta):
        # the disk sigma <= 14 ends inside the grid, so its edge is sampled too
        rng = np.random.default_rng(1000 * n + n_theta)
        data = rng.standard_normal((n_theta, 33)) + 1j * rng.standard_normal((n_theta, 33))
        ref = polar_to_cartesian_full_plane(data, 14.0, n, 1.0)
        grid = polar_to_cartesian(PolarSpectrum(data, sigma_max=14.0), n, step=1.0)
        assert np.linalg.norm(grid - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_second_call_with_same_shape_is_a_cache_hit(self):
        bst._quarter_plane_operator.cache_clear()
        data = np.ones((32, 17), dtype=complex)
        polar_to_cartesian(PolarSpectrum(data, sigma_max=8.0), 16, step=1.0)
        polar_to_cartesian(PolarSpectrum(2.0 * data, sigma_max=8.0), 16, step=1.0)
        info = bst._quarter_plane_operator.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_spectrum_to_image_resolves_module_global(self, monkeypatch):
        # a tracer that rebinds bst.polar_to_cartesian must see every call
        calls = []
        original = bst.polar_to_cartesian

        def counting(spectrum, n, step=math.pi):
            calls.append(n)
            return original(spectrum, n, step=step)

        monkeypatch.setattr(bst, "polar_to_cartesian", counting)
        bst_backproject(analytic_radon([Ellipse((0, 0), (0.5, 0.5))], 16, 16), 16)
        assert calls == [32]
