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
    image_coords,
    polar_to_cartesian,
)
from fanbeam._dc import _disk_columns, disk_integral_target, restore_dc

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


def test_fast_len_matches_scipy():
    # the FFT lengths fix the images bit for bit
    from scipy.fft import next_fast_len

    assert [bst._fast_len(m) for m in range(1, 5001)] == [next_fast_len(m, real=True) for m in range(1, 5001)]


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


def half_plane_k(n, step=1.0):
    """(k1, k2) of every node of polar_to_cartesian's (n, n//2 + 1) half plane."""
    m2 = np.arange(n)
    m2 = np.where(m2 < n - n // 2, m2, m2 - n)
    return np.meshgrid(step * np.arange(n // 2 + 1), step * m2, indexing="xy")


def full_to_half(grid):
    """The k1 >= 0 half of a centred n x n grid, in FFT row order."""
    n = grid.shape[0]
    return np.fft.ifftshift(grid)[:, : n // 2 + 1]


class TestPolarToCartesian:
    def test_constant_spectrum_on_annulus(self):
        spec = PolarSpectrum(np.ones((64, 33), dtype=complex), sigma_max=16.0)
        grid = polar_to_cartesian(spec, 16, step=1.0)
        assert grid.shape == (16, 9)
        k1, k2 = half_plane_k(16)
        sigma = np.hypot(k1, k2)
        # the k = n/2 lines hold no samples
        annulus = (sigma > 0.5) & (sigma < 15.5) & (k1 < 8) & (k2 > -8)
        np.testing.assert_allclose(grid[annulus].real, 1.0, atol=1e-12)
        np.testing.assert_allclose(grid[sigma > 16.0], 0.0, atol=1e-14)

    def test_hermitian_symmetry_enforced(self):
        # the k1 = 0 column is its own mirror: half[-m] == conj(half[m])
        rng = np.random.default_rng(21)
        data = rng.standard_normal((64, 33)) + 1j * rng.standard_normal((64, 33))
        spec = PolarSpectrum(data, sigma_max=20.0)
        for n in (24, 25):
            half = polar_to_cartesian(spec, n, step=1.0)
            column = half[:, 0]
            np.testing.assert_allclose(np.roll(column[::-1], 1), np.conj(column), atol=1e-12)
            if n % 2 == 0:
                assert np.all(half[n // 2] == 0.0)
                assert np.all(half[:, n // 2] == 0.0)

    def test_ring_impulse_maps_to_cartesian_ring(self):
        n_sigma = 33
        data = np.zeros((128, n_sigma), dtype=complex)
        k0 = 10
        data[:, k0] = 1.0
        spec = PolarSpectrum(data, sigma_max=float(n_sigma - 1))
        grid = polar_to_cartesian(spec, 40, step=1.0)
        k1, k2 = half_plane_k(40)
        sigma = np.hypot(k1, k2)
        # on-ring samples keep the impulse, samples a full bin away drop it
        on_ring = np.isclose(sigma, k0, atol=1e-9)
        assert on_ring.any()
        np.testing.assert_allclose(grid[on_ring].real, 1.0, atol=1e-9)
        off_ring = (np.abs(sigma - k0) >= 1.0) & (sigma < n_sigma - 2)
        np.testing.assert_allclose(grid[off_ring], 0.0, atol=1e-9)

    def test_odd_angle_count_rejected(self):
        # a theta + pi partner must be a row of the polar grid
        rng = np.random.default_rng(63)
        with pytest.raises(ValueError, match="even number of angles"):
            polar_to_cartesian(PolarSpectrum(np.ones((63, 33), dtype=complex), sigma_max=14.0), 24, step=1.0)
        odd = ParallelSinogram(rng.standard_normal((63, 33)), theta_span=2 * math.pi)
        with pytest.raises(ValueError, match="even number of angles"):
            bst_backproject(odd, 32)


class TestPolarRows:
    @pytest.mark.parametrize("n_theta", [2, 4, 6, 8, 10, 64])
    def test_views_match_the_index_definition(self, n_theta):
        # the angle indices of the quarter plane need at most n_theta/4 + 2 rows
        rng = np.random.default_rng(n_theta)
        data = rng.standard_normal((n_theta, 5)) + 1j * rng.standard_normal((n_theta, 5))
        for count in range(1, n_theta // 4 + 3):
            j = np.arange(count)
            for col, rows in enumerate((j, -j)):
                ref = data[rows % n_theta] + np.conj(data[(rows + n_theta // 2) % n_theta])
                np.testing.assert_array_equal(bst._rows(data, count)[:, :, col], ref)


class TestRestoreDc:
    @pytest.mark.parametrize("n", [1, 2, 3, 64, 127, 255, 1024])
    def test_row_ranges_pick_the_disk_mask(self, n):
        x1, x2 = image_coords(n)
        mask = x1**2 + x2**2 <= 1.0
        lo = _disk_columns(n)
        ranges = np.arange(n)[None, :] >= lo[:, None]
        ranges &= np.arange(n)[None, :] < (n - lo)[:, None]
        np.testing.assert_array_equal(ranges, mask)

    def test_disk_integral_matches_target(self):
        rng = np.random.default_rng(17)
        n = 96
        p = ParallelSinogram(rng.standard_normal((64, 48)), theta_span=2 * math.pi)
        img = rng.standard_normal((n, n))
        out = restore_dc(img, disk_integral_target(p.data, p.t_grid, 2.0 * math.pi / 64 * 2.0 / 47))
        x1, x2 = image_coords(n)
        mask = x1**2 + x2**2 <= 1.0
        offset = out - img
        assert np.ptp(offset) < 1e-12
        target = 2.0 * math.pi / 64 * 2.0 / 47 * np.sum(p.data * 2.0 * np.sqrt(np.maximum(1.0 - p.t_grid**2, 0.0)))
        assert (2.0 / n) ** 2 * out[mask].sum() == pytest.approx(target, rel=1e-12)


class TestCachedResampling:
    @pytest.mark.parametrize("n", [24, 25])
    @pytest.mark.parametrize("n_theta", [64])
    def test_matches_full_plane_formula(self, n, n_theta):
        # the disk sigma <= 14 ends inside the grid, so its edge is sampled too
        rng = np.random.default_rng(1000 * n + n_theta)
        data = rng.standard_normal((n_theta, 33)) + 1j * rng.standard_normal((n_theta, 33))
        ref = full_to_half(polar_to_cartesian_full_plane(data, 14.0, n, 1.0))
        grid = polar_to_cartesian(PolarSpectrum(data, sigma_max=14.0), n, step=1.0)
        assert np.linalg.norm(grid - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [24, 25])
    def test_spectrum_to_image_matches_full_plane_inverse(self, n):
        # whole-plane reference: centred resampling, the same phase, a
        # complex 2-D inverse FFT over the padded grid, then crop and scale
        rng = np.random.default_rng(n)
        data = rng.standard_normal((64, 4 * n)) + 1j * rng.standard_normal((64, 4 * n))
        sigma_max = math.pi * n / 2
        n2, h = 2 * n, 2.0 / n
        step = 2 * math.pi / (n2 * h)
        x0 = -1.0 + h / 2 - (n // 2) * h
        phase = np.exp(1j * step * (np.arange(n2) - n2 // 2) * x0)
        grid = polar_to_cartesian_full_plane(data, sigma_max, n2, step) * phase[:, None] * phase[None, :]
        full = np.fft.ifft2(np.fft.ifftshift(grid)) * (n2 * step / (2 * math.pi)) ** 2
        ref = full.real[n // 2 : n // 2 + n, n // 2 : n // 2 + n]
        img = bst.spectrum_to_image(PolarSpectrum(data, sigma_max), n)
        assert np.linalg.norm(img - ref) <= 1e-12 * np.linalg.norm(ref)

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
