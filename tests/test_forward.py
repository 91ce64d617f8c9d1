import math

import numpy as np
import pytest

from fanbeam import (
    Ellipse,
    ParallelSinogram,
    analytic_radon,
    linear_to_standard,
    rebin_to_linear,
    rebin_to_standard,
    sample_parallel,
)


def consistent_smooth_sinogram(n):
    """C-infinity field satisfying the cylinder evenness p(t, th) = p(-t, th+pi)."""
    t = np.linspace(-1, 1, n)
    th = math.pi * np.arange(n) / n
    T, TH = np.meshgrid(t, th, indexing="xy")
    return ParallelSinogram((1 - T**2) ** 2 * (1 + 0.3 * np.cos(2 * TH)) + 0.2 * T * np.cos(TH) * (1 - T**2))


def test_sample_parallel_even_extension():
    p = consistent_smooth_sinogram(64)
    rng = np.random.default_rng(0)
    t = rng.uniform(-0.9, 0.9, 40)
    theta = rng.uniform(0, math.pi, 40)
    direct = sample_parallel(p, t, theta)
    flipped = sample_parallel(p, -t, theta + math.pi)
    np.testing.assert_allclose(direct, flipped, atol=1e-12)
    # outside the detector: zero
    assert sample_parallel(p, 1.5, 0.3) == 0.0


def test_rebin_constant_sinogram(geom):
    p = ParallelSinogram(np.ones((32, 32)))
    w = rebin_to_standard(p, geom, 16, 24)
    np.testing.assert_allclose(w.data, 1.0, atol=1e-12)
    g = rebin_to_linear(p, geom, 16, 24)
    np.testing.assert_allclose(g.data, 1.0, atol=1e-12)


def test_central_ray_matches_parallel(geom, parallel128):
    n = 33  # odd detector count puts gamma = 0 on the grid
    w = rebin_to_standard(parallel128, geom, n, 24)
    beta = w.beta_grid
    expected = sample_parallel(parallel128, np.zeros_like(beta), beta)
    np.testing.assert_allclose(w.data[:, n // 2], expected, atol=1e-12)
    g = rebin_to_linear(parallel128, geom, n, 24)
    np.testing.assert_allclose(g.data[:, n // 2], expected, atol=1e-12)


def test_unit_disk_fan_sinograms(geom):
    disk = [Ellipse((0, 0), (1, 1))]
    p = analytic_radon(disk, 512, 256)
    w = rebin_to_standard(p, geom, 64, 48)
    gamma = w.gamma_grid
    expected = 2 * np.sqrt(np.maximum(1 - (geom.d * np.sin(gamma)) ** 2, 0))
    np.testing.assert_allclose(w.data, np.broadcast_to(expected, w.data.shape), atol=2e-4)

    g = rebin_to_linear(p, geom, 64, 48)
    s = g.s_grid
    t = s * geom.d / np.hypot(s, geom.d)
    expected = 2 * np.sqrt(np.maximum(1 - t**2, 0))
    np.testing.assert_allclose(g.data, np.broadcast_to(expected, g.data.shape), atol=2e-4)
    # tangent rays at the detector edges
    np.testing.assert_allclose(g.data[:, 0], 0.0, atol=2e-4)
    np.testing.assert_allclose(g.data[:, -1], 0.0, atol=2e-4)


def test_round_trip_through_linear_geometry(geom):
    # rebin_to_standard vs L(rebin_to_linear): both approximate the same
    # change of variables; halving the spacing must shrink the gap at
    # second order (the two detector grids beat against each other, so
    # the clean ratio emerges at large n)
    errs = {}
    for n in (1024, 2048):
        p = consistent_smooth_sinogram(n)
        wa = rebin_to_standard(p, geom, n, n)
        wb = linear_to_standard(rebin_to_linear(p, geom, n, n), n)
        errs[n] = float(np.sqrt(np.mean((wa.data - wb.data) ** 2)))
    assert errs[1024] < 1e-5
    assert errs[1024] / errs[2048] >= 3.5


@pytest.mark.parametrize("n", [256, 512])
def test_fan_symmetry_on_rebinned_data(geom, phantom, n):
    from fanbeam import FanSampler

    p = analytic_radon(phantom, n, n)
    w = rebin_to_standard(p, geom, n, n)
    G, B = np.meshgrid(w.gamma_grid, w.beta_grid, indexing="xy")
    partner_beta = B + 2 * G + math.pi
    inside = partner_beta < geom.beta_span - 1e-9
    vals = FanSampler(w).sample(-G[inside], partner_beta[inside])
    rms = np.sqrt(np.mean((vals - w.data[inside]) ** 2)) / np.abs(w.data).max()
    assert rms < 1e-3

    g = rebin_to_linear(p, geom, n, n)
    S, B = np.meshgrid(g.s_grid, g.beta_grid, indexing="xy")
    partner_beta = B + 2 * np.arctan(S / geom.d) + math.pi
    inside = partner_beta < geom.beta_span - 1e-9
    vals = FanSampler(g).sample(-S[inside], partner_beta[inside])
    rms = np.sqrt(np.mean((vals - g.data[inside]) ** 2)) / np.abs(g.data).max()
    assert rms < 1e-3


def test_rebin_argument_validation(geom, parallel128):
    with pytest.raises(ValueError):
        rebin_to_standard(parallel128, geom, 1, 8)
    with pytest.raises(ValueError):
        rebin_to_linear(parallel128, geom, 8, 0)
