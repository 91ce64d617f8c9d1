import math

import numpy as np
import pytest

from fanbeam import (
    STANDARD,
    LinearFanSinogram,
    ParallelSinogram,
    StandardFanSinogram,
    adjoint_rebin_linear,
    adjoint_rebin_standard,
    analytic_radon,
    backproject,
    backproject_linear_fan,
    backproject_standard_fan,
    bst_backproject,
    calibration_disk,
    fbp_linear_pipeline,
    fbp_normalization,
    linear_fan_backproject,
    ramp_filter,
    rasterize,
    rebin_to_standard,
    standard_fan_backproject,
)

from conftest import rel_l2


class TestRampFilter:
    def test_dc_bin_killed_on_padded_window(self, parallel128):
        # the |sigma| multiplier zeroes the padded-grid DC bin: the
        # full-length filtered signal integrates to zero per projection,
        # and ramp_filter returns its crop
        from scipy import fft as sfft

        n_t = parallel128.n_t
        dt = 2.0 / (n_t - 1)
        length = sfft.next_fast_len(2 * n_t, real=True)
        sigma = 2 * math.pi * np.arange(length // 2 + 1) / (length * dt)
        mult = np.where(sigma <= math.pi / dt, sigma, 0.0)
        assert mult[0] == 0.0
        full = sfft.irfft(sfft.rfft(parallel128.data, n=length, axis=1) * mult[None, :], n=length, axis=1)
        scale = np.abs(full).max()
        np.testing.assert_allclose(full.sum(axis=1), 0.0, atol=1e-10 * scale)
        out = ramp_filter(parallel128)
        np.testing.assert_allclose(out.data, full[:, :n_t], atol=1e-12 * scale)

    def test_sinusoid_scaled_by_its_frequency(self):
        n_t = 256
        t = np.linspace(-1, 1, n_t)
        dt = 2 / (n_t - 1)
        from scipy.fft import next_fast_len

        length = next_fast_len(2 * n_t, real=True)
        sigma0 = 2 * math.pi * 40 / (length * dt)  # exact padded-grid bin
        p = ParallelSinogram(np.tile(np.sin(sigma0 * (t + 1.0)), (4, 1)))
        out = ramp_filter(p)
        mid = slice(n_t // 3, 2 * n_t // 3)
        expected = sigma0 * p.data[0, mid]
        np.testing.assert_allclose(out.data[0, mid], expected, atol=0.02 * sigma0)

    def test_linearity(self):
        rng = np.random.default_rng(41)
        a, b = rng.standard_normal((8, 65)), rng.standard_normal((8, 65))
        combo = ramp_filter(ParallelSinogram(1.5 * a - 2.0 * b)).data
        parts = 1.5 * ramp_filter(ParallelSinogram(a)).data - 2.0 * ramp_filter(ParallelSinogram(b)).data
        np.testing.assert_allclose(combo, parts, atol=1e-12 * np.abs(parts).max())

    def test_cutoff_option(self, parallel128):
        full = ramp_filter(parallel128)
        cut = ramp_filter(parallel128, cutoff_fraction=0.5)
        assert not np.allclose(full.data, cut.data)
        with pytest.raises(ValueError):
            ramp_filter(parallel128, cutoff_fraction=0.0)


class TestFbpPipeline:
    def test_normalization_near_continuum_constant(self, geom):
        c = fbp_normalization(geom, "bessel")
        assert c == pytest.approx(1.0 / (4 * math.pi), rel=0.15)

    def test_calibration_disk_center(self, geom):
        n = 256
        p = analytic_radon(calibration_disk(), n, n)
        rec = fbp_linear_pipeline(p, geom, n).data
        center = rec[n // 2 - 1 : n // 2 + 1, n // 2 - 1 : n // 2 + 1].mean()
        assert center == pytest.approx(1.0, abs=0.05)

    def test_zero_sinogram_reconstructs_zero(self, geom):
        p = ParallelSinogram(np.zeros((64, 64)))
        rec = fbp_linear_pipeline(p, geom, 64)
        np.testing.assert_allclose(rec.data, 0.0, atol=1e-12)

    def test_routes_agree_and_profile_matches(self, geom, phantom):
        n = 256
        p = analytic_radon(phantom, n, n)
        a = fbp_linear_pipeline(p, geom, n, route="bessel").data
        b = fbp_linear_pipeline(p, geom, n, route="rebin-bst").data
        assert rel_l2(a, b) < 0.05
        row = int(n * (1 + 0.12) / 2)  # the x2 = 0.12 comparison row
        span = b[row].max() - b[row].min()
        assert np.abs(a[row] - b[row]).max() / span < 0.03

    def test_unknown_route_rejected(self, geom, parallel128):
        with pytest.raises(ValueError):
            fbp_linear_pipeline(parallel128, geom, 64, route="magic")

    @pytest.mark.parametrize("route", ["bessel", "rebin-bst"])
    def test_standard_geometry_reconstruction_256(self, geom, phantom, route):
        # the standard-detector twin of acceptance criterion 5, same bounds
        n = 256
        scale = fbp_normalization(geom, route, detector=STANDARD)

        def recon(ellipses):
            w = rebin_to_standard(ramp_filter(analytic_radon(ellipses, n, n)), geom, n, n)
            return backproject(w, n, route).data * scale

        rec = recon(calibration_disk())
        center = rec[n // 2 - 1 : n // 2 + 1, n // 2 - 1 : n // 2 + 1].mean()
        assert center == pytest.approx(1.0, abs=0.05)
        assert rel_l2(recon(phantom), rasterize(phantom, n).data) < 0.15


class TestBackprojectDispatch:
    @pytest.mark.parametrize(
        "sinogram, direct, adjoint, series",
        [
            (StandardFanSinogram, backproject_standard_fan, adjoint_rebin_standard, standard_fan_backproject),
            (LinearFanSinogram, backproject_linear_fan, adjoint_rebin_linear, linear_fan_backproject),
        ],
        ids=["standard", "linear"],
    )
    def test_matches_route_composition(self, geom, sinogram, direct, adjoint, series):
        rng = np.random.default_rng(43)
        sino = sinogram(rng.standard_normal((24, 17)), geom)
        n = 16
        expected = {
            "direct": direct(sino, n),
            "rebin-bst": bst_backproject(adjoint(sino, 17, 48), n),
            "bessel": series(sino, n, eps=1e-6),
        }
        for method, img in expected.items():
            np.testing.assert_array_equal(backproject(sino, n, method, eps=1e-6).data, img.data)

    def test_unknown_method_rejected(self, linear128):
        with pytest.raises(ValueError, match="unknown backprojection method"):
            backproject(linear128, 16, "magic")
