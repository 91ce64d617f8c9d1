import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, jv

from fanbeam import (
    LinearFanSinogram,
    StandardFanSinogram,
    adjoint_rebin_linear,
    adjoint_rebin_standard,
    analytic_radon,
    backproject,
    backproject_linear_fan,
    backproject_standard_fan,
    bessel_table,
    bst_backproject,
    choose_truncation,
    evaluate_series,
    fourier_coefficients_gamma,
    linear_fan_backproject,
    make_fan_geometry,
    ramp_filter,
    rebin_to_linear,
    rebin_to_standard,
    shear_to_theta,
    shepp_logan_ellipses,
    standard_fan_backproject,
)
from fanbeam import series
from fanbeam.series import _bessel_matrix

from conftest import disk_mask, rel_l2
from oracles import (
    bessel_matrix_rescale_loop,
    bessel_power_series,
    interpolant_coefficients_quadrature,
    kernel_by_quadrature,
    series_image_dense,
    series_image_two_step,
    truncation_scan,
)


def circle_grid(m):
    return 2 * math.pi * np.arange(m) / m


class TestChooseTruncation:
    def test_zero_frequency(self, geom):
        assert choose_truncation(geom, 0.0, 1e-12) == 1

    def test_envelope_crossing_d_sigma_20(self, geom):
        # independent scan of the bound (x/2)^n / n! for x = 20
        n = choose_truncation(geom, 2.0, 1e-12)
        logs = np.arange(1, 400) * math.log(10.0) - gammaln(np.arange(1, 400) + 1.0)
        first = 1 + int(np.argmax((np.arange(1, 400) >= 10) & (logs < math.log(1e-12))))
        assert n == first
        assert n == 47

    def test_tail_below_eps(self, geom):
        for sigma_max, eps in ((2.0, 1e-12), (40.0, 1e-9), (200.0, 1e-6)):
            n = choose_truncation(geom, sigma_max, eps)
            x = geom.d * sigma_max
            ns = np.arange(n, n + 500)
            bound = np.exp(ns * math.log(x / 2.0) - gammaln(ns + 1.0))
            assert (bound < eps).all()

    @pytest.mark.parametrize("d", [1.05, 1.5, 3.0, 10.0, 50.0])
    def test_matches_envelope_scan(self, d):
        geom = make_fan_geometry(d)
        for n in (*range(2, 65), 96, 128, 256):
            for eps in (1e-3, 1e-6, 1e-9, 1e-12):
                assert choose_truncation(geom, math.pi * n / 2, eps) == truncation_scan(geom, math.pi * n / 2, eps)
        for sigma_max in np.linspace(0.0, 3.0, 61):
            assert choose_truncation(geom, sigma_max, 1e-9) == truncation_scan(geom, sigma_max, 1e-9)

    @pytest.mark.parametrize("sigma_max", [math.inf, -math.inf, math.nan, -3.0, -1e-300, 1e308])
    def test_bad_sigma_max_is_a_value_error(self, geom, sigma_max):
        with pytest.raises(ValueError, match="sigma_max"):
            choose_truncation(geom, sigma_max, 1e-9)

    @given(st.floats(min_value=1e-12, max_value=1e-3), st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_eps(self, eps, sigma_max):
        geom = make_fan_geometry(10.0)
        assert choose_truncation(geom, sigma_max, eps) >= choose_truncation(geom, sigma_max, 10 * eps)


class TestBesselTable:
    def test_low_order_values(self, geom):
        tab = bessel_table(geom, 3, [0.0, 0.2])
        assert tab[0, 0] == 1.0
        assert tab[1, 0] == 0.0
        assert tab[2, 0] == 0.0
        # J_1(2) from the power-series definition
        assert tab[1, 1] == pytest.approx(bessel_power_series(1, 2.0), abs=1e-13)
        assert tab[1, 1] == pytest.approx(0.5767248, abs=1e-7)

    def test_against_reference_routine(self, geom):
        # negative sigma too: the recurrence starts each column from |x|
        sig = np.concatenate([[0.0], np.geomspace(1e-3, 80.0, 40), -np.geomspace(1e-3, 80.0, 13)])
        tab = bessel_table(geom, 300, sig)
        ref = jv(np.arange(300)[:, None], (geom.d * sig)[None, :])
        np.testing.assert_allclose(tab, ref, atol=1e-12)

    def test_large_argument_regime(self, geom):
        sig = np.linspace(0.0, 400.0, 33)
        n_terms = 5500
        vals = _bessel_matrix(geom.d * sig, n_terms)
        sub = np.linspace(0, n_terms - 1, 25, dtype=int)
        ref = jv(sub[:, None], (geom.d * sig)[None, :])
        np.testing.assert_allclose(vals[sub], ref, atol=1e-12)

    @pytest.mark.parametrize("n_terms", [50, 300, 3000])
    def test_wide_argument_range(self, n_terms):
        # arguments from far below the lowest order to far above the highest: each
        # column starts from its own envelope, and no block overflows
        x = np.concatenate([[0.0], np.geomspace(1e-8, 2e5, 200)])
        vals = _bessel_matrix(x, n_terms)
        assert np.isfinite(vals).all()
        np.testing.assert_allclose(vals, jv(np.arange(n_terms)[:, None], x[None, :]), rtol=0, atol=1e-12)

    def test_tiny_arguments_take_the_leading_term(self):
        # the recurrence's first steps overflow below |x| ~ 2e-154; below 1e-8
        # J_n is its leading term (x/2)^n / n! to rounding, zero once that underflows
        tiny = np.finfo(np.float64).tiny
        x = np.geomspace(1e-308, 1e-100, 2000)
        x = np.concatenate([x, -x, [1e-9, -3e-9]])
        vals = _bessel_matrix(x, 4)
        assert np.isfinite(vals).all()
        for n in range(4):
            lead = np.array([float((mpmath.mpf(v) / 2) ** n / mpmath.factorial(n)) for v in x])
            normal = np.abs(lead) >= tiny
            np.testing.assert_allclose(vals[n, normal], lead[normal], rtol=1e-15, atol=0)
            assert not vals[n, ~normal].any()

    def test_no_subnormal_entries(self, geom):
        # a product over subnormal operands runs many times slower, and the
        # recurrence yields none
        n = 64
        tab = bessel_table(geom, choose_truncation(geom, math.pi * n / 2, 1e-9), math.pi * np.arange(n // 2 + 1))
        assert not np.any((tab != 0.0) & (np.abs(tab) < np.finfo(np.float64).tiny))

    def test_bound_and_layout(self, geom):
        tab = bessel_table(geom, 64, np.linspace(0, 30, 16))
        assert np.abs(tab).max() <= 1.0
        # nonnegative orders only, row n holding J_n; J_{-n} is folded into b_n upstream
        assert tab.shape == (64, 16)
        assert tab[0, 0] == 1.0 and not tab[1:, 0].any()

    @pytest.mark.parametrize(
        "x, n_terms",
        [
            (10.0 * math.pi * np.arange(33), 1100),  # the series' own radii at n = 64
            (np.concatenate([[0.0], np.geomspace(1e-2, 800.0, 40)]), 300),
            (np.linspace(0.0, 4000.0, 9), 5500),
        ],
    )
    def test_build_equals_rescale_loop(self, x, n_terms):
        # the same recurrence from the same starts: the loop's rescale never
        # fires; the build yields no subnormal value, and the loop's flush is a no-op
        vals = _bessel_matrix(x, n_terms)
        ref = bessel_matrix_rescale_loop(x, n_terms)
        ref[np.abs(ref) < np.finfo(np.float64).tiny] = 0.0
        np.testing.assert_array_equal(vals, ref)

    def test_recurrence_needs_no_rescale(self):
        # each column starts where J_n is below 1e-200, so no value of any block and no
        # normalisation sum grows past 2**720, far below the float limit 2**1023
        x = np.concatenate([[0.0], np.geomspace(1e-8, 1e6, 60), [1.0, 3.0, 31.0, 1024.0]])
        live = x[np.abs(x) >= series._LEADING_X]  # the columns _bessel_matrix runs the recurrence on
        largest = 0.0
        # every block, down from the highest start
        for _, raw, norm in series._miller_blocks(live, 10**7, series._start_orders(live)):
            largest = max(largest, np.abs(raw).max(), np.abs(norm).max())
        assert np.isfinite(largest) and largest <= 2.0**720

    def test_start_past_the_series_limit_is_refused(self):
        # the recurrence would start near order 1e9: about 1.4 us per order and column
        with pytest.raises(ValueError, match="series limit"):
            bessel_table(make_fan_geometry(10.0), 4, [1e8])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_is_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bessel_table(make_fan_geometry(10.0), 4, [1.0, bad])

    @pytest.mark.parametrize("d, n", [(1.05, 64), (1.05, 1024), (10.0, 64), (10.0, 1024)])
    def test_kernel_blocks_are_zero_above_each_start(self, d, n):
        # the kernel build multiplies a block only into the columns that start in or
        # above it, and takes the skipped columns as a prefix
        geom = make_fan_geometry(d)
        x = d * math.pi * np.arange(1, n // 2 + 1)
        starts = series._start_orders(x)
        assert np.all(np.diff(starts) >= 0)
        n_terms = choose_truncation(geom, math.pi * n / 2, 1e-9)
        for lo, raw, _ in series._miller_blocks(x, n_terms, starts):
            above = lo + np.arange(raw.shape[0])[:, None] > starts
            assert not raw[above].any()

    def test_recurrence_yields_no_subnormal_value(self):
        # nothing flushes them, and a product over subnormal operands runs many times
        # slower; in chunks, each with every order up to its highest start
        x = np.concatenate([[0.0], np.geomspace(1e-8, 2e5, 200)])
        tiny = np.finfo(np.float64).tiny
        for chunk in np.array_split(x, 20):
            top = series._start_orders(chunk[np.abs(chunk) >= series._LEADING_X]).max(initial=0)
            vals = np.abs(_bessel_matrix(chunk, int(top) + 1))
            assert not np.any((vals > 0.0) & (vals < tiny))


class TestCoefficients:
    def test_constant_field(self):
        m = 128
        Z = np.full((4, m), 3.0)
        b = fourier_coefficients_gamma(Z, circle_grid(m), 8)
        assert b.shape == (8, 4) and b.dtype == np.complex128
        np.testing.assert_allclose(b[0], 2 * math.pi * 3.0, atol=1e-12)
        np.testing.assert_allclose(b[1:], 0.0, atol=1e-12)

    def test_cosine_field_folds_to_zero(self):
        # Z = cos gamma: c_1 = c_-1 = 1/2, so b_1 = 2*pi*(1/2 - 1/2) = 0;
        # Z = sin gamma: c_1 = -i/2 = -c_-1, so b_1 = -2*pi*i
        m = 128
        gamma = circle_grid(m)
        b = fourier_coefficients_gamma(np.tile(np.cos(gamma), (3, 1)), gamma, 4)
        np.testing.assert_allclose(b, 0.0, atol=1e-12)
        b = fourier_coefficients_gamma(np.tile(np.sin(gamma), (3, 1)), gamma, 4)
        np.testing.assert_allclose(b[1], -2j * math.pi, atol=1e-12)
        np.testing.assert_allclose(b[[0, 2, 3]], 0.0, atol=1e-12)

    @pytest.mark.parametrize("n_gamma", [32, 45, 128])
    def test_support_grid_matches_interpolant_quadrature(self, geom, n_gamma):
        # on a support grid the coefficients are those of Z's linear
        # interpolant, zero outside the grid; the end hats are probed alone
        rng = np.random.default_rng(41)
        gamma = np.linspace(-geom.gamma_max, geom.gamma_max, n_gamma)
        Z = np.concatenate([rng.standard_normal((3, n_gamma)), np.eye(n_gamma)[[0, 1, n_gamma - 1]]])
        n_terms = choose_truncation(geom, math.pi * n_gamma / 2, 1e-9)
        b = fourier_coefficients_gamma(Z, gamma, n_terms)
        orders = np.arange(-(n_terms - 1), n_terms)
        ref = interpolant_coefficients_quadrature(Z, gamma, orders) / (2 * math.pi)
        # the fold b_n = 2*pi (c_n + (-1)^n c_{-n}) of the reference
        pos, neg = ref[:, n_terms - 1 :], ref[:, n_terms - 1 :: -1]
        b_ref = 2 * math.pi * (pos + np.where(np.arange(n_terms) % 2 == 0, 1.0, -1.0) * neg)
        b_ref[:, 0] = 2 * math.pi * pos[:, 0]
        assert np.abs(b.T - b_ref).max() <= 1e-12 * np.abs(b_ref).max()

    @pytest.mark.parametrize("grid", ["circle", "support"])
    def test_real_field_weights_match_dense_product(self, geom, grid):
        # a real field has exactly real b_n for even n and exactly imaginary
        # b_n for odd n, on either kind of grid
        rng = np.random.default_rng(37)
        m = 512
        gamma = circle_grid(m) if grid == "circle" else np.linspace(-geom.gamma_max, geom.gamma_max, m)
        Z = rng.standard_normal((7, m))
        n_terms = 101
        b = fourier_coefficients_gamma(Z, gamma, n_terms)
        assert b.shape == (n_terms, 7)
        assert not b[0::2].imag.any() and not b[1::2].real.any()
        tab = bessel_table(geom, n_terms, np.linspace(0.0, 20.0, 41))
        dense = (tab.T.astype(complex) @ b).T
        series = evaluate_series(b, tab)
        assert np.abs(series - dense).max() <= 1e-14 * np.abs(dense).max()

    def test_too_many_terms_rejected(self):
        with pytest.raises(ValueError, match="exceeds half the padded grid"):
            fourier_coefficients_gamma(np.ones((2, 64)), circle_grid(64), 64)

    @pytest.mark.parametrize("n_gamma, m", [(256, 128), (1, 1)])
    def test_grid_mismatch_rejected(self, n_gamma, m):
        # Z's gamma axis must be the grid, of at least two samples
        with pytest.raises(ValueError, match="samples along gamma"):
            fourier_coefficients_gamma(np.full((2, n_gamma), 3.0), circle_grid(m), 1)

    @pytest.mark.parametrize("grid", ["circle", "support"])
    def test_complex_field_rejected(self, geom, grid):
        m = 64
        gamma = circle_grid(m) if grid == "circle" else np.linspace(-geom.gamma_max, geom.gamma_max, m)
        with pytest.raises(ValueError, match="real"):
            fourier_coefficients_gamma(np.ones((2, m), dtype=complex), gamma, 8)


class TestSeriesBackprojection:
    def test_zero_sinogram(self, geom):
        w = StandardFanSinogram(np.zeros((32, 33)), geom)
        img = standard_fan_backproject(w, 32)
        np.testing.assert_allclose(img.data, 0.0, atol=1e-12)
        g = LinearFanSinogram(np.zeros((32, 33)), geom)
        img = linear_fan_backproject(g, 32)
        np.testing.assert_allclose(img.data, 0.0, atol=1e-12)

    def test_standard_matches_direct_oracle(self, standard128):
        fast = standard_fan_backproject(standard128, 128).data
        ref = backproject_standard_fan(standard128, 128).data
        assert rel_l2(fast, ref) < 0.05

    def test_linear_matches_direct_oracle(self, linear128):
        fast = linear_fan_backproject(linear128, 128).data
        ref = backproject_linear_fan(linear128, 128).data
        assert rel_l2(fast, ref) < 0.05

    def test_standard_matches_rebinning_route(self, standard128):
        fast = standard_fan_backproject(standard128, 128).data
        two = bst_backproject(adjoint_rebin_standard(standard128, 128, 256), 128).data
        assert rel_l2(fast, two) < 0.02

    def test_linear_profile_matches_rebinning_route(self, linear128):
        fast = linear_fan_backproject(linear128, 128).data
        two = bst_backproject(adjoint_rebin_linear(linear128, 128, 256), 128).data
        row = 64
        span = two[row].max() - two[row].min()
        assert np.abs(fast[row] - two[row]).max() / span < 0.03

    def test_linearity(self, geom):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((32, 33))
        b = rng.standard_normal((32, 33))
        wa = StandardFanSinogram(a, geom)
        wb = StandardFanSinogram(b, geom)
        wab = StandardFanSinogram(2.0 * a - 0.5 * b, geom)
        combo = standard_fan_backproject(wab, 32).data
        parts = 2.0 * standard_fan_backproject(wa, 32).data - 0.5 * standard_fan_backproject(wb, 32).data
        np.testing.assert_allclose(combo, parts, atol=1e-10 * np.abs(parts).max())

    def test_truncation_stability(self, geom, standard128):
        # doubling the number of series terms must not move the image
        img1 = standard_fan_backproject(standard128, 64, eps=1e-9).data
        n_terms = choose_truncation(geom, math.pi * 32, 1e-9)
        Z = shear_to_theta(standard128, 2 * standard128.n_beta)
        b1 = fourier_coefficients_gamma(Z, standard128.gamma_grid, n_terms)
        b2 = fourier_coefficients_gamma(Z, standard128.gamma_grid, 2 * n_terms)
        sigma = np.linspace(0, math.pi * 32, 129)
        s1 = evaluate_series(b1, bessel_table(geom, n_terms, sigma))
        s2 = evaluate_series(b2, bessel_table(geom, 2 * n_terms, sigma))
        assert np.abs(s1 - s2).max() <= 1e-6 * np.abs(s2).max()
        assert np.isfinite(img1).all()


def _disk_integral(img):
    n = img.shape[0]
    return (2.0 / n) ** 2 * img[disk_mask(n, 1.0)].sum()


class TestZeroFrequency:
    """The spectral routes' restored DC against the pixel-driven route, which restores none."""

    @pytest.mark.parametrize("route", ["bessel", "rebin-bst"])
    @pytest.mark.parametrize("n_beta", [16, 128])
    @pytest.mark.parametrize("detector", ["standard", "linear"])
    @pytest.mark.parametrize("d", [1.05, 10.0])
    def test_disk_integral_matches_direct(self, d, detector, n_beta, route, request):
        if route == "bessel" and d == 1.05 and n_beta == 16:
            # the fan-domain sum counts a cell once or twice by where its
            # symmetry partner falls, a count 16 views resolve coarsely
            # near the source: 3.4e-3 (standard) and 2.5e-3 (linear)
            request.applymarker(pytest.mark.xfail(strict=True, reason="fan-domain DC sum at 16 views"))
        n = 128
        p = analytic_radon(shepp_logan_ellipses(), n, n_beta)
        rebin = rebin_to_standard if detector == "standard" else rebin_to_linear
        sino = rebin(p, make_fan_geometry(d), n, n_beta)
        ref = _disk_integral(backproject(sino, n, "direct").data)
        assert abs(_disk_integral(backproject(sino, n, route).data) - ref) <= 2e-3 * abs(ref)

    @pytest.mark.parametrize("route", ["bessel", "rebin-bst"])
    def test_filtered_near_source(self, route, request):
        # ramp-filtered data on a linear detector at D = 1.05, where the
        # Jacobian steepens q towards |t| = 1; the reference is direct on a
        # 512-pixel image of the 64-sample sinogram, since direct's own disk
        # integral at 64 pixels is 16% off it
        if route == "rebin-bst":
            # its trapezoid on q's 64 uniform samples reads 54% off
            request.applymarker(pytest.mark.xfail(strict=True, reason="rebin-bst's DC sum on q's coarse samples"))
        n = 64
        p = ramp_filter(analytic_radon(shepp_logan_ellipses(), n, n))
        sino = rebin_to_linear(p, make_fan_geometry(1.05), n, n)
        ref = _disk_integral(backproject(sino, 8 * n, "direct").data)
        assert abs(_disk_integral(backproject(sino, n, route).data) - ref) <= 1e-2 * abs(ref)


def _phantom_sinograms(geom, n):
    p = analytic_radon(shepp_logan_ellipses(), n, n)
    return rebin_to_standard(p, geom, n, n), rebin_to_linear(p, geom, n, n)


class TestSeriesEvaluationGrid:
    """The series evaluated at sigma = k*pi only, through the cached kernel, then the detector-FFT back end."""

    # the change against the dense grid falls with n: about 4e-5 at n = 64, 6e-6 at n = 128
    @pytest.mark.parametrize("n, bound", [(63, 1e-4), (64, 1e-4), (127, 2e-5), (128, 2e-5)])
    def test_matches_dense_grid_reference(self, geom, n, bound):
        w, g = _phantom_sinograms(geom, n)
        ref = series_image_dense(w, n)
        img = standard_fan_backproject(w, n).data
        assert np.linalg.norm(img - ref) <= bound * np.linalg.norm(ref)
        ref = series_image_dense(g, n)
        img = linear_fan_backproject(g, n).data
        assert np.linalg.norm(img - ref) <= bound * np.linalg.norm(ref)

    @pytest.mark.parametrize("n", [32, 63, 64, 127, 128])
    def test_matches_two_step_reference(self, geom, n):
        # the cached kernel reassociates the series, so only rounding may differ
        w, g = _phantom_sinograms(geom, n)
        ref = series_image_two_step(w, n).data
        img = standard_fan_backproject(w, n).data
        assert np.linalg.norm(img - ref) <= 1e-13 * np.linalg.norm(ref)
        ref = series_image_two_step(g, n).data
        img = linear_fan_backproject(g, n).data
        assert np.linalg.norm(img - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_warm_call_hits_the_kernel_cache(self, geom, monkeypatch):
        n = 40
        w, _ = _phantom_sinograms(geom, n)
        calls = []
        for name in ("bessel_table", "fourier_coefficients_gamma", "evaluate_series"):

            def spy(*args, _fn=getattr(series, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(series, name, spy)
        series._series_kernel.cache_clear()
        cold = standard_fan_backproject(w, n).data
        # the kernel build folds the recurrence into K and forms no table
        assert calls == []
        calls.clear()
        warm = standard_fan_backproject(w, n).data
        info = series._series_kernel.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert calls == []
        np.testing.assert_array_equal(warm, cold)
        ref = series_image_two_step(w, n).data
        assert np.linalg.norm(warm - ref) <= 1e-13 * np.linalg.norm(ref)
        kernel = series._series_kernel(geom, choose_truncation(geom, math.pi * n / 2, 1e-9), n // 2 + 1, w.n_gamma)
        assert kernel.shape == (w.n_gamma, n // 2 + 1)
        assert kernel.dtype == np.complex128 and kernel.flags.c_contiguous
        assert not kernel.flags.writeable

    @pytest.mark.parametrize("n_gamma", [32, 45])
    @pytest.mark.parametrize("n", [32, 63, 64, 127, 128])
    def test_kernel_matches_dense_product(self, geom, monkeypatch, n, n_gamma):
        # the banded, half-height build against the dense, unbanded product
        # of the public functions; the build calls no FFT
        class NoFFT:
            def __getattr__(self, name):
                raise AssertionError(f"the kernel build called np.fft.{name}")

        n_terms = choose_truncation(geom, math.pi * n / 2, 1e-9)
        monkeypatch.setattr(series.np, "fft", NoFFT())
        series._series_kernel.cache_clear()
        kernel = series._series_kernel(geom, n_terms, n // 2 + 1, n_gamma)
        monkeypatch.undo()
        gamma = np.linspace(-geom.gamma_max, geom.gamma_max, n_gamma)
        dense = evaluate_series(
            fourier_coefficients_gamma(np.eye(n_gamma), gamma, n_terms),
            bessel_table(geom, n_terms, math.pi * np.arange(n // 2 + 1)),
        )
        assert np.abs(kernel - dense).max() <= 1e-12 * np.abs(dense).max()
        assert np.array_equal(kernel[::-1], np.conj(kernel))

    @pytest.mark.parametrize(
        "n, n_gamma, d",
        [
            *((n, n_gamma, d) for d in (10.0, 2.0)
              for n, n_gamma in ((64, 64), (64, 65), (128, 128), (128, 129), (256, 256), (256, 257),
                                 (1024, 1024), (1024, 1025))),
            # the nearest and the farthest source: the widest and the narrowest fan
            *((n, n_gamma, d) for d in (1.05, 50.0) for n, n_gamma in ((64, 64), (64, 65), (256, 256), (256, 257))),
        ],
    )
    def test_kernel_matches_quadrature(self, d, n, n_gamma):
        # the shipped kernel against a quadrature of its defining integral,
        # which shares no code with the series
        geom = make_fan_geometry(d)
        n_terms = choose_truncation(geom, math.pi * n / 2, 1e-9)
        kernel = series._series_kernel.__wrapped__(geom, n_terms, n // 2 + 1, n_gamma)
        ref = kernel_by_quadrature(geom.gamma_max, n_gamma, geom.d * math.pi * np.arange(n // 2 + 1))
        assert np.abs(kernel - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_build_holds_no_bessel_table(self, geom):
        # the recurrence is folded into K block by block, so the build's
        # peak stays below half of the table it never forms
        n = 512
        n_terms = choose_truncation(geom, math.pi * n / 2, 1e-9)
        tracemalloc.start()
        try:
            series._series_kernel.__wrapped__(geom, n_terms, n // 2 + 1, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * n_terms * (n // 2 + 1)

    @pytest.mark.parametrize("second", ["detector_count", "distance"])
    def test_kernel_key_follows_the_detector_grid(self, geom, second):
        # a kernel built for one gamma grid must never serve another
        n = 32
        p = analytic_radon(shepp_logan_ellipses(), n, n)
        other = (
            rebin_to_standard(p, geom, 45, n)
            if second == "detector_count"
            else rebin_to_standard(p, make_fan_geometry(4.0), n, n)
        )
        series._series_kernel.cache_clear()
        for w in (rebin_to_standard(p, geom, n, n), other):
            img = standard_fan_backproject(w, n).data
            ref = series_image_two_step(w, n).data
            assert np.linalg.norm(img - ref) <= 1e-13 * np.linalg.norm(ref)
        info = series._series_kernel.cache_info()
        assert (info.hits, info.misses) == (0, 2)
