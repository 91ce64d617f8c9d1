import math
import tracemalloc

import numpy as np
import pytest

from fanbeam import (
    LINEAR,
    STANDARD,
    FanSampler,
    LinearFanSinogram,
    StandardFanSinogram,
    adjoint_rebin_linear,
    adjoint_rebin_standard,
    apply_tau,
    backproject,
    linear_to_standard,
    linear_to_standard_adjoint,
    make_fan_geometry,
    shear_to_theta,
)
from fanbeam._interp import bilinear
from fanbeam.rebinning import _THETA_BLOCK, _adjoint_rebin


class TestChangeOfVariables:
    # the change of variables t -> detector coordinate, held by the two detectors
    def test_closed_forms(self):
        t = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(STANDARD.det_of_t(t, 10.0), np.arcsin(t / 10))
        np.testing.assert_allclose(LINEAR.det_of_t(t, 10.0), t * 10 / np.sqrt(100 - t**2))
        assert (STANDARD.jacobian(t, 10.0) > 0).all() and (LINEAR.jacobian(t, 10.0) > 0).all()

    def test_jac_l_edge_value(self):
        expected = 1000.0 / 99.0**1.5
        assert LINEAR.jacobian(1.0, 10.0) == pytest.approx(expected, rel=1e-14)
        assert LINEAR.jacobian(-1.0, 10.0) == pytest.approx(expected, rel=1e-14)


class TestAdjointRebin:
    # the wrap row of few beta rows at a near source reads partners past the last stored row
    WRAP_CASES = pytest.mark.parametrize("d, n_beta", [(10.0, 48), (1.05, 8), (1.01, 16)])

    @WRAP_CASES
    def test_constant_standard_gives_jacobian(self, d, n_beta):
        geom = make_fan_geometry(d)
        w = StandardFanSinogram(np.ones((n_beta, 32)), geom)
        q = adjoint_rebin_standard(w, 25, 64)
        t = q.t_grid
        np.testing.assert_allclose(q.data, np.broadcast_to(1 / np.sqrt(geom.d**2 - t**2), q.data.shape), atol=1e-12)
        assert q.full_circle

    @WRAP_CASES
    def test_constant_linear_gives_jacobian(self, d, n_beta):
        geom = make_fan_geometry(d)
        g = LinearFanSinogram(np.ones((n_beta, 32)), geom)
        q = adjoint_rebin_linear(g, 25, 64)
        t = q.t_grid
        np.testing.assert_allclose(q.data, np.broadcast_to(geom.d**3 / (geom.d**2 - t**2) ** 1.5, q.data.shape), atol=1e-12)

    @WRAP_CASES
    @pytest.mark.parametrize("cls", [StandardFanSinogram, LinearFanSinogram])
    def test_sampler_wrap_row_of_a_constant(self, cls, d, n_beta):
        sampler = FanSampler(cls(np.ones((n_beta, 32)), make_fan_geometry(d)))
        np.testing.assert_allclose(sampler.ext[-1], 1.0, rtol=1e-14)

    def test_central_detector_column(self, geom, standard128):
        # gamma(0) = 0: the t = 0 column is w(0, theta)/D on the measured range
        q = adjoint_rebin_standard(standard128, 129, 2 * standard128.n_beta)
        theta = q.theta_grid
        inside = theta < geom.beta_span
        expected = FanSampler(standard128).sample(np.zeros(inside.sum()), theta[inside])
        np.testing.assert_allclose(q.data[inside, 64], expected / geom.d, atol=1e-10)

    def test_inverse_map_times_jacobian_structure(self, geom, standard128):
        # independently coded composition: adjoint == J_s(t) * w(gamma(t), theta - gamma(t))
        n_t, n2 = 65, 128
        q = adjoint_rebin_standard(standard128, n_t, n2)
        t = np.linspace(-1, 1, n_t)
        theta = 2 * math.pi * np.arange(n2) / n2
        gamma = np.arcsin(t / geom.d)
        beta = theta[:, None] - gamma[None, :]
        # restrict to samples strictly inside the stored rows, away from
        # the wrap row at beta_span
        beta_last = geom.beta_span * (standard128.n_beta - 1) / standard128.n_beta
        inside = (beta > 1e-9) & (beta < beta_last - 1e-9)
        dg = 2 * geom.gamma_max / (standard128.n_gamma - 1)
        db = geom.beta_span / standard128.n_beta
        direct = bilinear(
            standard128.data,
            np.where(inside, beta, 0.0) / db,
            np.broadcast_to((gamma + geom.gamma_max) / dg, beta.shape),
        ) / np.sqrt(geom.d**2 - t**2)[None, :]
        np.testing.assert_allclose(q.data[inside], direct[inside], atol=1e-12)


class TestPerColumnGather:
    # the fast routes' front end against the general 2-D lookup of the oracles
    @pytest.mark.parametrize("cls", [StandardFanSinogram, LinearFanSinogram])
    @pytest.mark.parametrize("d", [1.05, 2.0, 10.0, 50.0])
    @pytest.mark.parametrize("n_beta, n_det", [(31, 32), (48, 17)])
    def test_matches_fan_sampler(self, cls, d, n_beta, n_det):
        geom = make_fan_geometry(d)
        rng = np.random.default_rng(n_beta * n_det)
        sino = cls(rng.standard_normal((n_beta, n_det)), geom)
        n_theta2pi = 2 * _THETA_BLOCK + 45
        assert n_theta2pi % _THETA_BLOCK
        theta = 2 * math.pi * np.arange(n_theta2pi) / n_theta2pi
        for n_t in (24, 25):
            gamma = np.linspace(-geom.gamma_max, geom.gamma_max, n_t)
            for t in (np.linspace(-1.0, 1.0, n_t), d * np.sin(gamma)):
                scale = np.linspace(0.5, 2.0, n_t)
                got = _adjoint_rebin(sino, t, n_theta2pi, scale)
                det = sino.detector.det_of_t(t, d)
                ref = FanSampler(sino).sample(det, theta[:, None] - np.arcsin(t / d))
                ref *= sino.detector.jacobian(t, d) * scale
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("cls", [StandardFanSinogram, LinearFanSinogram])
    def test_fast_routes_never_call_the_oracle_sampler(self, geom, cls, monkeypatch):
        sino = cls(np.random.default_rng(5).standard_normal((32, 33)), geom)

        def refuse(self, det, beta):
            raise AssertionError("a fast route read the fan through FanSampler.sample")

        monkeypatch.setattr(FanSampler, "sample", refuse)
        for method in ("bessel", "rebin-bst"):
            assert np.isfinite(backproject(sino, 32, method).data).all()

    @pytest.mark.parametrize("front_end", ["shear", "adjoint"])
    def test_peak_memory(self, geom, front_end):
        # the blocks' temporaries stay small beside the output and the sinogram
        n = 512
        g = LinearFanSinogram(np.random.default_rng(9).standard_normal((n, n)), geom)
        run = (lambda: shear_to_theta(g, 2 * n)) if front_end == "shear" else (lambda: adjoint_rebin_linear(g, n, 2 * n))
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * (2 * n * n * 8 + g.data.nbytes)


class TestGeometrySwitch:
    def test_central_ray_and_constants(self, geom, linear128):
        # gamma = 0 samples s = 0, the exact midpoint of the even s grid
        w = linear_to_standard(linear128, 33)
        mid = 0.5 * (linear128.data[:, 63] + linear128.data[:, 64])
        np.testing.assert_allclose(w.data[:, 16], mid, atol=1e-12)
        ones = linear_to_standard(LinearFanSinogram(np.ones((16, 32)), geom), 21)
        np.testing.assert_allclose(ones.data, 1.0, atol=1e-12)

    def test_detector_endpoints_match(self, geom, linear128):
        # gamma = +-gamma_max maps exactly onto s = +-s_max
        w = linear_to_standard(linear128, 65)
        np.testing.assert_allclose(w.data[:, 0], linear128.data[:, 0], atol=1e-12)
        np.testing.assert_allclose(w.data[:, -1], linear128.data[:, -1], atol=1e-12)

    def test_apply_tau(self, geom):
        w = StandardFanSinogram(np.ones((8, 33)), geom)
        z = apply_tau(w)
        assert z.data[0, 16] == pytest.approx(geom.d)
        edge = geom.d / math.cos(geom.gamma_max) ** 2
        assert z.data[0, 0] == pytest.approx(edge, rel=1e-14)
        assert edge == pytest.approx(10 / 0.99, rel=1e-12)
        zero = apply_tau(StandardFanSinogram(np.zeros((8, 33)), geom))
        assert not zero.data.any()

    def test_tau_inverts_adjoint_weight(self, geom):
        # tau(gamma) == 1 / J(s(gamma)) with J the L* weight, to 1e-12
        gamma = np.linspace(-geom.gamma_max, geom.gamma_max, 101)
        s = geom.d * np.tan(gamma)
        jac = geom.d / (geom.d**2 + s**2)
        tau = geom.d / np.cos(gamma) ** 2
        np.testing.assert_allclose(tau * jac, 1.0, atol=1e-12)


class TestShear:
    def test_even_beta_independent_rows_broadcast(self, geom):
        gamma = np.linspace(-geom.gamma_max, geom.gamma_max, 33)
        profile = np.cos(5 * gamma)  # even in gamma: symmetry partner agrees
        z = StandardFanSinogram(np.tile(profile, (64, 1)), geom)
        Z = shear_to_theta(z, 128)
        np.testing.assert_allclose(Z, np.broadcast_to(profile, Z.shape), atol=1e-12)

    def test_central_column_unchanged(self, geom):
        # the gamma = 0 column is not sheared: it resamples the same
        # 1-D function of beta
        rng = np.random.default_rng(3)
        z = StandardFanSinogram(rng.standard_normal((64, 33)), geom)
        n2 = 256
        Z = shear_to_theta(z, n2)
        theta = 2 * math.pi * np.arange(n2) / n2
        inside = theta <= z.beta_grid[-1]
        expected = np.interp(theta[inside], z.beta_grid, z.data[:, 16])
        np.testing.assert_allclose(Z[inside, 16], expected, atol=1e-12)

    def test_one_hot_lands_on_sheared_angle(self, geom):
        n_beta, n_gamma = 64, 33
        data = np.zeros((n_beta, n_gamma))
        i0, j0 = 20, 8
        data[i0, j0] = 1.0
        z = StandardFanSinogram(data, geom)
        n2 = 256
        Z = shear_to_theta(z, n2)
        gamma = z.gamma_grid[j0]
        beta0 = z.beta_grid[i0]
        dtheta = 2 * math.pi / n2
        # column j0 is a tent in theta centered at beta0 + gamma
        center = (beta0 + gamma) / dtheta
        k = int(center)
        frac = center - k
        dbeta = geom.beta_span / n_beta
        expected = np.zeros(n2)
        expected[k] = 1.0 - frac * dtheta / dbeta
        expected[k + 1] = 1.0 - (1 - frac) * dtheta / dbeta
        np.testing.assert_allclose(Z[k : k + 2, j0], expected[k : k + 2], atol=1e-12)

    def test_linear_shear_matches_geometry_switch(self, geom):
        # the linear field reads g directly; it must equal the composition
        # L, tau, then the standard shear, except where either reads the
        # last beta cell, whose wrap rows differ (g's versus tau L g's)
        rng = np.random.default_rng(11)
        n_beta, n_s, n2 = 64, 45, 256
        g = LinearFanSinogram(rng.standard_normal((n_beta, n_s)), geom)
        Z = shear_to_theta(g, n2)
        ref = shear_to_theta(apply_tau(linear_to_standard(g, n_s)), n2)
        gamma = np.linspace(-geom.gamma_max, geom.gamma_max, n_s)
        theta = 2 * math.pi * np.arange(n2) / n2
        beta = np.mod(theta[:, None] - gamma[None, :], 2 * math.pi)
        read = np.where(beta > geom.beta_span, beta + 2 * gamma - math.pi, beta)
        keep = read < geom.beta_span * (n_beta - 1) / n_beta - 1e-9
        assert keep.mean() > 0.9
        np.testing.assert_allclose(Z[keep], ref[keep], rtol=0, atol=1e-12 * np.abs(ref).max())


class TestAdjointDotProducts:
    def _inner_fan(self, sino, other, geom):
        ddet = 2 * (geom.gamma_max if isinstance(sino, StandardFanSinogram) else geom.s_max)
        return ddet / (sino.data.shape[1] - 1) * geom.beta_span / sino.n_beta * np.sum(sino.data * other)

    def test_l_pair(self, geom):
        rng = np.random.default_rng(7)
        n = 96
        g = LinearFanSinogram(rng.standard_normal((n, n)), geom)
        w = StandardFanSinogram(rng.standard_normal((n, n)), geom)
        Lg = linear_to_standard(g, n)
        Lsw = linear_to_standard_adjoint(w, n)
        lhs = self._inner_fan(Lg, w.data, geom)
        rhs = self._inner_fan(g, Lsw.data, geom)
        scale = np.linalg.norm(Lg.data) * np.linalg.norm(w.data) * (2 * geom.gamma_max / (n - 1)) * geom.beta_span / n
        assert abs(lhs - rhs) / scale < 1e-3
