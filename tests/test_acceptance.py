"""Acceptance suite: every shipped claim at its stated tolerance.

Each test computes its metrics, prints one PASS/FAIL line (run with -s
to see them on success), then asserts.
"""

import csv
import math
import time

import numpy as np
from scipy.special import gammaln

from fanbeam import (
    LinearFanSinogram,
    ParallelSinogram,
    StandardFanSinogram,
    FanSampler,
    adjoint_rebin_linear,
    adjoint_rebin_standard,
    analytic_radon,
    backproject_linear_fan,
    backproject_standard_fan,
    bessel_table,
    bst_backproject,
    calibration_disk,
    choose_truncation,
    evaluate_series,
    fbp_linear_pipeline,
    fourier_coefficients_gamma,
    linear_fan_backproject,
    linear_to_standard,
    linear_to_standard_adjoint,
    make_fan_geometry,
    radon_point,
    rasterize,
    rebin_to_linear,
    rebin_to_standard,
    sample_parallel,
    shear_to_theta,
    shepp_logan_ellipses,
    standard_fan_backproject,
)
from fanbeam.bst import spectrum_to_image
from fanbeam.core import PolarSpectrum

from conftest import beta_full_grid, rel_l2
from oracles import kernel_quadrature, project_parallel_grid

D = 10.0


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _gap_parallel_pair(n, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n))
    p = rng.standard_normal((n, n))
    radon = project_parallel_grid(f, n, n)
    from fanbeam import backproject_parallel

    img = backproject_parallel(ParallelSinogram(p), n).data
    dt, dtheta, h2 = 2.0 / (n - 1), math.pi / n, (2.0 / n) ** 2
    lhs = 2 * dt * dtheta * np.sum(radon * p)
    rhs = h2 * np.sum(f * img)
    scale = np.linalg.norm(radon) * np.linalg.norm(p) * 2 * dt * dtheta
    return abs(lhs - rhs) / scale


def _gap_fan_pair(geom, n, seed, linear):
    rng = np.random.default_rng(seed)
    ps = ParallelSinogram(rng.standard_normal((n, n)))
    if linear:
        sino = LinearFanSinogram(rng.standard_normal((n, n)), geom)
        q = adjoint_rebin_linear(sino, n, 2 * n)
        det = sino.s_grid
        t = det * geom.d / np.hypot(det, geom.d)
        shift = np.arctan(det / geom.d)
        ddet = 2 * geom.s_max / (n - 1)
    else:
        sino = StandardFanSinogram(rng.standard_normal((n, n)), geom)
        q = adjoint_rebin_standard(sino, n, 2 * n)
        det = sino.gamma_grid
        t = geom.d * np.sin(det)
        shift = det
        ddet = 2 * geom.gamma_max / (n - 1)
    betas, dbeta = beta_full_grid(geom, n)
    forward = sample_parallel(ps, t[None, :], betas[:, None] + shift[None, :])
    expanded = FanSampler(sino).sample(det[None, :], betas[:, None])
    theta2 = 2 * math.pi * np.arange(2 * n) / (2 * n)
    even = sample_parallel(ps, np.linspace(-1, 1, n)[None, :], theta2[:, None])
    lhs = ddet * dbeta * np.sum(forward * expanded)
    rhs = (2.0 / (n - 1)) * (2 * math.pi / (2 * n)) * np.sum(even * q.data)
    scale = np.linalg.norm(forward) * np.linalg.norm(expanded) * ddet * dbeta
    return abs(lhs - rhs) / scale


def _gap_switch_pair(geom, n, seed):
    rng = np.random.default_rng(seed)
    g = LinearFanSinogram(rng.standard_normal((n, n)), geom)
    w = StandardFanSinogram(rng.standard_normal((n, n)), geom)
    lg = linear_to_standard(g, n)
    lsw = linear_to_standard_adjoint(w, n)
    dgamma = 2 * geom.gamma_max / (n - 1)
    ds = 2 * geom.s_max / (n - 1)
    dbeta = geom.beta_span / n
    lhs = dgamma * dbeta * np.sum(lg.data * w.data)
    rhs = ds * dbeta * np.sum(g.data * lsw.data)
    scale = np.linalg.norm(lg.data) * np.linalg.norm(w.data) * dgamma * dbeta
    return abs(lhs - rhs) / scale


def test_criterion_1_adjoint_identities():
    t0 = time.time()
    geom = make_fan_geometry(D)
    pairs = {
        "R/B": lambda n, s: _gap_parallel_pair(n, s),
        "Ms": lambda n, s: _gap_fan_pair(geom, n, s, linear=False),
        "Ml": lambda n, s: _gap_fan_pair(geom, n, s, linear=True),
        "L": lambda n, s: _gap_switch_pair(geom, n, s),
    }
    seeds = {"R/B": range(3), "Ms": range(12), "Ml": range(12), "L": range(6)}
    details, ok = [], True
    for name, gap in pairs.items():
        g128 = [gap(128, s) for s in seeds[name]]
        g256 = [gap(256, s) for s in seeds[name]]
        worst = max(g128)
        shrinks = np.mean(g256) < np.mean(g128)
        ok &= worst < 2e-2 and shrinks
        details.append(f"{name}: max@128 {worst:.2e}, mean 128->256 {np.mean(g128):.2e}->{np.mean(g256):.2e}")
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    report(1, "adjoint identities", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2_series_identity():
    t0 = time.time()
    geom = make_fan_geometry(D)
    m = 512
    gamma = 2 * math.pi * np.arange(m) / m
    k = int(geom.gamma_max / (2 * math.pi / m))
    rng = np.random.default_rng(0)
    fields = np.zeros((50 * 4, m))
    fields[:, : k + 1] = rng.standard_normal((200, k + 1))
    fields[:, m - k :] = rng.standard_normal((200, k))
    eps = 1e-9
    sigma_max = 16.0
    n_terms = choose_truncation(geom, sigma_max, eps)
    assert 2 * n_terms <= m
    sigma = np.linspace(0.0, sigma_max, 65)
    coeffs = fourier_coefficients_gamma(fields, gamma, n_terms)
    series = evaluate_series(coeffs, bessel_table(geom, n_terms, sigma))
    direct = kernel_quadrature(fields, gamma, sigma, geom.d)
    err = float(np.abs(series - direct).max() / np.abs(direct).max())
    elapsed = time.time() - t0
    ok = err < 1e-6 and elapsed < 120.0
    report(2, "Bessel-Neumann series identity", ok,
           f"50 random Z fields, n_terms={n_terms}, max rel err {err:.2e}; {elapsed:.1f}s")


def test_criterion_3_route_equivalence_256():
    t0 = time.time()
    geom = make_fan_geometry(D)
    n = 256
    p = analytic_radon(shepp_logan_ellipses(), n, n)
    g = rebin_to_linear(p, geom, n, n)
    series = linear_fan_backproject(g, n).data
    rebin = bst_backproject(adjoint_rebin_linear(g, n, 2 * n), n).data
    err = rel_l2(series, rebin)
    row = n // 2
    span = rebin[row].max() - rebin[row].min()
    prof = float(np.abs(series[row] - rebin[row]).max() / span)
    elapsed = time.time() - t0
    ok = err < 0.05 and prof < 0.03 and elapsed < 300.0
    report(3, "series vs rebinning route @256", ok,
           f"rel L2 {err:.4f} (<0.05), center-row dev {prof:.4f} (<0.03); {elapsed:.1f}s")


def test_criterion_4_oracle_equivalence_128():
    t0 = time.time()
    geom = make_fan_geometry(D)
    n = 128
    p = analytic_radon(shepp_logan_ellipses(), n, n)
    w = rebin_to_standard(p, geom, n, n)
    g = rebin_to_linear(p, geom, n, n)
    err_s = rel_l2(standard_fan_backproject(w, n).data, backproject_standard_fan(w, n).data)
    err_l = rel_l2(linear_fan_backproject(g, n).data, backproject_linear_fan(g, n).data)
    elapsed = time.time() - t0
    ok = err_s < 0.05 and err_l < 0.05 and elapsed < 300.0
    report(4, "series vs pixel-driven oracles @128", ok,
           f"standard {err_s:.4f}, linear {err_l:.4f} (<0.05); {elapsed:.1f}s")


def test_criterion_5_fbp_reconstruction_256():
    geom = make_fan_geometry(D)
    n = 256
    disk = calibration_disk()
    rec = fbp_linear_pipeline(analytic_radon(disk, n, n), geom, n).data
    center = float(rec[n // 2 - 1 : n // 2 + 1, n // 2 - 1 : n // 2 + 1].mean())
    phantom = shepp_logan_ellipses()
    recon = fbp_linear_pipeline(analytic_radon(phantom, n, n), geom, n).data
    err = rel_l2(recon, rasterize(phantom, n).data)
    ok = abs(center - 1.0) < 0.05 and err < 0.15
    report(5, "FBP reconstruction @256", ok,
           f"disk center {center:.4f} (1 +- 0.05), phantom rel L2 {err:.4f} (<0.15)")


def test_criterion_6_truncation_bound():
    geom = make_fan_geometry(D)
    eps = 1e-9
    sigma_max = math.pi * 32
    n_terms = choose_truncation(geom, sigma_max, eps)
    x = geom.d * sigma_max
    tail = np.arange(n_terms, n_terms + 2000)
    bound = np.exp(tail * math.log(x / 2.0) - gammaln(tail + 1.0))
    tail_ok = bool((bound < eps).all())

    # doubling the series length must leave the reconstruction unchanged
    n = 64
    p = analytic_radon(shepp_logan_ellipses(), n, n)
    w = rebin_to_standard(p, make_fan_geometry(D), n, n)
    Z = shear_to_theta(w, 2 * n)
    sigma = np.linspace(0.0, sigma_max, 2 * n + 1)
    imgs = []
    for terms in (n_terms, 2 * n_terms):
        co = fourier_coefficients_gamma(Z, w.gamma_grid, terms)
        series = evaluate_series(co, bessel_table(geom, terms, sigma))
        spec = np.zeros_like(series)
        spec[:, 1:] = 4 * math.pi / sigma[1:][None, :] * series[:, 1:]
        imgs.append(spectrum_to_image(PolarSpectrum(spec, sigma_max), n))
    change = float(np.linalg.norm(imgs[0] - imgs[1]) / np.linalg.norm(imgs[1]))
    ok = tail_ok and change < 1e-6
    report(6, "truncation rule", ok,
           f"n_terms={n_terms}, tail bound < {eps} {tail_ok}, doubling changes {change:.2e} (<1e-6)")


def test_criterion_7_complexity_scaling(tmp_path):
    from fanbeam.cli import main

    out = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", "128,256", "--methods", "direct,bst", "--repetitions", "5",
                 "--out-csv", str(out)])
    assert code == 0
    rows = {}
    with open(out) as fh:
        for row in csv.DictReader(fh):
            rows[(row["method"], int(row["n"]))] = float(row["seconds"])
    direct_ratio = rows[("direct", 256)] / rows[("direct", 128)]
    bst_ratio = rows[("bst", 256)] / rows[("bst", 128)]
    ok = direct_ratio >= 6.0 and bst_ratio <= 5.5
    report(7, "complexity scaling", ok,
           f"direct t(256)/t(128) = {direct_ratio:.2f} (>=6), bst ratio = {bst_ratio:.2f} (<=5.5)")


def test_criterion_8_symmetry_suites():
    geom = make_fan_geometry(D)
    phantom = shepp_logan_ellipses()
    rng = np.random.default_rng(5)
    t = rng.uniform(-1, 1, 200)
    theta = rng.uniform(0, 2 * math.pi, 200)
    evenness = float(np.abs(radon_point(phantom, t, theta) - radon_point(phantom, -t, theta + math.pi)).max())

    n = 512
    p = analytic_radon(phantom, n, n)
    w = rebin_to_standard(p, geom, n, n)
    G, B = np.meshgrid(w.gamma_grid, w.beta_grid, indexing="xy")
    partner = B + 2 * G + math.pi
    inside = partner < geom.beta_span - 1e-9
    vals = FanSampler(w).sample(-G[inside], partner[inside])
    rms_standard = float(np.sqrt(np.mean((vals - w.data[inside]) ** 2)) / np.abs(w.data).max())

    g = rebin_to_linear(p, geom, n, n)
    S, B = np.meshgrid(g.s_grid, g.beta_grid, indexing="xy")
    partner = B + 2 * np.arctan(S / geom.d) + math.pi
    inside = partner < geom.beta_span - 1e-9
    vals = FanSampler(g).sample(-S[inside], partner[inside])
    rms_linear = float(np.sqrt(np.mean((vals - g.data[inside]) ** 2)) / np.abs(g.data).max())

    ok = evenness < 1e-12 and rms_standard < 1e-3 and rms_linear < 1e-3
    report(8, "symmetry suites", ok,
           f"evenness max {evenness:.2e} (exact), fan rms standard {rms_standard:.2e}, "
           f"linear {rms_linear:.2e} (<1e-3 @512)")
