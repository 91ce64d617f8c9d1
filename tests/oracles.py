"""Independent brute-force oracles the tests compare against.

Everything here is deliberately written from the defining formulas with
no code shared with the package internals beyond basic containers; the
two exceptions, ``series_image_dense`` and ``series_image_two_step``, are
references for the series route's evaluation grid and for its cached
kernel, and run the package's own stages.
"""

import math

import numpy as np
from scipy import fft as sfft

from fanbeam import (
    ImageGrid,
    PolarSpectrum,
    bessel_table,
    choose_truncation,
    evaluate_series,
    fourier_coefficients_gamma,
    shear_to_theta,
)
from fanbeam._dc import restore_dc
from fanbeam._interp import bilinear
from fanbeam.bst import _detector_spectrum, spectrum_to_image


def project_parallel_grid(img, n_t, n_theta):
    """Ray-marching Radon transform of a pixel image.

    Marches each line x = t*xi + l*xi_perp in small steps, sampling the
    image bilinearly on its pixel-center grid (zero outside).
    """
    n = img.shape[0]
    h = 2.0 / n
    t = np.linspace(-1.0, 1.0, n_t)
    out = np.zeros((n_theta, n_t))
    dl = h / 2.0
    ls = np.arange(-1.2, 1.2, dl)
    for j in range(n_theta):
        theta = math.pi * j / n_theta
        c, s = math.cos(theta), math.sin(theta)
        x1 = t[None, :] * c + ls[:, None] * (-s)
        x2 = t[None, :] * s + ls[:, None] * c
        u = (x2 + 1.0) / h - 0.5
        v = (x1 + 1.0) / h - 0.5
        out[j] = bilinear(img, u, v).sum(axis=0) * dl
    return out


def line_integral_quadrature(ellipses, t, theta, n_steps=20000):
    """Midpoint-rule line integral of an ellipse phantom along one line."""
    ls = (np.arange(n_steps) + 0.5) / n_steps * 2.4 - 1.2
    dl = 2.4 / n_steps
    c, s = math.cos(theta), math.sin(theta)
    x1 = t * c - ls * s
    x2 = t * s + ls * c
    total = np.zeros_like(ls)
    for e in ellipses:
        total += e.amplitude * e.contains(x1, x2)
    return float(total.sum() * dl)


def backproject_parallel_loops(p_data, theta_span, n):
    """Direct double-loop Riemann sum of the backprojection formula."""
    n_theta, n_t = p_data.shape
    dt = 2.0 / (n_t - 1)
    dtheta = theta_span / n_theta
    weight = dtheta if theta_span > 4.0 else 2.0 * dtheta
    centers = -1.0 + (2.0 * np.arange(n) + 1.0) / n
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            x1, x2 = centers[j], centers[i]
            acc = 0.0
            for k in range(n_theta):
                theta = k * dtheta
                t = x1 * math.cos(theta) + x2 * math.sin(theta)
                u = (t + 1.0) / dt
                if 0.0 <= u <= n_t - 1:
                    i0 = min(int(u), n_t - 2)
                    f = u - i0
                    acc += p_data[k, i0] * (1 - f) + p_data[k, i0 + 1] * f
            out[i, j] = acc * weight
    return out


def polar_to_cartesian_full_plane(data, sigma_max, n, step):
    """Bilinear polar-to-Cartesian resampling over the whole n x n plane.

    Samples the real and imaginary parts of the polar grid (rows theta,
    2*pi-periodic; columns sigma, zero beyond sigma_max) at every centred
    node m*step, zeroes the unpartnered -n/2 lines of an even n, then
    averages the grid with its flipped conjugate.
    """
    n_theta, n_sigma = data.shape
    m = np.arange(n) - n // 2
    k1 = step * m[None, :]
    k2 = step * m[:, None]
    u = np.mod(np.arctan2(k2, k1), 2.0 * math.pi) / (2.0 * math.pi / n_theta)
    v = np.hypot(k1, k2) / (sigma_max / (n_sigma - 1))
    inside = v <= n_sigma - 1.0 + 1e-9
    vc = np.minimum(v, n_sigma - 1.0)
    j0 = np.minimum(vc.astype(int), n_sigma - 2)
    fv = vc - j0
    um = np.mod(u, n_theta)
    i0 = um.astype(int)
    fu = um - i0
    i0 = np.mod(i0, n_theta)
    i1 = np.mod(i0 + 1, n_theta)

    def sample(part):
        out = (
            part[i0, j0] * (1.0 - fu) * (1.0 - fv)
            + part[i1, j0] * fu * (1.0 - fv)
            + part[i0, j0 + 1] * (1.0 - fu) * fv
            + part[i1, j0 + 1] * fu * fv
        )
        return np.where(inside, out, 0.0)

    grid = sample(data.real) + 1j * sample(data.imag)
    if n % 2 == 0:
        grid[0, :] = 0.0
        grid[:, 0] = 0.0
    flipped = grid[::-1, ::-1]
    if n % 2 == 0:
        flipped = np.roll(np.roll(flipped, 1, axis=0), 1, axis=1)
    return 0.5 * (grid + np.conj(flipped))


def bessel_power_series(order, x, terms=200):
    """J_n(x) from the defining power series, summed to convergence."""
    term = (x / 2.0) ** order / math.gamma(order + 1)
    total = term
    for k in range(1, terms):
        term *= -(x / 2.0) ** 2 / (k * (order + k))
        total += term
        if abs(term) < 1e-18 * abs(total) + 1e-300:
            break
    return total


def kernel_quadrature(Z, gamma, sigmas, d):
    """Direct Riemann quadrature of int Z(gamma) exp(-i d sigma sin gamma) dgamma."""
    dgamma = gamma[1] - gamma[0]
    kernel = np.exp(-1j * d * np.asarray(sigmas)[:, None] * np.sin(gamma)[None, :])
    return (Z @ kernel.T) * dgamma


def interpolant_coefficients_quadrature(Z, gamma, orders, nodes_per_segment=20):
    """2*pi*c_n of Z's linear interpolant on the grid gamma, by Gauss-Legendre quadrature.

    The interpolant joins the samples Z[:, j] linearly between gamma_j and
    gamma_{j+1} and is zero outside [gamma_0, gamma_last].  Each segment
    gets a Gauss-Legendre rule of ``nodes_per_segment`` nodes applied to
    interp(Z)(gamma) e^{-i n gamma}.  Returns shape (n_theta, orders.size).
    """
    x, w = np.polynomial.legendre.leggauss(nodes_per_segment)
    s = 0.5 * (x + 1.0)
    gamma = np.asarray(gamma, dtype=np.float64)
    seg = np.diff(gamma)
    points = (gamma[:-1, None] + seg[:, None] * s[None, :]).ravel()
    weights = (seg[:, None] * (0.5 * w)[None, :]).ravel()
    Z = np.asarray(Z)
    values = Z[:, :-1, None] * (1.0 - s) + Z[:, 1:, None] * s
    values = values.reshape(Z.shape[0], -1) * weights
    return values @ np.exp(-1j * np.multiply.outer(points, np.asarray(orders, dtype=np.float64)))


def bessel_matrix_rescale_loop(x, n_terms):
    """J_n(x), n < n_terms, by normalized downward recurrence, rescaling stored rows as it goes.

    Each time a column nears overflow, its running values and every row
    already stored are multiplied by 2**-832 on the spot.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((n_terms, x.size))
    zero = x == 0.0
    out[0, zero] = 1.0
    live = ~zero
    if not live.any():
        return out
    xl = x[live]
    top = max(n_terms, math.ceil(float(xl.max())))
    n_start = top + max(50, top // 5)
    jp = np.zeros(xl.size)
    jc = np.full(xl.size, 1e-30)
    norm = np.zeros(xl.size)
    raw = np.zeros((n_terms, xl.size))
    for n in range(n_start, -1, -1):
        if n < n_terms:
            raw[n] = jc
        if n == 0:
            norm += jc
        elif n % 2 == 0:
            norm += 2.0 * jc
        if n > 0:
            jm = (2.0 * n / xl) * jc - jp
            jp, jc = jc, jm
            big = np.abs(jc) > 1e250
            if big.any():
                inv = 1.0 / 2.0**832
                jc[big] *= inv
                jp[big] *= inv
                norm[big] *= inv
                if n < n_terms:
                    raw[n:][:, big] *= inv
    out[:, live] = raw / norm[None, :]
    return out


def series_image_dense(z, source, n, eps=1e-9):
    """Series backprojection with the series summed on every radius of the polar grid.

    The reference for the evaluation grid of the series route, built from
    the package's own stages: the complex weights b of the sheared field
    Z, one dense product J^T b on the 2n+1 radii k*pi/4 up to pi*n/2, the
    4*pi/sigma weight with the DC bin zeroed, the polar inverse transform
    and the DC restoration.  ``z`` is an equiangular fan sinogram,
    ``source`` the sinogram whose mass sets the DC.
    """
    geom = z.geometry
    sigma_max = math.pi * n / 2.0
    sigma = np.linspace(0.0, sigma_max, 2 * n + 1)
    n_terms = choose_truncation(geom, sigma_max, eps)
    Z = shear_to_theta(z, 2 * z.n_beta)
    b = fourier_coefficients_gamma(Z, z.gamma_grid, n_terms)
    values = bessel_table(geom, n_terms, sigma)
    series = (values.T @ b.real).T + 1j * (values.T @ b.imag).T
    spec = np.zeros_like(series)
    spec[:, 1:] = 4.0 * math.pi / sigma[1:][None, :] * series[:, 1:]
    return restore_dc(spectrum_to_image(PolarSpectrum(spec, sigma_max), n), source)


def series_image_two_step(z, source, n, eps=1e-9):
    """Series backprojection with the weights b computed from the data on every call.

    The reference for the series route's cached kernel: the weights of
    the sheared field Z, the truncated series summed against a Bessel
    table on sigma_k = k*pi, then the route's own back end (the period-2
    synthesis of q, the detector FFT to 4n samples, the polar inverse
    transform and the DC restoration).  ``z`` is an equiangular fan
    sinogram, ``source`` the sinogram whose mass sets the DC.
    """
    geom = z.geometry
    sigma_max = math.pi * n / 2.0
    n_terms = choose_truncation(geom, sigma_max, eps)
    table = bessel_table(geom, n_terms, math.pi * np.arange(n // 2 + 1))
    Z = shear_to_theta(z, 2 * z.n_beta)
    S = evaluate_series(fourier_coefficients_gamma(Z, z.gamma_grid, n_terms), table)
    S[:, 1::2] *= -1.0
    q = 0.5 * sfft.irfft(S, n, axis=1, norm="forward")
    spec = _detector_spectrum(q, -1.0, 2.0 / n, 4 * n, sigma_max)
    return ImageGrid(restore_dc(spectrum_to_image(spec, n), source))
