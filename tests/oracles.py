"""Independent brute-force oracles the tests compare against.

Everything here is deliberately written from the defining formulas with
no code shared with the package internals beyond basic containers.
"""

import math

import numpy as np

from fanbeam._interp import bilinear


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
