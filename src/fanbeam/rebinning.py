"""Rebinning algebra: adjoints of the fan resamplings and the
geometry-switch operator between the two fan parametrizations.

Adjoint of a smooth invertible rebinning = (Jacobian of the change of
variables) x (inverse rebinning).  For the two fan rebinnings, with
t the parallel offset and D the source distance:

    gamma(t) = arcsin(t/D)          J_s(t) = 1 / sqrt(D^2 - t^2)
    s(t)     = t D / sqrt(D^2-t^2)  J_l(t) = D^3 / (D^2 - t^2)^(3/2)

    M_s* w (t, theta) = w(gamma(t), theta - gamma(t)) J_s(t)
    M_l* g (t, theta) = g(s(t),     theta - gamma(t)) J_l(t)

Fan sinograms are stored on the measured short-scan window
[0, beta_span) but represent functions on the full source circle: a
sample at an unmeasured beta is pulled back through the fan symmetry
w(gamma, beta) = w(-gamma, beta + 2*gamma + pi), whose partner always
lands inside the window.  The adjoint outputs therefore live on
theta in [0, 2*pi), and the parallel backprojection that consumes them
integrates over the full circle without the evenness factor 2.

Both fast routes read the fan data through the adjoint rebinning on a set
of offsets: ``rebin-bst`` on t = linspace(-1, 1, n_t), the series route on
t = D sin gamma, where (M* sino)(t, theta) / J_s(t) is the sheared field
Z(gamma, theta): w(gamma, theta - gamma) for the standard detector and
tau(gamma) g(D tan gamma, theta - gamma), tau = D sec^2 gamma, for the
linear one.  The detector maps and Jacobians live in
:class:`fanbeam.core.FanDetector`.

The fast routes' front end, :func:`_adjoint_rebin`, is a per-column
gather of its own.  :class:`FanSampler`, a general 2-D bilinear lookup,
serves only the pixel-driven oracles of :mod:`fanbeam.reference` and the
tests, so the fast routes share no interpolation code with what
validates them.
"""

from __future__ import annotations

import math

import numpy as np

from ._interp import _EDGE_TOL, bilinear, interp_or_zero
from .core import FanSinogram, LinearFanSinogram, ParallelSinogram, StandardFanSinogram

__all__ = [
    "FanSampler",
    "adjoint_rebin_standard",
    "adjoint_rebin_linear",
    "linear_to_standard",
    "linear_to_standard_adjoint",
    "apply_tau",
    "shear_to_theta",
]

# theta rows per block of the adjoint rebinning; bounds its temporaries
# to a few MB whatever the grid size
_THETA_BLOCK = 128


class FanSampler:
    """Bilinear evaluation of a fan sinogram anywhere on the full circle.

    Precomputes one wrap row at beta = beta_span (obtained through the
    symmetry relation) so that direct samples interpolate across the end
    of the measured window, and resolves beta outside [0, beta_span]
    through the symmetry partner.  Detector coordinates outside the fan
    return zero.
    """

    def __init__(self, sino: FanSinogram):
        geom = sino.geometry
        self.beta_span = geom.beta_span
        self.d = geom.d
        self.detector = sino.detector
        self.half_width = self.detector.half_width(geom)
        data = sino.data
        n_beta, n_det = data.shape
        self.dbeta = self.beta_span / n_beta
        self.ddet = 2.0 * self.half_width / (n_det - 1)
        det = -self.half_width + self.ddet * np.arange(n_det)
        # wrap row: value at beta_span equals the symmetry partner at -det;
        # the partner angle lies in [0, beta_span] exactly, so clamp the
        # roundoff of beta_span - pi
        wrap_beta = np.clip(2.0 * self.detector.angle(det, self.d) + (self.beta_span - math.pi), 0.0, self.beta_span)
        u = wrap_beta / self.dbeta
        wrap = bilinear(data, u, np.arange(n_det)[::-1].astype(np.float64))
        # a partner past the last stored row lies between that row and the
        # partner's own wrap value, whose angle is inside the stored rows
        past = u > n_beta - 1.0
        f = u[past] - (n_beta - 1.0)
        wrap[past] = data[-1, ::-1][past] * (1.0 - f) + wrap[::-1][past] * f
        self.ext = np.vstack([data, wrap])

    def sample(self, det, beta):
        det = np.asarray(det, dtype=np.float64)
        beta = np.mod(np.asarray(beta, dtype=np.float64), 2.0 * math.pi)
        det, beta = np.broadcast_arrays(det, beta)
        partner = beta > self.beta_span
        angle = self.detector.angle(det, self.d)
        det = np.where(partner, -det, det)
        beta = np.where(partner, beta + 2.0 * angle - math.pi, beta)
        return bilinear(self.ext, beta / self.dbeta, (det + self.half_width) / self.ddet)


def _detector_columns(v: np.ndarray, n_det: int):
    """Left detector column (as a float) and fraction of the fractional column indices ``v``, and where v is on the detector."""
    inside = (v >= -_EDGE_TOL) & (v <= n_det - 1.0 + _EDGE_TOL)
    vc = np.clip(v, 0.0, n_det - 1.0)
    col = np.minimum(np.floor(vc), n_det - 2.0)
    return col, vc - col, inside


def _wrap_extended(sino: FanSinogram, dbeta: float, det: np.ndarray) -> np.ndarray:
    """The sinogram with one more row, its value at beta = beta_span, shape (n_beta + 1, n_det).

    The wrap row is the symmetry partner at -det, the reversed column, at
    beta = 2*angle(det) + beta_span - pi.  That beta lies in
    [0, beta_span] (its roundoff is clamped).  Past the last stored row
    the partner interpolates between that row and the reversed column's
    own wrap value, whose beta, 4*gamma_max less this one, is inside the
    stored rows.
    """
    geom = sino.geometry
    data = sino.data
    n_beta = data.shape[0]
    u = np.clip(2.0 * sino.detector.angle(det, geom.d) + (geom.beta_span - math.pi), 0.0, geom.beta_span) / dbeta
    uc = np.minimum(u, n_beta - 1.0)
    row = np.minimum(uc.astype(np.intp), n_beta - 2)
    fu = uc - row
    rev = np.arange(data.shape[1])[::-1]
    ext = np.empty((n_beta + 1, data.shape[1]))
    ext[:n_beta] = data
    wrap = ext[n_beta]
    np.add(data[row, rev] * (1.0 - fu), data[row + 1, rev] * fu, out=wrap)
    past = np.flatnonzero(u > n_beta - 1.0)
    wrap[past] += (u[past] - (n_beta - 1.0)) * (wrap[rev[past]] - wrap[past])
    return ext


def _adjoint_rebin(sino: FanSinogram, t: np.ndarray, n_theta2pi: int, scale=1.0) -> np.ndarray:
    """(M* sino)(t_j, theta_i) * scale_j, shape (n_theta2pi, t.size), theta_i = 2*pi*i/n_theta2pi.

    A per-column gather.  Output column j reads the fan at the fixed
    detector coordinate det(t_j) at beta = theta_i - gamma_j, or, where
    that beta (mod 2*pi) is past the measured window, at the partner -det(t_j)
    with beta shifted by the fixed 2*angle(det_j) - pi.  So the two
    detector columns of either reading, their fractions and the shift are
    set once per column, and a block of theta rows computes only the beta
    index and its fraction, gathers four values from the wrap-extended
    sinogram and interpolates them in place.  A column whose coordinate is
    off the detector reads zero.
    """
    if t.size < 2 or n_theta2pi < 2:
        raise ValueError("need n_t >= 2 and n_theta2pi >= 2")
    geom = sino.geometry
    d, beta_span = geom.d, geom.beta_span
    n_beta, n_det = sino.data.shape
    dbeta = beta_span / n_beta
    half_width = sino.detector.half_width(geom)
    ddet = 2.0 * half_width / (n_det - 1)
    ext = _wrap_extended(sino, dbeta, -half_width + ddet * np.arange(n_det))
    gamma = np.arcsin(t / d)  # fan angle of the ray at offset t, either detector
    det = sino.detector.det_of_t(t, d)
    col, fv, inside = _detector_columns((det + half_width) / ddet, n_det)
    col_p, fv_p, inside_p = _detector_columns((half_width - det) / ddet, n_det)
    weight = np.where(inside & inside_p, sino.detector.jacobian(t, d) * scale, 0.0)
    shift = (2.0 * sino.detector.angle(det, d) - math.pi) / dbeta
    # the partner's column offset and fraction, relative to the direct reading's
    dcol, dfv = col_p - col, fv_p - fv
    flat = ext.ravel()
    theta = 2.0 * math.pi * np.arange(n_theta2pi) / n_theta2pi
    out = np.empty((n_theta2pi, t.size))
    block = min(_THETA_BLOCK, n_theta2pi)
    u_buf, a_buf, b_buf = np.empty((3, block, t.size))
    idx_buf = np.empty((block, t.size), dtype=np.intp)
    partner_buf = np.empty((block, t.size), dtype=bool)
    for lo in range(0, n_theta2pi, block):
        rows = slice(lo, lo + block)
        m = theta[rows].size
        u, a, b, idx, partner = (x[:m] for x in (u_buf, a_buf, b_buf, idx_buf, partner_buf))
        c = out[rows]  # scratch until the block's result is written
        # beta = theta - gamma in [-pi/2, 5*pi/2), reduced to [0, 2*pi) as np.mod does
        np.subtract(theta[rows, None], gamma, out=u)
        np.less(u, 0.0, out=partner)
        np.multiply(partner, 2.0 * math.pi, out=a)
        u += a
        np.greater_equal(u, 2.0 * math.pi, out=partner)
        np.multiply(partner, 2.0 * math.pi, out=a)
        u -= a
        # its row index, shifted to the partner's past the window, and fraction
        np.greater(u, beta_span, out=partner)
        u /= dbeta
        np.multiply(partner, shift, out=a)
        u += a
        np.clip(u, 0.0, float(n_beta), out=u)
        np.floor(u, out=a)
        np.minimum(a, n_beta - 1.0, out=a)
        u -= a
        # flat index of the cell's first corner, exact in float64
        a *= n_det
        a += col
        np.multiply(partner, dcol, out=b)
        a += b
        np.copyto(idx, a, casting="unsafe")
        # along beta in the left and the right detector column, then across
        # them; the corners are the flattened rows shifted by 0, 1, n_det, n_det + 1
        for left, below, above in ((a, flat, flat[n_det:]), (b, flat[1:], flat[n_det + 1 :])):
            np.take(below, idx, out=left)
            np.take(above, idx, out=c)
            c -= left
            c *= u
            left += c
        b -= a
        np.multiply(partner, dfv, out=u)
        u += fv
        b *= u
        a += b
        np.multiply(a, weight, out=c)
    return out


def adjoint_rebin_standard(w: StandardFanSinogram, n_t: int, n_theta2pi: int) -> ParallelSinogram:
    """M_s* : standard fan sinogram -> parallel sinogram on [0, 2*pi)."""
    return ParallelSinogram(_adjoint_rebin(w, np.linspace(-1.0, 1.0, n_t), n_theta2pi), theta_span=2.0 * math.pi)


def adjoint_rebin_linear(g: LinearFanSinogram, n_t: int, n_theta2pi: int) -> ParallelSinogram:
    """M_l* : linear fan sinogram -> parallel sinogram on [0, 2*pi)."""
    return ParallelSinogram(_adjoint_rebin(g, np.linspace(-1.0, 1.0, n_t), n_theta2pi), theta_span=2.0 * math.pi)


def linear_to_standard(g: LinearFanSinogram, n_gamma: int) -> StandardFanSinogram:
    """L : resample a flat-detector sinogram onto the equiangular grid.

    One-dimensional linear interpolation along s at s = D tan(gamma);
    zero where |D tan gamma| exceeds the detector half-width.
    """
    if n_gamma < 2:
        raise ValueError("need n_gamma >= 2")
    geom = g.geometry
    s = geom.d * np.tan(np.linspace(-geom.gamma_max, geom.gamma_max, n_gamma))
    data = interp_or_zero(s, -geom.s_max, 2.0 * geom.s_max / (g.n_s - 1), g.data)
    return StandardFanSinogram(data, geom)


def linear_to_standard_adjoint(w: StandardFanSinogram, n_s: int) -> LinearFanSinogram:
    """L* : Jacobian-weighted inverse resampling, gamma = arctan(s/D).

    L* w (s, beta) = D/(D^2+s^2) * w(arctan(s/D), beta).
    """
    if n_s < 2:
        raise ValueError("need n_s >= 2")
    geom = w.geometry
    s = np.linspace(-geom.s_max, geom.s_max, n_s)
    gamma = np.arctan(s / geom.d)
    jac = geom.d / (geom.d**2 + s**2)
    data = interp_or_zero(gamma, -geom.gamma_max, 2.0 * geom.gamma_max / (w.n_gamma - 1), w.data)
    return LinearFanSinogram(data * jac[None, :], geom)


def apply_tau(w: StandardFanSinogram) -> StandardFanSinogram:
    """Multiply by tau(gamma) = D sec^2(gamma), the inverse of L*'s weight."""
    geom = w.geometry
    tau = geom.d / np.cos(w.gamma_grid) ** 2
    return StandardFanSinogram(w.data * tau[None, :], geom)


def shear_to_theta(sino: FanSinogram, n_theta2pi: int) -> np.ndarray:
    """Sheared field Z(gamma, theta) of either fan sinogram, shape (n_theta2pi, n_det).

    The adjoint rebinning at t_j = D sin gamma_j divided by J_s(t_j), on
    theta in [0, 2*pi) and gamma_j = linspace(-gamma_max, gamma_max, n_det):
    w(gamma, theta - gamma) for a standard sinogram w, and
    tau(gamma) g(D tan gamma, theta - gamma), tau = D sec^2 gamma, for a
    linear sinogram g.
    """
    geom = sino.geometry
    t = geom.d * np.sin(np.linspace(-geom.gamma_max, geom.gamma_max, sino.n_det))
    return _adjoint_rebin(sino, t, n_theta2pi, np.sqrt(geom.d**2 - t**2))
