"""Forward rebinning: parallel sinograms to fan-beam sinograms.

Fan data is generated by resampling a parallel sinogram under the fan
change of variables (the experimental protocol this library reproduces),
not by ray-driven projection of images.

Standard geometry:  w(gamma, beta) = p(D sin gamma, beta + gamma)
Linear geometry:    g(s, beta)     = p(s D / sqrt(s^2 + D^2), beta + arctan(s/D))
"""

from __future__ import annotations

import math

import numpy as np

from ._interp import bilinear
from .core import FanGeometry, FanSinogram, LinearFanSinogram, ParallelSinogram, StandardFanSinogram

__all__ = ["sample_parallel", "rebin_to_standard", "rebin_to_linear"]


def sample_parallel(p: ParallelSinogram, t, theta):
    """Evaluate a parallel sinogram at scattered (t, theta), any theta.

    Half-range sinograms are extended to the full circle through the
    evenness relation p(t, theta) = p(-t, theta + pi); |t| > 1 returns 0.
    """
    t = np.asarray(t, dtype=np.float64)
    theta = np.mod(np.asarray(theta, dtype=np.float64), 2.0 * math.pi)
    if not p.full_circle:
        flip = theta >= math.pi
        theta = np.where(flip, theta - math.pi, theta)
        t = np.where(flip, -t, t)
        # wrap row at theta = pi carries the evenness flip
        ext = np.vstack([p.data, p.data[0, ::-1]])
    else:
        ext = np.vstack([p.data, p.data[0]])
    dtheta = p.theta_span / p.n_theta
    dt = 2.0 / (p.n_t - 1)
    return bilinear(ext, theta / dtheta, (t + 1.0) / dt)


def _rebin_to_fan(
    p: ParallelSinogram, geom: FanGeometry, sinogram: type[FanSinogram], n_det: int, n_beta: int
) -> FanSinogram:
    """Resample p onto the fan grid of the ``sinogram`` type (bilinear interpolation)."""
    if n_det < 2 or n_beta < 2:
        raise ValueError(f"need n_det >= 2 and n_beta >= 2, got n_det={n_det} and n_beta={n_beta}")
    detector = sinogram.detector
    h = detector.half_width(geom)
    det = np.linspace(-h, h, n_det)
    beta = geom.beta_span * np.arange(n_beta) / n_beta
    t = detector.t(det, geom.d)[None, :]
    theta = beta[:, None] + detector.angle(det, geom.d)[None, :]
    data = sample_parallel(p, np.broadcast_to(t, theta.shape), theta)
    return sinogram(data, geom)


def rebin_to_standard(
    p: ParallelSinogram, geom: FanGeometry, n_gamma: int, n_beta: int
) -> StandardFanSinogram:
    """Resample p onto the equiangular fan grid (bilinear interpolation)."""
    return _rebin_to_fan(p, geom, StandardFanSinogram, n_gamma, n_beta)


def rebin_to_linear(
    p: ParallelSinogram, geom: FanGeometry, n_s: int, n_beta: int
) -> LinearFanSinogram:
    """Resample p onto the flat-detector fan grid (bilinear interpolation)."""
    return _rebin_to_fan(p, geom, LinearFanSinogram, n_s, n_beta)
