"""Zero-frequency restoration for the Fourier-domain backprojections.

The 1/sigma kernel annihilates the image mean, so the spectral routes
reconstruct a zero-DC image and add a constant afterwards.  The constant
comes from an exact adjoint identity: for any backprojection B* and its
forward A,

    integral over the unit disk of (B* y) = < y, A 1_disk >

and A 1_disk is the analytic sinogram of the unit disk (chord lengths),
known in closed form in every parametrization.  The offset is chosen so
the discrete disk integral of the output matches that target.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ParallelSinogram, image_coords

__all__ = ["disk_integral_target", "restore_dc"]


def _chord(t):
    return 2.0 * np.sqrt(np.maximum(1.0 - np.asarray(t, dtype=np.float64) ** 2, 0.0))


def disk_integral_target(sino) -> float:
    """< sinogram, forward projection of the unit disk > in its own geometry."""
    if isinstance(sino, ParallelSinogram):
        dt = 2.0 / (sino.n_t - 1)
        dtheta = sino.theta_span / sino.n_theta
        weight = dtheta if sino.full_circle else 2.0 * dtheta
        return float(weight * dt * np.sum(sino.data * _chord(sino.t_grid)[None, :]))
    geom = sino.geometry
    det = sino.det_grid
    t = sino.detector.t(det, geom.d)
    angle = sino.detector.angle(det, geom.d)
    dcell = (2.0 * sino.detector.half_width(geom) / (sino.n_det - 1)) * geom.beta_span / sino.n_beta
    # full-circle integral of the symmetry-extended sinogram against the
    # disk chord: every measured cell appears twice except those whose
    # symmetry partner is itself inside the measured window
    beta = geom.beta_span * np.arange(sino.n_beta) / sino.n_beta
    partner = np.mod(beta[:, None] + 2.0 * angle[None, :] + math.pi, 2.0 * math.pi)
    twice = np.where(partner < geom.beta_span, 1.0, 2.0)
    return float(dcell * np.sum(sino.data * twice * _chord(t)[None, :]))


def restore_dc(img: np.ndarray, sino, dc) -> np.ndarray:
    """Add the constant selected by the DC policy.

    ``dc`` is "mass" (match the disk-integral identity, default for the
    spectral routes), "none", or an explicit constant offset.
    """
    if dc == "none":
        return img
    if dc == "mass":
        n = img.shape[0]
        x1, x2 = image_coords(n)
        mask = x1**2 + x2**2 <= 1.0
        h2 = (2.0 / n) ** 2
        current = h2 * float(img[mask].sum())
        target = disk_integral_target(sino)
        return img + (target - current) / (h2 * mask.sum())
    return img + float(dc)
