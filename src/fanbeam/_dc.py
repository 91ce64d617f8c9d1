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

from .core import ParallelSinogram

__all__ = ["disk_integral_target", "restore_dc"]

_ROW_BLOCK = 64  # sinogram rows per block of the partner mask


def _chord(t):
    return 2.0 * np.sqrt(np.maximum(1.0 - np.asarray(t, dtype=np.float64) ** 2, 0.0))


def disk_integral_target(sino) -> float:
    """< sinogram, forward projection of the unit disk > in its own geometry."""
    if isinstance(sino, ParallelSinogram):
        dt = 2.0 / (sino.n_t - 1)
        dtheta = sino.theta_span / sino.n_theta
        weight = dtheta if sino.full_circle else 2.0 * dtheta
        return float(weight * dt * np.sum(sino.data @ _chord(sino.t_grid)))
    geom = sino.geometry
    det = sino.det_grid
    chord = _chord(sino.detector.t(det, geom.d))
    dcell = (2.0 * sino.detector.half_width(geom) / (sino.n_det - 1)) * geom.beta_span / sino.n_beta
    # full-circle integral of the symmetry-extended sinogram against the
    # disk chord: every measured cell appears twice except those whose
    # symmetry partner (beta + 2*angle + pi) mod 2*pi is itself inside the
    # measured window.  Before the mod the partner grows along a row with
    # the angle, so a row holds such cells only if its first or its last
    # cell does; only those rows are masked, in blocks
    twice = 2.0 * float(sino.data.sum(axis=0) @ chord)
    beta = geom.beta_span * np.arange(sino.n_beta) / sino.n_beta
    shift = 2.0 * sino.detector.angle(det, geom.d)

    def partner_inside(rows, cols):
        return np.mod(beta[rows, None] + shift[cols] + math.pi, 2.0 * math.pi) < geom.beta_span

    edge = np.flatnonzero(partner_inside(slice(None), [0, -1]).any(axis=1))
    once = 0.0
    for lo in range(0, edge.size, _ROW_BLOCK):
        rows = edge[lo : lo + _ROW_BLOCK]
        once += float(np.sum(np.where(partner_inside(rows, slice(None)), sino.data[rows], 0.0) @ chord))
    return dcell * (twice - once)


def _disk_columns(n: int) -> np.ndarray:
    """First column of each row's in-disk pixels; row i holds columns lo_i .. n-1-lo_i.

    With a = 2i + 1 - n and b = 2j + 1 - n, pixel (i, j) is centred at
    (b, a)/n and inside the closed unit disk when a^2 + b^2 <= n^2.  a and
    b have the parity of n + 1, so a^2 + b^2 never equals n^2 and is at
    least 1 away from it: the in-disk columns are |b| < sqrt(n^2 - a^2),
    and the float test x1^2 + x2^2 <= 1 on the pixel centres, off by
    roundoff only, picks the same pixels.
    """
    a = 2.0 * np.arange(n) + 1.0 - n
    return np.floor((n - 1.0 - np.sqrt(n * n - a * a)) / 2.0).astype(np.intp) + 1


def restore_dc(img: np.ndarray, sino) -> np.ndarray:
    """``img`` plus the constant that makes its disk integral match :func:`disk_integral_target`."""
    n = img.shape[0]
    lo = _disk_columns(n)
    h2 = (2.0 / n) ** 2
    current = h2 * sum(float(row[first : n - first].sum()) for row, first in zip(img, lo.tolist()))
    target = disk_integral_target(sino)
    return img + (target - current) / (h2 * int(np.sum(n - 2 * lo)))
