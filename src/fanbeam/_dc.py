"""Zero-frequency restoration for the Fourier-domain backprojections.

The 1/sigma kernel annihilates the image mean, so the spectral routes
reconstruct a zero-DC image and add a constant afterwards.  The constant
comes from an exact adjoint identity: for any backprojection B* and its
forward A,

    integral over the unit disk of (B* y) = < y, A 1_disk >

and A 1_disk is the analytic sinogram of the unit disk: at a ray of
parallel offset t, the chord length 2 sqrt(1 - t^2), in every
parametrization.  :func:`disk_integral_target` sums sampled data against
those chords, and each route passes its own samples and the measure of
one cell: ``rebin-bst`` the full-circle parallel field q = M* y its back
end transforms (B_fan = B_par M*, so the identity holds on q), ``bessel``
the measured fan cells, where its q would be too coarse.  The offset is
chosen so the discrete disk integral of the output matches that target.
"""

from __future__ import annotations

import numpy as np

__all__ = ["disk_integral_target", "restore_dc"]


def disk_integral_target(data: np.ndarray, t: np.ndarray, cell: float) -> float:
    """< data, A 1_disk >: each sample times the chord at its column's ray offset t[j] and the cell measure ``cell``."""
    chord = 2.0 * np.sqrt(np.maximum(1.0 - np.asarray(t, dtype=np.float64) ** 2, 0.0))
    return float(cell * np.sum(data @ chord))


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


def restore_dc(img: np.ndarray, target: float) -> np.ndarray:
    """``img`` plus the constant that makes its disk integral ``target`` (see :func:`disk_integral_target`)."""
    n = img.shape[0]
    lo = _disk_columns(n)
    h2 = (2.0 / n) ** 2
    current = h2 * sum(float(row[first : n - first].sum()) for row, first in zip(img, lo.tolist()))
    return img + (target - current) / (h2 * int(np.sum(n - 2 * lo)))
