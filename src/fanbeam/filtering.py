"""Ramp filtering and the filtered-backprojection pipeline.

Filtering happens in the parallel domain before rebinning (fan-domain
filter kernels are out of scope): each detector row is zero padded,
multiplied by |sigma| up to a hard cutoff, and transformed back.  The
reconstruction scale is a single constant per fan detector, source
distance and backprojection route, fixed once by reconstructing a
calibration disk of known amplitude; the continuum value for the flat
detector is 1/(4*pi).

:func:`backproject` is the one dispatch over the three routes.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .bst import _fast_len, bst_backproject
from .core import (
    FAN_SINOGRAMS,
    LINEAR,
    STANDARD,
    FanDetector,
    FanGeometry,
    FanSinogram,
    ImageGrid,
    LinearFanSinogram,
    ParallelSinogram,
)
from .forward import _rebin_to_fan
from .phantom import analytic_radon, calibration_disk
from .rebinning import adjoint_rebin_linear, adjoint_rebin_standard
from .reference import backproject_linear_fan, backproject_standard_fan
from .series import linear_fan_backproject, standard_fan_backproject

__all__ = ["backproject", "ramp_filter", "fbp_normalization", "fbp_linear_pipeline"]

_CALIBRATION_N = 128


def backproject(sino: FanSinogram, n: int, method: str = "bessel", eps: float = 1e-9) -> ImageGrid:
    """Fan-beam backprojection of ``sino`` onto the n x n image by one route.

    ``method`` is "direct" (pixel-driven reference), "rebin-bst" (adjoint
    rebinning on the full circle, then the polar-frequency parallel
    backprojection) or "bessel" (the Bessel-Neumann series, truncated at
    ``eps``).
    """
    # the route functions are looked up as module globals on every call,
    # so wrappers installed over them after import still see the calls
    standard = sino.detector is STANDARD
    if method == "direct":
        return (backproject_standard_fan if standard else backproject_linear_fan)(sino, n)
    if method == "rebin-bst":
        adjoint = adjoint_rebin_standard if standard else adjoint_rebin_linear
        return bst_backproject(adjoint(sino, sino.n_det, 2 * sino.n_beta), n)
    if method == "bessel":
        return (standard_fan_backproject if standard else linear_fan_backproject)(sino, n, eps=eps)
    raise ValueError(f"unknown backprojection method {method!r}")


def ramp_filter(p: ParallelSinogram, cutoff_fraction: float = 1.0) -> ParallelSinogram:
    """Multiply each row's spectrum by |sigma| up to cutoff_fraction x Nyquist.

    The cutoff is hard; rows are zero padded to twice the detector length.
    """
    if not (0.0 < cutoff_fraction <= 1.0):
        raise ValueError("cutoff_fraction must be in (0, 1]")
    n_t = p.n_t
    dt = 2.0 / (n_t - 1)
    length = _fast_len(2 * n_t)
    sigma = 2.0 * math.pi * np.arange(length // 2 + 1) / (length * dt)
    cutoff = cutoff_fraction * math.pi / dt
    mult = np.where(sigma <= cutoff, sigma, 0.0)
    spec = np.fft.rfft(p.data, n=length, axis=1)
    filtered = np.fft.irfft(spec * mult[None, :], n=length, axis=1)
    return ParallelSinogram(filtered[:, :n_t], theta_span=p.theta_span)


def _filtered_backprojection(p: ParallelSinogram, geom: FanGeometry, sinogram, n: int, route: str, eps: float):
    """ramp filter (parallel domain) -> rebin to the ``sinogram`` type -> backproject by ``route``."""
    fan = _rebin_to_fan(ramp_filter(p), geom, sinogram, p.n_t, p.n_theta)
    return backproject(fan, n, route, eps).data


@lru_cache(maxsize=16)
def _cached_normalization(detector: FanDetector, d: float, route: str) -> float:
    n = _CALIBRATION_N
    p = analytic_radon(calibration_disk(), n, n)
    img = _filtered_backprojection(p, FanGeometry(d), FAN_SINOGRAMS[detector.name], n, route, 1e-9)
    center = float(img[n // 2 - 1 : n // 2 + 1, n // 2 - 1 : n // 2 + 1].mean())
    if center <= 0:
        raise RuntimeError("calibration disk reconstructed with non-positive center")
    return 1.0 / center


def fbp_normalization(geom: FanGeometry, route: str = "bessel", *, detector: FanDetector = LINEAR) -> float:
    """Reconstruction scale fixed by the calibration-disk procedure.

    Computed once per (detector, distance, route) at a fixed reference
    resolution, through the chain that rebins to ``detector`` and
    backprojects by ``route``, and cached; the unit-amplitude disk then
    reconstructs to 1.0 at the center.  The linear value sits near the
    continuum constant 1/(4*pi); the standard one is about D times
    larger, because the standard backprojection weights each ray by the
    inverse source distance 1/L ~ 1/D.
    """
    return _cached_normalization(detector, geom.d, route)


def fbp_linear_pipeline(
    p: ParallelSinogram, geom: FanGeometry, n: int, eps: float = 1e-9, route: str = "bessel"
) -> ImageGrid:
    """Reconstruct through the flat-detector chain the experiments use.

    ramp filter (parallel domain) -> rebin to the linear fan geometry ->
    backproject by ``route`` -> scale by the calibration constant.
    """
    normalization = fbp_normalization(geom, route)
    return ImageGrid(_filtered_backprojection(p, geom, LinearFanSinogram, n, route, eps) * normalization)
