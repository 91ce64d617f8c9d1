"""Grids, sinogram containers, and acquisition geometry.

Conventions shared by every module:

* Images live on the square [-1, 1]^2 with the object supported in the
  closed unit disk.  Pixel (i, j) of an n x n image is centered at
  ``x1 = -1 + (2j + 1)/n``, ``x2 = -1 + (2i + 1)/n``.
* All 2-D data arrays are row-major with the angular variable as the
  slow (row) axis and the detector/radial variable as the fast axis.
* Radial grids (t, gamma, s) include both endpoints; angular grids
  (theta, beta) are half open, excluding the upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

__all__ = [
    "ImageGrid",
    "ParallelSinogram",
    "FanGeometry",
    "FanDetector",
    "STANDARD",
    "LINEAR",
    "FanSinogram",
    "StandardFanSinogram",
    "LinearFanSinogram",
    "FAN_SINOGRAMS",
    "PolarSpectrum",
    "make_fan_geometry",
    "image_coords",
]


class GeometryError(ValueError):
    """Raised for physically impossible acquisition parameters."""


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=a.dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ImageGrid:
    """n x n real image on [-1, 1]^2, unit-disk object support."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"image data must be square, got {d.shape}")
        object.__setattr__(self, "data", _freeze(d))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def coords(self):
        """Pixel-center coordinate arrays (x1 along columns, x2 along rows)."""
        return image_coords(self.n)


def image_coords(n: int):
    c = -1.0 + (2.0 * np.arange(n) + 1.0) / n
    return np.meshgrid(c, c, indexing="xy")


@dataclass(frozen=True)
class ParallelSinogram:
    """p(t, theta) sampled on [-1, 1] x [0, theta_span).

    ``data`` has shape (n_theta, n_t); ``theta_span`` is ``pi`` for
    measured sinograms and ``2*pi`` for full-circle data produced by the
    adjoint rebinning operators.
    """

    data: np.ndarray
    theta_span: float = math.pi

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 2:
            raise ValueError(f"sinogram data must be (n_theta, n_t>=2), got {d.shape}")
        if not (math.isclose(self.theta_span, math.pi) or math.isclose(self.theta_span, 2 * math.pi)):
            raise ValueError("theta_span must be pi or 2*pi")
        object.__setattr__(self, "data", _freeze(d))

    @property
    def n_theta(self) -> int:
        return self.data.shape[0]

    @property
    def n_t(self) -> int:
        return self.data.shape[1]

    @property
    def full_circle(self) -> bool:
        return self.theta_span > 4.0

    @property
    def t_grid(self) -> np.ndarray:
        return np.linspace(-1.0, 1.0, self.n_t)

    @property
    def theta_grid(self) -> np.ndarray:
        return self.theta_span * np.arange(self.n_theta) / self.n_theta


@dataclass(frozen=True)
class FanGeometry:
    """Source circle of radius d around the unit-disk object.

    ``s_max`` is the largest linear-detector coordinate whose ray meets
    the unit disk, ``gamma_max`` the corresponding fan half-angle, and
    ``beta_span`` the short-scan range of source angles that sees each
    line through the disk.
    """

    d: float
    s_max: float = field(init=False)
    gamma_max: float = field(init=False)
    beta_span: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.d) and self.d > 1.0):
            raise GeometryError(f"source distance d={self.d} must be finite and exceed the unit-disk radius")
        if not math.isfinite(self.d * self.d):
            raise GeometryError(f"source distance d={self.d} is too large: s_max = d/sqrt(d*d - 1) overflows")
        gamma_max = math.asin(1.0 / self.d)
        s_max = self.d / math.sqrt(self.d * self.d - 1.0)
        object.__setattr__(self, "gamma_max", gamma_max)
        object.__setattr__(self, "s_max", s_max)
        object.__setattr__(self, "beta_span", math.pi + 2.0 * gamma_max)


def make_fan_geometry(d: float) -> FanGeometry:
    """Build the fan geometry for source-origin distance ``d`` (> 1)."""
    return FanGeometry(float(d))


@dataclass(frozen=True)
class FanDetector:
    """Detector coordinate of a fan geometry, at source distance ``d``.

    The standard (equiangular, coordinate gamma) and linear (flat,
    coordinate s) geometries differ only in the functions held here:

    * ``half_width(geom)``: the detector half-width, gamma_max or s_max;
    * ``angle(det, d)``: the fan angle of the ray through ``det``;
    * ``t(det, d)``: the parallel offset of that ray;
    * ``det_of_t(t, d)``: the inverse of ``t``;
    * ``jacobian(t, d)``: the weight of the adjoint rebinning at offset t;
    * ``d_of_half_width(h)``: the source distance whose detector has
      half-width h, valid on the open interval ``half_width_range``.
    """

    name: str
    half_width: Callable[[FanGeometry], float]
    angle: Callable
    t: Callable
    det_of_t: Callable
    jacobian: Callable
    d_of_half_width: Callable[[float], float]
    half_width_range: tuple[float, float]


STANDARD = FanDetector(
    "standard",
    half_width=lambda geom: geom.gamma_max,
    angle=lambda gamma, d: gamma,
    t=lambda gamma, d: d * np.sin(gamma),
    det_of_t=lambda t, d: np.arcsin(t / d),
    jacobian=lambda t, d: 1.0 / np.sqrt(d**2 - t**2),
    d_of_half_width=lambda gamma_max: 1.0 / math.sin(gamma_max),
    half_width_range=(0.0, math.pi / 2),
)

LINEAR = FanDetector(
    "linear",
    half_width=lambda geom: geom.s_max,
    angle=lambda s, d: np.arctan(s / d),
    t=lambda s, d: s * d / np.hypot(s, d),
    det_of_t=lambda t, d: t * d / np.sqrt(d**2 - t**2),
    jacobian=lambda t, d: d**3 / (d**2 - t**2) ** 1.5,
    d_of_half_width=lambda s_max: s_max / math.sqrt(s_max**2 - 1.0),
    half_width_range=(1.0, math.inf),
)


@dataclass(frozen=True)
class FanSinogram:
    """Fan data on [-h, h] x [0, beta_span), h the detector half-width.

    ``data`` has shape (n_beta, n_det); the subclass sets ``detector``.
    """

    data: np.ndarray
    geometry: FanGeometry
    detector: ClassVar[FanDetector]

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        # the beta interpolation reads the row after each sample, wrapping round
        if d.ndim != 2 or d.shape[0] < 2 or d.shape[1] < 2:
            raise ValueError(f"fan data must be (n_beta>=2, n_det>=2), got {d.shape}")
        object.__setattr__(self, "data", _freeze(d))

    @property
    def n_beta(self) -> int:
        return self.data.shape[0]

    @property
    def n_det(self) -> int:
        return self.data.shape[1]

    @property
    def det_grid(self) -> np.ndarray:
        h = self.detector.half_width(self.geometry)
        return np.linspace(-h, h, self.n_det)

    @property
    def beta_grid(self) -> np.ndarray:
        return self.geometry.beta_span * np.arange(self.n_beta) / self.n_beta


class StandardFanSinogram(FanSinogram):
    """w(gamma, beta) on [-gamma_max, gamma_max] x [0, beta_span)."""

    detector = STANDARD
    n_gamma = FanSinogram.n_det
    gamma_grid = FanSinogram.det_grid


class LinearFanSinogram(FanSinogram):
    """g(s, beta) on [-s_max, s_max] x [0, beta_span)."""

    detector = LINEAR
    n_s = FanSinogram.n_det
    s_grid = FanSinogram.det_grid


# fan sinogram type by detector name, the names the CLI accepts
FAN_SINOGRAMS = {cls.detector.name: cls for cls in (StandardFanSinogram, LinearFanSinogram)}


@dataclass(frozen=True)
class PolarSpectrum:
    """Complex samples on the polar frequency grid [0, sigma_max] x [0, 2*pi).

    ``data`` has shape (n_theta, n_sigma); sigma is angular frequency
    (radians per unit length) sampled uniformly including both endpoints,
    theta is uniform and half open on the full circle.
    """

    data: np.ndarray
    sigma_max: float

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.complex128)
        if d.ndim != 2 or d.shape[0] < 1 or d.shape[1] < 2:
            raise ValueError(f"spectrum data must be (n_theta, n_sigma>=2), got {d.shape}")
        if not (self.sigma_max > 0):
            raise ValueError("sigma_max must be positive")
        object.__setattr__(self, "data", _freeze(d))

    @property
    def n_theta(self) -> int:
        return self.data.shape[0]

    @property
    def n_sigma(self) -> int:
        return self.data.shape[1]

    @property
    def sigma_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.sigma_max, self.n_sigma)

    @property
    def theta_grid(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n_theta) / self.n_theta
