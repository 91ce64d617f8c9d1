"""Fast parallel backprojection through the polar frequency domain.

The 2-D spectrum of the backprojected image, written in polar
coordinates, is the detector-direction spectrum of the sinogram divided
by the radial frequency.  With the angular-frequency transform pair used
throughout this library (kernel exp(-i t sigma)) and full-circle data q,

    F2[B q](sigma xi_theta) = (2*pi/sigma) * (q^(sigma, theta) + conj(q^(sigma, theta+pi)))

which for evenness-consistent data reduces to (4*pi/sigma) q^.  The
implementation builds P = (4*pi/sigma) q^ on the polar grid and averages
in the conjugate term there, P_sym(sigma, theta) = (P + conj P(sigma,
theta+pi)) / 2, so the same code is exact for arbitrary real input and
the Cartesian spectrum is Hermitian by construction.

Stages: 1-D FFTs along the detector rows (zero padded), the 1/sigma
weight with a zeroed DC bin, bilinear polar-to-Cartesian resampling, an
inverse real 2-D FFT on a domain padded to twice the image extent, and an
additive DC restoration.

The resampling is a sparse operator holding four bilinear weights for
each Cartesian node of the quarter plane k1 >= 0, k2 >= 0.  Its weights
depend only on the polar shape, sigma_max and the Cartesian grid, so it
is built once and cached.  The same operator applied to the reflection
theta -> -theta of the polar data gives the quadrant k2 < 0; the half
plane k1 < 0 is Hermitian symmetric to these and never formed.  The
polar grid must hold an even number of angles, so that every theta + pi
partner is a row.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._dc import disk_integral_target, restore_dc
from ._interp import _EDGE_TOL
from .core import ImageGrid, ParallelSinogram, PolarSpectrum

__all__ = ["bst_backproject", "polar_to_cartesian", "sinogram_polar_spectrum"]

# Detector-axis FFT zero-padding and image-domain padding factors.  The
# finer radial grid and doubled image extent keep the bilinear
# resampling and periodization errors of the 1/sigma kernel small.
_PAD_T = 4
_PAD_IMAGE = 2

# Cartesian nodes per block while building the resampling operator; bounds
# the build's temporaries to a few MB whatever the grid size.
_BUILD_NODES = 1 << 16


def _fast_len(m: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= m, a length the real FFT handles fast."""
    n = m
    # below 2**64, n divides 30**64 exactly when 2, 3 and 5 are its only prime factors
    while 30**64 % n:
        n += 1
    return n


def _detector_spectrum(data: np.ndarray, t0: float, dt: float, length: int, sigma_max: float) -> PolarSpectrum:
    """Polar spectrum (4*pi/sigma) qhat of rows sampled at t0 + j*dt, DC zeroed.

    qhat(sigma_m, theta_row) comes from the rows zero padded to ``length``
    samples, on the radii sigma_m = 2*pi*m/(length*dt) up to sigma_max.
    """
    spec = np.fft.rfft(data, n=length, axis=1)
    sigma = 2.0 * math.pi * np.arange(spec.shape[1]) / (length * dt)
    keep = int(np.searchsorted(sigma, sigma_max * (1.0 + 1e-12), side="right"))
    keep = max(2, min(keep, sigma.size))
    # weighted in place, with no temporary the size of the spectrum
    spec = spec[:, :keep]
    spec[:, 0] = 0.0
    spec[:, 1:] *= (dt * 4.0 * math.pi / sigma[1:keep]) * np.exp(-1j * sigma[1:keep] * t0)
    return PolarSpectrum(spec, sigma_max=float(sigma[keep - 1]))


def sinogram_polar_spectrum(q: ParallelSinogram, sigma_max: float) -> PolarSpectrum:
    """Polar spectrum (4*pi/sigma) qhat of a full-circle sinogram, DC zeroed."""
    if not q.full_circle:
        raise ValueError("expected a full-circle sinogram")
    length = _fast_len(_PAD_T * q.n_t)
    return _detector_spectrum(q.data, -1.0, 2.0 / (q.n_t - 1), length, sigma_max)


@functools.lru_cache(maxsize=2)
def _quarter_plane_operator(n_theta: int, n_sigma: int, sigma_max: float, n: int, step: float):
    """CSR matrix of bilinear weights from polar rows to the quarter plane k1, k2 >= 0.

    Row a*q + b, q = n - n//2, is the node (k1, k2) = step*(b, a).  It
    holds four weights on the polar grid, or none beyond sigma_max, at
    the angle index atan2(k2, k1)/dtheta.  Those angles span only a
    quarter turn, so the columns index the first rows of a (rows,
    n_sigma) grid, flattened.  At most 52 bytes per node: four float64
    weights, four int32 indices and a row pointer.
    """
    from scipy import sparse

    q = n - n // 2
    k = step * np.arange(q)
    dsig = sigma_max / (n_sigma - 1)
    dth = 2.0 * math.pi / n_theta
    inside = (np.hypot(k[None, :], k[:, None]) / dsig <= n_sigma - 1.0 + _EDGE_TOL).ravel()
    # angle indices stay at or below n_theta/4, so rows below n_theta//4 + 2
    idx = np.int32 if max(4 * q * q, (n_theta // 4 + 2) * n_sigma) < 2**31 else np.int64
    indptr = np.zeros(q * q + 1, dtype=idx)
    np.cumsum(4 * inside, out=indptr[1:])
    indices = np.empty((int(indptr[-1]) // 4, 4), dtype=idx)
    weights = np.empty(indices.shape)
    done = 0
    for lo in range(0, q * q, _BUILD_NODES):
        node = lo + np.flatnonzero(inside[lo : lo + _BUILD_NODES])
        k1 = k[node % q]
        k2 = k[node // q]
        v = np.minimum(np.hypot(k1, k2) / dsig, n_sigma - 1.0)
        j0 = np.minimum(v.astype(np.intp), n_sigma - 2)
        fv = v - j0
        u = np.arctan2(k2, k1) / dth
        i0 = u.astype(np.intp)
        fu = u - i0
        i1 = i0 + 1
        rows = slice(done, done + node.size)
        indices[rows] = np.stack([i0 * n_sigma + j0, i1 * n_sigma + j0, i0 * n_sigma + j0 + 1, i1 * n_sigma + j0 + 1], axis=1)
        weights[rows] = np.stack([(1.0 - fu) * (1.0 - fv), fu * (1.0 - fv), (1.0 - fu) * fv, fu * fv], axis=1)
        done += node.size
    n_rows = int(indices.max()) // n_sigma + 1
    return sparse.csr_array((weights.ravel(), indices.ravel(), indptr), shape=(q * q, n_rows * n_sigma))


def _rows(data: np.ndarray, count: int) -> np.ndarray:
    """Rows j of 2 P_sym = P + conj P(theta + pi) and, beside them, rows -j (mod n_theta).

    The second column is P_sym reflected theta -> -theta: sampled at a
    quarter-plane node it gives the mirrored node in the quadrant k2 < 0.
    Every term is a slice or a reversed slice of the polar rows; count is
    at most n_theta/4 + 2, so only a grid of two or four angles has
    theta + pi partners past its last row, and it is stacked twice.
    """
    n_theta = data.shape[0]
    half = n_theta // 2
    if half + count > n_theta:
        data = np.vstack([data, data])
    x = np.empty((count, data.shape[1], 2), dtype=np.complex128)
    # j + pi and j
    np.conjugate(data[half : half + count], out=x[:, :, 0])
    x[:, :, 0] += data[:count]
    # -j + pi and -j, that is row 0 then rows n_theta - 1 down to n_theta - count + 1
    np.conjugate(data[half - count + 1 : half + 1][::-1], out=x[:, :, 1])
    x[0, :, 1] += data[0]
    x[1:, :, 1] += data[n_theta - count + 1 : n_theta][::-1]
    return x


def _apply(operator, x: np.ndarray) -> np.ndarray:
    """The real operator on both complex columns, as four real ones."""
    return (operator @ x.reshape(-1, 2).view(np.float64)).view(np.complex128)


def polar_to_cartesian(spectrum: PolarSpectrum, n: int, step: float = math.pi) -> np.ndarray:
    """Resample a polar spectrum onto the k1 >= 0 half of an n x n frequency grid.

    The result has shape (n, n//2 + 1), the layout an inverse real FFT
    reads: column m1 holds k1 = m1*step, row m2 holds k2 = m2*step for
    m2 < n - n//2 and (m2 - n)*step after that.  Radii beyond sigma_max
    are zero filled, and for even n the unpartnered k = n/2 lines are
    zero.  The values are the bilinear samples of P_sym = (P + conj P(theta
    + pi)) / 2, so the whole plane they stand for is Hermitian and its
    inverse transform is real.  A cached operator samples the quarter
    plane k1, k2 >= 0 from P_sym and from its reflection theta -> -theta,
    which gives the quadrant k2 < 0.  The polar grid must hold an even
    number of angles, so that each row's theta + pi partner is a row.
    """
    data = spectrum.data
    n_theta, n_sigma = data.shape
    if n_theta % 2:
        raise ValueError(f"polar resampling needs an even number of angles, got {n_theta}")
    operator = _quarter_plane_operator(n_theta, n_sigma, spectrum.sigma_max, n, step)
    x = _apply(operator, _rows(data, operator.shape[1] // n_sigma))
    x *= 0.5
    # the origin is its own mirror image, so its partner is the angle-0 row
    # itself, not the theta + pi row
    x[0] = data[0, 0].real
    q = n - n // 2
    quad = x.reshape(q, q, 2)
    half = np.zeros((n, n // 2 + 1), dtype=np.complex128)
    half[:q, :q] = quad[:, :, 0]
    # k2 = -a in row n - a, for a = 1 .. q - 1; an even n leaves the -n/2 row zero
    half[n - q + 1 :, :q] = quad[q - 1 : 0 : -1, :, 1]
    return half


def spectrum_to_image(spectrum: PolarSpectrum, n: int) -> np.ndarray:
    """Inverse 2-D transform of a polar spectrum onto the n x n pixel grid.

    Synthesizes on a grid padded to _PAD_IMAGE times the image extent and
    crops, which keeps the periodization alias of slowly decaying
    backprojections away from the unit disk.  The spectrum is Hermitian,
    so only its k1 >= 0 half is resampled, phased and inverted: a complex
    inverse FFT along k2, then a real one along k1 on only the rows the
    crop keeps.
    """
    n2 = _PAD_IMAGE * n
    h = 2.0 / n
    step = 2.0 * math.pi / (n2 * h)
    spec = polar_to_cartesian(spectrum, n2, step=step)
    x0 = -1.0 + h / 2.0 - (n // 2) * h
    half = n2 // 2
    # FFT order: m = 0 .. half - 1, then -half .. -1; column `half` is the
    # zero k1 = n2/2 line
    phase = np.fft.ifftshift(np.exp(1j * step * (np.arange(n2) - half) * x0))
    spec *= phase[:, None]
    spec *= phase[None, : half + 1]
    # unnormalized transforms; 1/n2^2 and the grid scale are applied apart,
    # which rounds as irfft2 over the whole grid does
    q0 = n // 2
    rows = np.fft.ifft(spec, axis=0, norm="forward", out=spec)[q0 : q0 + n]
    img = np.fft.irfft(rows, n2, axis=1, norm="forward")[:, q0 : q0 + n]
    img = np.ascontiguousarray(img)
    img *= 1.0 / (n2 * n2)
    img *= n2 * n2 * (step / (2.0 * math.pi)) ** 2
    return img


def bst_backproject(p: ParallelSinogram, n: int) -> ImageGrid:
    """Backproject a parallel sinogram through the polar frequency domain.

    Half-range input is extended to [0, 2*pi) by evenness, which realizes
    the factor 2 of the direct formula.  The zero frequency is restored
    from the mass of the full-circle sinogram the back end transforms
    (:mod:`fanbeam._dc`).
    """
    q = p if p.full_circle else ParallelSinogram(np.vstack([p.data, p.data[:, ::-1]]), theta_span=2.0 * math.pi)
    sigma_max = math.pi * n / 2.0
    spec = sinogram_polar_spectrum(q, sigma_max)
    img = spectrum_to_image(spec, n)
    cell = q.theta_span / q.n_theta * (2.0 / (q.n_t - 1))
    return ImageGrid(restore_dc(img, disk_integral_target(q.data, q.t_grid, cell)))
