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
theta -> -theta of the polar data gives the quadrant k2 < 0, and
Hermitian symmetry gives the half plane k1 < 0.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy import fft as sfft

from ._dc import restore_dc
from ._interp import _EDGE_TOL
from ._threads import get_workers
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


def _detector_spectrum(data: np.ndarray, t0: float, dt: float, length: int, sigma_max: float) -> PolarSpectrum:
    """Polar spectrum (4*pi/sigma) qhat of rows sampled at t0 + j*dt, DC zeroed.

    qhat(sigma_m, theta_row) comes from the rows zero padded to ``length``
    samples, on the radii sigma_m = 2*pi*m/(length*dt) up to sigma_max.
    """
    qhat = sfft.rfft(data, n=length, axis=1, workers=get_workers())
    sigma = 2.0 * math.pi * np.arange(qhat.shape[1]) / (length * dt)
    keep = int(np.searchsorted(sigma, sigma_max * (1.0 + 1e-12), side="right"))
    keep = max(2, min(keep, sigma.size))
    qhat = qhat[:, 1:keep] * (dt * np.exp(-1j * sigma[1:keep] * t0))[None, :]
    spec = np.zeros((data.shape[0], keep), dtype=np.complex128)
    spec[:, 1:] = 4.0 * math.pi / sigma[1:keep][None, :] * qhat
    return PolarSpectrum(spec, sigma_max=float(sigma[keep - 1]))


def sinogram_polar_spectrum(q: ParallelSinogram, sigma_max: float) -> PolarSpectrum:
    """Polar spectrum (4*pi/sigma) qhat of a full-circle sinogram, DC zeroed."""
    if not q.full_circle:
        raise ValueError("expected a full-circle sinogram")
    length = sfft.next_fast_len(_PAD_T * q.n_t, real=True)
    return _detector_spectrum(q.data, -1.0, 2.0 / (q.n_t - 1), length, sigma_max)


@functools.lru_cache(maxsize=2)
def _quarter_plane_operator(n_theta: int, n_sigma: int, sigma_max: float, n: int, step: float, offset: float):
    """CSR matrix of bilinear weights from polar rows to the quarter plane k1, k2 >= 0.

    Row a*q + b, q = n - n//2, is the node (k1, k2) = step*(b, a).  It
    holds four weights on the polar grid, or none beyond sigma_max, at
    the angle index atan2(k2, k1)/dtheta + ``offset``.  Those angles span
    only a quarter turn, so the columns index the first rows of a
    (rows, n_sigma) grid, flattened; the caller supplies those rows, taken
    periodically from any starting row.  At most 52 bytes per node: four
    float64 weights, four int32 indices and a row pointer.
    """
    from scipy import sparse

    q = n - n // 2
    k = step * np.arange(q)
    dsig = sigma_max / (n_sigma - 1)
    dth = 2.0 * math.pi / n_theta
    inside = (np.hypot(k[None, :], k[:, None]) / dsig <= n_sigma - 1.0 + _EDGE_TOL).ravel()
    # angle indices stay below n_theta/4 + offset, so rows below n_theta//4 + 3
    idx = np.int32 if max(4 * q * q, (n_theta // 4 + 3) * n_sigma) < 2**31 else np.int64
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
        u = np.arctan2(k2, k1) / dth + offset
        i0 = u.astype(np.intp)
        fu = u - i0
        i1 = i0 + 1
        rows = slice(done, done + node.size)
        indices[rows] = np.stack([i0 * n_sigma + j0, i1 * n_sigma + j0, i0 * n_sigma + j0 + 1, i1 * n_sigma + j0 + 1], axis=1)
        weights[rows] = np.stack([(1.0 - fu) * (1.0 - fv), fu * (1.0 - fv), (1.0 - fu) * fv, fu * fv], axis=1)
        done += node.size
    n_rows = int(indices.max()) // n_sigma + 1
    return sparse.csr_array((weights.ravel(), indices.ravel(), indptr), shape=(q * q, n_rows * n_sigma))


def _rows(data: np.ndarray, start: int, count: int) -> np.ndarray:
    """Rows start + j of the polar data and, beside them, rows -start - j (mod n_theta).

    The second column is the data reflected theta -> -theta: sampled at a
    quarter-plane node it gives the mirrored node in the quadrant k2 < 0.
    """
    j = np.arange(count)
    x = np.empty((count, data.shape[1], 2), dtype=np.complex128)
    x[:, :, 0] = data[(start + j) % data.shape[0]]
    x[:, :, 1] = data[(-start - j) % data.shape[0]]
    return x


def _apply(operator, x: np.ndarray) -> np.ndarray:
    """The real operator on both complex columns, as four real ones."""
    return (operator @ x.reshape(-1, 2).view(np.float64)).view(np.complex128)


def polar_to_cartesian(spectrum: PolarSpectrum, n: int, step: float = math.pi) -> np.ndarray:
    """Resample a polar spectrum onto an n x n Cartesian frequency grid.

    The grid holds frequencies m*step for m in [-n//2, n - n//2), centred;
    radii beyond sigma_max are zero filled.  The result is the bilinear
    sample of P_sym = (P + conj P(theta + pi)) / 2, so it is Hermitian and
    its inverse transform is real; for even n the unpartnered -n/2 lines
    are zero.  A cached operator samples the quarter plane k1, k2 >= 0
    from P_sym and from its reflection theta -> -theta, which gives the
    quadrant k2 < 0; the half plane k1 < 0 is the conjugate mirror.  For
    odd n_theta the theta + pi partners fall between rows, so a second
    operator, offset by half a row, samples P there and the two samples
    are averaged.
    """
    data = spectrum.data
    n_theta, n_sigma = data.shape
    key = (n_theta, n_sigma, spectrum.sigma_max, n, step)
    operator = _quarter_plane_operator(*key, 0.0)
    count = operator.shape[1] // n_sigma
    if n_theta % 2 == 0:
        x = _rows(data, 0, count)
        partner = _rows(data, n_theta // 2, count)
        x += np.conj(partner, out=partner)
        x = _apply(operator, x)
    else:
        shifted = _quarter_plane_operator(*key, 0.5)
        x = _apply(operator, _rows(data, 0, count))
        x += np.conj(_apply(shifted, _rows(data, n_theta // 2, shifted.shape[1] // n_sigma)))
    x *= 0.5
    # the origin is its own mirror image, so its partner is the angle-0 row
    # itself, not the theta + pi row
    x[0] = data[0, 0].real
    q = n - n // 2
    quad = x.reshape(q, q, 2)
    grid = np.zeros((n, n), dtype=np.complex128)
    grid[n // 2 :, n // 2 :] = quad[:, :, 0]
    grid[n // 2 - q + 1 : n // 2, n // 2 :] = quad[q - 1 : 0 : -1, :, 1]
    # k1 < 0 from k -> -k; past the zero -n/2 lines of an even n the mirror is a flip
    lo = 1 - n % 2
    rest = grid[lo:, lo:]
    rest[:, : n // 2 - lo] = np.conj(rest[::-1, ::-1][:, : n // 2 - lo])
    return grid


def spectrum_to_image(spectrum: PolarSpectrum, n: int) -> np.ndarray:
    """Inverse 2-D transform of a polar spectrum onto the n x n pixel grid.

    Synthesizes on a grid padded to _PAD_IMAGE times the image extent and
    crops, which keeps the periodization alias of slowly decaying
    backprojections away from the unit disk.  The spectrum is Hermitian,
    so only its k1 >= 0 half is phased and inverted: a complex inverse
    FFT along k2, then a real one along k1 on only the rows the crop
    keeps.
    """
    n2 = _PAD_IMAGE * n
    h = 2.0 / n
    step = 2.0 * math.pi / (n2 * h)
    grid = polar_to_cartesian(spectrum, n2, step=step)
    x0 = -1.0 + h / 2.0 - (n // 2) * h
    half = n2 // 2
    # FFT order: m = 0 .. half - 1, then -half .. -1; column `half` is the
    # zero k1 = n2/2 line
    phase = sfft.ifftshift(np.exp(1j * step * (np.arange(n2) - half) * x0))
    spec = np.zeros((n2, half + 1), dtype=np.complex128)
    spec[:half, :half] = grid[half:, half:]
    spec[half:, :half] = grid[:half, half:]
    spec *= phase[:, None]
    spec *= phase[None, : half + 1]
    # unnormalized transforms; 1/n2^2 and the grid scale are applied apart,
    # which rounds as irfft2 over the whole grid does
    q0 = n // 2
    rows = sfft.ifft(spec, axis=0, norm="forward", workers=get_workers())[q0 : q0 + n]
    img = sfft.irfft(rows, n2, axis=1, norm="forward", workers=get_workers())[:, q0 : q0 + n]
    img = np.ascontiguousarray(img)
    img *= 1.0 / (n2 * n2)
    img *= n2 * n2 * (step / (2.0 * math.pi)) ** 2
    return img


def _even_extend(p: ParallelSinogram) -> ParallelSinogram:
    ext = np.vstack([p.data, p.data[:, ::-1]])
    return ParallelSinogram(ext, theta_span=2.0 * math.pi)


def bst_backproject(p: ParallelSinogram, n: int) -> ImageGrid:
    """Backproject a parallel sinogram through the polar frequency domain.

    Half-range input is extended to [0, 2*pi) by evenness, which realizes
    the factor 2 of the direct formula.  The zero frequency is restored
    from the sinogram's mass (:func:`fanbeam._dc.restore_dc`).
    """
    q = p if p.full_circle else _even_extend(p)
    sigma_max = math.pi * n / 2.0
    spec = sinogram_polar_spectrum(q, sigma_max)
    img = spectrum_to_image(spec, n)
    return ImageGrid(restore_dc(img, p))
