"""Fan-beam backprojection as a Bessel-Neumann series in the polar
frequency domain.

For a standard fan sinogram w, the sheared field
Z(gamma, theta) = w(gamma, theta - gamma) is 2*pi-periodic in gamma with
Fourier coefficients c_n(theta), and the detector-direction spectrum of
the adjoint-rebinned sinogram collapses to

    qhat(sigma, theta) = int Z(gamma, theta) exp(-i D sigma sin gamma) dgamma
                       = sum_n b_n(theta) J_n(D sigma)

with b_0 = 2*pi c_0 and b_n = 2*pi (c_n + (-1)^n c_{-n}) for n >= 1
(Jacobi-Anger expansion folded with J_{-n} = (-1)^n J_n).  The
flat-detector case reduces to the equiangular one through the geometry
switch L and the weight tau = D sec^2 gamma.

qhat is the detector spectrum of a field q(t, theta) supported on
t in [-1, 1], so its samples at sigma = k*pi fix it: they are q's
period-2 Fourier coefficients, a_k = qhat(k*pi)/2.  The series is therefore
evaluated only at sigma_k = k*pi, k = 0..n//2.  One inverse real FFT
along k turns those values into n samples of q at t_j = -1 + 2j/n (the
Nyquist term of an even n taken as real), and q then goes through the
back end of :mod:`fanbeam.bst`: a detector FFT zero padded to exactly 4n
samples, which gives the 2n+1 radii spaced pi/4 up to sigma_max = pi*n/2,
the 1/sigma weight, the cached polar-to-Cartesian resampling and the
inverse FFT.  The route never forms the rebinned parallel sinogram.

For a real Z, b_n is real for even n and purely imaginary for odd n.  The
weights and the table of Bessel values J_n(D sigma_k) are therefore kept
by parity of n, and the truncated series is one real matrix product per
parity.  The table comes from a downward (Miller) recurrence.

The weights b_n are linear in Z, and Z enters only through its samples
on the detector grid gamma_j, so the series reassociates: S = Z K with

    K[j, k] = sum_n J_n(D sigma_k) b_n[hat_j],

where b_n[hat_j] are the weights of the j-th detector hat (the linear
interpolant of the j-th unit vector).  The route builds K once per
(geometry, n_terms, n//2+1, n_gamma), from the table and the weights of
the identity, and caches it; a warm op is one real GEMM of Z against
K's interleaved real and imaginary parts, with no Fourier coefficients
and no Bessel table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as sfft
from scipy.special import gammaln

from ._dc import restore_dc
from ._interp import interp_or_zero
from ._threads import get_workers
from .bst import _detector_spectrum, spectrum_to_image
from .core import FanGeometry, ImageGrid, LinearFanSinogram, StandardFanSinogram
from .rebinning import apply_tau, linear_to_standard, shear_to_theta

__all__ = [
    "SeriesCoefficients",
    "BesselTable",
    "choose_truncation",
    "bessel_table",
    "fourier_coefficients_gamma",
    "evaluate_series",
    "standard_fan_backproject",
    "linear_fan_backproject",
]

_RESCALE_EXP = 832  # columns near overflow are scaled by 2**-832, about 1e-250
_THETA_CHUNK = 128


@dataclass(frozen=True)
class SeriesCoefficients:
    """Fourier coefficients of Z in gamma and the folded series weights.

    The weights b_n(theta) are stored by parity of n, each block
    C-contiguous with shape (orders, n_theta): ``even`` row m holds
    b_{2m}, ``odd`` row m holds b_{2m+1} / i.  For a real Z both blocks
    are real (b_n is real for even n and imaginary for odd n).  ``c``,
    when kept, has shape (2*n_terms - 1, n_theta) with row i holding
    order i - (n_terms - 1).
    """

    n_terms: int
    even: np.ndarray
    odd: np.ndarray
    c: np.ndarray | None = None

    @property
    def b(self) -> np.ndarray:
        """All weights b_n(theta), n = 0..n_terms-1, as a new complex array."""
        b = np.empty((self.n_terms, self.even.shape[1]), dtype=np.complex128)
        b[0::2] = self.even
        b[1::2] = 1j * self.odd
        return b

    def c_order(self, n: int) -> np.ndarray:
        if self.c is None:
            raise ValueError("coefficients were computed with keep_c=False")
        if abs(n) >= self.n_terms:
            raise IndexError(f"order {n} outside +-{self.n_terms - 1}")
        return self.c[n + self.n_terms - 1]


@dataclass(frozen=True)
class BesselTable:
    """Values J_n(D * sigma_k) for n = 0 .. n_terms-1, stored by parity of n.

    ``even[m, k]`` = J_{2m}(D sigma_k) and ``odd[m, k]`` = J_{2m+1}(D
    sigma_k), each C-contiguous, so the series is one real matrix product
    per parity.
    """

    sigmas: np.ndarray
    even: np.ndarray
    odd: np.ndarray

    @property
    def n_terms(self) -> int:
        return self.even.shape[0] + self.odd.shape[0]

    @property
    def values(self) -> np.ndarray:
        """The whole table, values[n, k] = J_n(D * sigma_k), as a new array."""
        values = np.empty((self.n_terms, self.sigmas.size))
        values[0::2] = self.even
        values[1::2] = self.odd
        return values


def choose_truncation(geom: FanGeometry, sigma_max: float, eps: float) -> int:
    """Number of series terms needed at radial frequency sigma_max.

    Smallest N such that the envelope |J_n(x)| <= (x/2)^n / n! stays
    below ``eps`` for every n >= N with x = D*sigma_max, but never fewer
    terms than the gamma-direction Nyquist count of the series kernel.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = geom.d * float(sigma_max)
    nyquist = math.ceil(2.0 * geom.gamma_max * x / math.pi)
    if x == 0.0:
        return max(1, nyquist)
    log_eps = math.log(eps)
    # envelope is increasing up to n ~ x/2 and strictly decreasing after
    n = max(0, math.ceil(x / 2.0) - 1)
    block = 1024
    while True:
        ns = np.arange(n, n + block, dtype=np.float64)
        logs = ns * math.log(x / 2.0) - gammaln(ns + 1.0)
        hit = np.nonzero(logs < log_eps)[0]
        if hit.size:
            return max(int(ns[hit[0]]), nyquist, 1)
        n += block


def _bessel_matrix(x: np.ndarray, n_terms: int) -> np.ndarray:
    """J_n(x) for n = 0..n_terms-1 by normalized downward recurrence.

    The recurrence starts well above both the requested orders and the
    turning point n ~ x, where J_n has decayed far below working
    precision, and is normalized with J_0 + 2*sum J_{2k} = 1.  Columns
    are rescaled by 2**-832 whenever the running values approach
    overflow.  A stored row owes every rescale of its column after it was
    stored; each row records its column's rescale count when stored and
    settles the difference at the end with one exact ``ldexp``.  Orders
    whose true magnitude underflows come out as exact zeros.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((n_terms, x.size))
    zero = x == 0.0
    out[0, zero] = 1.0
    live = ~zero
    if not live.any():
        return out
    xl = x[live]
    top = max(n_terms, math.ceil(float(xl.max())))
    n_start = top + max(50, top // 5)
    jp = np.zeros(xl.size)  # J_{n+1}, column-wise running scale
    jc = np.full(xl.size, 1e-30)  # J_{n_start} seed
    norm = np.zeros(xl.size)
    count = np.zeros(xl.size, dtype=np.int32)  # rescales of each column so far
    raw = np.zeros((n_terms, xl.size))
    shift = np.zeros((n_terms, xl.size), dtype=np.int32)  # count when each row was stored
    for n in range(n_start, -1, -1):
        if n < n_terms:
            raw[n] = jc
            shift[n] = count
        if n == 0:
            norm += jc
        elif n % 2 == 0:
            norm += 2.0 * jc
        if n > 0:
            jm = (2.0 * n / xl) * jc - jp
            jp, jc = jc, jm
            big = np.abs(jc) > 1e250
            if big.any():
                inv = 2.0**-_RESCALE_EXP
                jc[big] *= inv
                jp[big] *= inv
                norm[big] *= inv
                count[big] += 1
    shift -= count
    shift *= _RESCALE_EXP
    np.ldexp(raw, shift, out=raw)
    raw /= norm
    out[:, live] = raw
    return out


def bessel_table(geom: FanGeometry, n_terms: int, sigma_grid) -> BesselTable:
    """Tabulate J_n(D*sigma) for the series evaluation (>= 1e-12 absolute)."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    sigmas = np.asarray(sigma_grid, dtype=np.float64)
    values = _bessel_matrix(geom.d * sigmas, n_terms)
    return BesselTable(sigmas, np.ascontiguousarray(values[0::2]), np.ascontiguousarray(values[1::2]))


def _circle_embedding(Z: np.ndarray, gamma: np.ndarray, padding_factor: int, n_terms: int):
    """Return (resampled support block, left width, circle size M)."""
    gamma = np.asarray(gamma, dtype=np.float64)
    step = gamma[1] - gamma[0]
    span = gamma.size * step
    if abs(span - 2.0 * math.pi) < 1e-9 * 2.0 * math.pi and abs(gamma[0]) < 1e-12:
        # already a full-circle grid in FFT order; no resampling
        return Z, 0, gamma.size
    m_min = max(int(round(padding_factor * 2.0 * math.pi / step)), 2 * n_terms + 2)
    m = sfft.next_fast_len(m_min, real=not np.iscomplexobj(Z))
    step_f = 2.0 * math.pi / m
    k = math.floor((gamma[-1] + 1e-12 * step) / step_f)
    gamma_f = step_f * np.arange(-k, k + 1)
    block = interp_or_zero(gamma_f, gamma[0], step, Z)
    return block, k, m


def fourier_coefficients_gamma(
    Z: np.ndarray,
    gamma: np.ndarray,
    n_terms: int,
    padding_factor: int = 4,
    keep_c: bool = True,
) -> SeriesCoefficients:
    """Continuous Fourier-series coefficients of Z along gamma.

    ``Z`` has shape (n_theta, n_gamma).  A symmetric support grid on
    [-gamma_max, gamma_max] is embedded into a zero-padded 2*pi-periodic
    grid (``padding_factor`` times the minimal full-circle grid at the
    input resolution, and at least 2*n_terms+2 samples); a grid already
    spanning the circle in FFT order (gamma_k = 2*pi*k/M) is used as is.
    """
    Z = np.asarray(Z)
    if Z.ndim != 2:
        raise ValueError("Z must be 2-D (n_theta, n_gamma)")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    block, k, m = _circle_embedding(Z, np.asarray(gamma, dtype=np.float64), padding_factor, n_terms)
    if 2 * n_terms > m:
        raise ValueError(f"n_terms={n_terms} exceeds half the padded grid ({m})")
    n_theta = Z.shape[0]
    is_complex = np.iscomplexobj(block)
    dtype = np.complex128 if is_complex else np.float64
    even = np.empty(((n_terms + 1) // 2, n_theta), dtype=dtype)
    odd = np.empty((n_terms // 2, n_theta), dtype=dtype)
    c = np.empty((2 * n_terms - 1, n_theta), dtype=np.complex128) if keep_c else None
    signs = np.where(np.arange(n_terms) % 2 == 0, 1.0, -1.0)[:, None]
    # every chunk writes the same support columns, so the rest stays zero
    buffer = np.zeros((min(_THETA_CHUNK, n_theta), m), dtype=dtype)
    for lo in range(0, n_theta, _THETA_CHUNK):
        hi = min(lo + _THETA_CHUNK, n_theta)
        pad = buffer[: hi - lo]
        if k == 0 and block.shape[1] == m:
            pad[:] = block[lo:hi]
        else:
            pad[:, : k + 1] = block[lo:hi, k:]
            pad[:, m - k :] = block[lo:hi, :k]
        if is_complex:
            spec = sfft.fft(pad, axis=1, workers=get_workers()) / m
            c_pos = spec[:, :n_terms].T
            c_neg = np.concatenate([spec[:, :1], spec[:, m - n_terms + 1 :][:, ::-1]], axis=1).T
            b = np.empty((n_terms, hi - lo), dtype=np.complex128)
            b[0] = 2.0 * math.pi * c_pos[0]
            b[1:] = 2.0 * math.pi * (c_pos[1:] + signs[1:] * c_neg[1:])
            even[:, lo:hi] = b[0::2]
            odd[:, lo:hi] = -1j * b[1::2]
        else:
            # c_{-n} = conj c_n, so b_n = 4*pi Re c_n for even n >= 2 and
            # 4*pi i Im c_n for odd n
            c_pos = (sfft.rfft(pad, axis=1, workers=get_workers())[:, :n_terms] / m).T
            c_neg = np.conj(c_pos) if keep_c else None
            even[0, lo:hi] = 2.0 * math.pi * c_pos[0].real
            even[1:, lo:hi] = 4.0 * math.pi * c_pos[2::2].real
            odd[:, lo:hi] = 4.0 * math.pi * c_pos[1::2].imag
        if keep_c:
            c[n_terms - 1 :, lo:hi] = c_pos
            c[: n_terms - 1, lo:hi] = c_neg[1:][::-1]
    return SeriesCoefficients(n_terms=n_terms, even=even, odd=odd, c=c)


def _product(table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """table.T @ weights as a real product; complex weights are pairs of real columns."""
    if np.iscomplexobj(weights):
        pairs = np.ascontiguousarray(weights).view(np.float64)
        return (table.T @ pairs).view(np.complex128)
    return table.T @ weights


def evaluate_series(coeffs: SeriesCoefficients, table: BesselTable) -> np.ndarray:
    """Truncated series sum_n b_n(theta) J_n(D sigma), one matrix product per parity of n.

    Returns a complex array of shape (n_theta, n_sigma).
    """
    if table.n_terms < coeffs.n_terms:
        raise ValueError("Bessel table has fewer orders than the coefficients")
    even = _product(table.even[: coeffs.even.shape[0]], coeffs.even)
    odd = _product(table.odd[: coeffs.odd.shape[0]], coeffs.odd)
    return (even + 1j * odd).T


@lru_cache(maxsize=8)
def _series_kernel(geom: FanGeometry, n_terms: int, n_sigma: int, n_gamma: int) -> np.ndarray:
    """K[j, k], the truncated series of the j-th detector hat at sigma_k = k*pi.

    Shape (n_gamma, n_sigma), complex, C-contiguous and read-only, for the
    detector grid linspace(-gamma_max, gamma_max, n_gamma); one entry
    holds 16 * n_gamma * n_sigma bytes.
    """
    # the weights first: their padded FFT buffers are freed before the table is built
    gamma = np.linspace(-geom.gamma_max, geom.gamma_max, n_gamma)
    basis = fourier_coefficients_gamma(np.eye(n_gamma), gamma, n_terms, keep_c=False)
    table = bessel_table(geom, n_terms, math.pi * np.arange(n_sigma))
    kernel = np.ascontiguousarray(evaluate_series(basis, table))
    kernel.flags.writeable = False
    return kernel


def _series_image(z: StandardFanSinogram, source_sino, n: int, eps: float, dc) -> ImageGrid:
    geom = z.geometry
    sigma_max = math.pi * n / 2.0
    n_terms = choose_truncation(geom, sigma_max, eps)
    Z = shear_to_theta(z, 2 * z.n_beta)
    K = _series_kernel(geom, n_terms, n // 2 + 1, z.n_gamma)
    # S = Z K as one real GEMM against the interleaved real and imaginary parts of K
    S = (Z @ K.view(np.float64)).view(np.complex128)
    # q on t_j = -1 + 2j/n from its period-2 Fourier coefficients a_k = S_k / 2
    S[:, 1::2] *= -1.0
    q = sfft.irfft(S, n, axis=1, norm="forward", workers=get_workers())
    q *= 0.5
    # zero padded to 4n samples: 2n+1 radii spaced pi/4 up to sigma_max
    spec = _detector_spectrum(q, -1.0, 2.0 / n, 4 * n, sigma_max)
    img = spectrum_to_image(spec, n)
    return ImageGrid(restore_dc(img, source_sino, dc))


def standard_fan_backproject(w: StandardFanSinogram, n: int, eps: float = 1e-9, dc="mass") -> ImageGrid:
    """Series backprojection of an equiangular fan sinogram."""
    return _series_image(w, w, n, eps, dc)


def linear_fan_backproject(g: LinearFanSinogram, n: int, eps: float = 1e-9, dc="mass") -> ImageGrid:
    """Series backprojection of a flat-detector fan sinogram.

    Two steps: switch to the equiangular parametrization (L, then the
    tau = D sec^2 gamma weight), then the standard series route.
    """
    z = apply_tau(linear_to_standard(g, g.n_s))
    return _series_image(z, g, n, eps, dc)
