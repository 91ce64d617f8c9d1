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

The table of Bessel values J_n(D sigma_k) is one array, row n holding
order n, from a downward (Miller) recurrence; the weights b_n are one
complex array, row n holding order n.  For a real Z, b_n is real for
even n and purely imaginary for odd n, so the kernel build below splits
the orders by parity and reads the table's even and odd rows as strided
views: one real matrix product per parity.

The weights b_n are linear in Z, and Z enters only through its samples
on the detector grid gamma_j, so the series reassociates: S = Z K with

    K[j, k] = sum_n J_n(D sigma_k) b_n[hat_j],

where b_n[hat_j] are the weights of the j-th detector hat (the linear
interpolant of the j-th unit vector, zero outside the detector).  A hat's
coefficients have a closed form: with step h, an interior hat has
2*pi*c_n = h sinc^2(nh/2) e^{-i n gamma_j}, and the two end half-hats
have h e^{-i n gamma_end} E(+-nh) with E(a) = int_0^1 (1 - s) e^{-ias} ds.
Summed over Z's samples, the same closed form gives the exact
coefficients of Z's linear interpolant on a support grid.

The route builds K once per (geometry, n_terms, n//2+1, n_gamma) and
caches it; a warm op is one real GEMM of Z against K's interleaved real
and imaginary parts, with no Fourier coefficients and no Bessel table.
The build calls no FFT.  It runs over blocks of 256 orders, folding the
closed-form weights by parity and multiplying them into K against the
table, with two savings:

* band: column k skips an order block once the envelope
  (x_k/2)^n / n!, x_k = D sigma_k, lies below its value at
  (x_max, n_terms) for every order of the block, which the truncation
  rule already holds below eps;
* mirror: the grid is symmetric, so Re K is even and Im K odd in j; the
  first ceil(n_gamma/2) rows are built and K[n_gamma-1-j] = conj K[j].
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import fft as sfft
from scipy.special import gammaln

from ._dc import restore_dc
from ._threads import get_workers
from .bst import _detector_spectrum, spectrum_to_image
from .core import FanGeometry, ImageGrid, LinearFanSinogram, StandardFanSinogram
from .rebinning import apply_tau, linear_to_standard, shear_to_theta

__all__ = [
    "choose_truncation",
    "bessel_table",
    "fourier_coefficients_gamma",
    "evaluate_series",
    "standard_fan_backproject",
    "linear_fan_backproject",
]

_RESCALE_EXP = 832  # columns near overflow are scaled by 2**-832, about 1e-250
_ORDER_BLOCK = 256  # orders per block of the hat weights and of the kernel build


def choose_truncation(geom: FanGeometry, sigma_max: float, eps: float) -> int:
    """Number of series terms needed at radial frequency sigma_max.

    Smallest N such that the envelope |J_n(x)| <= (x/2)^n / n! stays
    below ``eps`` for every n >= N with x = D*sigma_max, but never fewer
    terms than the gamma-direction Nyquist count of the series kernel.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps={eps} must be positive and finite")
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


def bessel_table(geom: FanGeometry, n_terms: int, sigma) -> np.ndarray:
    """J_n(D * sigma_k) for n = 0..n_terms-1 (>= 1e-12 absolute), shape (n_terms, n_sigma)."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    return _bessel_matrix(geom.d * np.asarray(sigma, dtype=np.float64), n_terms)


_SINE_DEFECT_TAYLOR = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(8))


def _sine_defect(a: np.ndarray) -> np.ndarray:
    """(a - sin a) / a**2; its Taylor series where |a| < 1, where the difference would cancel."""
    out = np.empty_like(a)
    small = np.abs(a) < 1.0
    s = a[small]
    s2 = s * s
    poly = np.zeros_like(s)
    for coef in reversed(_SINE_DEFECT_TAYLOR):  # the first omitted term is below 1e-17 of the sum
        poly = poly * s2 + coef
    out[small] = s * poly
    big = a[~small]
    out[~small] = (big - np.sin(big)) / (big * big)
    return out


def _hat_weights(lo: int, hi: int, gamma: np.ndarray, h: float, n_gamma: int) -> np.ndarray:
    """Exact 2*pi*c_n of detector hats for the orders n = lo..hi-1.

    The hats are the linear interpolants of the unit vectors on a uniform
    grid of ``n_gamma`` samples with step ``h``, zero outside the grid;
    ``gamma`` holds the first ``gamma.size`` of its samples.  An interior
    hat has 2*pi*c_n = h sinc^2(nh/2) e^{-i n gamma_j}.  The end half-hats
    have h e^{-i n gamma_end} E(+-nh), E(a) = int_0^1 (1 - s) e^{-ias} ds
    = sinc^2(a/2)/2 - i (a - sin a)/a^2, with + at the first sample and -
    at the last.  Returns shape (gamma.size, hi - lo), complex.
    """
    a = h * np.arange(lo, hi, dtype=np.float64)
    half = np.where(a == 0.0, 1.0, 0.5 * a)
    sinc2 = np.where(a == 0.0, 1.0, np.sin(half) / half) ** 2
    # e^{-i n gamma} = e^{-i (lo + 16q) gamma} e^{-i r gamma} for n = lo + 16q + r:
    # an eighth of the exponentials of a direct evaluation
    coarse = np.exp(-1j * np.multiply.outer(gamma, np.arange(lo, hi, 16.0)))
    fine = np.exp(-1j * np.multiply.outer(gamma, np.arange(16.0)))
    phase = (coarse[:, :, None] * fine[:, None, :]).reshape(gamma.size, -1)[:, : hi - lo]
    weights = phase * (h * sinc2)
    edge = h * (0.5 * sinc2 - 1j * _sine_defect(a))
    weights[0] = phase[0] * edge
    if gamma.size == n_gamma:
        weights[-1] = phase[-1] * np.conj(edge)
    return weights


def _real_fold(w: np.ndarray, lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Parity blocks of the weights b_n of a real field, from w = 2*pi*c_n.

    Orders n = lo, lo+1, ... (lo even) run along the last axis.  As
    c_{-n} = conj c_n, b_0 = w_0, b_n = 2 Re w_n for even n >= 2 and
    b_n / i = 2 Im w_n for odd n.
    """
    even = 2.0 * w[..., 0::2].real
    if lo == 0:
        even[..., 0] *= 0.5
    return even, 2.0 * w[..., 1::2].imag


def _coefficient_blocks(Z: np.ndarray, gamma: np.ndarray, n_terms: int):
    """Yield (lo, w) over blocks of orders n = lo, lo+1, ..., with lo even.

    w[:, i] holds 2*pi*c_n(theta) for n = lo + i.
    """
    m = gamma.size
    step = gamma[1] - gamma[0]
    if abs(m * step - 2.0 * math.pi) < 1e-9 * 2.0 * math.pi and abs(gamma[0]) < 1e-12:
        # a full-circle grid in FFT order: the DFT gives the coefficients
        if 2 * n_terms > m:
            raise ValueError(f"n_terms={n_terms} exceeds half the padded grid ({m})")
        spec = sfft.rfft(Z, axis=1, workers=get_workers())
        yield 0, spec[:, :n_terms] * (2.0 * math.pi / m)
        return
    # a support grid: the exact coefficients of Z's linear interpolant, zero outside it;
    # the complex weights enter the product as pairs of real columns
    h = (gamma[-1] - gamma[0]) / (m - 1)
    for lo in range(0, n_terms, _ORDER_BLOCK):
        weights = _hat_weights(lo, min(lo + _ORDER_BLOCK, n_terms), gamma, h, m)
        yield lo, (Z @ weights.view(np.float64)).view(np.complex128)


def fourier_coefficients_gamma(Z: np.ndarray, gamma: np.ndarray, n_terms: int) -> np.ndarray:
    """Series weights b_n(theta) of a real field Z, from its Fourier coefficients along gamma.

    ``Z`` is real with shape (n_theta, gamma.size).  On a uniform support
    grid ``gamma`` (any grid but the one below) the coefficients c_n are
    the exact coefficients of Z's linear interpolant, zero outside the
    grid, in closed form per detector hat.  A grid spanning the circle
    in FFT order (gamma_k = 2*pi*k/M) takes the DFT of Z, which needs
    2*n_terms <= M.  Returns b, complex with shape (n_terms, n_theta):
    b_0 = 2*pi c_0 and b_n = 2*pi (c_n + (-1)^n c_{-n}), real for even n
    and imaginary for odd n.
    """
    Z = np.asarray(Z)
    gamma = np.asarray(gamma, dtype=np.float64)
    if Z.ndim != 2:
        raise ValueError("Z must be 2-D (n_theta, n_gamma)")
    if np.iscomplexobj(Z):
        raise ValueError("Z must be real")
    if gamma.ndim != 1 or gamma.size < 2 or Z.shape[1] != gamma.size:
        raise ValueError(
            f"Z has {Z.shape[1]} samples along gamma but the grid has shape {gamma.shape}; "
            "they must agree, with at least 2 samples"
        )
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    b = np.empty((n_terms, Z.shape[0]), dtype=np.complex128)
    for lo, w in _coefficient_blocks(Z, gamma, n_terms):
        hi = lo + w.shape[1]
        even, odd = _real_fold(w, lo)
        b[lo:hi:2] = even.T
        b[lo + 1 : hi : 2] = 1j * odd.T
    return b


def evaluate_series(b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Truncated series sum_n b_n(theta) J_n(D sigma_k), complex with shape (n_theta, n_sigma).

    ``b`` comes from :func:`fourier_coefficients_gamma`, ``table`` from
    :func:`bessel_table` with at least as many orders; the complex
    weights enter the one real product as pairs of real columns.
    """
    if table.shape[0] < b.shape[0]:
        raise ValueError("Bessel table has fewer orders than the weights")
    pairs = np.ascontiguousarray(b, dtype=np.complex128).view(np.float64)
    return (table[: b.shape[0]].T @ pairs).view(np.complex128).T


def _flushed(block: np.ndarray) -> np.ndarray:
    """``block`` with its subnormal entries set to zero, in place.

    Past the turning point the table decays through the subnormal range,
    and a matrix product slows many times over on subnormal operands.
    """
    block[np.abs(block) < np.finfo(np.float64).tiny] = 0.0
    return block


@lru_cache(maxsize=8)
def _series_kernel(geom: FanGeometry, n_terms: int, n_sigma: int, n_gamma: int) -> np.ndarray:
    """K[j, k], the truncated series of the j-th detector hat at sigma_k = k*pi.

    Shape (n_gamma, n_sigma), complex, C-contiguous and read-only, for the
    detector grid linspace(-gamma_max, gamma_max, n_gamma); one entry
    holds 16 * n_gamma * n_sigma bytes.
    """
    sigma = math.pi * np.arange(n_sigma)
    table = bessel_table(geom, n_terms, sigma)
    half_x = 0.5 * geom.d * sigma
    h = 2.0 * geom.gamma_max / (n_gamma - 1)
    # the grid is symmetric, so Re K is even in j and Im K odd: build the
    # first half of the rows and mirror the rest
    rows = (n_gamma + 1) // 2
    gamma = h * (np.arange(rows) - 0.5 * (n_gamma - 1))
    re = np.zeros((rows, n_sigma))
    im = np.zeros((rows, n_sigma))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_half_x = np.log(half_x)
        # the envelope (x/2)^n / n! at (x_max, n_terms), which choose_truncation holds below eps
        log_floor = n_terms * log_half_x[-1] - gammaln(n_terms + 1.0)
    for lo in range(0, n_terms, _ORDER_BLOCK):
        hi = min(lo + _ORDER_BLOCK, n_terms)
        # band: column k skips the block when its envelope, decreasing in n
        # past x_k/2, is below the floor at n = lo; the envelope grows with
        # x, so the skipped columns are a prefix
        with np.errstate(invalid="ignore"):
            below = (lo >= half_x) & (lo * log_half_x - gammaln(lo + 1.0) < log_floor)
        k0 = int(np.count_nonzero(below))
        even, odd = _real_fold(_hat_weights(lo, hi, gamma, h, n_gamma), lo)
        re[:, k0:] += even @ _flushed(table[lo:hi:2, k0:])
        im[:, k0:] += odd @ _flushed(table[lo + 1 : hi : 2, k0:])
    kernel = np.empty((n_gamma, n_sigma), dtype=np.complex128)
    kernel[:rows].real = re
    kernel[:rows].imag = im
    kernel[rows:] = np.conj(kernel[: n_gamma // 2][::-1])
    kernel.flags.writeable = False
    return kernel


def _series_image(z: StandardFanSinogram, source_sino, n: int, eps: float) -> ImageGrid:
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
    return ImageGrid(restore_dc(img, source_sino))


def standard_fan_backproject(w: StandardFanSinogram, n: int, eps: float = 1e-9) -> ImageGrid:
    """Series backprojection of an equiangular fan sinogram."""
    return _series_image(w, w, n, eps)


def linear_fan_backproject(g: LinearFanSinogram, n: int, eps: float = 1e-9) -> ImageGrid:
    """Series backprojection of a flat-detector fan sinogram.

    Two steps: switch to the equiangular parametrization (L, then the
    tau = D sec^2 gamma weight), then the standard series route.
    """
    z = apply_tau(linear_to_standard(g, g.n_s))
    return _series_image(z, g, n, eps)
