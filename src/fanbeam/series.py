"""Fan-beam backprojection as a Bessel-Neumann series in the polar
frequency domain.

For a fan sinogram of either detector, the sheared field Z(gamma, theta)
of :func:`fanbeam.rebinning.shear_to_theta` is 2*pi-periodic in gamma with
Fourier coefficients c_n(theta), and the detector-direction spectrum of
the adjoint-rebinned sinogram collapses to

    qhat(sigma, theta) = int Z(gamma, theta) exp(-i D sigma sin gamma) dgamma
                       = sum_n b_n(theta) J_n(D sigma)

with b_0 = 2*pi c_0 and b_n = 2*pi (c_n + (-1)^n c_{-n}) for n >= 1
(Jacobi-Anger expansion folded with J_{-n} = (-1)^n J_n).

qhat is the detector spectrum of a field q(t, theta) supported on
t in [-1, 1], so its samples at sigma = k*pi fix it: they are q's
period-2 Fourier coefficients, a_k = qhat(k*pi)/2.  The series is therefore
evaluated only at sigma_k = k*pi, k = 0..n//2.  One inverse real FFT
along k turns those values into n samples of q at t_j = -1 + 2j/n (the
Nyquist term of an even n taken as real), and q then goes through the
back end of :mod:`fanbeam.bst`: a detector FFT zero padded to exactly 4n
samples, which gives the 2n+1 radii spaced pi/4 up to sigma_max = pi*n/2,
the 1/sigma weight, the cached polar-to-Cartesian resampling and the
inverse FFT.  The route never forms the rebinned parallel sinogram.  Its
zero frequency is restored from the fan data themselves,
< y, A_fan 1_disk > summed on the measured cells (:func:`_disk_target`):
the n samples of q are uniform in t and too coarse where the linear
detector's Jacobian steepens q towards the chord's edge at |t| = 1.

The Bessel values J_n(D sigma_k) come from one downward (Miller)
recurrence, run in blocks of 256 orders: :func:`bessel_table` stacks the
blocks into a table, row n holding order n, and the kernel build below
multiplies each block into its result as soon as it is complete.  The
weights b_n are one complex array, row n holding order n.  For a real Z,
b_n is real for even n and purely imaginary for odd n, so the build
splits the orders by parity: one real matrix product per parity and
block.

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
The build calls no FFT and forms no table.  It runs the recurrence down
from each column's own start order, and each time a block of orders is
complete it multiplies the block into K's accumulators against the
hats' weights of those orders, which come by angle addition from one
table of cos(r gamma_j) and sin(r gamma_j), r < 256, per build:

* scale: each column starts where J_n itself is below 1e-200, so it
  grows from its seed 1.0 by less than 2**700 and never needs
  rescaling, and none of its values is subnormal; K is linear in the
  table, so the normalisation J_0 + 2*sum J_{2k} divides each of K's
  columns once, at the end;
* skip: a column's orders above its start order are exact zeros, so a
  block of orders multiplies only the columns whose start is in or above
  it; the starts do not decrease with sigma_k, so the skipped columns
  are a prefix;
* mirror: the grid is symmetric, so Re K is even and Im K odd in j; the
  first ceil(n_gamma/2) rows are built and K[n_gamma-1-j] = conj K[j].
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._dc import disk_integral_target, restore_dc
from .bst import _detector_spectrum, spectrum_to_image
from .core import FanGeometry, FanSinogram, ImageGrid, LinearFanSinogram, StandardFanSinogram
from .rebinning import shear_to_theta

__all__ = [
    "choose_truncation",
    "bessel_table",
    "fourier_coefficients_gamma",
    "evaluate_series",
    "standard_fan_backproject",
    "linear_fan_backproject",
]

_LOG_START = math.log(1e-200)  # each column's recurrence starts where J_n is below this
_ORDER_BLOCK = 256  # orders per block of the hat weights, the kernel build and the table flush
_LEADING_X = 1e-8  # below this |x|, J_n(x) is its leading term (x/2)^n / n! to rounding
# the longest series the route builds: it admits D = 50 at n = 2048 (218,631
# terms, a 5 s kernel build on 2 cores) and D = 10 at n = 4096 (87,461 terms, 7 s);
# the recurrence alone runs about 1.4 us per order, so a far source at small n
# would otherwise run for hours
_MAX_TERMS = 2**18


def _first_below(lo: int, above) -> int:
    """First order n > lo where ``above(n)`` fails, for a predicate that holds up to some order and fails past it."""
    # bracket the first failing order by doubling steps, then bisect the bracket
    step = 1
    while above(lo + step):
        lo, step = lo + step, 2 * step
    hi = lo + step  # the predicate fails at hi and holds at lo, unless lo is where the search began
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return hi


def _envelope_order(x: float, log_bound: float) -> int:
    """First order n past the peak of the envelope (x/2)^n / n!, x > 0, where it is below exp(log_bound)."""
    log_half = math.log(x / 2.0)
    # the envelope peaks at ceil(x/2) - 1 and decreases after it
    return _first_below(math.ceil(x / 2.0) - 2, lambda n: n * log_half - math.lgamma(n + 1.0) >= log_bound)


def _start_orders(x: np.ndarray) -> np.ndarray:
    """First order n > |x_k| for each x_k != 0 where Debye's leading term for J_n(|x_k|) is below exp(_LOG_START).

    With x = |x_k| and cosh(alpha) = n/x that term is exp(-n (alpha -
    tanh alpha)) / sqrt(2 pi n tanh alpha) (DLMF 10.19.6), decreasing in
    n past x.  At the first order past x, J_n is about x**(-1/3) and far
    above the bound, so the search evaluates only orders above it.
    """

    def above(n: int, v: float) -> bool:
        alpha = math.acosh(n / v)
        tanh = math.tanh(alpha)
        return -n * (alpha - tanh) - 0.5 * math.log(2.0 * math.pi * n * tanh) >= _LOG_START

    return np.array([_first_below(math.floor(v) + 1, lambda n: above(n, v)) for v in np.abs(x).tolist()], dtype=np.int64)


def choose_truncation(geom: FanGeometry, sigma_max: float, eps: float) -> int:
    """Number of series terms needed at radial frequency sigma_max.

    Smallest N such that the envelope |J_n(x)| <= (x/2)^n / n! stays
    below ``eps`` for every n >= N with x = D*sigma_max, but never fewer
    terms than the gamma-direction Nyquist count of the series kernel.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps={eps} must be positive and finite")
    sigma_max = float(sigma_max)
    x = geom.d * sigma_max
    if not (math.isfinite(x) and sigma_max >= 0):
        raise ValueError(f"sigma_max={sigma_max} must be nonnegative, with d*sigma_max finite")
    nyquist = math.ceil(2.0 * geom.gamma_max * x / math.pi)
    if x == 0.0:
        return max(1, nyquist)
    return max(_envelope_order(x, math.log(eps)), nyquist, 1)


def _miller_blocks(x: np.ndarray, n_terms: int, starts: np.ndarray):
    """Downward (Miller) recurrence for J_n(x), x != 0, over blocks of orders.

    Column k starts at 1.0, with a zero above it, at the order
    N_k = starts[k] of :func:`_start_orders`, where J_n(x_k) is below
    1e-200, and the orders above N_k stay exact zeros.  The recurrence
    runs down in place through a buffer of _ORDER_BLOCK + 2 rows, row i
    holding order lo + i of the block.  A column grows from its seed by
    about the inverse of J_{N_k}, so it needs no rescaling: over
    1e-8 <= |x| <= 1e6 no value and no normalisation sum exceeds 2**695,
    far below the float limit 2**1023.  A step multiplies a column by
    about 2n/|x|, so the start can undershoot the bound by that much: the
    growth passes 2**720 below |x| ~ 2e-19 and overflows below
    |x| ~ 3e-155, and :func:`_bessel_matrix` takes columns below
    _LEADING_X from their leading term instead.

    Yields (lo, raw, norm) for the blocks of orders n = lo..hi-1,
    hi <= n_terms, from the top down: raw[i] holds the unnormalised
    J_{lo+i} of each column, and norm the normalisation sum
    J_0 + 2*sum J_{2k} at the same scale, complete at the last block
    (lo = 0).  The recurrence goes on to overwrite both arrays.
    """
    seeds = {n: np.flatnonzero(starts == n) for n in np.unique(starts).tolist()}
    top = int(starts.max(initial=0))
    rows = np.zeros((_ORDER_BLOCK + 2, x.size))
    row = list(rows)
    norm = np.zeros(x.size)
    coef = np.empty((_ORDER_BLOCK + 1, x.size))
    lo = top - top % _ORDER_BLOCK
    np.divide(2.0 * np.arange(lo, lo + _ORDER_BLOCK + 1, dtype=np.float64)[:, None], x, out=coef)
    for n in range(top, -1, -1):
        i = n - lo
        if n in seeds:
            row[i][seeds[n]] = 1.0
        if n == 0:
            norm += row[i]
        elif n % 2 == 0:
            norm += 2.0 * row[i]
        if i == 0:
            if lo < n_terms:
                yield lo, rows[: min(_ORDER_BLOCK, n_terms - lo)], norm
            if n == 0:
                return
            # the two orders the next block down starts from
            rows[_ORDER_BLOCK:] = rows[:2]
            lo -= _ORDER_BLOCK
            i = _ORDER_BLOCK
            np.divide(2.0 * np.arange(lo, lo + _ORDER_BLOCK + 1, dtype=np.float64)[:, None], x, out=coef)
        # J_{n-1} = (2n / x) J_n - J_{n+1}
        np.multiply(coef[i], row[i], out=row[i - 1])
        row[i - 1] -= row[i + 1]


def _bessel_matrix(x: np.ndarray, n_terms: int) -> np.ndarray:
    """J_n(x) for n = 0..n_terms-1 by normalized downward recurrence.

    The blocks of :func:`_miller_blocks` are stacked and normalized once
    with J_0 + 2*sum J_{2k} = 1.  Values above the order a column's
    recurrence starts from, where J_n is below 1e-200, come out as exact
    zeros, and none is subnormal: a column is smallest near its start.
    Columns with |x| < _LEADING_X, x = 0 among them, hold the leading
    term (x/2)^n / n! of the power series, J_0 = 1, which is J_n to
    within (x/2)^2 < 3e-17 relative.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((n_terms, x.size))
    tiny = np.finfo(np.float64).tiny
    small = np.abs(x) < _LEADING_X
    half = 0.5 * x[small]
    for n in range(n_terms):
        term = half**n / math.factorial(n)
        term[np.abs(term) < tiny] = 0.0
        if not term.any():
            break
        out[n, small] = term
    live = ~small
    starts = _start_orders(x[live])
    if starts.max(initial=0) > _MAX_TERMS:
        raise ValueError(f"the Bessel recurrence at |D sigma| = {np.abs(x).max()} starts above order {_MAX_TERMS}, the series limit")
    for lo, rows, norm in _miller_blocks(x[live], n_terms, starts):
        out[lo : lo + rows.shape[0], live] = rows
    out[:, live] /= norm
    return out


def bessel_table(geom: FanGeometry, n_terms: int, sigma) -> np.ndarray:
    """J_n(D * sigma_k) for n = 0..n_terms-1 (>= 1e-12 absolute), shape (n_terms, n_sigma)."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    x = geom.d * np.asarray(sigma, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("D sigma must be finite")
    top = float(np.abs(x).max(initial=0.0))
    # refused before any start order is sought: a start order exceeds its |x|
    if top >= _MAX_TERMS:
        raise ValueError(f"the Bessel recurrence at |D sigma| = {top} starts above order {_MAX_TERMS}, the series limit")
    return _bessel_matrix(x, n_terms)


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


def _hat_trig(gamma: np.ndarray):
    """cos(r gamma_j) and sin(r gamma_j) for the even and the odd r < _ORDER_BLOCK.

    Returns ((cos, sin) over even r, (cos, sin) over odd r), each array of
    shape (gamma.size, _ORDER_BLOCK // 2).
    """
    return tuple(
        (np.cos(angle), np.sin(angle))
        for angle in (np.multiply.outer(gamma, np.arange(parity, _ORDER_BLOCK, 2.0)) for parity in (0, 1))
    )


def _hat_blocks(lo: int, hi: int, gamma: np.ndarray, h: float, n_gamma: int, trig) -> tuple[np.ndarray, np.ndarray]:
    """Parity blocks of the weights b_n of detector hats, for the orders n = lo..hi-1.

    The hats are the linear interpolants of the unit vectors on a uniform
    grid of ``n_gamma`` samples with step ``h``, zero outside the grid;
    ``gamma`` holds the first ``gamma.size`` of its samples, ``trig`` is
    :func:`_hat_trig` of it and ``lo`` a multiple of _ORDER_BLOCK.  An
    interior hat has 2*pi*c_n = h sinc^2(nh/2) e^{-i n gamma_j}, so
    b_n = 2h sinc^2(nh/2) cos(n gamma_j) for even n >= 2 and
    b_n / i = -2h sinc^2(nh/2) sin(n gamma_j) for odd n, with the cosine
    and sine of (lo + r) gamma by angle addition.  The end half-hats have
    2*pi*c_n = h e^{-i n gamma_end} E(+-nh), E(a) = int_0^1 (1 - s)
    e^{-ias} ds = sinc^2(a/2)/2 - i (a - sin a)/a^2, with + at the first
    sample and - at the last.  Returns (even, odd), of shapes
    (gamma.size, orders of each parity).
    """
    n = np.arange(lo, hi, dtype=np.float64)
    a = h * n
    half = np.where(a == 0.0, 1.0, 0.5 * a)
    sinc2 = np.where(a == 0.0, 1.0, np.sin(half) / half) ** 2
    (cos_even, sin_even), (cos_odd, sin_odd) = trig
    n_even, n_odd = (hi - lo + 1) // 2, (hi - lo) // 2
    cos_lo = np.cos(lo * gamma)[:, None]
    sin_lo = np.sin(lo * gamma)[:, None]
    even = cos_lo * cos_even[:, :n_even]
    even -= sin_lo * sin_even[:, :n_even]
    even *= 2.0 * h * sinc2[0::2]
    odd = sin_lo * cos_odd[:, :n_odd]
    odd += cos_lo * sin_odd[:, :n_odd]
    odd *= -2.0 * h * sinc2[1::2]
    if lo == 0:
        even[:, 0] *= 0.5
    edge = h * (0.5 * sinc2 - 1j * _sine_defect(a))
    even[0], odd[0] = _real_fold(np.exp(-1j * (gamma[0] * n)) * edge, lo)
    if gamma.size == n_gamma:
        even[-1], odd[-1] = _real_fold(np.exp(-1j * (gamma[-1] * n)) * np.conj(edge), lo)
    return even, odd


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
    """Yield (lo, even, odd) over blocks of orders n = lo, lo+1, ..., with lo even.

    even[:, i] holds b_{lo+2i}(theta) and odd[:, i] holds b_{lo+2i+1}(theta) / i.
    """
    m = gamma.size
    step = gamma[1] - gamma[0]
    if abs(m * step - 2.0 * math.pi) < 1e-9 * 2.0 * math.pi and abs(gamma[0]) < 1e-12:
        # a full-circle grid in FFT order: the DFT gives the coefficients
        if 2 * n_terms > m:
            raise ValueError(f"n_terms={n_terms} exceeds half the padded grid ({m})")
        spec = np.fft.rfft(Z, axis=1)
        yield 0, *_real_fold(spec[:, :n_terms] * (2.0 * math.pi / m), 0)
        return
    # a support grid: the exact coefficients of Z's linear interpolant, zero outside it
    h = (gamma[-1] - gamma[0]) / (m - 1)
    trig = _hat_trig(gamma)
    for lo in range(0, n_terms, _ORDER_BLOCK):
        even, odd = _hat_blocks(lo, min(lo + _ORDER_BLOCK, n_terms), gamma, h, m, trig)
        yield lo, Z @ even, Z @ odd


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
    for lo, even, odd in _coefficient_blocks(Z, gamma, n_terms):
        hi = lo + even.shape[1] + odd.shape[1]
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


@lru_cache(maxsize=8)
def _series_kernel(geom: FanGeometry, n_terms: int, n_sigma: int, n_gamma: int) -> np.ndarray:
    """K[j, k], the truncated series of the j-th detector hat at sigma_k = k*pi.

    Shape (n_gamma, n_sigma), complex, C-contiguous and read-only, for the
    detector grid linspace(-gamma_max, gamma_max, n_gamma); one entry
    holds 16 * n_gamma * n_sigma bytes.  Each block of orders of the
    Miller recurrence is multiplied into K as soon as it is complete, so
    no Bessel table is formed: the build holds one block of the
    recurrence and K's accumulators.
    """
    sigma = math.pi * np.arange(n_sigma)
    h = 2.0 * geom.gamma_max / (n_gamma - 1)
    # the grid is symmetric, so Re K is even in j and Im K odd: build the
    # first half of the rows and mirror the rest
    rows = (n_gamma + 1) // 2
    gamma = h * (np.arange(rows) - 0.5 * (n_gamma - 1))
    trig = _hat_trig(gamma)
    # K's columns as rows, accumulated in the scale of the recurrence;
    # J_n(0) is 1 for n = 0 and 0 otherwise, so column 0 is b_0
    re = np.zeros((n_sigma, rows))
    im = np.zeros((n_sigma, rows))
    re[0] = _hat_blocks(0, 1, gamma, h, n_gamma, trig)[0][:, 0]
    x = geom.d * sigma[1:]
    starts = _start_orders(x)
    for lo, raw, norm in _miller_blocks(x, n_terms, starts):
        # skip: the columns that start below the block hold only zeros in it;
        # the starts do not decrease with x, so those columns are a prefix
        c0 = int(np.count_nonzero(starts < lo))
        even, odd = _hat_blocks(lo, lo + raw.shape[0], gamma, h, n_gamma, trig)
        re[c0 + 1 :] += raw[0::2, c0:].T @ even.T
        im[c0 + 1 :] += raw[1::2, c0:].T @ odd.T
        if lo == 0:  # the last block, with the normalisation sum complete
            re[1:] /= norm[:, None]
            im[1:] /= norm[:, None]
    kernel = np.empty((n_gamma, n_sigma), dtype=np.complex128)
    kernel[:rows].real = re.T
    kernel[:rows].imag = im.T
    kernel[rows:] = np.conj(kernel[: n_gamma // 2][::-1])
    kernel.flags.writeable = False
    return kernel


def _detector_field(sino: FanSinogram, n: int, eps: float) -> np.ndarray:
    """q on t_j = -1 + 2j/n, shape (2 n_beta, n), from the series at sigma_k = k*pi."""
    geom = sino.geometry
    n_terms = choose_truncation(geom, math.pi * n / 2.0, eps)
    if n_terms > _MAX_TERMS:
        raise ValueError(
            f"the series needs {n_terms} terms at d={geom.d} and n={n}, more than its limit {_MAX_TERMS}; "
            "use a smaller d or n, or another method"
        )
    Z = shear_to_theta(sino, 2 * sino.n_beta)
    K = _series_kernel(geom, n_terms, n // 2 + 1, sino.n_det)
    # S = Z K as one real GEMM against the interleaved real and imaginary parts of K
    S = (Z @ K.view(np.float64)).view(np.complex128)
    # q from its period-2 Fourier coefficients a_k = S_k / 2
    S[:, 1::2] *= -1.0
    q = np.fft.irfft(S, n, axis=1, norm="forward")
    q *= 0.5
    return q


def _disk_target(sino: FanSinogram) -> float:
    """< y, A_fan 1_disk > of the full circle, summed on the measured cells.

    The full circle holds every ray twice.  A cell whose symmetry partner,
    at beta + 2*angle + pi (mod 2*pi), is measured too is one of the two
    copies; any other cell stands for both.
    """
    geom = sino.geometry
    det = sino.det_grid
    beta = geom.beta_span * np.arange(sino.n_beta) / sino.n_beta
    shift = 2.0 * sino.detector.angle(det, geom.d)

    def partner_measured(rows, cols):
        # before the mod the partner lies in [pi - 2*gamma_max, 2*pi + 4*gamma_max),
        # so its mod is below beta_span exactly when it is below beta_span or past 2*pi
        partner = beta[rows, None] + shift[cols] + math.pi
        return (partner < geom.beta_span) | (partner >= 2.0 * math.pi)

    # the partner grows along a row with the angle, so only rows whose first
    # or last cell has its partner measured hold such cells
    edge = np.flatnonzero(partner_measured(slice(None), [0, -1]).any(axis=1))
    once = np.where(partner_measured(edge, slice(None)), sino.data[edge], 0.0)
    t = sino.detector.t(det, geom.d)
    cell = (2.0 * sino.detector.half_width(geom) / (sino.n_det - 1)) * geom.beta_span / sino.n_beta
    return disk_integral_target(sino.data, t, 2.0 * cell) - disk_integral_target(once, t, cell)


def _series_image(sino: FanSinogram, n: int, eps: float) -> ImageGrid:
    # the target's temporaries and then the series' arrays are freed before the back
    # end's larger ones are allocated; zero padded to 4n samples: 2n+1 radii spaced pi/4 up to sigma_max
    target = _disk_target(sino)
    spec = _detector_spectrum(_detector_field(sino, n, eps), -1.0, 2.0 / n, 4 * n, math.pi * n / 2.0)
    return ImageGrid(restore_dc(spectrum_to_image(spec, n), target))


def standard_fan_backproject(w: StandardFanSinogram, n: int, eps: float = 1e-9) -> ImageGrid:
    """Series backprojection of an equiangular fan sinogram."""
    return _series_image(w, n, eps)


def linear_fan_backproject(g: LinearFanSinogram, n: int, eps: float = 1e-9) -> ImageGrid:
    """Series backprojection of a flat-detector fan sinogram.

    The equiangular route, with the sheared field tau(gamma) g(D tan gamma, theta - gamma).
    """
    return _series_image(g, n, eps)
