"""Special functions used by every analytic formula in the package.

Regularized incomplete gamma functions, complementary error function and
log-gamma, accurate for shape parameters up to ~1e5 (large-N densities need
that).  Backed by scipy.special, which implements the standard series /
continued-fraction split with a uniform asymptotic expansion for large shape;
the wrappers add the domain checks the rest of the package relies on.
log_exp_series is the truncated exponential series behind both kernels.

All functions are pure, accept scalars or arrays, and never overflow for
in-domain input.
"""

import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "lower_reg_gamma",
    "upper_reg_gamma",
    "erfc",
    "erfcx",
    "log_gamma",
    "log_exp_series",
]

_RESCALE_EVERY = 16  # Horner steps of log_exp_series between rescalings
_LN2 = math.log(2.0)


def _check_gamma_args(a, x):
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(x))):
        raise ValueError("incomplete gamma arguments must be finite")
    if np.any(a <= 0):
        raise ValueError("shape parameter a must be > 0")
    if np.any(x < 0):
        raise ValueError("argument x must be >= 0")
    return a, x


def lower_reg_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x)/Gamma(a).

    Monotone nondecreasing in x, P(a, 0) = 0, P(a, inf) = 1.
    """
    a, x = _check_gamma_args(a, x)
    return _sp.gammainc(a, x)


def upper_reg_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a).

    Complements lower_reg_gamma: P + Q = 1.
    """
    a, x = _check_gamma_args(a, x)
    return _sp.gammaincc(a, x)


def erfc(x):
    """Complementary error function."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("erfc argument must be finite")
    return _sp.erfc(x)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x).

    Needed by the real-ensemble complex density, whose erfc(sqrt(2) y) e^{2y^2}
    combination overflows if formed naively.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("erfcx argument must be finite")
    return _sp.erfcx(x)


def log_gamma(a):
    """log Gamma(a) for a > 0."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise ValueError("log_gamma requires finite a > 0")
    return _sp.gammaln(a)


def log_exp_series(zeta, n, L):
    """log sum_{j=0}^{n-1} zeta^j / Gamma(L+j+1), elementwise in complex zeta.

    Backward Horner recursion h <- 1 + h zeta/(L+j), j = n-1, ..., 1, on
    arrays the shape of zeta (none has an n axis); the sum is then
    h/Gamma(L+1).  h is kept as h * 2^e, rescaled exactly every 16 steps
    (every step once some |zeta| passes ~1e17), so nothing overflows for any
    n.  h*zeta is formed as h*Re(zeta) + h*(i Im(zeta)), which rounds once
    per component even where numpy's vectorised complex multiply fuses, so
    an element gets the same digits in any array.  The error is absolute:
    below about n*eps times sum_j |zeta|^j / Gamma(L+j+1); where the terms
    cancel (Re zeta << 0) a much smaller sum carries no guaranteed relative
    digits.  Principal branch of the log.
    """
    if n < 1 or not L >= 0:
        raise ValueError("log_exp_series needs n >= 1 and L >= 0")
    zeta = np.asarray(zeta, dtype=complex)
    shape, zeta = zeta.shape, zeta.reshape(-1)
    re_z, im_z = zeta.real + 0j, 1j * zeta.imag
    # a step grows |h| by at most 1 + |zeta|/(L+1); e^700 is near overflow
    growth = math.log1p(float(np.abs(zeta).max(initial=0.0)) / (L + 1.0))
    every = _RESCALE_EVERY if (_RESCALE_EVERY + 1) * growth < 700.0 else 1
    h, t = np.ones_like(zeta), np.empty_like(zeta)
    e = np.zeros(zeta.shape, dtype=np.int32)
    one = np.ones(zeta.shape)  # the recursion's 1 in units of 2^e
    for step, j in enumerate(range(n - 1, 0, -1), 1):
        np.multiply(h, im_z, out=t)
        h *= re_z
        h += t
        h *= 1.0 / (L + j)
        np.add(h.real, one, out=h.real)
        if step % every == 0:
            # h *= 2^-k, e += k, one = 2^-e, k the binary exponent of
            # max(|Re h|, |Im h|, one); e >= 0 keeps one <= 1
            m = np.maximum(np.abs(h.real), np.abs(h.imag))
            k = np.frexp(np.maximum(m, one, out=m))[1]
            e += k
            np.ldexp(h.real, -k, out=h.real)
            np.ldexp(h.imag, -k, out=h.imag)
            np.ldexp(1.0, -e, out=one)
    with np.errstate(divide="ignore"):
        np.log(h, out=h)
    h.real += e * _LN2 - _sp.gammaln(L + 1.0)
    return h.reshape(shape)
