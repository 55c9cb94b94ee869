"""Special functions used by every analytic formula in the package.

Regularized incomplete gamma functions, complementary error function and
log-gamma, accurate for shape parameters up to ~1e5 (large-N densities need
that).  Backed by scipy.special, which implements the standard series /
continued-fraction split with a uniform asymptotic expansion for large shape;
the wrappers add the domain checks the rest of the package relies on.

This is the package's only importer of scipy.special, and it imports it on
the first call that needs it (_scipy_special), not at import time: loading
scipy.special 1.17 takes about 0.35 s on a 2-vCPU x86-64 host, most of a
cold `import indg`, while the samplers need numpy alone.  The ensemble
modules reach it through the same loader for the complex erfc and the real
erf that the wrappers do not cover.

log_exp_series is the truncated exponential series behind both kernels: one
Horner recursion with two executors.  Arrays run it in place with a few
ufunc calls per step; inputs of at most _SMALL elements (a scalar kernel
call) run it element by element on Python complex numbers, since a numpy
step costs about the same on one element as on a thousand.  Both perform the
same floating-point operations in the same order and give the same bits.

All functions are pure, accept scalars or arrays, and never overflow for
in-domain input.
"""

import math

import numpy as np

__all__ = [
    "lower_reg_gamma",
    "upper_reg_gamma",
    "erfc",
    "erfcx",
    "log_gamma",
    "log_exp_series",
]

_RESCALE_EVERY = 16  # Horner steps of log_exp_series between rescalings
_SMALL = 4  # log_exp_series runs inputs of at most this many elements in Python
_LN2 = math.log(2.0)
_sp = None  # scipy.special once _scipy_special has imported it


def _scipy_special():
    """scipy.special, imported on the first call; later calls read the global."""
    global _sp
    if _sp is None:
        from scipy import special

        _sp = special
    return _sp


def _check_gamma_args(a, x):
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(x).all()):
        raise ValueError("incomplete gamma arguments must be finite")
    if (a <= 0).any():
        raise ValueError("shape parameter a must be > 0")
    if (x < 0).any():
        raise ValueError("argument x must be >= 0")
    return a, x


def lower_reg_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x)/Gamma(a).

    Monotone nondecreasing in x, P(a, 0) = 0, P(a, inf) = 1.
    """
    a, x = _check_gamma_args(a, x)
    return _scipy_special().gammainc(a, x)


def upper_reg_gamma(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a).

    Complements lower_reg_gamma: P + Q = 1.
    """
    a, x = _check_gamma_args(a, x)
    return _scipy_special().gammaincc(a, x)


def erfc(x):
    """Complementary error function."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("erfc argument must be finite")
    return _scipy_special().erfc(x)


def erfcx(x):
    """Scaled complementary error function e^{x^2} erfc(x).

    Needed by the real-ensemble complex density, whose erfc(sqrt(2) y) e^{2y^2}
    combination overflows if formed naively.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("erfcx argument must be finite")
    return _scipy_special().erfcx(x)


def log_gamma(a):
    """log Gamma(a) for a > 0."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all() or (a <= 0).any():
        raise ValueError("log_gamma requires finite a > 0")
    return _scipy_special().gammaln(a)


def log_exp_series(zeta, n, L):
    """log sum_{j=0}^{n-1} zeta^j / Gamma(L+j+1), elementwise in complex zeta.

    Backward Horner recursion h <- 1 + h zeta/(L+j), j = n-1, ..., 1; the
    sum is then h/Gamma(L+1).  h is kept as h * 2^e, rescaled exactly every
    16 steps (every step once some |zeta| passes ~1e17), so nothing
    overflows for any n.  h*zeta is formed as h*Re(zeta) + h*(i Im(zeta)),
    where each product has one cross term that is exactly zero, so it rounds
    once per component however the multiply is carried out.

    The recursion has two executors that perform the same operations in the
    same order.  Inputs of at most _SMALL finite elements run it one element
    at a time on Python complex numbers; larger ones, and any non-finite
    input, run it on arrays the shape of zeta (none has an n axis).  A numpy
    step pays a few ufunc dispatches however small the array, so on one
    element at n=127 the Python loop takes about 0.1 ms against 0.8-1.2 ms,
    while from about 16 elements up the array loop is faster (2-vCPU x86-64
    host); _SMALL sits well below that crossover.  Either way an element
    gets the same bits in a scalar call as inside any array of the same
    rescale cadence (an array holding some |zeta| past ~1e17 rescales every
    step, which can move the last bit of the log).  Non-finite zeta gives
    nan for n >= 2.

    The error is absolute: below about n*eps times
    sum_j |zeta|^j / Gamma(L+j+1); where the terms cancel (Re zeta << 0) a
    much smaller sum carries no guaranteed relative digits.  Principal
    branch of the log.
    """
    if n < 1 or not L >= 0:
        raise ValueError("log_exp_series needs n >= 1 and L >= 0")
    zeta = np.asarray(zeta, dtype=complex)
    shape, zeta = zeta.shape, zeta.reshape(-1)
    re_z, im_z = zeta.real + 0j, 1j * zeta.imag
    # a step grows |h| by at most 1 + |zeta|/(L+1); e^700 is near overflow
    growth = math.log1p(float(np.abs(zeta).max(initial=0.0)) / (L + 1.0))
    every = _RESCALE_EVERY if (_RESCALE_EVERY + 1) * growth < 700.0 else 1
    if zeta.size <= _SMALL and math.isfinite(growth):
        h, e = _horner_elements(re_z.tolist(), im_z.tolist(), n, L, every)
    else:
        h, e = _horner_arrays(re_z, im_z, n, L, every)
    with np.errstate(divide="ignore"):
        np.log(h, out=h)
    h.real += e * _LN2 - _scipy_special().gammaln(L + 1.0)
    return h.reshape(shape)


def _horner_arrays(re_z, im_z, n, L, every):
    """log_exp_series' recursion on whole arrays: (h, e) with the sum h 2^e."""
    h, t = np.ones_like(re_z), np.empty_like(re_z)
    e = np.zeros(re_z.shape, dtype=np.int32)
    one = np.ones(re_z.shape)  # the recursion's 1 in units of 2^e
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
    return h, e


def _horner_elements(re_z, im_z, n, L, every):
    """_horner_arrays' recursion run element by element on Python complex.

    Each multiplier is a complex, so a product is the same two-term formula
    numpy uses, and the 1 is added as complex(one, -0.0), which leaves the
    imaginary part (and the sign of a zero) as numpy's real-part add does.
    """
    scale = (1.0 / (L + np.arange(n - 1, 0, -1))).astype(complex).tolist()
    hs, es = [], []
    for re, im in zip(re_z, im_z):
        h, e, one = 1 + 0j, 0, complex(1.0, -0.0)
        # runs of `every` steps, each full run followed by a rescaling
        for start in range(0, len(scale), every):
            for c in scale[start:start + every]:
                h = (h * re + h * im) * c + one
            if start + every <= len(scale):
                # max may drop a nan that np.maximum keeps, but a nan h stays nan
                k = math.frexp(max(abs(h.real), abs(h.imag), one.real))[1]
                e += k
                h = complex(math.ldexp(h.real, -k), math.ldexp(h.imag, -k))
                one = complex(math.ldexp(1.0, -e), -0.0)
        hs.append(h)
        es.append(e)
    return np.array(hs, dtype=complex), np.array(es, dtype=np.int32)
