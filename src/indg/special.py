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
Horner recursion with two executors.  Each element starts the recursion at
its own last significant term (_last_term: about |zeta| - L + 10 sqrt|zeta|,
never past n-1), which leaves out terms summing to below 2^-65 of the
largest, so an element costs O(|zeta| - L + sqrt|zeta|) steps, not O(n).
Arrays run it in place with a few ufunc calls per step, sorted by start so
that each step runs on the prefix that has started; inputs of at most _SMALL
elements (a scalar kernel call) run it element by element on Python complex
numbers, since a numpy step costs about the same on one element as on a
thousand.  Both perform the same floating-point operations in the same
order and give the same bits.

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


def _last_term(r, L):
    """The start rule: the last index log_exp_series keeps at |zeta| = r (finite).

    The terms |zeta|^j / Gamma(L+j+1) peak near j = r - L and fall off past
    it like a Gaussian of width sqrt(r), so the ones past this index sum to
    less than 2^-65 of the largest (2^-65.5 at worst, near r = 10 to 13).
    Python floats; the array executor spells the same operations in numpy.
    """
    return math.ceil(max(r - L, 0.0) + 10.0 * math.sqrt(r) + 10.0)


def _skip(r, n, L):
    """Leading steps of the n-term recursion an element at |zeta| = r (finite)
    leaves out: the whole rescale blocks above its last significant index."""
    return (n - 1 - min(n - 1, _last_term(r, L))) // _RESCALE_EVERY * _RESCALE_EVERY


def log_exp_series(zeta, n, L):
    """log sum_{j=0}^{n-1} zeta^j / Gamma(L+j+1), elementwise in complex zeta.

    Backward Horner recursion h <- 1 + h zeta/(L+j), j = J, ..., 1; the sum
    is then h/Gamma(L+1).  Each element starts at its own last significant
    index J = min(n-1, _last_term(|zeta|, L)), moved up onto the rescale grid
    below (n-1 for a non-finite |zeta|), so it costs O(|zeta| - L +
    sqrt|zeta|) steps rather than n, and the terms it leaves out sum to less
    than 2^-65 of the largest.  h is kept as h * 2^e, rescaled exactly after
    every step j with (n - j) % 16 = 0 (every step once some |zeta| passes
    ~1e17), so nothing overflows for any n; an element that needs all n-1
    steps runs exactly the full recursion.  h*zeta is formed as
    h*Re(zeta) + h*(i Im(zeta)), where each product has one cross term that
    is exactly zero, so it rounds once per component however the multiply
    is carried out.

    The recursion has two executors that perform the same operations in the
    same order.  Inputs of at most _SMALL finite elements run it one element
    at a time on Python complex numbers; larger ones, and any non-finite
    input, run it on arrays sorted by start, each step on the prefix of
    elements that have started (none has an n axis).  A numpy step pays a
    few ufunc dispatches however small the array, so on one element at
    n=127 the Python loop takes about 0.1 ms against 0.8-1.2 ms, while from
    about 16 elements up the array loop is faster (2-vCPU x86-64 host);
    _SMALL sits well below that crossover.  Either way an element gets the
    same bits in a scalar call as inside any array of the same rescale
    cadence (an array holding some |zeta| past ~1e17 rescales every step,
    which can move the last bit of the log).  Non-finite zeta gives nan for
    n >= 2.

    The error is absolute: below about n*eps times
    sum_j |zeta|^j / Gamma(L+j+1); where the terms cancel (Re zeta << 0) a
    much smaller sum carries no guaranteed relative digits.  Principal
    branch of the log.
    """
    if n < 1 or not L >= 0:
        raise ValueError("log_exp_series needs n >= 1 and L >= 0")
    zeta = np.asarray(zeta, dtype=complex)
    shape, zeta = zeta.shape, zeta.reshape(-1)
    r = np.abs(zeta)
    # a step grows |h| by at most 1 + |zeta|/(L+1); e^700 is near overflow
    growth = math.log1p(float(r.max(initial=0.0)) / (L + 1.0))
    every = _RESCALE_EVERY if (_RESCALE_EVERY + 1) * growth < 700.0 else 1
    if zeta.size <= _SMALL and math.isfinite(growth):
        h, e = _horner_elements((zeta.real + 0j).tolist(), (1j * zeta.imag).tolist(),
                                r.tolist(), n, L, every)
    else:
        h, e = _horner_sorted(zeta, r, n, L, every)
    with np.errstate(divide="ignore"):
        np.log(h, out=h)
    h.real += e * _LN2 - _scipy_special().gammaln(L + 1.0)
    return h.reshape(shape)


def _horner_sorted(zeta, r, n, L, every):
    """_horner_arrays on the elements sorted by start, scattered back after."""
    # _skip on arrays, in rescale blocks; fmin sends a nan start to n-1 as it
    # does inf.  The sort puts the elements that start first in front, so
    # each block of steps runs on a prefix.
    last = np.sqrt(r)
    last *= 10.0
    last += np.maximum(r - L, 0.0)
    last += 10.0
    np.ceil(last, out=last)
    skip = ((n - 1 - np.fmin(last, n - 1)) // _RESCALE_EVERY).astype(np.intp)
    del last
    order = np.argsort(skip, kind="stable")
    started = np.cumsum(np.bincount(skip, minlength=-(-(n - 1) // _RESCALE_EVERY)))
    del skip
    hs, es = _horner_arrays(zeta.real[order] + 0j, 1j * zeta.imag[order], started, n, L, every)
    h, e = np.empty_like(hs), np.empty_like(es)
    h[order], e[order] = hs, es
    return h, e


def _horner_arrays(re_z, im_z, started, n, L, every):
    """log_exp_series' recursion on whole arrays: (h, e) with the sum h 2^e.

    started[b] elements, a prefix, run the steps of rescale block b.  The
    setup lives in the caller: under tracemalloc each allocation looks its
    line up in the function's line table, so a step costs more the further
    it sits into a long function.
    """
    h, t = np.ones_like(re_z), np.empty_like(re_z)
    e = np.zeros(re_z.shape, dtype=np.int32)
    one = np.ones(re_z.shape)  # the recursion's 1 in units of 2^e
    for first, m in zip(range(1, n, _RESCALE_EVERY), started):
        if not m:
            continue
        hm, tm, em, om, rm, im = h[:m], t[:m], e[:m], one[:m], re_z[:m], im_z[:m]
        hr = hm.real
        for step in range(first, min(first + _RESCALE_EVERY, n)):
            np.multiply(hm, im, out=tm)
            hm *= rm
            hm += tm
            hm *= 1.0 / (L + (n - step))
            np.add(hr, om, out=hr)
            if step % every == 0:
                # h *= 2^-k, e += k, one = 2^-e, k the binary exponent of
                # max(|Re h|, |Im h|, one), formed in t; e >= 0 keeps one <= 1
                mx = tm.real
                np.abs(hr, out=mx)
                np.maximum(mx, np.abs(hm.imag, out=tm.imag), out=mx)
                k = np.frexp(np.maximum(mx, om, out=mx))[1]
                em += k
                np.ldexp(hr, -k, out=hr)
                np.ldexp(hm.imag, -k, out=hm.imag)
                np.ldexp(1.0, -em, out=om)
    return h, e


def _horner_elements(re_z, im_z, r, n, L, every):
    """_horner_arrays' recursion run element by element on Python complex.

    Each multiplier is a complex, so a product is the same two-term formula
    numpy uses, and the 1 is added as complex(one, -0.0), which leaves the
    imaginary part (and the sign of a zero) as numpy's real-part add does.
    """
    skips = [_skip(x, n, L) for x in r]
    first = min(skips, default=0)
    scale = (1.0 / (L + np.arange(n - 1 - first, 0, -1))).astype(complex).tolist()
    hs, es = [], []
    for re, im, skip in zip(re_z, im_z, skips):
        h, e, one = 1 + 0j, 0, complex(1.0, -0.0)
        # runs of `every` steps from the element's start, each full run
        # followed by a rescaling
        for start in range(skip - first, len(scale), every):
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
