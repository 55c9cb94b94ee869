"""The truncated exponential series sum_{j<n} zeta^j / Gamma(L+j+1) behind the
kernels of both ensembles: the engine itself, the accuracy contract of the
kernels built on it against 60-digit sums, and its memory bound."""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.special as sp

from indg import special
from indg.complex_ensemble import kernel_KN, origin_kernel
from indg.real_ensemble import helper_sN
from indg.sampling import EnsembleParams
from indg.special import log_exp_series

CONTRACT = 1e-12


def mp_series(zeta, n, L):
    """sum_{j<n} zeta^j / Gamma(L+j+1) in 60-digit arithmetic; n=None sums
    until 200 terms past L+j = 2|zeta|, where each term is below half the last."""
    with mpmath.workdps(60):
        zeta, L = mpmath.mpc(zeta), mpmath.mpf(L)
        if n is None:
            n = int(max(2 * abs(zeta) - L, 0)) + 200
        term = 1 / mpmath.gamma(L + 1)
        total = term
        for j in range(1, n):
            term = term * zeta / (L + j)
            total += term
        return total


def mp_kernel(z, w, n, L):
    """(1/pi) e^{-(|z|^2+|w|^2)/2} (z w~)^L sum_{j<n} (z w~)^j / Gamma(L+j+1)."""
    with mpmath.workdps(60):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        zeta = z * mpmath.conj(w)
        front = mpmath.exp(-(abs(z) ** 2 + abs(w) ** 2) / 2) / mpmath.pi
        return front * zeta ** L * mp_series(zeta, n, L)


def mp_dress(z, L):
    """psi(z) z^L, with |z|^L on the real axis (the s_N dressing)."""
    z = mpmath.mpc(z)
    power = abs(z) ** L if z.imag == 0 else z ** L
    return mpmath.exp(-z * z / 2) * mpmath.sqrt(mpmath.erfc(mpmath.sqrt(2) * abs(z.imag))) * power


def mp_sN(z, w, N, L):
    with mpmath.workdps(60):
        zeta = mpmath.mpc(z) * mpmath.mpc(w)
        return mp_dress(z, L) * mp_dress(w, L) * mp_series(zeta, N - 1, L) / mpmath.sqrt(2 * mpmath.pi)


def ring_pairs(N, L, count, seed):
    """Point pairs with moduli across the hole, the ring and past its edge."""
    rng = np.random.default_rng(seed)
    r = 1.3 * math.sqrt(N + L) * np.sqrt(rng.uniform(size=(count, 2)))
    theta = rng.uniform(0.0, np.pi, size=(count, 2))
    theta[:, 1] *= np.where(rng.uniform(size=count) < 0.5, 1.0, -2.0)
    pts = r * np.exp(1j * theta)
    # Re zeta << 0, off the negative axis, where (z w~)^L has its branch cut;
    # at equal moduli the cancelling terms are as large as the diagonal scale
    R = math.sqrt(N + L)
    pts[0] = (0.9 * R * np.exp(0.2j), -0.8 * R)
    pts[2] = (0.7 * R * np.exp(0.5j), 0.7 * R * np.exp(3.0j))
    return pts


def abs_error(got, want):
    with mpmath.workdps(60):
        return float(abs(mpmath.mpc(complex(got)) - want))


@pytest.mark.parametrize("N", [128, 1000])
@pytest.mark.parametrize("L", [0.0, 0.5, 32.0])
def test_kernel_KN_absolute_accuracy(N, L):
    params = EnsembleParams(N=N, L=L, beta=2)
    for z, w in ring_pairs(N, L, 8, seed=N + int(2 * L)):
        scale = math.sqrt(float((mp_kernel(z, z, N, L) * mp_kernel(w, w, N, L)).real))
        err = abs_error(kernel_KN(z, w, params), mp_kernel(z, w, N, L))
        assert err <= CONTRACT * scale, (z, w, err / scale)


@pytest.mark.parametrize("N", [128, 1000])
@pytest.mark.parametrize("L", [0.0, 0.5, 32.0])
def test_helper_sN_absolute_accuracy(N, L):
    params = EnsembleParams(N=N, L=L, beta=1)
    pairs = ring_pairs(N, L, 8, seed=7 * N + int(2 * L))
    pairs[1] = pairs[1].real  # a real/real pair, where the dressing takes |x|^L
    for z, w in pairs:
        scale = math.sqrt(float(abs(mp_sN(z, np.conj(z), N, L)) * abs(mp_sN(w, np.conj(w), N, L))))
        err = abs_error(helper_sN(z, w, params), mp_sN(z, w, N, L))
        assert err <= CONTRACT * scale, (z, w, err / scale)


@pytest.mark.parametrize("L", [1.0, 2.5, 32.0])
def test_origin_kernel_absolute_accuracy(L):
    # origin_kernel needs L >= 1; moduli up to 1.3 sqrt(1000 + L) make the
    # engine run past 3000 terms
    for z, w in ring_pairs(1000, L, 6, seed=int(2 * L)):
        scale = math.sqrt(float((mp_kernel(z, z, None, L) * mp_kernel(w, w, None, L)).real))
        err = abs_error(origin_kernel(z, w, L), mp_kernel(z, w, None, L))
        assert err <= CONTRACT * scale, (z, w, err / scale)


def test_series_against_incomplete_gamma():
    # L=0: sum_{j<n} x^j/j! = e^x Q(n, x), an independent closed form
    x = np.array([0.0, 0.5, 7.0, 120.0, 990.0, 1500.0])
    for n in (1, 5, 128, 1000):
        with np.errstate(divide="ignore"):
            want = x + np.log(sp.gammaincc(n, x))
        got = log_exp_series(x, n, 0.0)
        ok = np.isfinite(want)
        assert np.allclose(got.real[ok], want[ok], rtol=0, atol=1e-13 * max(1.0, n)), n
        assert np.all(got.imag == 0.0)


def test_series_small_cases_and_validation():
    assert np.isclose(log_exp_series(2.5, 1, 3.0), -math.lgamma(4.0), rtol=1e-15)
    assert np.isclose(log_exp_series(0.0, 7, 0.5), -math.lgamma(1.5), rtol=1e-15)
    assert np.isclose(np.exp(log_exp_series(1.0 + 1.0j, 3, 0.0)), 1.0 + (1.0 + 1.0j) + 1.0j,
                      rtol=1e-15)
    assert log_exp_series(np.zeros((2, 0)), 4, 1.0).shape == (2, 0)
    with pytest.raises(ValueError):
        log_exp_series(1.0, 0, 0.0)
    with pytest.raises(ValueError):
        log_exp_series(1.0, 4, -0.5)


def test_series_no_overflow_far_out():
    # |zeta| far past any ring, where every step has to rescale
    zeta = np.array([1e20, -1e20, 1e20j, 1e150])
    got = log_exp_series(zeta, 60, 0.0)
    assert np.all(np.isfinite(got))
    assert np.allclose(got.real, 59 * np.log(np.abs(zeta)) - math.lgamma(60.0), rtol=1e-14)


def test_series_element_independent_of_array():
    # the same digits for an element in a scalar call and inside any array
    rng = np.random.default_rng(3)
    for n, L in ((127, 0.0), (999, 32.0), (999, 0.5)):
        zeta = (rng.normal(size=40) + 1j * rng.normal(size=40)) * 0.8 * math.sqrt(n + L)
        grid = log_exp_series(zeta, n, L)
        single = np.array([complex(log_exp_series(v, n, L)) for v in zeta])
        assert np.array_equal(grid, single), (n, L)
    # inputs of up to special._SMALL elements run element by element in
    # Python, larger ones on arrays: every window of sizes 1-6 of a pool has
    # the bits the pool gets as one array, signed zeros included.  The huge
    # pool (|zeta| >= 1e22) rescales at every step; the cadence is set by the
    # whole array, so the two pools are not mixed.
    assert 1 <= special._SMALL < 6
    rng = np.random.default_rng(4)
    ordinary = np.concatenate([
        [0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-40.0, -0.0)],
        (rng.normal(size=5) + 1j * rng.normal(size=5)) * 12.0,
    ])
    huge = np.array([1e22, complex(-3e22, 1e21), complex(0.0, -2e25), complex(5e30, -0.0),
                     complex(-1e22, -0.0), 4e23 + 4e23j, complex(-0.0, 1e22)])
    for n in (1, 2, 17, 127):
        for L in (0.0, 0.5, 32.0):
            for pool in (ordinary, huge):
                ref = bits(log_exp_series(pool, n, L))
                for size in range(1, 7):
                    for start in range(pool.size - size + 1):
                        got = bits(log_exp_series(pool[start:start + size], n, L))
                        assert np.array_equal(got, ref[start:start + size]), (n, L, size, start)


def bits(values):
    """The raw bits of a complex array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64).reshape(-1, 2)


def test_series_non_finite_input_takes_array_path():
    # a non-finite zeta, or one whose modulus overflows, gives at any size
    # what it gives inside a large array: nan for n >= 2, 1/Gamma(L+1) at
    # n=1.  Near overflow h overflows to nan by n=17; 1e308 - 1e308j has a
    # finite modulus and runs element by element.
    fill = np.arange(1.0, 9.0)
    non_finite = (np.inf, -np.inf, np.nan, complex(np.inf, 1.0), complex(1.0, np.nan))
    for zeta in non_finite + (complex(1e308, 1e308), complex(1e308, -1e308)):
        for n in (1, 2, 17):
            with np.errstate(all="ignore"):
                single = log_exp_series(zeta, n, 0.5)
                inside = log_exp_series(np.concatenate([[zeta], fill]), n, 0.5)[0]
            assert np.array_equal(bits(single), bits(inside)), (zeta, n)
            if n == 1:
                assert single == -sp.gammaln(1.5)
            elif zeta in non_finite or n == 17:
                assert np.isnan(single.real) and np.isnan(single.imag), (zeta, n)


def test_kernel_KN_memory_does_not_grow_with_N():
    params = EnsembleParams(N=1000, L=32.0, beta=2)
    rng = np.random.default_rng(5)
    r = 1.2 * math.sqrt(params.N + params.L)
    z = (r * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40)))[:, None]
    w = (r * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40)))[None, :]
    tracemalloc.start()
    try:
        out = kernel_KN(z, w, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (40, 40)
    assert peak < 10 * out.nbytes, (peak, out.nbytes)
