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


@pytest.mark.parametrize("N", [128, 1000, 4000])
@pytest.mark.parametrize("L", [0.0, 0.5, 32.0])
def test_kernel_KN_absolute_accuracy(N, L):
    params = EnsembleParams(N=N, L=L, beta=2)
    for z, w in ring_pairs(N, L, 8, seed=N + int(2 * L)):
        scale = float(mpmath.sqrt((mp_kernel(z, z, N, L) * mp_kernel(w, w, N, L)).real))
        err = abs_error(kernel_KN(z, w, params), mp_kernel(z, w, N, L))
        assert err <= CONTRACT * scale, (z, w, err / scale)


@pytest.mark.parametrize("N", [128, 1000, 4000])
@pytest.mark.parametrize("L", [0.0, 0.5, 32.0])
def test_helper_sN_absolute_accuracy(N, L):
    params = EnsembleParams(N=N, L=L, beta=1)
    pairs = ring_pairs(N, L, 8, seed=7 * N + int(2 * L))
    pairs[1] = pairs[1].real  # a real/real pair, where the dressing takes |x|^L
    for z, w in pairs:
        # the square root is taken in mpmath: at N=4000 the product underflows
        diag = abs(mp_sN(z, np.conj(z), N, L)) * abs(mp_sN(w, np.conj(w), N, L))
        scale = float(mpmath.sqrt(diag))
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


def dropped_share(zeta, n, L, first):
    """|sum_{first <= j < n} zeta^j / Gamma(L+j+1)| over the largest |term| of
    j < n, in 30-digit arithmetic.  Past the peak the terms fall; the sum
    stops once a term is below 2^-90 of the largest and the ratio of the
    next ones below 1/2, which bounds the rest by that term."""
    with mpmath.workdps(30):
        z, L = mpmath.mpc(zeta), mpmath.mpf(L)
        r = abs(z)
        peak = min(n - 1, max(0, math.floor(float(r - L))))
        largest = r ** peak / mpmath.gamma(L + peak + 1)
        term = z ** first / mpmath.gamma(L + first + 1)
        tail = mpmath.mpc(0)
        for j in range(first, n):
            tail += term
            if abs(term) < largest * mpmath.mpf(2) ** -90 and r < (L + j + 1) / 2:
                break
            term *= z / (L + j + 1)
        return float(abs(tail) / largest)


@pytest.mark.parametrize("n", [2, 17, 128, 1000, 4000])
def test_start_rule_drops_a_negligible_tail(n):
    # each element starts its recursion at J = n-1 - special._skip(|zeta|, n, L);
    # the terms it leaves out, j = J+1 .. n-1, sum to at most 2^-60 of the
    # largest term, for |zeta| from 0 to 2(n+L) on and off the real axis,
    # Re zeta << 0 included
    for L in (0.0, 0.5, 32.0, 500.0):
        radii = np.concatenate([[0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0],
                                np.linspace(0.0, 2.0 * (n + L), 17)[1:]])
        for r in radii:
            first = n - special._skip(r, n, L)
            for phase in (0.0, 0.5 * np.pi, 0.9 * np.pi, np.pi):
                share = dropped_share(r * np.exp(1j * phase), n, L, first)
                assert share <= 2.0 ** -60, (n, L, r, phase, share)


def test_series_element_keeps_the_truncated_series_bits():
    # an element that skips k leading steps (k a multiple of the rescale
    # period) gets the bits of the (n-k)-term series, which runs the same
    # steps from the same start, alone and inside an array
    rng = np.random.default_rng(6)
    for n, L in ((1000, 0.0), (1000, 32.0), (4000, 0.5)):
        zeta = rng.uniform(0.0, 1.2 * (n + L), size=12) * np.exp(2j * np.pi * rng.uniform(size=12))
        inside = log_exp_series(zeta, n, L)
        for k, v in enumerate(zeta):
            skip = special._skip(abs(v), n, L)
            want = bits(log_exp_series(v, n - skip, L))
            assert np.array_equal(bits(log_exp_series(v, n, L)), want), (n, L, v)
            assert np.array_equal(bits(inside[k]), want), (n, L, v)


# values of the full (n-1)-step recursion, recorded when every element ran
# all of its steps; an element whose start is n-1 still runs exactly that
# recursion, so it keeps these bits
FULL_RECURSION_BITS = [
    (17, 0.0, 3 + 1j, "0x1.8000001413162p+1", "0x1.000000dfaf4c2p+0"),
    (17, 0.5, -2.5 + 0.5j, "-0x1.40aa29873d8ebp+0", "0x1.ad24b5071c8f3p-3"),
    (128, 32.0, 80 + 20j, "-0x1.e98f0b8e41f72p+5", "-0x1.9f6ca1b53b683p-2"),
    (128, 0.0, complex(-60.0, -0.0), "0x1.b4950249b54a6p+4", "0x1.921fb54442d18p+1"),
    (1000, 0.5, -700 + 300j, "0x1.67afb2311d919p+9", "0x1.ab90dc5697de0p-2"),
    (1000, 32.0, 900j, "0x1.4e34f46651523p+9", "-0x1.365543e9d9caep+1"),
]


@pytest.mark.parametrize("n, L, zeta, re_hex, im_hex", FULL_RECURSION_BITS)
def test_series_full_recursion_keeps_its_bits(n, L, zeta, re_hex, im_hex):
    assert special._skip(abs(zeta), n, L) == 0
    want = complex(float.fromhex(re_hex), float.fromhex(im_hex))
    pool = np.array([zeta, 0.5, 3.0j, -40.0, zeta, 2.0 + 2.0j])
    for got in (complex(log_exp_series(zeta, n, L)), complex(log_exp_series(pool, n, L)[4])):
        assert bits(got).tobytes() == bits(want).tobytes(), (n, L, zeta, got)


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


def test_series_mixed_starts_independent_of_window():
    # moduli from 0 to past n+L, so the elements start their recursions at
    # different indices: every window of sizes 1-6 (run element by element
    # up to special._SMALL, on sorted arrays above) has the bits the pool
    # gets as one array, signed zeros included
    rng = np.random.default_rng(8)
    for n, L in ((1000, 0.0), (1000, 32.0), (300, 0.5), (40, 500.0)):
        moduli = np.array([0.0, 0.0, 0.3, 1.0, 7.0, 60.0, 0.4 * n, 0.9 * n, 1.3 * (n + L), 25.0])
        pool = moduli * np.exp(1j * rng.uniform(-np.pi, np.pi, size=moduli.size))
        pool[0], pool[1] = complex(-0.0, 0.0), complex(0.0, -0.0)
        pool[4] = complex(-7.0, -0.0)
        ref = bits(log_exp_series(pool, n, L))
        starts = {special._skip(abs(v), n, L) for v in pool}
        assert len(starts) > 2 or n == 40, (n, L, starts)
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
