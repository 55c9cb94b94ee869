"""Pfaffian (beta=1) finite-N statistics: kernel entries against definitional
sums, densities, joint-density cross-checks, counts, limits, Monte Carlo."""
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from indg import linalg
from indg import real_ensemble
from indg.complex_ensemble import (
    bulk_edge_limit_kernels,
    correlations_Rn,
    density_edge_profile as density_complex_edge_profile,
    density_ring_limit as density_complex_ring_limit,
)
from indg.real_ensemble import (
    _log_half_moment,
    _assemble_blocks,
    _pfaffian_of_blocks,
    _tau_even_logmag,
    _tau_odd_logmag,
    correlations_pfaffian,
    density_complex,
    density_complex_azimuthal,
    density_complex_origin_limit,
    density_crossover_profile,
    density_real,
    density_real_edge_profile,
    density_real_origin_limit,
    density_real_ring_limit,
    expected_real_count,
    helper_t,
    kernel_entries,
    limit_kernel_entries,
    limit_kernels,
    log_jpdf_real_partial,
    real_count_leading_order,
    skew_inner,
    skew_poly,
    skew_poly_norm,
)
from indg.sampling import EnsembleParams, sample_induced_quadratise
from quadrature_helpers import gl_panels


def P1(N, L):
    return EnsembleParams(N=N, L=L, beta=1)


# ---------------------------------------------------------------------------
# definitional oracle: dressed skew polynomials and their half-measure
# transforms, summed directly


def dressed_weight(w, L):
    w = complex(w)
    if w.imag == 0.0:
        x = w.real
        if x == 0.0:
            return 1.0 if L == 0 else 0.0
        return math.exp(-0.5 * x * x) * abs(x) ** L
    return (np.exp(-0.5 * w * w)
            * math.sqrt(sp.erfc(math.sqrt(2.0) * abs(w.imag))) * w ** L)


def qt(j, L, w):
    return dressed_weight(w, L) * np.polynomial.polynomial.polyval(
        complex(w), skew_poly(j, L))


def tau_numeric(j, L, w):
    """Transform of qt: quadrature on the real axis, closed form off it."""
    w = complex(w)
    if w.imag != 0.0:
        return 1j * math.copysign(1.0, w.imag) * qt(j, L, w.conjugate())
    x = w.real
    xs, ws = gl_panels(x, 30.0, width=0.25, order=32)
    hi = np.sum(ws * np.array([qt(j, L, t) for t in xs]))
    xs2, ws2 = gl_panels(-30.0, x, width=0.25, order=32)
    lo = np.sum(ws2 * np.array([qt(j, L, t) for t in xs2]))
    return 0.5 * (hi - lo)


def tau_closed(j, L, w):
    w = complex(w)
    if w.imag != 0.0:
        return 1j * math.copysign(1.0, w.imag) * qt(j, L, w.conjugate())
    if j % 2 == 0:
        s, lm = _tau_even_logmag(j // 2, w.real, L)
    else:
        s, lm = 1.0, _tau_odd_logmag((j - 1) // 2, w.real, L)
    return s * math.exp(lm) if np.isfinite(lm) else 0.0


def entries_definitional(a, b, params, tau=tau_closed):
    N, L = params.N, params.L
    DS = S = IS = 0.0 + 0j
    for j in range(N // 2):
        rj = 2.0 * math.sqrt(2.0 * math.pi) * math.gamma(L + 2 * j + 1)
        q0a, q1a = qt(2 * j, L, a), qt(2 * j + 1, L, a)
        q0b, q1b = qt(2 * j, L, b), qt(2 * j + 1, L, b)
        t0a, t1a = tau(2 * j, L, a), tau(2 * j + 1, L, a)
        t0b, t1b = tau(2 * j, L, b), tau(2 * j + 1, L, b)
        DS += (2.0 / rj) * (q0a * q1b - q1a * q0b)
        S += (2.0 / rj) * (q0a * t1b - q1a * t0b)
        IS += (2.0 / rj) * (t0a * t1b - t1a * t0b)
    return DS, S, IS


POINT_PAIRS = [
    (-1.3, 0.8),
    (0.6, 2.1),
    (-0.4, -1.7),
    (0.9, 0.5 + 0.8j),
    (-1.1, 0.3 + 1.4j),
    (0.7 + 0.6j, 1.2),
    (1.1 + 0.2j, -0.8),
    (0.5 + 0.9j, 1.3 + 0.4j),
    (-0.6 + 1.1j, 0.2 + 0.3j),
]


def test_tau_closed_forms_vs_quadrature():
    for L in (0.0, 2.5):
        for j in range(5):
            for x in (-2.3, 0.0, 1.9):
                tn = tau_numeric(j, L, x)
                tc = tau_closed(j, L, x)
                assert abs(tn - tc) < 1e-9 * max(1.0, abs(tn)), (L, j, x, tn, tc)


def test_kernel_entries_vs_definitional_sums():
    for N in (2, 4, 8):
        for L in (0.0, 1.0, 2.5):
            params = P1(N, L)
            for a, b in POINT_PAIRS:
                DSd, Sd, ISd = entries_definitional(a, b, params)
                e = kernel_entries(a, b, params)
                scale = max(abs(DSd), abs(Sd), abs(ISd), 1e-10)
                assert abs(e.DS - DSd) < 1e-9 * scale, (N, L, a, b, "DS")
                assert abs(e.S - Sd) < 1e-9 * scale, (N, L, a, b, "S")
                assert abs(e.IS - ISd) < 1e-9 * scale, (N, L, a, b, "IS")


def test_kernel_entries_vs_numeric_tau():
    # fully independent route: the transform itself done by quadrature
    for N, L in ((2, 0.0), (4, 2.5)):
        params = P1(N, L)
        for a, b in POINT_PAIRS[:6]:
            DSd, Sd, ISd = entries_definitional(a, b, params, tau=tau_numeric)
            e = kernel_entries(a, b, params)
            scale = max(abs(DSd), abs(Sd), abs(ISd), 1e-10)
            assert abs(e.DS - DSd) < 1e-8 * scale
            assert abs(e.S - Sd) < 1e-8 * scale
            assert abs(e.IS - ISd) < 1e-8 * scale


def test_kernel_antisymmetry_fixed_cases():
    for N in (4, 8):
        params = P1(N, 1.5)
        for a, b in POINT_PAIRS:
            e1 = kernel_entries(a, b, params)
            e2 = kernel_entries(b, a, params)
            assert abs(e1.DS + e2.DS) < 1e-10 * max(1.0, abs(e1.DS))
            assert abs(e1.IS + e2.IS) < 1e-10 * max(1.0, abs(e1.IS))
            assert abs(e1.eps + e2.eps) < 1e-15


@settings(max_examples=60, deadline=None)
@given(ax=st.floats(-2.5, 2.5), ay=st.floats(0.0, 2.0),
       bx=st.floats(-2.5, 2.5), by=st.floats(0.0, 2.0))
def test_kernel_antisymmetry_property(ax, ay, bx, by):
    a = complex(ax, ay) if ay > 1e-3 else ax
    b = complex(bx, by) if by > 1e-3 else bx
    if isinstance(a, float) and isinstance(b, float) and abs(a - b) < 1e-9:
        return
    params = P1(6, 2.0)
    e1 = kernel_entries(a, b, params)
    e2 = kernel_entries(b, a, params)
    scale = max(1.0, abs(e1.DS), abs(e1.IS))
    assert abs(e1.DS + e2.DS) < 1e-8 * scale
    assert abs(e1.IS + e2.IS) < 1e-8 * scale


@pytest.mark.parametrize("N", [128, 1000])
def test_kernel_entries_broadcast_equals_scalar_calls(N):
    for L in (0.0, 0.5, 32.0):
        params = P1(N, L)
        r = math.sqrt(N + L)
        # a lower-half point (folded onto its conjugate), a coincident real
        # pair (eps = 0 off the diagonal) and the origin
        pts = np.array([-0.7 * r, 0.0, 0.3 * r, 0.3 * r,
                        0.5 * r - 1.4j, -0.2 * r + 0.6j, 0.8 * r + 2.5j])
        grid = kernel_entries(pts[:, None], pts[None, :], params)
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                e = kernel_entries(a, b, params)
                assert isinstance(e.DS, complex) and isinstance(e.eps, float)
                for f in ("DS", "S", "IS", "eps"):
                    want, got = getattr(e, f), getattr(grid, f)[i, j]
                    assert abs(got - want) <= 1e-13 * abs(want), (N, L, i, j, f, got, want)


def test_kernel_entries_memory_does_not_grow_with_pairs():
    # 60 real points at N=1000: 3600 real/real pairs, whose IS sum in one
    # (pairs, N/2) pass would hold about 70 MB; in row blocks it holds a few
    # blocks, with each entry's bits those of a scalar call
    params = P1(1000, 32.0)
    x = np.linspace(-0.9, 0.9, 60) * math.sqrt(1032.0)
    kernel_entries(x[:2, None], x[None, :2], params)  # first-call set-up stays out of the peak
    tracemalloc.start()
    try:
        grid = kernel_entries(x[:, None], x[None, :], params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.IS.shape == (60, 60)
    assert peak < 16 * real_ensemble._IS_BLOCK_BYTES, peak
    for i, j in ((0, 59), (17, 3), (30, 30), (44, 58), (59, 0)):
        assert grid.IS[i, j] == kernel_entries(x[i], x[j], params).IS, (i, j)


def is_real_real_mp(x, y, N, L):
    """IS(x, y) as the finite antiderivative sum, in 30-digit arithmetic."""
    with mpmath.workdps(30):
        x, y, L = mpmath.mpf(x), mpmath.mpf(y), mpmath.mpf(L)

        def tau_even(j, t):
            m = 2 * j + L
            return -mpmath.sign(t) * 2 ** ((m - 1) / 2) * mpmath.gammainc((m + 1) / 2, 0, t * t / 2)

        def tau_odd(j, t):
            if j == 0:
                return 2 ** (L / 2) * mpmath.gammainc(L / 2 + 1, t * t / 2)
            return mpmath.exp(-t * t / 2) * abs(t) ** L * t ** (2 * j)

        total = mpmath.fsum(
            (tau_even(j, x) * tau_odd(j, y) - tau_odd(j, x) * tau_even(j, y))
            / mpmath.gamma(L + 2 * j + 1) for j in range(N // 2))
        return float(total / mpmath.sqrt(2 * mpmath.pi))


@pytest.mark.parametrize("N, L, x, y", [
    (128, 32.0, -3.1, 5.7),
    (128, 0.5, 0.4, -9.2),
    (128, 0.0, 2.3, 2.9),
    (1000, 32.0, -12.3, 20.5),
    (1000, 0.0, 0.0, 7.5),
    (1000, 0.5, 30.2, 31.0),
])
def test_real_real_is_vs_mpmath(N, L, x, y):
    want = is_real_real_mp(x, y, N, L)
    got = kernel_entries(x, y, P1(N, L)).IS
    assert abs(got - want) < 1e-12 * abs(want), (got, want)


# ---------------------------------------------------------------------------
# densities


def test_densities_equal_coincident_entries():
    for N, L in ((2, 0.0), (8, 2.5), (16, 4.0)):
        params = P1(N, L)
        for x in (-2.1, -0.3, 0.7, 1.9):
            e = kernel_entries(x, x, params)
            d = float(density_real(x, params))
            assert abs(e.S.real - d) < 1e-12 * max(1.0, d)
            assert abs(correlations_pfaffian([x], [], params) - d) < 1e-12 * max(1.0, d)
        for z in (0.4 + 0.6j, -1.2 + 0.9j, 2.0 + 0.2j):
            e = kernel_entries(z, z, params)
            d = float(density_complex(z, params))
            assert abs(e.S - d) < 1e-12 * max(1.0, d)
            assert abs(correlations_pfaffian([], [z], params) - d) < 1e-12 * max(1.0, d)


def test_density_parity():
    xs = np.linspace(0.05, 3.0, 7)
    for N, L in ((4, 0.0), (8, 3.0)):
        params = P1(N, L)
        assert np.allclose(density_real(xs, params), density_real(-xs, params), atol=1e-14)
        zs = xs + 0.7j
        assert np.allclose(density_complex(zs, params),
                           density_complex(-np.conj(zs), params), atol=1e-14)


def test_density_complex_azimuthal_vs_quadrature():
    params = P1(8, 2.0)
    rs = np.array([0.0, 0.5, 1.5, 2.5])
    got = density_complex_azimuthal(rs, params)
    assert got[0] == 0.0
    for r, g in zip(rs[1:], got[1:]):
        want = quad(lambda t: float(density_complex(r * np.exp(1j * t), params)),
                    0.0, math.pi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        assert abs(g - want) < 1e-8 * want, (r, g, want)
    with pytest.raises(ValueError):
        density_complex_azimuthal(-0.5, params)


@pytest.mark.parametrize("N, L, r", [(8, 2.0, 2.5), (16, 4.0, 5.4), (128, 32.0, 13.6),
                                     (1000, 32.0, 32.0)])
def test_density_complex_azimuthal_resolves_the_axis_layer(N, L, r):
    # the depletion layer next to the real axis has angular width ~1/r; the
    # adaptive reference gets break points at its edges
    params = P1(N, L)
    got = density_complex_azimuthal(r, params)
    f = lambda t: float(density_complex(r * np.exp(1j * t), params))  # noqa: E731
    cuts = [0.0, 1.0 / r, 0.5 * math.pi, math.pi - 1.0 / r, math.pi]
    want = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
               for a, b in zip(cuts[:-1], cuts[1:]))
    assert abs(got - want) <= 1e-9 * want, (got, want)


def test_density_domain_errors():
    params = P1(4, 1.0)
    with pytest.raises(ValueError):
        density_complex(0.5 - 0.3j, params)  # lower half-plane
    with pytest.raises(ValueError):
        density_real(0.5, P1(5, 1.0))  # odd N
    with pytest.raises(ValueError):
        kernel_entries(0.1, 0.2, P1(5, 1.0))
    with pytest.raises(ValueError):
        density_real(0.5, EnsembleParams(N=4, L=1.0, beta=2))


def test_sum_rule():
    # 2 * int rho_C + int rho_R = N
    for N, L in ((2, 0.0), (16, 4.0), (64, 16.0)):
        params = P1(N, L)
        R = math.sqrt(N + L) + 8.0
        xs, wx = gl_panels(-R, R, width=1.0)
        cnt_r = float(np.sum(wx * density_real(xs, params)))
        ys, wy = gl_panels(1e-14, R, width=0.5)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        cnt_c = float(np.sum(np.outer(wx, wy) * density_complex(X + 1j * Y, params)))
        assert abs(2.0 * cnt_c + cnt_r - N) < 1e-7 * N, (N, L)


def test_expected_real_counts_frozen():
    frozen = {
        (2, 0.0): math.sqrt(2.0),
        (4, 0.0): 11.0 * math.sqrt(2.0) / 8.0,
        (16, 0.0): 3.616466,
        (16, 4.0): 2.852098,
        (64, 16.0): 4.886073,
        (128, 0.0): 9.500574,
        (128, 32.0): 6.537549,
    }
    for (N, L), want in frozen.items():
        got = expected_real_count(P1(N, L))
        assert abs(got - want) < 5e-6 * want, (N, L, got, want)


@pytest.mark.parametrize("N", [16, 128])
def test_expected_real_count_edelman_kostlan_shub(N):
    # L=0 closed form: 1/2 + sqrt(2) 2F1(1, -1/2; N; 1/2) / B(N, 1/2)
    with mpmath.workdps(30):
        want = float(mpmath.mpf(1) / 2 + mpmath.sqrt(2) * mpmath.hyp2f1(1, -0.5, N, 0.5)
                     / mpmath.beta(N, 0.5))
    got = expected_real_count(P1(N, 0.0))
    assert abs(got - want) < 1e-12 * want, (got, want)


def test_real_count_leading_order():
    assert np.isclose(real_count_leading_order(128, 0.0),
                      math.sqrt(2.0 / math.pi) * math.sqrt(128.0), rtol=1e-12)
    assert np.isclose(real_count_leading_order(128, 32.0),
                      math.sqrt(2.0 / math.pi) * (math.sqrt(160.0) - math.sqrt(32.0)),
                      rtol=1e-12)
    assert np.isclose(real_count_leading_order(128, 0.0), 9.027033, atol=1e-6)
    assert np.isclose(real_count_leading_order(128, 32.0), 5.579013, atol=1e-6)
    # at N = 16 the leading-order count is far from the true integral:
    # the exact (16, 0) count is 3.616466, the asymptotic sqrt(32/pi) is 3.19
    exact = expected_real_count(P1(16, 0.0))
    assert abs(exact - 3.616466) < 1e-5
    assert abs(exact - math.sqrt(32.0 / math.pi)) > 0.4


# ---------------------------------------------------------------------------
# joint density cross-checks at N=2


def test_correlations_equal_partial_jpdf_n2():
    for L in (0.0, 2.0):
        params = P1(2, L)
        for x, y in ((-1.2, 0.7), (0.3, 1.9)):
            lhs = correlations_pfaffian([x, y], [], params)
            rhs = math.exp(log_jpdf_real_partial([x, y], [], params))
            assert abs(lhs - rhs) < 1e-10 * max(1e-8, rhs), (L, x, y)
        for z in (0.5 + 0.8j, -0.9 + 0.4j):
            lhs = correlations_pfaffian([], [z], params)
            rhs = math.exp(log_jpdf_real_partial([], [z], params))
            assert abs(lhs - rhs) < 1e-10 * max(1e-8, rhs), (L, z)
        # two complex points exceed the N=2 budget: R_{0,2} = 0
        assert abs(correlations_pfaffian([], [0.5 + 0.8j, -0.3 + 1.1j], params)) < 1e-12


def test_log_jpdf_real_partial_at_a_zero_real_and_far_from_the_axis():
    # N=2, L=0: a real eigenvalue 0 carries the weight |0|^0 = 1, and far
    # from the axis erfc(sqrt(2) y) underflows while its log stays finite
    params = P1(2, 0.0)
    with mpmath.workdps(40):
        base = -1.5 * mpmath.log(2) - mpmath.loggamma(0.5)
        want = {((0.0, 1.0), ()): base - mpmath.mpf(1) / 2}
        for y in (19, 27):
            z = mpmath.mpf(1) / 10 + 1j * y
            want[(), (z,)] = (base + mpmath.log(2) + mpmath.log(2 * y)
                              + mpmath.log(mpmath.erfc(mpmath.sqrt(2) * y)) + y**2 - z.real**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (reals, complexes), w in want.items():
            got = log_jpdf_real_partial(list(reals), [complex(c) for c in complexes], params)
            assert abs(got - float(w)) <= 1e-12 * abs(float(w)), (reals, complexes, got, w)


def test_jpdf_normalization_and_real_pair_probability():
    # p_{2,2} + p_{2,0} = 1; at L=0 the all-real probability is 1/sqrt(2).
    # Ordered-pair parametrization (a, a+v) keeps the |a-b| kink on a panel
    # edge so Gauss-Legendre converges.
    for L, want22 in ((0.0, 1.0 / math.sqrt(2.0)), (2.0, 0.61871843)):
        params = P1(2, L)
        R = 8.0
        xs, wx = gl_panels(-R, R, width=1.0, order=16)
        vs, wv = gl_panels(1e-14, 2 * R, width=1.0, order=16)
        pairs = np.stack(np.broadcast_arrays(xs[:, None], xs[:, None] + vs), axis=-1)
        p22 = float(wx @ (np.exp(log_jpdf_real_partial(pairs, [], params)) @ wv))
        ys, wy = gl_panels(1e-14, R, width=1.0, order=16)
        reps = (xs[:, None] + 1j * ys)[..., None]
        p20 = float(wx @ (np.exp(log_jpdf_real_partial([], reps, params)) @ wy))
        assert abs(p22 + p20 - 1.0) < 1e-6, (L, p22, p20)
        assert abs(p22 - want22) < 1e-6, (L, p22, want22)


def test_jpdf_marginal_equals_density_n2():
    for L in (0.0, 2.0):
        params = P1(2, L)
        for x0 in (-0.8, 0.6):
            m = 0.0
            for lo, hi in ((-9.0, x0), (x0, 9.0)):
                ts, wt = gl_panels(lo, hi, width=0.5, order=20)
                pairs = np.stack([np.full_like(ts, x0), ts], axis=-1)
                m += float(np.sum(wt * np.exp(log_jpdf_real_partial(pairs, [], params))))
            d = float(density_real(x0, params))
            assert abs(m - d) < 1e-8 * max(1.0, d), (L, x0, m, d)


def test_pfaffian_squared_is_determinant_on_kernel_blocks():
    params = P1(8, 1.5)
    for pts in ([0.4, -1.1], [0.4, 0.5 + 0.8j], [0.3 + 0.7j, -0.6 + 0.4j, 1.2]):
        w = np.asarray(pts, dtype=complex)
        A = _assemble_blocks(kernel_entries(w[:, None], w[None, :], params))
        pf = correlations_pfaffian([p for p in pts if complex(p).imag == 0],
                                   [p for p in pts if complex(p).imag != 0], params)
        det = np.linalg.det(A)
        assert abs(pf ** 2 - det.real) < 1e-9 * max(1.0, abs(det))
        assert abs(det.imag) < 1e-12 * max(1.0, abs(det))


def test_stacked_configurations_equal_one_at_a_time():
    # points on the last axis, configurations on leading axes (3, 4); reals
    # and complexes broadcast, here also against one unstacked configuration
    rng = np.random.default_rng(62)
    for N, L in ((6, 0.0), (8, 2.5)):
        params = P1(N, L)
        reals = 1.5 * rng.standard_normal((3, 4, 2))
        l = (N - 2) // 2
        complexes = rng.standard_normal((3, 4, l)) + 1j * rng.uniform(0.1, 1.5, (3, 4, l))
        for cs in (complexes, complexes[1, 2]):
            jp = log_jpdf_real_partial(reals, cs, params)
            pf = correlations_pfaffian(reals, cs[..., :1], params)
            assert jp.shape == pf.shape == (3, 4)
            for i in np.ndindex(3, 4):
                c = cs if cs.ndim == 1 else cs[i]
                one = log_jpdf_real_partial(reals[i], c, params)
                assert type(one) is float
                assert abs(jp[i] - one) <= 1e-13 * max(1.0, abs(one)), (N, L, i)
                assert pf[i] == correlations_pfaffian(reals[i], c[:1], params), (N, L, i)
    params = P1(4, 1.0)
    assert correlations_pfaffian(np.zeros((2, 0)), [], params).tolist() == [1.0, 1.0]
    assert correlations_pfaffian(np.zeros((0, 2)), [], params).shape == (0,)
    assert correlations_pfaffian([], np.zeros((0, 1)) + 1j, params).shape == (0,)
    assert log_jpdf_real_partial(np.zeros((0, 4)), [], params).shape == (0,)


def test_azimuthal_density_refuses_negative_radii():
    params = P1(4, 1.0)
    with pytest.raises(ValueError, match="radii must satisfy r >= 0"):
        density_complex_azimuthal(np.array([-1.0, 0.0, 1.0]), params)
    with pytest.raises(ValueError, match="radii must satisfy r >= 0"):
        density_complex_azimuthal(np.nan, params)


def test_correlations_validation():
    params = P1(4, 1.0)
    with pytest.raises(ValueError):
        correlations_pfaffian([], [0.5 - 0.2j], params)  # lower half-plane
    assert correlations_pfaffian([], [], params) == 1.0


# ---------------------------------------------------------------------------
# skew inner product


def test_skew_inner_orthogonality():
    for L in (0.0, 2.0):
        want0 = skew_poly_norm(0, L)
        assert abs(skew_inner(skew_poly(0, L), skew_poly(1, L), L) - want0) < 1e-6 * want0
        assert abs(skew_inner(skew_poly(0, L), skew_poly(2, L), L)) < 1e-4 * want0
        assert abs(skew_inner(skew_poly(0, L), skew_poly(3, L), L)) < 1e-4 * want0
        want1 = skew_poly_norm(1, L)
        assert abs(skew_inner(skew_poly(2, L), skew_poly(3, L), L) - want1) < 1e-4 * want1
        s_ab = skew_inner(skew_poly(1, L), skew_poly(2, L), L)
        s_ba = skew_inner(skew_poly(2, L), skew_poly(1, L), L)
        assert abs(s_ab + s_ba) < 1e-8 * max(1.0, abs(s_ab))


@pytest.mark.parametrize("L", [0.5, 7.5])
def test_skew_inner_noninteger_l(L):
    # the tail integrals of the real part at half-integer moments
    for j in (0, 1):
        want = skew_poly_norm(j, L)
        got = skew_inner(skew_poly(2 * j, L), skew_poly(2 * j + 1, L), L)
        assert abs(got - want) < 1e-5 * want, (j, got, want)


def _quad_half_moment(m, lo, hi, mp):
    """integral of y^m exp(-y^2/2) over [lo, hi] by mpmath quadrature.

    The integrand is divided by its largest value on the interval, so the
    quadrature's absolute tolerance is a relative one, and the interval is
    cut around that maximum and near both ends.
    """
    peak = math.sqrt(max(m, 0.0))
    top = max(lo, min(peak, hi))
    log_c = -0.5 * top * top + (m * math.log(top) if top > 0 else 0.0)
    h = 1.0 / max(top, 1.0)
    cuts = {lo, hi} | {top + d * h * 2.0**k for k in range(-3, 9) for d in (-1, 1)}
    if hi < math.inf:
        cuts |= {e + d * (hi - lo) * 2.0**-k for k in range(1, 9) for e, d in ((lo, 1), (hi, -1))}
    pts = [mp.mpf(c) for c in sorted(cuts) if lo <= c <= hi]
    return mp.exp(log_c) * mp.quad(lambda y: mp.exp(m * mp.log(y) - y * y / 2 - log_c), pts)


@pytest.mark.parametrize("m", [-0.5, 0.0, 1.5, 31.0, 160.0])
def test_log_half_moment_against_quadrature(m):
    mp = mpmath.mp.clone()
    mp.dps = 30
    for x in (0.0, 0.5, 1.0, 3.0, 7.0, 12.5, 20.0, 30.0):
        for tail, lo, hi in ((False, 0.0, x), (True, x, math.inf)):
            if hi == lo:
                assert _log_half_moment(m, x, tail) == -math.inf
                continue
            want = _quad_half_moment(m, lo, hi, mp)
            got = mp.exp(mp.mpf(float(_log_half_moment(m, x, tail))))
            assert abs(got / want - 1) < 1e-12, (x, tail)
        # the moment is even in x
        assert _log_half_moment(m, -x, True) == _log_half_moment(m, x, True)


# ---------------------------------------------------------------------------
# limiting laws


def test_limit_density_values():
    assert abs(density_real_ring_limit(0.9, 0.5) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15
    assert density_real_ring_limit(0.2, 0.5) == 0.0
    assert abs(density_complex_ring_limit(0.9j, 0.5) - 1.0 / math.pi) < 1e-15
    assert abs(density_complex_edge_profile(0.0) - 1.0 / (2 * math.pi)) < 1e-15
    want = (0.5 + 0.5 / math.sqrt(2.0)) / math.sqrt(2.0 * math.pi)
    assert abs(density_real_edge_profile(0.0) - want) < 1e-15
    # deep inside the support the edge profile rejoins the bulk plateau
    assert abs(density_real_edge_profile(-8.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-12
    assert density_crossover_profile(0.0) == 0.0
    assert abs(density_crossover_profile(40.0) - 1.0 / math.pi) < 1e-4
    assert abs(density_real_origin_limit(1.3, 0.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15
    # alpha = 0: the support is the full disk, so the origin lies inside it
    assert abs(density_complex_ring_limit(0.0, 0.0) - 1.0 / math.pi) < 1e-15
    assert abs(density_real_ring_limit(0.0, 0.0) - 1.0 / math.sqrt(2 * math.pi)) < 1e-15
    with pytest.raises(ValueError):
        density_real_ring_limit(0.5, -0.1)


def test_limit_kernel_one_point_values():
    assert abs(limit_kernels([0.3], 1.0, "real-bulk", 0.5)
               - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12
    assert abs(bulk_edge_limit_kernels([0.2 + 5.0j], 0.6 + 0.6j, "bulk", 0.5)
               - 1.0 / math.pi) < 1e-12


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.1])
def test_limit_functions_share_the_alpha_rule(alpha):
    # the edge regimes never read alpha, so only the shared check rejects it
    calls = [lambda: limit_kernels([0.3 + 0.5j], 1.0, "edge", alpha),
             lambda: limit_kernels([0.3], 1.0, "real-bulk", alpha),
             lambda: bulk_edge_limit_kernels([0.3 + 0.5j], 1.0, "edge", alpha),
             lambda: density_complex_ring_limit(0.9, alpha),
             lambda: density_real_ring_limit(0.9, alpha)]
    for call in calls:
        with pytest.raises(ValueError, match="alpha must be a finite real >= 0"):
            call()


def test_empty_point_set_correlations_are_one():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert limit_kernels([], 1.0, "real-bulk", 0.5) == 1.0
        assert limit_kernels([], 1.0, "edge", 0.5) == 1.0
        assert correlations_pfaffian([], [], P1(8, 1.0)) == 1.0
        assert bulk_edge_limit_kernels([], 0.9, "bulk", 0.5) == 1.0
        assert correlations_Rn([], EnsembleParams(N=8, L=1.0, beta=2)) == 1.0


def test_real_bulk_plateau_and_entrywise_convergence():
    N, L = 600, 300.0
    params = P1(N, L)
    c = math.sqrt(N)
    assert abs(float(density_real(c, params)) - 1.0 / math.sqrt(2.0 * math.pi)) < 2e-2
    pairs = [(0.0, 0.9), (-0.7, 0.4), (0.3, 0.25 + 0.6j),
             (0.5 + 0.8j, -0.2), (0.4 + 0.5j, -0.3 + 0.9j)]
    for a, b in pairs:
        fe = kernel_entries(c + a, c + b, params)
        le = limit_kernel_entries(a, b)
        assert abs(fe.DS - le.DS) < 1e-3, (a, b, "DS")
        assert abs(fe.S - le.S) < 1e-3, (a, b, "S")
        assert abs((fe.IS + fe.eps) - (le.IS + le.eps)) < 1e-3, (a, b, "IS")


def test_real_bulk_two_point_correlations_converge():
    N, L = 600, 300.0
    params = P1(N, L)
    c = math.sqrt(N)
    for pts in ([0.0, 0.9], [0.3, 0.25 + 0.6j], [0.4 + 0.5j, -0.3 + 0.9j]):
        fin = correlations_pfaffian([c + p for p in pts if complex(p).imag == 0],
                                    [c + p for p in pts if complex(p).imag != 0], params)
        lim = limit_kernels(pts, 1.0, "real-bulk", L / N)
        assert abs(fin - lim) < 2e-3, (pts, fin, lim)


def test_complex_bulk_determinant_limit():
    N, L = 600, 300.0
    uc = 0.6 + 0.6j
    cc = math.sqrt(N) * uc
    for pts in ([0.2 + 0.1j], [0.2 + 0.1j, -0.4 + 0.3j]):
        fin = correlations_pfaffian([], [cc + p for p in pts], P1(N, L))
        lim = bulk_edge_limit_kernels(pts, uc, "bulk", L / N)
        # the residual erfc tail is O(1/(4 Im^2)) ~ 1e-3 per point here
        assert abs(fin - lim) < 6e-3 * max(abs(lim), 1e-3), (pts, fin, lim)
        fin_small = correlations_pfaffian(
            [], [math.sqrt(200.0) * uc + p for p in pts], P1(200, 100.0))
        assert abs(fin - lim) < abs(fin_small - lim)


def test_complex_edge_profile_finite_n():
    N, L = 600, 300.0
    params = P1(N, L)
    for xi in (-1.0, 0.0, 0.8):
        r = math.sqrt(N + L) + xi
        z = r * complex(math.cos(1.1), math.sin(1.1))
        got = float(density_complex(z, params))
        want = density_complex_edge_profile(xi)
        # edge statistics converge at the O(N^{-1/2}) rate
        assert abs(got - want) < 8e-2 * max(want, 1e-2), (xi, got, want)
        z_small = (math.sqrt(300.0) + xi) * complex(math.cos(1.1), math.sin(1.1))
        got_small = float(density_complex(z_small, P1(200, 100.0)))
        assert abs(got - want) < abs(got_small - want), xi


def test_real_edge_profile_coefficient():
    params = P1(600, 0.0)
    for xi in (-2.0, -0.5, 0.0, 1.0):
        got = float(density_real(math.sqrt(600.0) + xi, params))
        want = density_real_edge_profile(xi)
        assert abs(got - want) < 2e-2, (xi, got, want)
        # the same profile with the half-coefficient on the Gaussian term
        # is ruled out by the finite-N density for xi <= 0
        other = (math.erfc(math.sqrt(2.0) * xi)
                 + math.exp(-xi * xi) * math.erfc(-xi) / (2.0 * math.sqrt(2.0))
                 ) / math.sqrt(2.0 * math.pi)
        if xi <= 0.0:
            assert abs(got - other) > 5e-2, (xi, got, other)


def test_edge_two_point_rate_and_extrapolation():
    # edge convergence is O(N^{-1/2}): errors shrink by sqrt(3) per tripling,
    # and the Richardson extrapolation lands on the limit value
    pts = [0.3 + 0.8j, -0.5 + 0.6j]
    lim = limit_kernels(pts, 1.0, "edge", 0.5)
    fins = [correlations_pfaffian([], [math.sqrt(1.5 * n) + p for p in pts],
                                  P1(n, n // 2)) for n in (200, 600, 1800)]
    errs = [abs(f - lim) for f in fins]
    assert errs[0] > errs[1] > errs[2]
    for r in (errs[0] / errs[1], errs[1] / errs[2]):
        assert 1.5 < r < 2.0, (errs, r)
    extrap = fins[2] + (fins[2] - fins[1]) / (math.sqrt(3.0) - 1.0)
    assert abs(extrap - lim) < 1.5e-2 * abs(lim)


def test_edge_one_point_factorization():
    s0 = 0.4 + 0.9j
    one = limit_kernels([s0], 1.0, "edge", 0.5)
    want = density_crossover_profile(s0.imag) * 0.5 * math.erfc(math.sqrt(2.0) * s0.real)
    assert abs(one - want) < 1e-12


def test_origin_profiles_fixed_l():
    params = P1(400, 2.0)
    for x in (0.3, 1.0, 2.2):
        got = float(density_real(x, params))
        want = density_real_origin_limit(x, 2.0)
        assert abs(got - want) < 5e-3 * max(want, 1e-2), (x, got, want)
    for z in (0.4 + 0.5j, 1.2 + 0.9j):
        got = float(density_complex(z, params))
        want = density_complex_origin_limit(z, 2.0)
        assert abs(got - want) < 5e-3 * max(want, 1e-2), (z, got, want)


def test_crossover_profile_finite_n():
    params = P1(600, 0.0)
    for v in (0.3, 0.9, 2.0):
        z = 0.5 * math.sqrt(600.0) + 1j * v
        got = float(density_complex(z, params))
        want = density_crossover_profile(v)
        assert abs(got - want) < 2e-2 * max(want, 1e-2), (v, got, want)


def test_limit_kernel_validation():
    with pytest.raises(ValueError):
        limit_kernel_entries(0.3, 0.5, u=1.0)  # edge factor needs complex offsets
    with pytest.raises(ValueError):
        limit_kernels([0.3], 1.0, "nope", 0.5)
    with pytest.raises(ValueError):
        limit_kernels([0.3], 1.0, "edge", 0.5)  # real point in edge regime
    with pytest.raises(ValueError):
        bulk_edge_limit_kernels([0.1 + 0.2j], 0.1, "bulk", 0.5)  # u inside the hole
    # off-axis windows have the beta=2 limit, which lives in complex_ensemble
    with pytest.raises(ValueError, match="unknown regime"):
        limit_kernels([0.2 + 0.1j], 0.6 + 0.6j, "complex-bulk", 0.5)
    # limit entries share the finite-N antisymmetry
    for a, b in ((0.2, 0.7), (0.4 + 0.5j, -0.3 + 0.9j)):
        e1 = limit_kernel_entries(a, b)
        e2 = limit_kernel_entries(b, a)
        assert abs(e1.DS + e2.DS) < 1e-14
        assert abs(e1.IS + e2.IS) < 1e-14


# ---------------------------------------------------------------------------
# Monte Carlo arbitration


def mc_real_counts(N, L, n_samples, seed):
    rng = np.random.default_rng(seed)
    params = P1(N, L)
    return np.array([
        linalg.real_mask(linalg.eigenvalues(sample_induced_quadratise(params, rng), beta=1)).sum()
        for _ in range(n_samples)], dtype=float)


def test_mc_real_count_64_16():
    counts = mc_real_counts(64, 16, 400, seed=2718)
    want = expected_real_count(P1(64, 16.0))
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - want) < 3.0 * se


def test_mc_variant_arbitration_16_2():
    # the sampled real-eigenvalue count picks the Gamma(L) normalization of
    # the correction term t and excludes the printed Gamma(L+1) one, t / L
    counts = mc_real_counts(16, 2, 2000, seed=314)
    params = P1(16, 2.0)
    m = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    e_thm = expected_real_count(params)
    xs, ws = gl_panels(0.0, math.sqrt(params.N + params.L) + 10.0, width=1.0, order=24)
    e_app = e_thm - (1.0 - 1.0 / params.L) * 2.0 * float(np.sum(ws * helper_t(xs, xs, params)))
    assert abs(m - e_thm) < 3.5 * se, (m, e_thm, se)
    assert abs(m - e_app) > 5.0 * se, (m, e_app, se)


def test_mc_real_axis_histogram():
    n_samples = 1200
    params = P1(8, 1.0)
    rng = np.random.default_rng(99)
    bins = np.linspace(-3.5, 3.5, 8)
    counts = np.zeros(len(bins) - 1)
    for _ in range(n_samples):
        ev = linalg.eigenvalues(sample_induced_quadratise(params, rng), beta=1)
        counts += np.histogram(ev.real[linalg.real_mask(ev)], bins=bins)[0]
    for i in range(len(bins) - 1):
        expect, _ = quad(lambda t: float(density_real(t, params)),
                         bins[i], bins[i + 1], limit=200)
        expect *= n_samples
        sd = math.sqrt(max(expect, 1.0))
        assert abs(counts[i] - expect) < 4.5 * sd, (i, counts[i], expect)


def test_kernel_entries_at_a_zero_argument_at_l0():
    # at L=0 the t term vanishes, so a real argument 0 gives finite entries
    params = P1(8, 0.0)
    z = 0.5 + 0.7j
    want = {
        (0.0, z): (0.12829609828307423 + 0.08787511605974466j,
                   0.08787511605974466 + 0.12829609828307423j,
                   0.06198609563281031 - 0.16981166268021403j),
        (z, 0.0): (-0.12829609828307423 - 0.08787511605974466j,
                   0.16981166268021403 - 0.06198609563281031j,
                   -0.06198609563281031 + 0.16981166268021403j),
        (0.0, 0.0): (0.0, 0.3989422804014327, 0.0),
    }
    for (a, b), (ds, s, is_) in want.items():
        e = kernel_entries(a, b, params)
        assert np.allclose([e.DS, e.S, e.IS], [ds, s, is_], rtol=1e-13, atol=1e-16)


def test_pfaffian_of_blocks_raises_a_linalg_error_on_lost_antisymmetry():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    assert _pfaffian_of_blocks(A) == 1.0
    A[1, 0] = -0.5
    with pytest.raises(np.linalg.LinAlgError, match="antisymmetry"):
        _pfaffian_of_blocks(A)

