"""Determinantal (beta=2) finite-N statistics and their limits."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from indg.complex_ensemble import (
    THETA_AT_EDGE,
    bulk_edge_limit_kernels,
    correlations_Rn,
    default_rmax,
    density,
    density_edge_profile,
    density_ring_limit,
    hole_probability,
    integrate_radial,
    kernel_KN,
    log_jpdf_complex,
    origin_kernel,
)
from indg.sampling import EnsembleParams


def P2(N, L):
    return EnsembleParams(N=N, L=L, beta=2)


def polar_grid(rmax, order=24, ntheta=64):
    """Quadrature nodes/weights for integrals over the disk |z| < rmax."""
    n_panels = int(np.ceil(rmax))
    edges = np.linspace(0.0, rmax, n_panels + 1)
    gx, gw = np.polynomial.legendre.leggauss(order)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    r = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wr = (half[:, None] * gw[None, :]).ravel()
    th = np.linspace(0.0, 2.0 * np.pi, ntheta, endpoint=False)
    z = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    w = (wr * r)[:, None].repeat(ntheta, axis=1).ravel() * (2.0 * np.pi / ntheta)
    return z, w


# ------------------------------------------------------------------ kernel

def test_kernel_trace_identity():
    # integral of the density over the plane counts all N eigenvalues
    for N, L in ((8, 0.0), (8, 3.0), (64, 16.0)):
        params = P2(N, L)
        total = integrate_radial(lambda r: density(r, params), default_rmax(params))
        assert abs(total - N) < 1e-6, (N, L, total)


def test_kernel_reproducing_property():
    # integral K(z, w) K(w, z') d^2 w = K(z, z')
    params = P2(6, 1.0)
    zg, wg = polar_grid(default_rmax(params))
    for z, zp in ((0.5 + 0.3j, -0.8 + 1.1j), (1.4 - 0.2j, 1.4 - 0.2j),
                  (0.1 + 2.0j, -1.0 - 0.5j)):
        got = np.sum(wg * kernel_KN(z, zg, params) * kernel_KN(zg, zp, params))
        want = kernel_KN(z, zp, params)
        assert abs(got - want) < 1e-10, (z, zp, got, want)


def test_kernel_hermitian_diagonal_density():
    params = P2(10, 2.5)
    pts = [0.3 + 0.4j, -1.2 + 0.1j, 2.0 - 1.5j]
    for z in pts:
        for w in pts:
            assert np.isclose(kernel_KN(z, w, params),
                              np.conj(kernel_KN(w, z, params)), rtol=1e-12)
        diag = kernel_KN(z, z, params)
        assert abs(diag.imag) < 1e-15
        assert np.isclose(diag.real, density(z, params), rtol=1e-12)
        assert diag.real >= 0.0


def test_rotational_invariance():
    params = P2(7, 1.5)
    pts = [0.4 + 0.2j, -0.9 + 1.0j, 1.3 - 0.6j]
    base = correlations_Rn(pts, params)
    for theta in (0.7, 2.1):
        rot = [p * np.exp(1j * theta) for p in pts]
        assert np.isclose(correlations_Rn(rot, params), base, rtol=1e-10)
    assert np.isclose(density(1.1 + 0.0j, params), density(1.1j, params), rtol=1e-13)


def test_correlations_match_jpdf():
    # determinantal identity R_N = N! p_N at N = 1 and 2
    for L in (0.0, 1.5):
        params = P2(2, L)
        for pts in ([0.4 + 0.2j, -0.7 + 0.9j], [1.1 - 0.3j, 0.2 + 0.05j]):
            lhs = correlations_Rn(pts, params)
            rhs = 2.0 * math.exp(log_jpdf_complex(pts, params))
            assert np.isclose(lhs, rhs, rtol=1e-12)
    params1 = P2(1, 2.0)
    z = 0.8 + 0.6j
    assert np.isclose(correlations_Rn([z], params1),
                      math.exp(log_jpdf_complex([z], params1)), rtol=1e-12)
    assert np.isclose(density(z, params1),
                      math.exp(log_jpdf_complex([z], params1)), rtol=1e-12)


def test_correlations_non_integer_L_across_the_branch_cut():
    # arg z - arg w of the last two points wraps past +-pi; the determinant
    # must be that of the true kernel |z w|^L sum (z conj w)^j / Gamma(j+L+1)
    import mpmath as mp

    params = P2(8, 0.5)
    pts = [1.2, 1.1 * np.exp(2.4j), 1.3 * np.exp(-2.4j)]
    with mp.workdps(30):
        L = mp.mpf(params.L)

        def kern(z, w):
            z, w = mp.mpc(z), mp.mpc(w)
            series = mp.fsum((z * mp.conj(w)) ** j / mp.gamma(j + L + 1)
                             for j in range(params.N))
            return (abs(z) ** L * abs(w) ** L * series
                    * mp.exp(-(abs(z) ** 2 + abs(w) ** 2) / 2) / mp.pi)

        want = float(mp.re(mp.det(mp.matrix([[kern(a, b) for b in pts] for a in pts]))))
    assert abs(want - 0.0194540606) < 1e-10
    assert np.isclose(correlations_Rn(pts, params), want, rtol=1e-12)
    # R_N = N! p_N holds for the same wrapped points at N = 3
    params3 = P2(3, 0.5)
    assert np.isclose(correlations_Rn(pts, params3),
                      6.0 * math.exp(log_jpdf_complex(pts, params3)), rtol=1e-12)


def test_jpdf_normalization_n1():
    for L in (0.0, 2.0):
        params = P2(1, L)
        val, _ = quad(lambda r: 2 * math.pi * r
                      * math.exp(log_jpdf_complex([r + 0j], params)),
                      0.0, 12.0, limit=300)
        assert np.isclose(val, 1.0, rtol=1e-9)


@pytest.mark.filterwarnings("error")
def test_jpdf_zeros_and_validation():
    params = P2(2, 1.0)
    assert log_jpdf_complex([0.5 + 0.5j, 0.5 + 0.5j], params) == -np.inf
    assert log_jpdf_complex([0.0 + 0.0j, 1.0 + 0.0j], params) == -np.inf  # L > 0
    assert np.isfinite(log_jpdf_complex([0.0 + 0.0j, 1.0 + 0.0j], P2(2, 0.0)))
    with pytest.raises(ValueError):
        log_jpdf_complex([1.0 + 0.0j], params)  # needs N points
    with pytest.raises(ValueError):
        correlations_Rn([0.1j, 0.2j, 0.3j], params)  # n > N


def test_correlations_nonnegative():
    params = P2(5, 0.5)
    rng = np.random.default_rng(59)
    for _ in range(20):
        pts = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert correlations_Rn(pts, params) > -1e-12


# ------------------------------------------------------------------ hole

def test_hole_probability_against_quadrature():
    # independent route: each factor Q(j+L, s^2) from the defining integral
    params = P2(4, 1.5)
    for s in (0.6, 1.2):
        want = 1.0
        for j in range(1, 5):
            a = j + 1.5
            val, _ = quad(lambda t: t ** (a - 1.0) * math.exp(-t), s * s, 60.0, limit=300)
            want *= val / math.gamma(a)
        assert np.isclose(hole_probability(s, params), want, rtol=1e-9)


def test_hole_probability_frozen_values():
    params = P2(20, 2.0)
    assert np.isclose(hole_probability(0.5, params), 0.997698542191697, rtol=1e-12)
    assert np.isclose(hole_probability(1.0, params), 0.898313934830039, rtol=1e-12)
    assert np.isclose(hole_probability(1.5, params), 0.437293392614768, rtol=1e-12)


def test_hole_probability_monotone_and_limits():
    params = P2(12, 3.0)
    s = np.linspace(0.0, 4.0, 40)
    vals = np.array([hole_probability(float(t), params) for t in s])
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) <= 0)
    assert vals[-1] < 1e-6
    with pytest.raises(ValueError):
        hole_probability(-0.1, params)
    with pytest.raises(ValueError):
        hole_probability(np.inf, params)


def test_hole_probability_almost_square_limit():
    # (1 - A(s)) Gamma(L+2) / s^{2(L+1)} -> 1 as s -> 0
    s = 0.01
    for L in (0.0, 1.0, 2.0):
        params = P2(30, L)
        ratio = (1.0 - hole_probability(s, params)) * math.gamma(L + 2.0) / s ** (2 * (L + 1))
        assert abs(ratio - 1.0) < 1e-3, (L, ratio)


# ------------------------------------------------------------------ limits

def test_ring_limit_density():
    alpha = 0.5
    lo, hi = math.sqrt(alpha), math.sqrt(alpha + 1.0)
    assert density_ring_limit(0.5 * (lo + hi), alpha) == 1.0 / math.pi
    assert density_ring_limit(0.9 * lo, alpha) == 0.0
    assert density_ring_limit(1.1 * hi, alpha) == 0.0
    # Heaviside takes THETA_AT_EDGE exactly on either edge
    assert np.isclose(density_ring_limit(lo, alpha), THETA_AT_EDGE / math.pi)
    assert np.isclose(density_ring_limit(hi, alpha), THETA_AT_EDGE / math.pi)
    # alpha = 0: full disk
    assert density_ring_limit(0.0, 0.0) == 1.0 / math.pi
    with pytest.raises(ValueError):
        density_ring_limit(1.0, -0.5)


def test_edge_profile_matches_finite_n():
    # rescaled density across both ring edges as N grows with alpha = 1/2
    params = P2(1000, 500.0)
    tol = 0.01 / math.pi
    for xi in (-1.0, -0.5, 0.0, 0.5, 1.0):
        want = density_edge_profile(xi)
        outer = density(math.sqrt(1500.0) + xi, params)
        inner = density(math.sqrt(500.0) - xi, params)
        assert abs(outer - want) < tol, (xi, outer, want)
        assert abs(inner - want) < tol, (xi, inner, want)
    assert np.isclose(density_edge_profile(0.0), 1.0 / (2.0 * math.pi), rtol=1e-14)


def test_origin_kernel_against_integral_oracle():
    # gamma(L, zeta)/Gamma(L) = zeta^L int_0^1 s^{L-1} e^{-zeta s} ds / Gamma(L),
    # dressed with the Gaussian weight e^{-(|z|^2+|w|^2)/2 + zeta}
    gx, gw = np.polynomial.legendre.leggauss(80)
    s = 0.5 * (gx + 1.0)
    w = 0.5 * gw
    for L in (1.0, 2.0, 3.5):
        for z, zw in ((0.7 + 0.4j, 1.1 - 0.2j), (1.5 + 0.0j, 1.5 + 0.0j),
                      (0.2 + 1.3j, -0.8 + 0.5j)):
            zeta = z * np.conj(zw)
            integral = np.sum(w * s ** (L - 1.0) * np.exp(-zeta * s))
            dress = np.exp(-0.5 * (abs(z) ** 2 + abs(zw) ** 2) + zeta)
            want = dress * zeta ** L * integral / math.gamma(L) / math.pi
            assert np.isclose(origin_kernel(z, zw, L), want, rtol=1e-10), (L, z, zw)
    with pytest.raises(ValueError):
        origin_kernel(1.0, 1.0, 0.5)


def test_origin_kernel_matches_finite_n():
    # fixed L, N large: the finite-N kernel near the origin converges fast
    L = 2.0
    params = P2(400, L)
    from indg.special import lower_reg_gamma
    for z, w in ((0.6 + 0.3j, -0.4 + 0.9j), (1.2 + 0.0j, 0.3 - 0.7j)):
        assert np.isclose(kernel_KN(z, w, params), origin_kernel(z, w, L), rtol=1e-10)
    # diagonal identity against the regularized incomplete gamma
    assert np.isclose(origin_kernel(1.1, 1.1, L).real,
                      lower_reg_gamma(L, 1.1 ** 2) / math.pi, rtol=1e-12)


def test_bulk_edge_limit_kernels():
    alpha = 0.25
    # one-point values: bulk plateau 1/pi, edge profile erfc form
    assert np.isclose(bulk_edge_limit_kernels([0.0j], 0.9, "bulk", alpha), 1.0 / math.pi)
    for xi in (-0.8, 0.0, 1.1):
        got = bulk_edge_limit_kernels([xi + 0.0j], 1.0, "edge", alpha)
        assert np.isclose(got, density_edge_profile(xi), rtol=1e-12), xi
    # determinants are invariant under the common phase gauge; compare with
    # finite-N correlations around a bulk reference point
    N, L = 700, 175.0
    params = P2(N, L)
    c = math.sqrt(N) * 0.8
    for pts in ([0.0j], [0.0j, 0.6 + 0.4j]):
        fin = correlations_Rn([c + p for p in pts], params)
        lim = bulk_edge_limit_kernels(pts, 0.8, "bulk", L / N)
        assert abs(fin - lim) < 1e-3 * max(abs(lim), 1e-3), (pts, fin, lim)
    with pytest.raises(ValueError):
        bulk_edge_limit_kernels([0.0j], 0.3, "bulk", alpha)  # inside the hole
    with pytest.raises(ValueError):
        bulk_edge_limit_kernels([0.0j], 0.9, "edge", alpha)  # |u| != 1
    with pytest.raises(ValueError):
        bulk_edge_limit_kernels([0.0j], 1.0, "ring", alpha)
    with pytest.raises(ValueError):
        bulk_edge_limit_kernels([0.0j], 1.0, "edge", -1.0)


def test_scalar_point_equals_one_element_list():
    z = 0.2 + 0.1j
    got = bulk_edge_limit_kernels(z, 0.9, "bulk", 0.5)
    assert got == bulk_edge_limit_kernels([z], 0.9, "bulk", 0.5) == 0.3183098861837907
    got = correlations_Rn(z, P2(8, 1.0))
    assert got == correlations_Rn([z], P2(8, 1.0)) == 0.015524156336295702
    # every pointwise statistic: a scalar point gives a Python scalar, a
    # one-element array a one-element array of the same value (to rounding:
    # kernel_KN's series sums in another order for an array)
    from indg import real_ensemble as re1
    p2, p1 = P2(8, 1.0), EnsembleParams(N=8, L=3.0, beta=1)
    cases = [
        (lambda x: kernel_KN(x, 0.3 - 0.1j, p2), 0.7 + 0.2j, complex),
        (lambda x: density(x, p2), 1.1, float),
        (lambda x: density_ring_limit(x, 0.5), 1.1, float),
        (density_edge_profile, 0.3, float),
        (lambda x: re1.helper_sN(x, 0.4, p1), 1.1, float),
        (lambda x: re1.helper_sN(x, 0.4 + 0.1j, p1), 1.1, complex),
        (lambda x: re1.helper_t(x, x, p1), 1.1, float),
        (lambda x: re1.helper_rN(x, x, p1), 1.1, float),
        (lambda x: re1.density_complex(x, p1), 0.3 + 0.4j, float),
        (lambda x: re1.density_complex_azimuthal(x, p1), 1.1, float),
        (lambda x: re1.density_real(x, p1), 1.1, float),
        (re1.density_real_edge_profile, 0.3, float),
        (re1.density_crossover_profile, 0.3, float),
        (lambda x: re1.density_real_origin_limit(x, 2.0), 1.1, float),
        (lambda x: re1.density_complex_origin_limit(x, 0.0), 0.3 + 0.4j, float),
        (lambda x: re1.kernel_entries(x, 0.5, p1).DS, 0.3, complex),
        (lambda x: re1.kernel_entries(x, 0.5, p1).eps, 0.3, float),
        (lambda x: re1.limit_kernel_entries(x, 0.2 + 0.5j).IS, 0.3, complex),
    ]
    for f, x, kind in cases:
        scalar, one = f(x), f(np.array([x]))
        assert type(scalar) is kind, (f, type(scalar))
        assert type(one) is np.ndarray and one.shape == (1,), (f, one)
        assert abs(one[0] - scalar) <= 1e-14 * abs(scalar), f


def test_integrate_radial():
    # exact on a Gaussian profile: int e^{-r^2} 2 pi r dr = pi (1 - e^{-R^2})
    got = integrate_radial(lambda r: np.exp(-r ** 2), 6.0)
    assert np.isclose(got, math.pi * (1.0 - math.exp(-36.0)), rtol=1e-12)
    with pytest.raises(ValueError):
        integrate_radial(lambda r: r, 0.0)
    assert default_rmax(P2(16, 9.0)) == 13.0


def test_density_requires_beta2():
    with pytest.raises(ValueError):
        density(1.0, EnsembleParams(N=4, L=0.0, beta=1))
    with pytest.raises(ValueError):
        hole_probability(1.0, EnsembleParams(N=4, L=0.0, beta=1))


@pytest.mark.parametrize("N, L", [(20, 2.0), (1000, 32.0), (128, 0.5)])
def test_hole_probability_broadcasts_over_radii(N, L):
    # one code path for scalar and array callers: the array call equals the
    # scalar calls bit for bit, and a scalar still returns a Python float
    params = EnsembleParams(N=N, L=L, beta=2)
    s = np.linspace(0.0, 1.3 * math.sqrt(N + L), 44)
    scalar = np.array([hole_probability(float(t), params) for t in s])
    assert np.array_equal(hole_probability(s, params), scalar)
    assert np.array_equal(hole_probability(s.reshape(4, 11), params), scalar.reshape(4, 11))
    assert type(hole_probability(1.0, params)) is float
    with pytest.raises(ValueError):
        hole_probability(np.array([0.5, -0.1]), params)
    with pytest.raises(ValueError):
        hole_probability(np.array([0.5, np.nan]), params)
