"""End-to-end release checks, one test per acceptance criterion.

Each test prints a single ``CRITERION k`` line with the measured margin
before asserting, so ``pytest -s`` doubles as the release checklist.
Monte Carlo checks run the seeded harness experiments with frozen master
seeds; analytic checks use the release tolerances directly.

Known red: criterion 5's leading-order clauses.  At N=128 the mean
real-eigenvalue count from quadrature of the exact density is 6.5375
(L=32) and 9.5006 (L=0), while the square-root approximation
sqrt(2/pi)*(sqrt(N+L)-sqrt(L)) gives 5.5790 and 9.0270.  The gap is an
O(1) finite-size effect, roughly 25 standard errors at 2000 samples, so
a Monte Carlo mean that matches the quadrature value (it does) cannot
also match the approximation within 3*SE.  The test asserts the
criterion as stated and stays red; the quadrature clauses pass.
"""
import math
import time

import numpy as np

from indg import linalg
from indg.complex_ensemble import (
    default_rmax,
    density as cx_density,
    density_edge_profile,
    integrate_radial,
    kernel_KN,
)
from indg.harness import run_mc
from indg.real_ensemble import (
    correlations_pfaffian,
    density_complex,
    density_real,
    expected_real_count,
    helper_t,
    kernel_entries,
    limit_kernel_entries,
)
from indg.sampling import EnsembleParams, sample_induced_quadratise


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:02d} ({name}): {status} — {detail}", flush=True)


def _gl_panels(a, b, width=0.5, order=24):
    """Composite Gauss-Legendre nodes with a forced breakpoint at 0."""
    pts = [a, 0.0, b] if a < 0.0 < b else [a, b]
    xs, ws = [], []
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    for lo, hi in zip(pts[:-1], pts[1:]):
        n = max(1, int(math.ceil((hi - lo) / width)))
        edges = np.linspace(lo, hi, n + 1)
        for e0, e1 in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (e0 + e1), 0.5 * (e1 - e0)
            xs.append(mid + half * base_x)
            ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def test_criterion_01_ring_law_radial_histogram():
    # N=128, L=32, beta=2, 256 samples: rescaled radial histogram within
    # 3 sigma of 2*pi*r*rho_N(r)/N for at least 60 of 64 bins, under a minute.
    t0 = time.perf_counter()
    reports = run_mc("radial-density", 101, 256)
    dt = time.perf_counter() - t0
    r = reports[0]
    ok = all(rep.passed for rep in reports) and dt < 60.0
    _line(1, "ring law radial histogram", ok,
          f"{r.empirical:.0f}/{r.analytic:.0f} bins within 3 sigma "
          f"(need >= {r.analytic - r.tolerance:.0f}), {dt:.1f}s")
    assert all(rep.passed for rep in reports), [vars(rep) for rep in reports]
    assert dt < 60.0, dt


def test_criterion_02_ring_radii_percentiles():
    # 1st/99th percentiles of |lambda|/sqrt(N+L) at N=128, L=32 within 0.05
    # of the ring radii sqrt(L/(N+L)) and 1.
    params = EnsembleParams(N=128, L=32, beta=2)
    rng = np.random.default_rng(4242)
    mods = []
    for _ in range(128):
        G = sample_induced_quadratise(params, rng)
        mods.append(np.abs(np.linalg.eigvals(G)))
    mods = np.concatenate(mods) / math.sqrt(128.0 + 32.0)
    p1, p99 = np.percentile(mods, [1.0, 99.0])
    gap_in = abs(p1 - math.sqrt(32.0 / 160.0))
    gap_out = abs(p99 - 1.0)
    ok = gap_in < 0.05 and gap_out < 0.05
    _line(2, "ring radii percentiles", ok,
          f"p1 gap {gap_in:.4f}, p99 gap {gap_out:.4f} (tol 0.05)")
    assert gap_in < 0.05, (p1, math.sqrt(32.0 / 160.0))
    assert gap_out < 0.05, p99


def test_criterion_03_edge_profile_universality():
    # Analytic density at r_out+xi and r_in-xi for N=1000, L=500 matches
    # erfc(sqrt(2)*xi)/(2*pi) within 0.01/pi.
    params = EnsembleParams(N=1000, L=500, beta=2)
    r_out, r_in = math.sqrt(1500.0), math.sqrt(500.0)
    worst = 0.0
    for xi in (-1.0, -0.5, 0.0, 0.5, 1.0):
        prof = density_edge_profile(xi)
        worst = max(worst,
                    abs(cx_density(r_out + xi, params) - prof),
                    abs(cx_density(r_in - xi, params) - prof))
    tol = 0.01 / math.pi
    ok = worst < tol
    _line(3, "edge profile universality", ok,
          f"worst deviation {worst:.3e} (tol {tol:.3e})")
    assert worst < tol, worst


def test_criterion_04_hole_probability():
    # N=20, L=2, 5000 samples: empty-disk fraction at s in {0.5, 1.0, 1.5}
    # within 3 binomial SE of the product formula, under two minutes.
    t0 = time.perf_counter()
    reports = run_mc("hole-prob", 104, 5000)
    dt = time.perf_counter() - t0
    margin = max(abs(r.empirical - r.analytic) - r.tolerance for r in reports)
    ok = all(r.passed for r in reports) and dt < 120.0
    _line(4, "hole probability", ok,
          f"worst (|emp-analytic| - 3SE) = {margin:+.4f} over "
          f"{len(reports)} radii, {dt:.1f}s")
    assert all(r.passed for r in reports), [vars(r) for r in reports]
    assert dt < 120.0, dt


def test_criterion_05_real_eigenvalue_count():
    # N=128, beta=1, 2000 samples: MC mean within 3*SE of the quadrature
    # value AND of the square-root approximation, at L=32 and L=0, in under
    # five minutes.  The approximation clauses are expected red — see the
    # module docstring.
    t0 = time.perf_counter()
    reports = run_mc("real-count", 105, 2000)
    dt = time.perf_counter() - t0
    by = {(r.statistic, int(r.params["L"])): r for r in reports}
    clauses = [("mean_vs_quadrature", 32), ("mean_vs_leading_order", 32),
               ("mean_vs_quadrature", 0), ("mean_vs_leading_order", 0)]
    margins = {c: abs(by[c].empirical - by[c].analytic) - by[c].tolerance
               for c in clauses}
    ok = all(by[c].passed for c in clauses) and dt < 300.0
    _line(5, "real eigenvalue count", ok,
          "(|emp-analytic| - 3SE): "
          + ", ".join(f"{stat.split('_vs_')[1]}@L={L} {margins[(stat, L)]:+.4f}"
                      for stat, L in clauses)
          + f", {dt:.1f}s")
    assert dt < 300.0, dt
    assert all(by[c].passed for c in clauses), (
        "the Monte Carlo mean matches the quadrature value of the exact "
        "density (6.5375 at L=32, 9.5006 at L=0) but not the square-root "
        "approximation (5.5790 / 9.0270), which sits ~25 standard errors "
        "away at N=128 with 2000 samples; criterion asserted as stated",
        {c: vars(by[c]) for c in clauses})


def test_criterion_06_sampler_equivalence():
    # Polar vs quadratisation routes at (50,10,beta) for beta in {1,2},
    # 2000 samples each: two-sample KS on |lambda| not rejected at 0.001.
    reports = run_mc("sampler-equiv", 106, 2000)
    ok = all(r.passed for r in reports)
    _line(6, "sampler equivalence", ok,
          ", ".join(f"beta={r.params['beta']} KS p-bound {r.empirical:.4f} "
                    f"(reject below 0.001)" for r in reports))
    assert ok, [vars(r) for r in reports]


def test_criterion_07_real_kernel_diagonal_consistency():
    # S_N(x,x) from the kernel assembly equals the closed-form real density
    # to 1e-10 on a 40-point grid.  The printed Gamma(L+1) denominator of the
    # correction term, t_app = t / L, is built here and must fail both this
    # identity and the N=16 count.
    grid = np.linspace(-5.0, 5.0, 40)
    worst = {}
    for N, L in ((8, 0.0), (8, 2.0), (16, 4.0)):
        params = EnsembleParams(N=N, L=L, beta=1)
        worst[(N, L)] = max(
            abs(kernel_entries(x, x, params).S.real - density_real(x, params))
            for x in grid)
    params16 = EnsembleParams(N=16, L=4.0, beta=1)
    worst_app = max(
        abs(kernel_entries(x, x, params16).S.real
            - (1.0 - 1.0 / params16.L) * helper_t(x, x, params16) - density_real(x, params16))
        for x in grid)
    p = EnsembleParams(N=16, L=2.0, beta=1)
    xs, ws = _gl_panels(0.0, math.sqrt(p.N + p.L) + 10.0, width=1.0, order=24)
    count_app = (expected_real_count(p)
                 - (1.0 - 1.0 / p.L) * 2.0 * float(np.sum(ws * helper_t(xs, xs, p))))
    count_gap = abs(expected_real_count(p) - count_app)
    ok = (max(worst.values()) < 1e-10 and worst_app > 1e-3
          and count_gap > 0.1)
    _line(7, "real kernel diagonal consistency", ok,
          f"worst |S(x,x)-rho| {max(worst.values()):.2e} (tol 1e-10); "
          f"Gamma(L+1) form deviates {worst_app:.2e}, "
          f"count gap {count_gap:.3f}")
    for key, dev in worst.items():
        assert dev < 1e-10, (key, dev)
    assert worst_app > 1e-3, worst_app
    assert count_gap > 0.1, count_gap


def test_criterion_08_pfaffian_machinery():
    # Pf(A)^2 = det(A) to relative 1e-8 on 100 random antisymmetric
    # matrices up to 12x12; R_2(x,x) = 0 and R_1 = rho structurally.
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for i in range(100):
        n = int(rng.integers(1, 7)) * 2
        B = rng.standard_normal((n, n))
        if i % 2:
            B = B + 1j * rng.standard_normal((n, n))
        A = B - B.T
        pf = linalg.pfaffian(A)
        det = np.linalg.det(A)
        worst_rel = max(worst_rel, abs(pf * pf - det) / abs(det))
    params = EnsembleParams(N=8, L=2.0, beta=1)
    worst_r1, worst_r2 = 0.0, 0.0
    for x in (-2.0, -0.5, 0.3, 1.7):
        d = density_real(x, params)
        worst_r1 = max(worst_r1,
                       abs(correlations_pfaffian([x], [], params) - d) / d)
        worst_r2 = max(worst_r2, abs(correlations_pfaffian([x, x], [], params)))
    ok = worst_rel < 1e-8 and worst_r1 < 1e-12 and worst_r2 < 1e-12
    _line(8, "pfaffian machinery", ok,
          f"worst |Pf^2-det|/|det| {worst_rel:.2e} (tol 1e-8); "
          f"R_1 vs rho rel {worst_r1:.2e}, R_2(x,x) {worst_r2:.2e}")
    assert worst_rel < 1e-8, worst_rel
    assert worst_r1 < 1e-12, worst_r1
    assert worst_r2 < 1e-12, worst_r2


def test_criterion_09_counting_integrals():
    # Integral of K_N(z,z) over the plane equals N to 1e-6 (beta=2, three
    # parameter sets); 2*int rho_C + int rho_R = N to 1e-6 (beta=1, N=16, L=4).
    devs = {}
    for N, L in ((8, 0.0), (8, 3.0), (64, 16.0)):
        params = EnsembleParams(N=N, L=L, beta=2)
        total = integrate_radial(lambda r: cx_density(r, params),
                                 default_rmax(params))
        devs[(N, L)] = abs(total - N)
    params = EnsembleParams(N=16, L=4.0, beta=1)
    R = math.sqrt(16.0 + 4.0) + 8.0
    xs, wx = _gl_panels(-R, R, width=1.0)
    cnt_r = float(np.sum(wx * density_real(xs, params)))
    ys, wy = _gl_panels(1e-14, R, width=0.5)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    cnt_c = float(np.sum(np.outer(wx, wy) * density_complex(X + 1j * Y, params)))
    dev_real = abs(2.0 * cnt_c + cnt_r - 16.0)
    ok = max(devs.values()) < 1e-6 and dev_real < 1e-6
    _line(9, "counting integrals", ok,
          f"beta=2 worst |int-N| {max(devs.values()):.2e}; "
          f"beta=1 |2C+R-N| {dev_real:.2e} (tol 1e-6)")
    for key, dev in devs.items():
        assert dev < 1e-6, (key, dev)
    assert dev_real < 1e-6, dev_real


def test_criterion_10_channel_rings():
    # (d,k) in {(14,10),(14,14),(14,18)}, 8 realizations: >=90% of
    # non-leading eigenvalues inside the widened predicted annulus and mean
    # Tr Phi^dag Phi within 10% of d(k+1)/k, under three minutes.
    t0 = time.perf_counter()
    reports = run_mc("channel-ring", 110, 8)
    dt = time.perf_counter() - t0
    contain = [r for r in reports if r.statistic == "annulus_containment"]
    traces = [r for r in reports if r.statistic == "mean_trace_norm"]
    ok = all(r.passed for r in reports) and dt < 180.0
    _line(10, "channel rings", ok,
          f"min containment {min(r.empirical for r in contain):.3f} "
          f"(need >= 0.9); worst trace rel dev "
          f"{max(abs(r.empirical - r.analytic) / r.analytic for r in traces):.3f} "
          f"(tol 0.10), {dt:.1f}s")
    assert all(r.passed for r in reports), [vars(r) for r in reports]
    assert dt < 180.0, dt


def test_criterion_11_limit_kernel_convergence():
    # Finite-N bulk kernels at N=600-800 match the limiting kernels
    # entrywise within 1e-3 at two reference points per regime.  Kernels are
    # compared through cocycle-free quantities: moduli for the strictly
    # complex regimes, raw entries on the real-axis crossover.
    pts = (0.0, 0.6 + 0.4j)

    # determinantal bulk: |K_N| against the Gaussian limit
    params = EnsembleParams(N=700, L=175, beta=2)
    c = 0.8 * math.sqrt(700.0)
    dev2 = max(abs(abs(kernel_KN(c + a, c + b, params))
                   - math.exp(-0.5 * abs(a - b) ** 2) / math.pi)
               for a in pts for b in pts)

    # real-axis bulk crossover: all four kernel entries
    params = EnsembleParams(N=600, L=300, beta=1)
    c = math.sqrt(600.0)
    dev_real = 0.0
    for a, b in ((0.0, 0.9), (0.3, 0.25 + 0.6j)):
        fe = kernel_entries(c + a, c + b, params)
        le = limit_kernel_entries(a, b)
        dev_real = max(dev_real, abs(fe.DS - le.DS), abs(fe.S - le.S),
                       abs((fe.IS + fe.eps) - (le.IS + le.eps)))

    # far-from-axis bulk of the real ensemble: |S| against the Gaussian limit
    params = EnsembleParams(N=800, L=400, beta=1)
    cc = math.sqrt(800.0) * (0.6 + 0.6j)
    dev1c = max(abs(abs(complex(kernel_entries(cc + a, cc + b, params).S))
                    - math.exp(-0.5 * abs(a - b) ** 2) / math.pi)
                for a in pts for b in pts)

    ok = dev2 < 1e-3 and dev_real < 1e-3 and dev1c < 1e-3
    _line(11, "limit kernel convergence", ok,
          f"beta=2 bulk {dev2:.2e}, real-axis crossover {dev_real:.2e}, "
          f"off-axis bulk {dev1c:.2e} (tol 1e-3)")
    assert dev2 < 1e-3, dev2
    assert dev_real < 1e-3, dev_real
    assert dev1c < 1e-3, dev1c
