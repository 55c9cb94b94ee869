"""Exact finite-N statistics of the real (beta=1) induced ensemble.

Every k-point eigenvalue correlation of the real ensemble is the Pfaffian of
an antisymmetric matrix built from 2x2 blocks, whose scalar entries (DS, S,
IS, plus a sign term eps for real/real blocks) come in distinct flavours
depending on whether each argument is real or strictly complex.  All nine
flavours reduce to combinations of three helper functions (s_N, r_N, t) and,
for the real/real IS entry, an exact finite sum over one-dimensional
incomplete-gamma antiderivatives.

The kernel layer is array-native: the helpers and kernel_entries broadcast
over point arrays, and a kernel call takes each term once.  log psi is taken
once per point of each argument and gives the dressings at the powers L and
N+L-1; the correction terms u = r_N + t only for the flavours that read
them; the IS antiderivatives once per distinct real value of both arguments
together and sum index j.  Only the s_N series (the truncated exponential
series of special.log_exp_series, shared with the complex ensemble) and the
IS sum run per point pair.  s(a, b) and s(a, conj b) share one series pass
on the stacked [ab, a conj(b)], and the IS sum runs on the real/real pairs
only, in row blocks of bounded size.  A correlation therefore evaluates all
of its point pairs in one pass.  Every incomplete-gamma term on the real
axis (t, r_N, the IS antiderivatives and the skew inner product's tail
integrals) is the one half-line Gaussian moment of _log_half_moment.

The module also provides the closed-form real/complex densities, the partial
joint eigenvalue density, skew-orthogonal polynomial utilities with a
quadrature inner product, and the beta=1 large-N limit laws: the real-bulk
and circular-edge Pfaffian kernels and the real-axis, near-axis crossover
and fixed-L origin densities.  Away from the real axis the local statistics
tend to the complex Ginibre ones, so the off-axis bulk determinant and the
beta=2 ring and edge densities live only in complex_ensemble
(bulk_edge_limit_kernels, density_ring_limit, density_edge_profile).

Conventions
-----------
* N must be even (the Pfaffian pairing needs it); odd N raises ValueError.
* Complex eigenvalue arguments are represented in the open upper half-plane.
  kernel_entries folds a lower-half input onto its conjugate representative;
  the correlation routines insist on Im > 0.
* Everything runs in log space, so N of several hundred stays finite.
* The t helper divides by Gamma(L) (printed sources also show Gamma(L+1)):
  only Gamma(L) reproduces the square-case real eigenvalue counts (sqrt(2)
  at N=2, 11*sqrt(2)/8 at N=4) and sampled counts and histograms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .complex_ensemble import (_as_scalar, _gl_nodes, _gl_panels, _log_gap_sum, _reg_p,
                               _require_alpha, density_ring_limit)
from .linalg import pfaffian
from .sampling import EnsembleParams
from .special import (_scipy_special, erfcx, log_exp_series, log_gamma, lower_reg_gamma,
                      upper_reg_gamma)

__all__ = [
    "RealKernelEntries",
    "helper_sN",
    "helper_t",
    "helper_rN",
    "kernel_entries",
    "density_complex",
    "density_complex_azimuthal",
    "density_real",
    "correlations_pfaffian",
    "log_jpdf_real_partial",
    "skew_poly",
    "skew_poly_norm",
    "skew_inner",
    "limit_kernel_entries",
    "limit_kernels",
    "density_real_ring_limit",
    "density_real_edge_profile",
    "density_crossover_profile",
    "density_real_origin_limit",
    "density_complex_origin_limit",
    "expected_real_count",
    "real_count_leading_order",
    "real_count_next_order",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG2 = math.log(2.0)
# bytes of one (pairs, N/2) array in a block of the real/real IS sum: 131
# pairs at N=1000, more than the 100 of a 10-real-point correlation
_IS_BLOCK_BYTES = 1 << 19


def _require_real_even(params: EnsembleParams):
    if params.beta != 1:
        raise ValueError("real-ensemble statistics need beta=1 parameters")
    if params.N % 2 != 0:
        raise ValueError(
            f"kernel machinery is restricted to even matrix dimension, got N={params.N}"
        )


def _log_half_moment(m, x, tail):
    """log of the half-line moment of the Gaussian weight, elementwise.

    integral of exp(-y^2/2) |y|^m over [0, |x|] (tail=False) or [|x|, inf)
    (tail=True), which is 2^{a-1} Gamma(a) P|Q(a, x^2/2) with a = (m+1)/2.
    -inf where the integral vanishes (x=0 with tail=False).
    """
    a = 0.5 * (np.asarray(m, dtype=float) + 1.0)
    reg = upper_reg_gamma if tail else lower_reg_gamma
    with np.errstate(divide="ignore"):
        return (a - 1.0) * _LOG2 + log_gamma(a) + np.log(reg(a, 0.5 * np.square(x)))


def _log_psi(z):
    """Real and imaginary parts of log psi(z), elementwise in complex z.

    psi(z) = exp(-z^2/2) * sqrt(erfc(sqrt(2)*|Im z|)), the Gaussian weight
    with the half-plane erfc dressing; the erfc is taken in its erfcx form,
    stable for large |Im z|.
    """
    x, y = z.real, z.imag
    mag = -0.5 * (x * x + y * y) + 0.5 * np.log(erfcx(math.sqrt(2.0) * np.abs(y)))
    return mag, -x * y


def _log_dress(z, p, lpsi):
    """log of the per-point dressing psi(z) * z^p, elementwise in complex z.

    lpsi is _log_psi(z), taken once per point by the caller and shared by
    every power it dresses that point with.  On the real axis the power is
    |x|^p (no sign), which is what the real inner product and parity demand;
    off it the principal power applies.  The real part is -inf at z=0 for p>0.
    """
    mag, phase = lpsi
    if p != 0:
        with np.errstate(divide="ignore"):
            mag = mag + p * np.log(np.abs(z))
        phase = phase + p * np.where(z.imag == 0.0, 0.0, np.angle(z))
    return mag + 1j * phase


def _finish(val, *args):
    """val as a real array when every argument is real; a Python scalar if 0-d."""
    if all(np.isrealobj(v) or not np.any(np.imag(v)) for v in args):
        val = val.real
    return _as_scalar(val)


def _s_series(zeta, ld, N, L):
    """(2*pi)^{-1/2} exp(ld) * sum_{j=0}^{N-2} zeta^j / Gamma(L+j+1), elementwise."""
    return np.exp(ld + log_exp_series(zeta, N - 1, L) - _HALF_LOG_2PI)


def _t(x, ld, L):
    """t(x, z) elementwise, complex-valued, from ld = _log_dress(z, L, .); see helper_t."""
    if L == 0:
        return np.zeros(np.broadcast(x, ld).shape, dtype=complex)
    log_x = _log_half_moment(L - 1.0, x, tail=True) - log_gamma(L)
    return np.exp(log_x - _HALF_LOG_2PI + ld)


def _r(x, z, ld, N, L):
    """r_N(x, z) elementwise, complex-valued, from ld = _log_dress(z, N+L-1, .); see helper_rN."""
    log_x = (_log_half_moment(N + L - 2.0, x, tail=False)
             - log_gamma(N + L - 1.0) - _HALF_LOG_2PI)
    # |z|^L z^{N-1} on the real axis: N even makes z^{N-1} carry sgn(z)
    sign = np.sign(x) * np.where(z.imag == 0.0, np.sign(z.real), 1.0)
    return sign * np.exp(log_x + ld)


def helper_sN(z, w, params: EnsembleParams):
    """Truncated exponential-series kernel helper s_N(z, w).

    s_N(z, w) = (2*pi)^{-1/2} D(z) D(w) * sum_{j=0}^{N-2} (z w)^j / Gamma(L+j+1)
    with D(z) = psi(z) z^L the per-point dressing of _log_dress.  Symmetric in
    (z, w) and broadcast over array arguments.  Real-valued when both
    arguments are real, complex otherwise; a Python scalar for scalar input.
    """
    _require_real_even(params)
    a, b = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
    ld = _log_dress(a, params.L, _log_psi(a)) + _log_dress(b, params.L, _log_psi(b))
    return _finish(_s_series(a * b, ld, params.N, params.L), z, w)


def helper_t(x, z, params: EnsembleParams):
    """Upper-incomplete-gamma correction term t(x, z).

    t(x, z) = (2*pi)^{-1/2} * D(z) * 2^{L/2-1} * Gamma(L/2, x^2/2) / Gamma(L)
    with the gamma function evaluated at the (real) first argument and the
    dressing D at the second.  At L=0 it vanishes identically (the
    1/Gamma(L) limit).  Broadcast over array arguments; real-valued when z
    is real.
    """
    _require_real_even(params)
    z = np.asarray(z, dtype=complex)
    val = _t(np.asarray(x, dtype=float), _log_dress(z, params.L, _log_psi(z)), params.L)
    return _finish(val, z)


def helper_rN(x, z, params: EnsembleParams):
    """Lower-incomplete-gamma correction term r_N(x, z).

    r_N(x, z) = (2*pi)^{-1/2} * sgn(x) * 2^{(N+L-3)/2}
                * gamma((N+L-1)/2, x^2/2) / Gamma(N+L-1) * dress(z)
    where dress(z) = psi(z) z^{N+L-1} for strictly complex z and
    exp(-z^2/2) |z|^L z^{N-1} for real z (the |z|^L keeps the even parity
    that the real weight function demands).  Odd in the real first argument.
    Broadcast over array arguments; real-valued when z is real.
    """
    _require_real_even(params)
    N, L = params.N, params.L
    z = np.asarray(z, dtype=complex)
    val = _r(np.asarray(x, dtype=float), z, _log_dress(z, N + L - 1.0, _log_psi(z)), N, L)
    return _finish(val, z)


# ---------------------------------------------------------------------------
# real/real IS entry: exact finite sum over antiderivative pairs
# ---------------------------------------------------------------------------


def _tau_even_logmag(j, x, L: float):
    """(sign, log|.|) of the antiderivative paired with the even polynomial.

    tau_{2j}(x) = -sgn(x) 2^{(m-1)/2} Gamma((m+1)/2) P((m+1)/2, x^2/2),
    m = 2j+L.  Odd in x.  Broadcast over j and x; log|.| is -inf at x=0.
    """
    m = 2.0 * np.asarray(j, dtype=float) + L
    return -np.sign(x), _log_half_moment(m, x, tail=False)


def _tau_odd_logmag(j, x, L: float):
    """log of the antiderivative paired with the odd polynomial.

    tau_1(x) = 2^{L/2} Gamma(L/2+1) Q(L/2+1, x^2/2); for j >= 1 the telescoping
    of the two monomials collapses to tau_{2j+1}(x) = exp(-x^2/2)|x|^L x^{2j}.
    Even in x and positive, so it has no sign factor.  Broadcast over j and x.
    """
    j = np.asarray(j, dtype=float)
    x = np.asarray(x, dtype=float)
    lq = _log_half_moment(L + 1.0, x, tail=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        mono = -0.5 * x * x + (L + 2.0 * j) * np.log(np.abs(x))
    return np.where(j == 0, lq, mono)


def _is_real_real(x, y, params: EnsembleParams):
    """IS entry for real arguments, via the exact antiderivative sum.

    One value per pair (x[k], y[k]).  The antiderivatives are tabulated once
    per distinct real value of x and y together and sum index j; values are
    distinct by their bits, so +0.0 and -0.0 keep their own signs in the odd
    tau_{2j}.  The pair sums run with j on a trailing axis, in row blocks of
    at most _IS_BLOCK_BYTES per (pairs, N/2) array, so memory does not grow
    with the number of pairs.  Each row's sum is scaled by its own largest
    term and does not depend on the block.
    """
    N, L = params.N, params.L
    j = np.arange(N // 2, dtype=float)
    bits, idx = np.unique(np.concatenate([x, y]).view(np.int64), return_inverse=True)
    v = bits.view(float)[:, None]
    ix, iy = idx[:x.size], idx[x.size:]
    lr = -_HALF_LOG_2PI - log_gamma(L + 2.0 * j + 1.0)
    se, le = _tau_even_logmag(j, v, L)
    lo = _tau_odd_logmag(j, v, L)
    rows = max(1, _IS_BLOCK_BYTES // (8 * j.size))
    out = np.empty(ix.size)
    for i in range(0, ix.size, rows):
        bx, by = ix[i:i + rows], iy[i:i + rows]
        l1 = le[bx] + lo[by] + lr
        l2 = lo[bx] + le[by] + lr
        peak = np.maximum(l1.max(axis=-1), l2.max(axis=-1))[..., None]
        peak = np.where(np.isfinite(peak), peak, 0.0)
        terms = se[bx] * np.exp(l1 - peak) - se[by] * np.exp(l2 - peak)
        out[i:i + rows] = np.sum(terms, axis=-1) * np.exp(peak[..., 0])
    return out


@dataclass(frozen=True)
class RealKernelEntries:
    """Entries of one 2x2 kernel block, or arrays of them over point pairs.

    eps is the sign term that accompanies IS when both arguments are real;
    it is identically zero otherwise.
    """

    DS: complex
    S: complex
    IS: complex
    eps: float


def _upper(z):
    """Fold complex points onto their upper-half-plane representatives."""
    z = np.asarray(z, dtype=complex)
    return np.where(z.imag < 0.0, z.conj(), z)


def _block_entries(a, b, s, sc, u_ba, u_ab, is_rr):
    """Kernel block entries in every real/complex flavour, elementwise; scalars if 0-d.

    a, b are folded points; s = s(a, b) and sc = s(a, conj b) are the series
    helper, with s(conj a, conj b) = conj s; u_ba = u(Re b, a) and
    u_ab = u(Re a, b) are the correction terms u(x, w) = r_N(x, w) + t(x, w),
    with u(x, conj w) = conj u(x, w); is_rr is the real/real IS entry.
    """
    a_real = a.imag == 0.0
    b_real = b.imag == 0.0
    rr = a_real & b_real
    DS = (b - a) * s
    s_ba = s + u_ba
    S = np.where(b_real, s_ba, 1j * (b.conj() - a) * sc)
    IS = np.where(rr, is_rr, np.where(a_real, -1j * (s + u_ab).conj(),
                                      np.where(b_real, 1j * s_ba.conj(),
                                               (a.conj() - b.conj()) * s.conj())))
    eps = np.where(rr, 0.5 * np.sign(a.real - b.real), 0.0)
    DS, S, IS = (np.where(rr, v.real, v) for v in (DS, S, IS))
    return RealKernelEntries(*(_as_scalar(v) for v in (DS, S, IS, eps)))


def _kernel_arrays(a, b, params: EnsembleParams) -> RealKernelEntries:
    """Array core of kernel_entries: entries over broadcast point arrays a, b.

    Each term is taken once per call: log psi once per point, and from it
    the dressings at the powers L and N+L-1; u(Re b, a) only when some b is
    real and u(Re a, b) only when some pair has a real and b complex (the
    only flavours that read them); the IS antiderivative tables once per
    distinct real value of a and b together, in _is_real_real.  So a scalar
    call does the work of its own flavour alone.
    """
    _require_real_even(params)
    N, L = params.N, params.L
    a, b = _upper(a), _upper(b)
    a_real, b_real = a.imag == 0.0, b.imag == 0.0
    psi_a, psi_b = _log_psi(a), _log_psi(b)
    lda, ldb = _log_dress(a, L, psi_a), _log_dress(b, L, psi_b)
    if b_real.all():
        s = sc = _s_series(a * b, lda + ldb, N, L)
    else:
        # |ab| = |a conj(b)|, so the stack keeps the rescale cadence of either half
        s, sc = _s_series(np.stack([a * b, a * b.conj()]),
                          np.stack([lda + ldb, lda + ldb.conj()]), N, L)
    u_ba = u_ab = 0.0
    if b_real.any():
        u_ba = _r(b.real, a, _log_dress(a, N + L - 1.0, psi_a), N, L) + _t(b.real, lda, L)
    if (a_real & ~b_real).any():
        u_ab = _r(a.real, b, _log_dress(b, N + L - 1.0, psi_b), N, L) + _t(a.real, ldb, L)
    rr = a_real & b_real
    is_rr = 0.0
    if rr.any():
        is_rr = np.zeros(rr.shape)
        is_rr[rr] = _is_real_real(np.broadcast_to(a.real, rr.shape)[rr],
                                  np.broadcast_to(b.real, rr.shape)[rr], params)
    return _block_entries(a, b, s, sc, u_ba, u_ab, is_rr)


def kernel_entries(a, b, params: EnsembleParams) -> RealKernelEntries:
    """Kernel block entries for an ordered argument pair (a, b).

    Arguments may be real or complex; a complex argument with Im < 0 is
    folded onto its upper-half-plane conjugate representative.  DS and IS
    are antisymmetric under (a, b) swap; for two real arguments all entries
    are real-valued.  Array arguments broadcast against each other and give
    arrays of entries; scalar arguments give Python scalars.
    """
    return _kernel_arrays(a, b, params)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------


def density_complex(z, params: EnsembleParams):
    """Mean density of strictly complex eigenvalues at z (Im z > 0).

    rho_C(x+iy) = sqrt(2/pi) * y * erfcx(sqrt(2) y)
                  * [P(L, x^2+y^2) - P(L+N-1, x^2+y^2)]
    (the first factor is density_crossover_profile(y)), which equals the
    coincident kernel entry S(z, z).  Vectorized in z.
    """
    _require_real_even(params)
    N, L = params.N, params.L
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0.0):
        raise ValueError("density_complex needs strictly upper-half-plane points")
    u = z.real**2 + z.imag**2
    bulk = _reg_p(L, u) - lower_reg_gamma(L + N - 1.0, u)
    val = density_crossover_profile(z.imag) * bulk
    return _as_scalar(val)


# graded angle panels of density_complex_azimuthal; with 8 its relative error
# against adaptive quadrature stays below 2e-15 from r = 1e-3 to r = 316
_AZIMUTH_PANELS = 8


def density_complex_azimuthal(r, params: EnsembleParams):
    """integral_0^pi rho_C(r e^{i theta}) d theta, for r >= 0.

    Elementwise in r, 0 at r = 0; 2 r times it is the density of |z| over
    both members of each conjugate pair.  rho_C depends on x only through
    x^2, so the integral is twice the one over [0, pi/2].  Its near-axis
    layer has angular width about 1/r, so the rule is 12-node Gauss-Legendre
    on [0, t] with t = min(pi/2, 1/r) and on _AZIMUTH_PANELS panels graded
    geometrically from t to pi/2, in one broadcast call for all r.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0.0):
        raise ValueError("radii must satisfy r >= 0")
    out = np.zeros(r.shape)
    off = r != 0.0
    ro = r[off][:, None]
    t = np.minimum(0.5 * np.pi, 1.0 / ro)
    grade = np.arange(_AZIMUTH_PANELS + 1) / _AZIMUTH_PANELS
    edges = np.concatenate([np.zeros_like(t), 0.5 * np.pi * (t / (0.5 * np.pi)) ** (1.0 - grade)],
                           axis=-1)
    theta, tw = _gl_nodes(edges, 12)
    out[off] = 2.0 * np.sum(density_complex(ro[..., None] * np.exp(1j * theta), params) * tw,
                            axis=(-2, -1))
    return _as_scalar(out)


def density_real(x, params: EnsembleParams):
    """Mean density of real eigenvalues at x.

    rho_R(x) = (2*pi)^{-1/2} [P(L, x^2) - P(L+N-1, x^2)] + t(x, x) + r_N(x, x),
    even in x and equal to the coincident real/real S entry.  Vectorized.
    """
    _require_real_even(params)
    N, L = params.N, params.L
    x = np.asarray(x, dtype=float)
    u = x * x
    bulk = (_reg_p(L, u) - lower_reg_gamma(L + N - 1.0, u)) / math.sqrt(2.0 * math.pi)
    lpsi = _log_psi(x)
    t = _t(x, _log_dress(x, L, lpsi), L).real
    r = _r(x, x, _log_dress(x, N + L - 1.0, lpsi), N, L).real
    val = bulk + t + r
    return _as_scalar(val)


# ---------------------------------------------------------------------------
# Pfaffian correlations
# ---------------------------------------------------------------------------


def _assemble_blocks(e: RealKernelEntries):
    """2x2-block antisymmetric matrices from the entries on point grids.

    e holds the entries on the (..., m, 1) x (..., 1, m) grid of point pairs; block
    (i, j) of each matrix is [[DS(w_i, w_j), S(w_i, w_j)], [-S(w_j, w_i), IS + eps]].
    """
    m = e.DS.shape[-1]
    A = np.empty(e.DS.shape[:-2] + (2 * m, 2 * m), dtype=complex)
    A[..., 0::2, 0::2] = e.DS
    A[..., 0::2, 1::2] = e.S
    A[..., 1::2, 0::2] = -np.swapaxes(e.S, -1, -2)
    A[..., 1::2, 1::2] = e.IS + e.eps
    return A


def _pfaffian_of_blocks(A):
    """Pfaffian of the block matrix; no points (0 x 0) give 1."""
    scale = max(1.0, float(np.abs(A).max(initial=0.0)))
    asym = float(np.abs(A + A.T).max(initial=0.0))
    if asym > 1e-8 * scale:
        raise np.linalg.LinAlgError(
            f"kernel block matrix lost antisymmetry (residual {asym:.3e}, scale {scale:.3e})"
        )
    A = 0.5 * (A - A.T)
    return float(np.real(pfaffian(A)))


def _configurations(reals, complexes):
    """(points, k): reals (..., k) then complexes (..., l) as (..., k + l) complex points."""
    r = np.atleast_1d(np.asarray(reals, dtype=float))
    c = np.atleast_1d(np.asarray(complexes, dtype=complex))
    lead = np.broadcast_shapes(r.shape[:-1], c.shape[:-1])
    return np.concatenate([np.broadcast_to(r, lead + r.shape[-1:]),
                           np.broadcast_to(c, lead + c.shape[-1:])], axis=-1), r.shape[-1]


def correlations_pfaffian(reals, complexes, params: EnsembleParams):
    """k-point correlation R_{K',L'} at K' real and L' upper-half points.

    Assembles the 2(K'+L') x 2(K'+L') antisymmetric kernel matrix and takes
    its Pfaffian.  R_{1,0} is density_real, R_{0,1} is density_complex.
    reals (..., K') and complexes (..., L') broadcast leading stack axes: one value each.
    """
    _require_real_even(params)
    p, k = _configurations(reals, complexes)
    if np.any(p[..., k:].imag <= 0.0):
        raise ValueError("complex correlation points must satisfy Im z > 0")
    if p.shape[-1] > params.N:
        raise ValueError("more correlation points than eigenvalues")
    A = _assemble_blocks(_kernel_arrays(p[..., :, None], p[..., None, :], params))
    pf = [_pfaffian_of_blocks(A[i]) for i in np.ndindex(A.shape[:-2])]
    return _as_scalar(np.reshape(pf, A.shape[:-2]))


# ---------------------------------------------------------------------------
# partial joint eigenvalue density
# ---------------------------------------------------------------------------


def log_jpdf_real_partial(reals, complexes, params: EnsembleParams):
    """log of the partial jpdf P_{N,k,l} at k real values and l complex pairs.

    The complex entries carry one upper-half representative per conjugate
    pair.  Normalisation convention: summing integrals of P_{N,k,l} over the
    unordered configurations, with weight 1/(k! l!), over all (k, l) with
    k + 2l = N gives 1.  The Vandermonde runs over the full multiset of N
    eigenvalues (reals plus both members of every conjugate pair).
    reals (..., k) and complexes (..., l) broadcast leading stack axes: one value each.
    """
    _require_real_even(params)
    N, L = params.N, params.L
    p, k = _configurations(reals, complexes)
    l = p.shape[-1] - k
    if k % 2 != 0:
        raise ValueError("the number of real eigenvalues must be even")
    if k + 2 * l != N:
        raise ValueError(f"need k + 2l = N, got k={k}, l={l}, N={params.N}")
    if l and np.any(p[..., k:].imag <= 0.0):
        raise ValueError("complex eigenvalue representatives must satisfy Im z > 0")

    j = np.arange(1, N + 1, dtype=float)
    out = ((l - N * (N + 1) / 4.0 - N * L / 2.0) * _LOG2
           - float(np.sum(log_gamma(0.5 * (L + j)))))

    lam = np.concatenate([p, p[..., k:].conj()], axis=-1)
    with np.errstate(divide="ignore"):
        out = out + _log_gap_sum(lam)
    # point weights: the dressing psi(x)|x|^L per real, |psi(z) z^L|^2 per pair;
    # a zero weight or a coincidence gives -inf through the sums
    weight = _log_dress(p, L, _log_psi(p)).real
    return _as_scalar(out + np.sum(weight[..., :k], -1) + 2.0 * np.sum(weight[..., k:], -1))


# ---------------------------------------------------------------------------
# skew-orthogonal polynomials and the quadrature inner product
# ---------------------------------------------------------------------------


def skew_poly(j: int, L: float) -> np.ndarray:
    """Ascending coefficient array of the j-th skew-orthogonal polynomial.

    q_{2j}(w) = w^{2j};  q_1(w) = w;  q_{2j+1}(w) = w^{2j+1} - (2j+L) w^{2j-1}.
    """
    if j < 0:
        raise ValueError("polynomial index must be nonnegative")
    c = np.zeros(j + 1)
    c[j] = 1.0
    if j % 2 == 1 and j >= 3:
        c[j - 2] = -(j - 1.0 + L)
    return c


def skew_poly_norm(j: int, L: float) -> float:
    """Pair norm r_j = (q_{2j}, q_{2j+1}) = 2 sqrt(2 pi) Gamma(L+2j+1)."""
    if j < 0:
        raise ValueError("pair index must be nonnegative")
    return 2.0 * math.sqrt(2.0 * math.pi) * math.exp(log_gamma(L + 2.0 * j + 1.0))


# skew_inner's tensor rule: Gauss-Legendre panels on |x| <= 13 and 0 < y <= 13
_SKEW_HALF_WIDTH = 13.0
_SKEW_ORDER = 24


def skew_inner(f, g, L: float) -> float:
    """Numeric skew-symmetric inner product (f, g) = (f, g)_R + (f, g)_C.

    f and g are ascending coefficient arrays of real-coefficient polynomials.
    The real-real part integrates sgn(y-x) against the weight
    w(y) = exp(-y^2/2) |y|^L with the inner integral in closed form: the
    tail integral of w(y) y^b from each node x is a half-line moment, taken
    for all (node, monomial) pairs as one array, and the full-line moment
    minus the mirrored tail where x < 0.  The complex part is a tensor
    quadrature of 2i * e^{y^2-x^2} erfc(sqrt(2) y) (x^2+y^2)^L
    [f(z)g(zbar) - g(z)f(zbar)] over the upper half-plane, evaluated in the
    stable erfcx form.
    """
    f = np.atleast_1d(np.asarray(f, dtype=float))
    g = np.atleast_1d(np.asarray(g, dtype=float))

    xs, ws = _gl_panels(-_SKEW_HALF_WIDTH, _SKEW_HALF_WIDTH, order=_SKEW_ORDER)
    wx = np.exp(-0.5 * xs * xs) * np.abs(xs) ** L
    fx = np.polynomial.polynomial.polyval(xs, f)
    b = np.arange(g.size)
    m, parity = L + b, (-1.0) ** b
    # T_b = integral of w(y) y^b over the line: twice the half line, 0 for odd b
    total = (1.0 + parity) * np.exp(_log_half_moment(m, 0.0, tail=True))
    tail = np.exp(_log_half_moment(m, xs[:, None], tail=True))
    upper = np.where(xs[:, None] >= 0.0, tail, total - parity * tail)
    real_part = float(np.sum(ws * wx * fx * (2.0 * (upper @ g) - total @ g)))

    ys, wy = _gl_panels(1e-12, _SKEW_HALF_WIDTH, order=_SKEW_ORDER)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    WXY = np.outer(ws, wy)
    Z = X + 1j * Y
    weight = (
        np.exp(-X * X - Y * Y)
        * erfcx(math.sqrt(2.0) * Y)
        * (X * X + Y * Y) ** L
    )
    fz = np.polynomial.polynomial.polyval(Z, f)
    gz = np.polynomial.polynomial.polyval(Z, g)
    integrand = 2j * (fz * np.conj(gz) - gz * np.conj(fz))
    cplx_part = float(np.sum(WXY * weight * integrand).real)

    return real_part + cplx_part


# ---------------------------------------------------------------------------
# limit kernels (bulk on the real axis, circular edge)
# ---------------------------------------------------------------------------


def _limit_g(a, b):
    """Limit of s_N at unit local scale: e^{ab} times the finite-N dressings."""
    return np.exp(a * b + _log_dress(a, 0, _log_psi(a)) + _log_dress(b, 0, _log_psi(b))
                  - _HALF_LOG_2PI)


def limit_kernel_entries(a, b, u: float | None = None) -> RealKernelEntries:
    """Large-N bulk kernel entries at local offsets a, b.

    With u=None these are the bulk forms (valid for a real center strictly
    inside the ring).  Passing u = +1 or -1 multiplies each entry by the
    circular-edge factor erfc(u (p+q)/sqrt(2))/2 evaluated on that entry's
    Gaussian argument pair; the edge forms apply to strictly complex offsets.
    Broadcast over array arguments like kernel_entries.
    """
    p, q = _upper(a), _upper(b)
    if u is not None and np.any((p.imag == 0.0) | (q.imag == 0.0)):
        raise ValueError("edge limit kernels are restricted to complex offsets")

    sp = _scipy_special()
    s, sc = _limit_g(p, q), _limit_g(p, q.conj())
    if u is not None:
        s = s * 0.5 * sp.erfc(u * (p + q) / math.sqrt(2.0))
        sc = sc * 0.5 * sp.erfc(u * (p + q.conj()) / math.sqrt(2.0))
    is_rr = -0.5 * sp.erf((p.real - q.real) / math.sqrt(2.0))
    return _block_entries(p, q, s, sc, 0.0, 0.0, is_rr)


def limit_kernels(points, u, regime: str, alpha: float) -> float:
    """Limiting correlation at local offsets `points` around center u.

    regime="real-bulk": u real with sqrt(alpha) < |u| < sqrt(alpha+1); points
    may mix real and upper-half offsets; returns the Pfaffian of the bulk
    kernel blocks.  regime="edge": u = +1 or -1 exactly; strictly complex
    offsets; bulk entries dressed by the erfc edge factor.  A window away
    from the real axis has the complex Ginibre limit,
    complex_ensemble.bulk_edge_limit_kernels(points, u, "bulk", alpha).
    """
    _require_alpha(alpha)
    p = np.atleast_1d(np.asarray(points, dtype=complex))
    uc = complex(u)
    if regime == "real-bulk":
        if uc.imag != 0.0:
            raise ValueError("real-bulk needs a real center")
        if not (math.sqrt(alpha) < abs(uc.real) < math.sqrt(alpha + 1.0)):
            raise ValueError("real-bulk center must sit strictly inside the ring")
        edge = None
    elif regime == "edge":
        if abs(uc.imag) > 1e-12 or abs(abs(uc.real) - 1.0) > 1e-9:
            raise ValueError("edge regime needs u = +1 or -1")
        edge = 1.0 if uc.real > 0 else -1.0
    else:
        raise ValueError(f"unknown regime {regime!r}")
    e = limit_kernel_entries(p[:, None], p[None, :], u=edge)
    return _pfaffian_of_blocks(_assemble_blocks(e))


# ---------------------------------------------------------------------------
# limit densities
# ---------------------------------------------------------------------------


def density_real_ring_limit(x, alpha: float):
    """Flat limit of the real-axis density: the ring indicator / sqrt(2 pi)."""
    return math.sqrt(0.5 * math.pi) * density_ring_limit(x, alpha)


def density_real_edge_profile(xi):
    """Real-axis circular-edge profile.

    (2 pi)^{-1/2} [erfc(sqrt(2) xi)/2 + exp(-xi^2) erfc(-xi) / (2 sqrt(2))].
    The first coefficient is pinned by matching the 1/sqrt(2 pi) plateau deep
    inside the support (xi -> -inf); the printed sources carry a factor-2
    misprint there, which finite-N evaluation confirms.  xi is the signed
    distance into the forbidden region.
    """
    xi = np.asarray(xi, dtype=float)
    sp = _scipy_special()
    val = (
        0.5 * sp.erfc(math.sqrt(2.0) * xi)
        + np.exp(-xi * xi) * sp.erfc(-xi) / (2.0 * math.sqrt(2.0))
    ) / math.sqrt(2.0 * math.pi)
    return _as_scalar(val)


def density_crossover_profile(v):
    """Off-axis density at fixed distance |v| from the real axis, deep in the bulk.

    sqrt(2/pi) * |v| * erfcx(sqrt(2) |v|): vanishes linearly at the axis and
    saturates at the flat bulk value 1/pi as |v| grows.
    """
    av = np.abs(np.asarray(v, dtype=float))
    val = math.sqrt(2.0 / math.pi) * av * erfcx(math.sqrt(2.0) * av)
    return _as_scalar(val)


def density_real_origin_limit(x, L: float):
    """Fixed-L large-N real density near the origin.

    (2 pi)^{-1/2} P(L, x^2) plus the t-type correction t(x, x), which does
    not depend on N; reduces to the constant 1/sqrt(2 pi) at L=0.
    """
    x = np.asarray(x, dtype=float)
    t = _t(x, _log_dress(x, L, _log_psi(x)), L).real
    val = _reg_p(L, x * x) / math.sqrt(2.0 * math.pi) + t
    return _as_scalar(val)


def density_complex_origin_limit(z, L: float):
    """Fixed-L large-N off-axis density near the origin.

    density_crossover_profile(y) * P(L, x^2+y^2); the L=0 case is the flat
    near-axis crossover profile itself.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.imag <= 0.0):
        raise ValueError("origin profile needs strictly upper-half-plane points")
    val = density_crossover_profile(z.imag) * _reg_p(L, z.real**2 + z.imag**2)
    return _as_scalar(val)


def expected_real_count(params: EnsembleParams) -> float:
    """Mean number of real eigenvalues: integral of density_real over the line."""
    _require_real_even(params)
    rmax = math.sqrt(params.N + params.L) + 10.0
    x, w = _gl_panels(0.0, rmax, width=1.0, order=24)
    return 2.0 * float(np.sum(w * density_real(x, params)))


def real_count_leading_order(N: int, L: float) -> float:
    """Leading-order mean real-eigenvalue count sqrt(2/pi) (sqrt(N+L) - sqrt(L))."""
    return math.sqrt(2.0 / math.pi) * (math.sqrt(N + L) - math.sqrt(L))


def real_count_next_order(N: int, L: float) -> float:
    """Mean real-eigenvalue count to order 1: real_count_leading_order + 1/2 (L=0) or + 1 (L>0).

    Each point where a ring edge crosses the real axis adds 1/4, the integral
    of density_real_edge_profile minus its leading-order step: two crossings
    (+-sqrt(N)) at L=0, four (+-sqrt(L), +-sqrt(N+L)) at L>0.  The exact count
    minus it is O(N^{-1/2}) at L=0 and along L proportional to N; at a fixed
    L>0 the inner-edge error is O(L^{-1/2}) instead.
    """
    return real_count_leading_order(N, L) + (1.0 if L > 0 else 0.5)
