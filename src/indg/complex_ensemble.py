"""Exact finite-N and limiting spectral statistics of the complex (beta=2)
induced ensemble.

Everything here is determinantal: the kernel

    K_N(z, w) = (1/pi) e^{-(|z|^2+|w|^2)/2} sum_{j=0}^{N-1} (z w~)^{j+L} / Gamma(j+L+1)

(w~ = conjugate of w) generates the n-point correlations as det[K_N(z_k, z_l)].
The diagonal collapses to a difference of regularized incomplete gammas,

    rho_N(z) = (1/pi) [P(L, |z|^2) - P(L+N, |z|^2)],

with P(0, .) taken identically equal to 1 so that L=0 reproduces the plain
Ginibre partial sum.  The kernel and its origin limit sum the series with
special.log_exp_series; the error is absolute, relative to
sqrt(K_N(z,z) K_N(w,w)), so entries far below that scale (Re(z w~) << 0)
carry no guaranteed relative digits.

Real L >= 0 is supported throughout; only the samplers need integer L.
"""

import math

import numpy as np
from scipy import special as _sp

from .special import lower_reg_gamma, upper_reg_gamma, erfc, log_gamma, log_exp_series
from .sampling import EnsembleParams

__all__ = [
    "THETA_AT_EDGE",
    "kernel_KN",
    "density",
    "correlations_Rn",
    "hole_probability",
    "density_ring_limit",
    "density_edge_profile",
    "origin_kernel",
    "bulk_edge_limit_kernels",
    "log_jpdf_complex",
    "integrate_radial",
    "default_rmax",
]

# Value assigned to the Heaviside step exactly on the ring edges.
THETA_AT_EDGE = 0.5


def _require_beta2(params):
    if params.beta != 2:
        raise ValueError("complex-ensemble formulas need beta=2 params")


def _as_scalar(val):
    """val as a Python scalar when it is 0-d, else val itself."""
    return np.asarray(val).item() if np.ndim(val) == 0 else val


def _reg_p(a, x):
    """P(a, x), with the a=0 limit taken identically as 1."""
    if a == 0:
        x = np.asarray(x, dtype=float)
        return np.ones_like(x) if x.ndim else 1.0
    return lower_reg_gamma(a, x)


def kernel_KN(z, w, params):
    """Finite-N correlation kernel K_N(z, w).  Vectorized over z, w.

    Hermitian in its arguments; the diagonal K_N(z, z) is real >= 0 and
    equals the mean density.
    """
    _require_beta2(params)
    L = params.L
    zeta = z * np.conj(w)
    out = log_exp_series(zeta, params.N, L)
    if L:
        with np.errstate(divide="ignore"):  # zeta = 0 gives the zero it should
            out += L * np.log(np.abs(zeta)) + 1j * L * np.angle(zeta)
    out -= 0.5 * (np.abs(z) ** 2 + np.abs(w) ** 2)
    np.exp(out, out=out)
    out /= np.pi
    return _as_scalar(out)


def density(z, params):
    """Mean eigenvalue density rho_N(z); depends on |z| only."""
    _require_beta2(params)
    N, L = params.N, params.L
    u = np.abs(np.asarray(z)) ** 2
    val = (_reg_p(L, u) - lower_reg_gamma(L + N, u)) / np.pi
    return _as_scalar(val)


def correlations_Rn(points, params):
    """n-point correlation R_n = det[K_N(z_k, z_l)] at the given points.

    points (..., n) may stack configurations on leading axes: one value each.
    kernel_KN carries the principal phase of (z w̄)^L, which for non-integer
    L is no diagonal gauge once arg z − arg w wraps past ±π; the determinant
    is taken of the kernel with that phase removed, |z w̄|^L Σ (z w̄)^j/Γ(j+L+1).
    """
    _require_beta2(params)
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if pts.shape[-1] > params.N:
        raise ValueError("no more correlation points than eigenvalues (n <= N)")
    z, w = pts[..., :, None], pts[..., None, :]
    K = kernel_KN(z, w, params) * np.exp(-1j * params.L * np.angle(z * np.conj(w)))
    return _as_scalar(np.linalg.det(K).real)


def hole_probability(s, params):
    """Probability A(s) that the disk |z| < s holds no eigenvalue.

    A(s) = prod_{j=1}^{N} Q(j+L, s^2); equals 1 at s=0 and decreases to 0.
    Broadcasts over s, with j on a trailing axis; scalar s gives a float.
    The Q table is built for blocks of radii and holds at most max(2^17, N)
    entries at once (1 MB for N <= 2^17), whatever the number of radii.
    """
    _require_beta2(params)
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)) or np.any(s < 0):
        raise ValueError("hole radius must be a finite real >= 0")
    a = np.arange(1, params.N + 1, dtype=float) + params.L
    x = (s * s).ravel()
    val = np.empty_like(x)
    step = max(1, 2**17 // params.N)
    for k in range(0, x.size, step):
        val[k:k + step] = np.prod(upper_reg_gamma(a, x[k:k + step, None]), axis=-1)
    return val.reshape(s.shape) if s.ndim else float(val[0])


def _heaviside(x):
    return np.where(x > 0, 1.0, np.where(x < 0, 0.0, THETA_AT_EDGE))


def _require_alpha(alpha):
    """The one input rule of the large-N limits: alpha = lim L/N is a finite real >= 0."""
    if not np.isfinite(alpha) or alpha < 0:
        raise ValueError("alpha must be a finite real >= 0")


def density_ring_limit(zeta, alpha):
    """Large-N density at rescaled point zeta = lambda/sqrt(N): the uniform ring.

    (1/pi) on sqrt(alpha) < |zeta| < sqrt(alpha+1), zero outside, with the
    Heaviside step taking THETA_AT_EDGE exactly on either edge.  At alpha=0
    the inner edge degenerates to the origin and the support is the full
    disk, so only the outer step remains.
    """
    _require_alpha(alpha)
    r = np.abs(np.asarray(zeta))
    val = _heaviside(np.sqrt(alpha + 1.0) - r)
    if alpha > 0:
        val = val - _heaviside(np.sqrt(alpha) - r)
    val = val / np.pi
    return _as_scalar(val)


def density_edge_profile(xi):
    """Density profile across either ring edge, in units of the local scale.

    (1/2pi) erfc(sqrt(2) xi); xi > 0 lies outside the support.
    """
    xi = np.asarray(xi, dtype=float)
    val = erfc(np.sqrt(2.0) * xi) / (2.0 * np.pi)
    return _as_scalar(val)


def origin_kernel(z, w, L):
    """Limiting kernel near the origin in the almost-square regime (fixed L >= 1).

    (1/pi) e^{-(|z|^2+|w|^2)/2} sum_{j>=0} (z w~)^{j+L} / Gamma(L+j+1),
    the pointwise large-N limit of the finite-N kernel, which it evaluates
    at N = 60 terms past L+j = 2|z w~|: each later term is below half the
    one before, so the dropped tail is below 2^-59 of the largest.  Equals
    (1/pi) gamma(L, z w~)/Gamma(L) times e^{-(|z|^2+|w|^2)/2 + z w~}; the
    Gaussian dressing is 1 on the diagonal but is required off it for the
    determinants of this kernel to reproduce the limiting correlations
    (without it the two-point function would not decay at large
    separation).
    """
    if L < 1:
        raise ValueError("origin regime requires fixed L >= 1")
    z, w = complex(z), complex(w)
    n = math.ceil(max(2.0 * abs(z * w.conjugate()) - L, 0.0)) + 60
    return kernel_KN(z, w, EnsembleParams(N=n, L=L, beta=2))


def bulk_edge_limit_kernels(points, u, regime, alpha):
    """Limiting n-point correlation around reference direction u.

    points are local (O(1)) complex offsets; the regime fixes both the
    admissible u and the kernel:

      bulk: sqrt(alpha) < |u| < sqrt(alpha+1), entries
            (1/pi) exp(-|z_j|^2/2 - |z_k|^2/2 + z_j z_k~);
      edge: |u| = 1, the bulk entry times (1/2) erfc((z_j u~ + z_k~ u)/sqrt(2)).

    Returns det of the kernel matrix.  Raises when u violates the regime.
    """
    _require_alpha(alpha)
    u = complex(u)
    pts = np.atleast_1d(np.asarray(points, dtype=complex))
    if regime == "bulk":
        lo, hi = np.sqrt(alpha), np.sqrt(alpha + 1.0)
        if not lo < abs(u) < hi:
            raise ValueError(
                f"|u|={abs(u):.6g} is outside the open bulk annulus ({lo:.6g}, {hi:.6g})")
    elif regime == "edge":
        if abs(abs(u) - 1.0) > 1e-9:
            raise ValueError(f"edge regime needs |u| = 1, got |u|={abs(u):.6g}")
    else:
        raise ValueError("regime must be 'bulk' or 'edge'")

    M = _bulk_matrix(pts)
    if regime == "edge":
        # complex-argument erfc: the offsets enter through z_j u~ + z_k~ u
        zj, zk = pts[:, None], pts[None, :]
        M = M * 0.5 * _sp.erfc((zj * np.conj(u) + np.conj(zk) * u) / np.sqrt(2.0))
    return float(np.linalg.det(M).real)


def _bulk_matrix(pts):
    """Bulk limit kernel matrix (1/pi) exp(-|z_j|^2/2 - |z_k|^2/2 + z_j z_k~)."""
    zj, zk = pts[:, None], pts[None, :]
    return np.exp(-0.5 * np.abs(zj) ** 2 - 0.5 * np.abs(zk) ** 2 + zj * np.conj(zk)) / np.pi


def _log_gap_sum(lam):
    """sum_{j<k} log|l_j - l_k| along the last axis of lam; -inf on a coincidence."""
    ii, jj = np.triu_indices(lam.shape[-1], k=1)
    return np.sum(np.log(np.abs(lam[..., ii] - lam[..., jj])), axis=-1)


def log_jpdf_complex(values, params):
    """log of the symmetrised joint eigenvalue density at the given N points.

    log of (1/(N! pi^N)) prod_j 1/Gamma(j+L) * prod_{j<k}|l_k - l_j|^2
    * prod_j |l_j|^{2L} e^{-sum |l_j|^2}.  Returns -inf on a zero of the
    density (coincident points, or a zero eigenvalue when L > 0).
    values (..., N) may stack configurations on leading axes: one value each.
    """
    _require_beta2(params)
    N, L = params.N, params.L
    lam = np.asarray(values, dtype=complex)
    if lam.shape[-1:] != (N,):
        raise ValueError(f"need exactly N={N} eigenvalues, got {lam.shape}")
    absl = np.abs(lam)
    j = np.arange(1, N + 1, dtype=float)
    out = (-log_gamma(float(N) + 1.0) - N * np.log(np.pi)
           - float(np.sum(log_gamma(j + L))))
    # a coincidence, or a zero eigenvalue at L > 0, gives -inf through the sums
    with np.errstate(divide="ignore"):
        out = out + 2.0 * _log_gap_sum(lam)
        if L > 0:
            out += 2.0 * L * np.sum(np.log(absl), axis=-1)
    out -= np.sum(absl ** 2, axis=-1)
    return _as_scalar(out)


def default_rmax(params):
    """Radial cutoff past which the density is Gaussian-small."""
    return float(np.sqrt(params.N + params.L) + 8.0)


def integrate_radial(f, rmax):
    """integral_0^rmax f(r) 2 pi r dr by composite Gauss-Legendre panels.

    f must be vectorized in r.  Unit-width panels keep the rule accurate
    however large the ring is; each carries 24 nodes.
    """
    if rmax <= 0:
        raise ValueError("rmax must be > 0")
    r, wts = _gl_panels(0.0, rmax, width=1.0, order=24)
    return float(np.sum(wts * 2.0 * np.pi * r * np.asarray(f(r), dtype=float)))


def _gl_nodes(edges, order):
    """Gauss-Legendre rule of `order` nodes on each panel between consecutive edges.

    Returns node and weight arrays of shape (panels, order); summing
    w * f(x) along the last axis integrates f over each panel.  Edges with
    leading axes (..., panels + 1) give one panel set per row, (..., panels, order).
    """
    base_x, base_w = np.polynomial.legendre.leggauss(order)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])[..., None]
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    return mid + half * base_x, half * base_w


def _gl_panels(lo, hi, width=0.5, order=24):
    """Gauss-Legendre nodes/weights tiled over [lo, hi] in fixed-width panels."""
    n = max(1, math.ceil((hi - lo) / width))
    x, w = _gl_nodes(np.linspace(lo, hi, n + 1), order)
    return x.ravel(), w.ravel()
