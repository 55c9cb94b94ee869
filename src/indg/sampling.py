"""Induced Ginibre samplers and the quadratisation transform.

An (N+L) x N Gaussian matrix X = [Y; Z] is reduced by a structured unitary W
to W†X = [G; 0]; the square matrix G = (1 + Y^{-†} Z†Z Y^{-1})^{1/2} Y keeps
the singular values of X and its distribution is the induced Ginibre density

    p(G) ∝ det(G†G)^{βL/2} exp(−(β/2) Tr G†G).

The polar route U·(X†X)^{1/2} with Haar U draws from the same distribution.

quadratised_draws is the one quadratised sampler, and sample_induced_quadratise
its one-stream case.  Only quadratise builds W; no sampler calls it.
square_factors is quadratise without W for a stack of fixed matrices (the
channel factors): it raises QuadratisationError itself, naming the first ill
row's cond(Q₁), and quadratised_draws redraws an ill row instead.
"""

from dataclasses import dataclass

import numpy as np

from .special import log_gamma
from .linalg import psd_sqrt, sample_gaussian, sample_haar_unitary

__all__ = [
    "EnsembleParams",
    "QuadratisationError",
    "quadratise",
    "square_factors",
    "sample_induced_polar",
    "quadratised_draws",
    "sample_induced_quadratise",
    "log_density",
    "log_normalization",
]

_COND_LIMIT = 1e12     # beyond this cond(Q₁), the top block is treated as singular
_MAX_RETRIES = 3       # draws per quadratised sample before giving up


class QuadratisationError(ValueError):
    """Top block too ill-conditioned: cond(Q₁) = σ_max/σ_min, from the polar SVD, past 1e12."""

    def __init__(self, cond):
        self.cond = cond
        super().__init__(f"top block condition number {cond:.3e} exceeds {_COND_LIMIT:.0e}")


@dataclass(frozen=True)
class EnsembleParams:
    """One induced Ginibre ensemble: dimension N, rectangularity L, beta 1|2.

    L may be any real >= 0 for the analytic formulas; the Gaussian-based
    samplers need an integer L (they draw an (N+L) x N matrix).
    """

    N: int
    L: float
    beta: int

    def __post_init__(self):
        try:
            n = int(self.N)
        except (OverflowError, ValueError):  # inf, nan
            n = 0
        if n != self.N or n < 1:
            raise ValueError("N must be a positive integer")
        object.__setattr__(self, "N", n)
        if not np.isfinite(self.L) or self.L < 0:
            raise ValueError("L must be a finite real >= 0")
        if self.beta not in (1, 2):
            raise ValueError("beta must be 1 or 2")

    @property
    def integer_L(self):
        return float(self.L).is_integer()

    def require_integer_L(self):
        if not self.integer_L:
            raise ValueError(
                f"this sampler draws an (N+L) x N Gaussian and needs integer L, got {self.L}")
        return int(self.L)


def _polar_unitary(S):
    """Unitary factor of the polar decomposition S = (SS†)^{1/2} · U, and σ(S)."""
    u, sv, vh = np.linalg.svd(S)
    return u @ vh, sv


def _reduce(X):
    """Complete QR of a standing matrix, or of a stack (..., M, N) of them.

    Returns (G, Q, O₁, cond): Q the complete Q factor, O₁ the polar factor of
    its top block Q₁, G = O₁R and cond = cond(Q₁) = σ_max/σ_min, inf when Q₁
    is singular.  Each layer is one numpy call on the whole stack, and each
    matrix's result is bit-identical to the call on that matrix alone.
    """
    N = X.shape[-1]
    Q, RR = np.linalg.qr(X, mode="complete")
    O1, sv = _polar_unitary(Q[..., :N, :N])
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = sv[..., 0] / sv[..., -1]
    return O1 @ RR[..., :N, :], Q, O1, cond


def square_factors(X):
    """quadratise's G for every matrix of a stack X of shape (n, M, N), M > N.

    Returns G of shape (n, N, N), row j bit-identical to quadratise(X[j])[0],
    from one _reduce pass; W is not built.  Where quadratise raises
    QuadratisationError on a row, so does this, naming the first such row's
    cond(Q₁).
    """
    G, _, _, cond = _reduce(X)
    ill = np.flatnonzero(~(cond <= _COND_LIMIT))
    if ill.size:
        raise QuadratisationError(cond[ill[0]])
    return G


def quadratise(X):
    """Reduce a standing rectangular matrix to square form.

    Returns (G, W) with W unitary (orthogonal for real X), W†X = [G; 0] and
    G†G = X†X, where G = (1 + Y^{-†}Z†Z Y^{-1})^{1/2} Y and W is the unique
    unitary with PSD diagonal blocks and off-diagonal corners C, -C†.

    Writing X = QR (thin QR, Q isometric) the square-root prefactor collapses
    to (Q₁Q₁†)^{-1/2} with Q₁ the top N x N block of Q, so G is the unitary
    polar factor of Q₁ times R, and both block columns of W are polar factors
    of orthonormal data.  Every step is backward stable, so the reduction
    identities hold to machine precision at any allowed conditioning — the
    explicit inverse-based orders lose the small singular directions once
    cond(Y) grows past ~1e6.
    QuadratisationError is raised when cond(Q₁) = σ_max/σ_min, read off the
    polar SVD, exceeds 1e12: Y = Q₁R with R invertible, so Y is singular
    exactly when Q₁ is, whatever the scaling of X's columns.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError("quadratise needs a 2-D matrix")
    M, N = X.shape
    if M <= N:
        raise ValueError(f"quadratise needs a standing matrix (rows > cols), got {M}x{N}")
    if not np.all(np.isfinite(X)):
        raise ValueError("quadratise needs finite matrix entries")

    G, Q, O1, cond = _reduce(X)
    if not cond <= _COND_LIMIT:
        raise QuadratisationError(cond)
    # first block column: Q̃·(polar factor of Q₁)†, whose top block is PSD
    W1 = Q[:, :N] @ O1.conj().T
    # orthogonal complement, rotated so its bottom block is PSD
    Qp = Q[:, N:]
    W2 = Qp @ _polar_unitary(Qp[N:, :])[0].conj().T
    return G, np.hstack([W1, W2])


def sample_induced_polar(params: EnsembleParams, rng):
    """Draw one matrix as U · (X†X)^{1/2} with Haar U and Gaussian X."""
    L = params.require_integer_L()
    X = sample_gaussian(params.N + L, params.N, params.beta, rng)
    U = sample_haar_unitary(params.N, params.beta, rng)
    return U @ psd_sqrt(X.conj().T @ X)


def quadratised_draws(params: EnsembleParams, rngs):
    """One quadratised draw from each stream of rngs: a (len(rngs), N, N) stack.

    The (N+L) x N Gaussians, one per stream, are reduced as one stack to
    square_factors' G, and W is not built; at L=0 they are returned as drawn.
    A row whose top block is ill-conditioned — a probability-zero event — is
    redrawn from its own stream, _MAX_RETRIES draws in all with the stacked
    one first; after the last, QuadratisationError names that draw's cond(Q₁).
    Row j is bit-identical to the call on rngs[j] alone.
    """
    N, L, beta = params.N, params.require_integer_L(), params.beta
    draws = np.stack([sample_gaussian(N + L, N, beta, rng) for rng in rngs])
    if L == 0:
        return draws
    draws, _, _, cond = _reduce(draws)
    for j in np.flatnonzero(~(cond <= _COND_LIMIT)):
        for attempt in range(1, _MAX_RETRIES):
            draws[j], _, _, cond[j] = _reduce(sample_gaussian(N + L, N, beta, rngs[j]))
            if cond[j] <= _COND_LIMIT:
                break
        else:
            raise QuadratisationError(cond[j])
    return draws


def sample_induced_quadratise(params: EnsembleParams, rng):
    """One matrix quadratised from an (N+L) x N Gaussian, no W: quadratised_draws on [rng]."""
    return quadratised_draws(params, [rng])[0]


def log_normalization(params: EnsembleParams):
    """log of the density's normalization constant.

    log C = −(β/2)N² log π + ((N² + NL)/2) log(β/2)
            + Σ_{j=1}^N [log Γ((β/2) j) − log Γ((β/2)(j+L))].
    """
    N, L, beta = params.N, params.L, params.beta
    b2 = beta / 2.0
    j = np.arange(1, N + 1, dtype=float)
    return (-b2 * N * N * np.log(np.pi)
            + 0.5 * (N * N + N * L) * np.log(b2)
            + float(np.sum(log_gamma(b2 * j) - log_gamma(b2 * (j + L)))))


def log_density(G, params: EnsembleParams):
    """log of the matrix density at G, normalization constant included.

    −inf for a singular G when L > 0 (the determinant factor vanishes).
    """
    G = np.asarray(G)
    N = params.N
    if G.shape != (N, N):
        raise ValueError(f"expected a {N}x{N} matrix, got {G.shape}")
    if not np.all(np.isfinite(G)):
        raise ValueError("matrix entries must be finite")
    beta, L = params.beta, params.L
    if beta == 2:
        G = G.astype(complex)
    _, logabsdet = np.linalg.slogdet(G)
    trace_term = -0.5 * beta * float(np.sum(np.abs(G) ** 2))
    # det(G†G) = |det G|²
    det_term = beta * L * float(logabsdet) if L > 0 else 0.0
    return log_normalization(params) + det_term + trace_term
