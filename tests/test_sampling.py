"""Parameter validation, quadratisation contract, samplers, matrix density."""
import math

import numpy as np
import pytest
from scipy.integrate import quad

from indg.harness import ks_two_sample
from indg.linalg import eigenvalues, sample_gaussian
from indg.sampling import (
    EnsembleParams,
    QuadratisationError,
    log_density,
    log_normalization,
    quadratise,
    sample_induced_polar,
    sample_induced_quadratise,
)


def test_params_validation():
    EnsembleParams(N=3, L=0.0, beta=1)
    EnsembleParams(N=1, L=2.5, beta=2)
    with pytest.raises(ValueError):
        EnsembleParams(N=0, L=0.0, beta=1)
    with pytest.raises(ValueError):
        EnsembleParams(N=3, L=-1.0, beta=1)
    with pytest.raises(ValueError):
        EnsembleParams(N=3, L=np.inf, beta=1)
    with pytest.raises(ValueError):
        EnsembleParams(N=3, L=0.0, beta=3)
    p = EnsembleParams(N=3, L=2.5, beta=2)
    assert not p.integer_L
    with pytest.raises(ValueError):
        p.require_integer_L()
    assert EnsembleParams(N=3, L=4.0, beta=2).require_integer_L() == 4


def test_quadratise_contract():
    rng = np.random.default_rng(23)
    for (m, n), complex_entries in (((7, 4), False), ((7, 4), True),
                                    ((12, 3), True), ((5, 4), False)):
        X = rng.standard_normal((m, n))
        if complex_entries:
            X = X + 1j * rng.standard_normal((m, n))
        G, W = quadratise(X)
        assert G.shape == (n, n) and W.shape == (m, m)
        # same singular values: G†G = X†X
        assert np.allclose(G.conj().T @ G, X.conj().T @ X, atol=1e-10 * np.abs(X).max() ** 2)
        # W unitary and W†X = [G; 0]
        assert np.allclose(W.conj().T @ W, np.eye(m), atol=1e-10)
        stacked = W.conj().T @ X
        assert np.allclose(stacked[:n], G, atol=1e-9)
        assert np.allclose(stacked[n:], 0.0, atol=1e-9)
        # W carries the structured block form: PSD diagonal blocks and
        # anti-Hermitian-coupled corners C / -C†
        A, B = W[:n, :n], W[n:, n:]
        assert np.allclose(A, A.conj().T, atol=1e-12)
        assert np.allclose(B, B.conj().T, atol=1e-12)
        assert min(np.linalg.eigvalsh(0.5 * (A + A.conj().T))) > -1e-12
        assert min(np.linalg.eigvalsh(0.5 * (B + B.conj().T))) > -1e-12
        assert np.allclose(W[n:, :n], -W[:n, n:].conj().T, atol=1e-10)
        if not complex_entries:
            assert not np.iscomplexobj(G) and not np.iscomplexobj(W)


def test_quadratise_zero_bottom_block_is_identity():
    # Z = 0: nothing to fold up, so G = Y and W = identity
    rng = np.random.default_rng(31)
    Y = rng.standard_normal((4, 4))
    X = np.vstack([Y, np.zeros((3, 4))])
    G, W = quadratise(X)
    assert np.allclose(G, Y, atol=1e-12)
    assert np.allclose(W, np.eye(7), atol=1e-12)


def test_quadratise_two_by_one():
    # stacking [1; 1] folds the second entry into sqrt(2)
    G, W = quadratise(np.array([[1.0], [1.0]]))
    assert np.allclose(G, [[math.sqrt(2.0)]])
    assert np.allclose(W.T @ W, np.eye(2), atol=1e-14)


def test_quadratise_ill_conditioned_top_block():
    rng = np.random.default_rng(29)
    Z = rng.standard_normal((3, 3))
    # top block with condition ~1e11, within the hard limit: the reduction
    # identities must still hold to near machine precision
    Y = np.diag([1.0, 1.0, 1e-8]) @ rng.standard_normal((3, 3))
    X = np.vstack([Y, Z])
    assert np.linalg.cond(Y) > 1e10
    G, W = quadratise(X)
    scale = np.abs(X).max() ** 2
    assert np.allclose(G.conj().T @ G, X.conj().T @ X, atol=1e-9 * scale)
    assert np.allclose(W.conj().T @ W, np.eye(6), atol=1e-12)
    stacked = W.T @ X
    assert np.allclose(stacked[:3], G, atol=1e-9)
    assert np.allclose(stacked[3:], 0.0, atol=1e-9)
    # condition past the hard limit raises
    Y_bad = np.diag([1.0, 1.0, 1e-14]) @ rng.standard_normal((3, 3))
    with pytest.raises(QuadratisationError):
        quadratise(np.vstack([Y_bad, Z]))


def test_quadratise_moderately_ill_conditioned_gaussian_draw():
    # regression: a (160, 128) Gaussian draw whose top block lands at
    # condition ~3e6.  Inverse-based evaluation orders lose the small
    # singular directions here (the completion corner 1 - C†C picked up a
    # -1e-4 eigenvalue); the polar-factor construction must deliver the
    # full-precision contract
    ss = np.random.SeedSequence(105).spawn(206)[205]
    X = sample_gaussian(160, 128, 1, np.random.default_rng(ss))
    assert np.linalg.cond(X[:128]) > 1e6
    G, W = quadratise(X)
    scale = np.abs(X.T @ X).max()
    assert np.allclose(G.T @ G, X.T @ X, atol=1e-10 * scale)
    assert np.allclose(W.T @ W, np.eye(160), atol=1e-12)
    stacked = W.T @ X
    assert np.allclose(stacked[:128], G, atol=1e-9)
    assert np.allclose(stacked[128:], 0.0, atol=1e-9)


def test_quadratise_shape_validation():
    with pytest.raises(ValueError):
        quadratise(np.zeros((3, 3)))  # square is not standing
    with pytest.raises(ValueError):
        quadratise(np.zeros((2, 5)))  # lying
    with pytest.raises(ValueError):
        quadratise(np.zeros(4))


def test_sampler_l0_is_plain_gaussian():
    params = EnsembleParams(N=6, L=0, beta=2)
    G1 = sample_induced_quadratise(params, np.random.default_rng(31))
    G2 = sample_gaussian(6, 6, 2, np.random.default_rng(31))
    assert np.array_equal(G1, G2)


def test_samplers_reproducible_and_typed():
    for beta in (1, 2):
        params = EnsembleParams(N=5, L=3, beta=beta)
        a = sample_induced_quadratise(params, np.random.default_rng(37))
        b = sample_induced_quadratise(params, np.random.default_rng(37))
        assert np.array_equal(a, b)
        c = sample_induced_quadratise(params, np.random.default_rng(38))
        assert not np.array_equal(a, c)
        assert np.iscomplexobj(a) == (beta == 2)
        p = sample_induced_polar(params, np.random.default_rng(37))
        assert p.shape == (5, 5)
        assert np.iscomplexobj(p) == (beta == 2)


def test_polar_and_quadratise_routes_agree_in_law():
    # pooled sorted eigenvalue moduli from both routes, KS not rejected
    n_samples = 300
    for beta in (1, 2):
        params = EnsembleParams(N=30, L=6, beta=beta)
        rng = np.random.default_rng(41 + beta)
        m_polar, m_quad = [], []
        for _ in range(n_samples):
            m_polar.append(np.abs(eigenvalues(sample_induced_polar(params, rng), beta)))
            m_quad.append(np.abs(eigenvalues(sample_induced_quadratise(params, rng), beta)))
        t, p = ks_two_sample(np.sort(np.concatenate(m_polar)),
                             np.sort(np.concatenate(m_quad)))
        assert p > 1e-3, (beta, t, p)


def test_gaussian_entries_vs_normal_cdf():
    # one-sample KS of beta=1 entries against the standard normal CDF
    rng = np.random.default_rng(43)
    x = np.sort(sample_gaussian(50, 40, 1, rng).ravel())
    n = x.size
    from scipy.special import ndtr
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    cdf = ndtr(x)
    d = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(emp_lo - cdf)))
    assert d < 1.95 / math.sqrt(n)  # alpha = 0.001 Kolmogorov threshold


def test_singular_value_law_wide_aspect():
    # eigenvalues of X†X/M for M = 2N Gaussian follow the ratio-1/2
    # Marchenko-Pastur law; compare empirical and integrated CDFs
    lam = 0.5
    a, b = (1 - math.sqrt(lam)) ** 2, (1 + math.sqrt(lam)) ** 2
    rng = np.random.default_rng(47)
    N, M = 300, 600
    X = sample_gaussian(M, N, 2, rng)
    ev = np.sort(np.linalg.eigvalsh(X.conj().T @ X).real) / M

    def mp_pdf(x):
        return np.sqrt(np.maximum((b - x) * (x - a), 0.0)) / (2 * np.pi * lam * x)

    grid = np.linspace(a, b, 400)
    cdf = np.array([quad(mp_pdf, a, g, limit=200)[0] for g in grid[1:]])
    emp = np.searchsorted(ev, grid[1:], side="right") / N
    assert np.max(np.abs(emp - cdf)) < 0.05


def test_normalization_integrates_to_one_at_n1():
    # closed quadrature of the N=1 matrix density over its domain
    for beta, L in ((1, 0.0), (1, 2.0), (1, 3.5), (2, 0.0), (2, 2.0), (2, 3.5)):
        params = EnsembleParams(N=1, L=L, beta=beta)
        if beta == 1:
            val, _ = quad(lambda g: math.exp(log_density(np.array([[g]]), params)),
                          -14.0, 14.0, limit=400)
        else:
            val, _ = quad(lambda r: 2 * math.pi * r
                          * math.exp(log_density(np.array([[r + 0j]]), params)),
                          0.0, 14.0, limit=400)
        assert np.isclose(val, 1.0, rtol=1e-9), (beta, L, val)


def test_log_density_formula_and_invariance():
    rng = np.random.default_rng(53)
    params = EnsembleParams(N=4, L=2.0, beta=2)
    G = sample_gaussian(4, 4, 2, rng)
    want = (log_normalization(params)
            + params.beta * params.L * np.linalg.slogdet(G)[1]
            - 0.5 * params.beta * np.sum(np.abs(G) ** 2))
    assert np.isclose(log_density(G, params), want, rtol=1e-12)
    # unitary invariance: G -> UG leaves the density unchanged
    from indg.linalg import sample_haar_unitary
    U = sample_haar_unitary(4, 2, rng)
    assert np.isclose(log_density(U @ G, params), log_density(G, params), atol=1e-8)
    params1 = EnsembleParams(N=4, L=2.0, beta=1)
    Gr = sample_gaussian(4, 4, 1, rng)
    O = sample_haar_unitary(4, 1, rng)
    assert np.isclose(log_density(O @ Gr, params1), log_density(Gr, params1), atol=1e-8)


@pytest.mark.filterwarnings("error")
def test_log_density_singular_matrix():
    params = EnsembleParams(N=2, L=1.0, beta=2)
    assert log_density(np.zeros((2, 2)), params) == -np.inf
    params0 = EnsembleParams(N=2, L=0.0, beta=2)
    assert np.isfinite(log_density(np.zeros((2, 2)), params0))
    with pytest.raises(ValueError):
        log_density(np.zeros((3, 3)), params)
    with pytest.raises(ValueError):
        log_density(np.full((2, 2), np.nan), params)


def test_quadratise_takes_no_separate_condition_number(monkeypatch):
    # the guard reads cond(Q₁) off the polar SVD; np.linalg.cond is never called
    def no_cond(*args, **kwargs):
        raise AssertionError("np.linalg.cond called")

    monkeypatch.setattr(np.linalg, "cond", no_cond)
    X = np.random.default_rng(41).standard_normal((9, 5))
    G, W = quadratise(X)
    assert np.allclose(W.T @ W, np.eye(9), atol=1e-12)
    stacked = W.T @ X
    assert np.allclose(stacked[:5], G, atol=1e-12)
    assert np.allclose(stacked[5:], 0.0, atol=1e-12)
    assert np.allclose(G.T @ G, X.T @ X, atol=1e-12)


def test_quadratise_guard_ignores_column_scaling():
    # a tiny column makes cond(Y) ~1e13, but range(X) meets the top block at
    # well-separated angles: the reduction is exact and must be accepted
    X = np.random.default_rng(29).standard_normal((6, 3)) @ np.diag([1.0, 1.0, 1e-13])
    G, W = quadratise(X)
    assert np.allclose(W.T @ W, np.eye(6), rtol=0.0, atol=1e-12)
    stacked = W.T @ X
    assert np.allclose(stacked[:3], G, rtol=0.0, atol=1e-12)
    assert np.allclose(stacked[3:], 0.0, rtol=0.0, atol=1e-12)
    assert np.allclose(G.T @ G, X.T @ X, rtol=0.0, atol=1e-12)


def test_quadratise_rejects_singular_and_non_finite_input():
    # exactly singular top block: range(X) contains a bottom-block direction
    X = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(QuadratisationError):
        quadratise(X)
    for bad in (np.nan, np.inf):
        X = np.random.default_rng(3).standard_normal((5, 3)) + 0j
        X[1, 2] = bad
        with pytest.raises(ValueError, match="finite") as exc_info:
            quadratise(X)
        assert not isinstance(exc_info.value, QuadratisationError)


def test_sampler_retries_a_bounded_number_of_fresh_draws(monkeypatch):
    import inspect
    from indg import sampling

    assert "max_retries" not in inspect.signature(sample_induced_quadratise).parameters
    calls = []

    def always_singular(X):
        calls.append(X)
        raise QuadratisationError(1e15)

    monkeypatch.setattr(sampling, "quadratise", always_singular)
    with pytest.raises(QuadratisationError):
        sample_induced_quadratise(EnsembleParams(N=4, L=2, beta=2), np.random.default_rng(5))
    assert len(calls) == sampling._MAX_RETRIES == 3
    assert not np.array_equal(calls[0], calls[1])  # each retry is a fresh draw
