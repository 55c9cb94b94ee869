"""Incomplete gamma / erfc wrappers against quadrature and partial-sum oracles."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import indg
from indg.special import erfc, erfcx, log_gamma, lower_reg_gamma, upper_reg_gamma


def lower_reg_gamma_quadrature(a, x):
    """P(a, x) by adaptive quadrature of the defining integral.

    The t^{a-1} factor goes in as an algebraic endpoint weight (QAWS) so the
    a < 1 singularity is integrated exactly and the tolerance is actually met.
    """
    val, _ = quad(lambda t: math.exp(-t), 0.0, x, weight="alg",
                  wvar=(a - 1.0, 0.0), epsabs=1e-15, epsrel=1e-13, limit=400)
    return val / math.gamma(a)


def upper_reg_gamma_partial_sum(a, x):
    """Q(a, x) = e^{-x} sum_{k<a} x^k/k! for integer a (exact finite sum)."""
    assert a == int(a) and a >= 1
    terms = [x ** k / math.factorial(k) for k in range(int(a))]
    return math.exp(-x) * math.fsum(terms)


def test_lower_reg_gamma_vs_quadrature():
    for a in (0.5, 1.0, 2.5, 7.0, 19.5):
        for x in (0.1, 0.9, 3.0, 12.0, 40.0):
            want = lower_reg_gamma_quadrature(a, x)
            assert np.isclose(lower_reg_gamma(a, x), want, rtol=1e-11, atol=1e-13)


def test_upper_reg_gamma_vs_partial_sum():
    for a in (1, 2, 5, 13, 40):
        for x in (0.2, 1.7, 8.0, 35.0):
            want = upper_reg_gamma_partial_sum(a, x)
            assert np.isclose(upper_reg_gamma(a, x), want, rtol=1e-12, atol=1e-14)


@settings(max_examples=200, deadline=None)
@given(a=st.floats(min_value=0.01, max_value=1e4),
       x=st.floats(min_value=0.0, max_value=1e4))
def test_p_plus_q_is_one(a, x):
    assert abs(lower_reg_gamma(a, x) + upper_reg_gamma(a, x) - 1.0) < 1e-13


@settings(max_examples=150, deadline=None)
@given(a=st.floats(min_value=0.3, max_value=40.0),
       x=st.floats(min_value=1e-6, max_value=60.0))
def test_lower_reg_gamma_recurrence(a, x):
    # P(a+1, x) = P(a, x) - x^a e^{-x} / Gamma(a+1)
    step = math.exp(a * math.log(x) - x - float(log_gamma(a + 1.0)))
    lhs = lower_reg_gamma(a + 1.0, x)
    rhs = lower_reg_gamma(a, x) - step
    assert abs(lhs - rhs) < 1e-10


def test_reg_gamma_limits_and_monotonicity():
    assert lower_reg_gamma(3.2, 0.0) == 0.0
    assert upper_reg_gamma(3.2, 0.0) == 1.0
    x = np.linspace(0.0, 50.0, 200)
    p = lower_reg_gamma(4.0, x)
    assert np.all(np.diff(p) >= 0)
    assert p[-1] > 1.0 - 1e-12


def test_erfc_vs_incomplete_gamma():
    # erfc(x) = Q(1/2, x^2) for x >= 0, and erfc(-x) = 2 - erfc(x)
    for x in (0.0, 0.3, 1.1, 2.7):
        assert np.isclose(erfc(x), upper_reg_gamma(0.5, x * x) if x > 0 else 1.0,
                          rtol=1e-13, atol=1e-15)
        assert np.isclose(erfc(-x), 2.0 - erfc(x), rtol=0, atol=1e-15)


def test_erfcx_consistency_and_asymptote():
    for x in (0.0, 0.5, 2.0, 5.0):
        assert np.isclose(erfcx(x), math.exp(x * x) * erfc(x), rtol=1e-12)
    # erfcx(x) ~ 1/(x sqrt(pi)) for large x; naive e^{x^2} erfc(x) would overflow
    for x in (50.0, 500.0):
        assert np.isclose(erfcx(x) * x * math.sqrt(math.pi), 1.0, rtol=1e-3)


def test_log_gamma_vs_stdlib():
    for a in (0.5, 1.0, 6.0, 123.4, 5e4):
        assert np.isclose(log_gamma(a), math.lgamma(a), rtol=1e-14)


def test_vectorization():
    a = np.array([1.0, 2.0, 3.5])
    x = np.array([0.5, 1.5, 9.0])
    out = lower_reg_gamma(a, x)
    assert out.shape == (3,)
    for i in range(3):
        assert np.isclose(out[i], lower_reg_gamma(a[i], x[i]), rtol=1e-14)


def test_domain_errors():
    with pytest.raises(ValueError):
        lower_reg_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        lower_reg_gamma(-1.0, 1.0)
    with pytest.raises(ValueError):
        upper_reg_gamma(2.0, -0.5)
    with pytest.raises(ValueError):
        lower_reg_gamma(np.inf, 1.0)
    with pytest.raises(ValueError):
        erfc(np.nan)
    with pytest.raises(ValueError):
        erfcx(np.inf)
    with pytest.raises(ValueError):
        log_gamma(0.0)


# Analytic values, as one hex string, from every path that reaches scipy.special:
# the gamma wrappers (density, kernel_entries, hole_probability) and the loader's
# direct callers (complex and real erf/erfc in the limit forms).
_VALUES = """
import numpy as np
from indg import complex_ensemble as cx, real_ensemble as re1
from indg.sampling import EnsembleParams

def values():
    p2, p1 = EnsembleParams(N=12, L=2.5, beta=2), EnsembleParams(N=8, L=1.5, beta=1)
    e = re1.kernel_entries(np.array([0.7 + 0.9j, 1.2]), np.array([[1.2], [0.3 + 0.2j]]), p1)
    le = re1.limit_kernel_entries(0.2 + 0.5j, 0.4 + 0.1j, u=1.0)
    out = [cx.density(np.linspace(0.0, 5.0, 7), p2), e.DS, e.S, e.IS, e.eps,
           cx.hole_probability(np.linspace(0.0, 3.0, 5), p2), le.DS, le.S, le.IS,
           cx.bulk_edge_limit_kernels([0.1 + 0.2j, -0.3j], 1.0, "edge", 1.0),
           re1.density_real_edge_profile(np.linspace(-2.0, 2.0, 5))]
    return "".join(np.asarray(v).tobytes().hex() for v in out)
"""


def test_fresh_interpreter_gives_the_same_bits():
    # in a fresh interpreter the first analytic call imports scipy.special;
    # its values must not depend on which call did that
    code = _VALUES + "import sys\nprint('scipy.special' in sys.modules, values())\n"
    src = os.path.dirname(os.path.dirname(indg.__file__))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert res.returncode == 0, res.stderr
    loaded, fresh = res.stdout.split()
    assert loaded == "False"
    scope = {}
    exec(_VALUES, scope)
    assert fresh == scope["values"]()
