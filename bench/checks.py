"""Correctness checks that decide which operations failed.

An operation fails if it raises, returns a non-finite value, or fails one of
the checks below.  The analytic oracles are independent of the code paths
they check: a closed form evaluated with mpmath, or a second statistic that
must agree with the first at a coincident point.
"""

import math

import mpmath
import numpy as np

from indg import complex_ensemble as cx
from indg import harness
from indg import real_ensemble as re1

# Criterion 5's documented known red: it compares the Monte Carlo mean with
# an asymptotic approximation, not with program output, so it is reported
# under its own name and kept out of the failure count.
KNOWN_RED = ("real-count", "mean_vs_leading_order")

ORACLE_RTOL = 1e-9


def is_finite(value):
    """True when every number inside value is finite."""
    if isinstance(value, (list, tuple)):
        return all(is_finite(v) for v in value)
    if isinstance(value, re1.RealKernelEntries):
        return all(np.isfinite(complex(v)) for v in (value.DS, value.S, value.IS, value.eps))
    if isinstance(value, harness.ExperimentReport):
        return math.isfinite(value.empirical) and math.isfinite(value.analytic)
    return bool(np.all(np.isfinite(np.asarray(value))))


def mc_alarms(reports):
    """Statistics whose own pass/fail check failed, known red excluded."""
    return [f"{r.experiment}.{r.statistic}" for r in reports
            if (r.experiment, r.statistic) != KNOWN_RED and not r.passed]


def known_red(reports):
    """(passed, total) over the known-red clause in these reports."""
    red = [r for r in reports if (r.experiment, r.statistic) == KNOWN_RED]
    return sum(r.passed for r in red), len(red)


def determinism_probe(experiment, seed, n):
    """Report bytes at workers=1 must equal the bytes at the default count."""
    one = harness.report_payload_bytes(harness.run_mc(experiment, seed, n, workers=1))
    default = harness.report_payload_bytes(harness.run_mc(experiment, seed, n))
    return one == default


def eks_real_count(N):
    """Edelman-Kostlan-Shub mean real count of an N x N real Ginibre matrix:
    1/2 + sqrt(2) 2F1(1, -1/2; N; 1/2) / B(N, 1/2)."""
    with mpmath.workdps(30):
        val = mpmath.mpf(1) / 2 + mpmath.sqrt(2) * mpmath.hyp2f1(1, -0.5, N, 0.5) / mpmath.beta(N, 0.5)
    return float(val)


def _close(a, b, rtol=ORACLE_RTOL, atol=1e-14):
    a, b = np.asarray(a), np.asarray(b)
    return bool(np.all(np.abs(a - b) <= rtol * np.abs(b) + atol))


def oracle_eks(params):
    return _close(re1.expected_real_count(params), eks_real_count(params.N))


def oracle_pfaffian_one_point(xs, params):
    one = [re1.correlations_pfaffian([x], [], params) for x in xs]
    return _close(one, re1.density_real(np.asarray(xs), params))


def oracle_kernel_diagonal(zs, params):
    zs = np.asarray(zs)
    diag = cx.kernel_KN(zs, zs, params)
    dens = cx.density(zs, params)
    rn = [cx.correlations_Rn([z], params) for z in zs]
    return _close(diag, dens) and _close(rn, dens)


def hole_curve_valid(values):
    """hole probability outside [0, 1] or increasing along the curve"""
    values = np.asarray(values)
    return bool(np.all((values >= 0.0) & (values <= 1.0)) and np.all(np.diff(values) <= 0.0))


def analytic_oracles(inputs):
    """(name, thunk) pairs; each thunk returns True when the check holds."""
    square = {params.N: params for params, _ in inputs.real_density if params.L == 0}
    out = [(f"eks_real_count_N{n}", lambda p=p: oracle_eks(p)) for n, p in square.items()]
    reals, _, p128 = inputs.corr["n128"]
    out.append(("pfaffian_one_point_vs_density_real",
                lambda: oracle_pfaffian_one_point(reals[:3], p128)))
    zs, p2 = inputs.density_grid
    out.append(("kernel_diagonal_vs_density_vs_R1", lambda: oracle_kernel_diagonal(zs[:5], p2)))
    return out

