"""Inputs and call lists of the three benchmark workloads.

Every input is derived from the workload seed, and the program receives only
the generated inputs: Monte Carlo master seeds for `run_mc`, and point sets
for the analytic calls.  Point sets are fixed grids with a small seeded
jitter, so a new seed gives new inputs while the amount of special-function
work per call (which depends on where the points sit) stays comparable.

A workload is a *cycle*: a fixed list of operations that the benchmark runs
repeatedly until its time is spent.  An operation is one `run_mc` call or one
analytic call.
"""

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from indg import complex_ensemble as cx
from indg import harness
from indg import real_ensemble as re1
from indg.sampling import EnsembleParams

import checks

WORKLOADS = ("mc-large", "mc-small", "analytic")

# (experiment, n_samples) per cycle, and the matrices one sample draws,
# reduces, diagonalises and bins (real-count runs L=32 and L=0; channel-ring
# runs three geometries).
MC_CYCLE = {
    "mc-large": (("real-count", 20), ("radial-density", 32), ("channel-ring", 4)),
    "mc-small": (("hole-prob", 2000),),
}
MATRICES_PER_SAMPLE = {"real-count": 2, "radial-density": 1, "channel-ring": 3,
                       "hole-prob": 1}
# one short call, run at workers=1 and at the default worker count
DETERMINISM_PROBE = {"mc-large": ("real-count", 4), "mc-small": ("hole-prob", 200)}

# Sample counts of the warm-up calls and of the self-test's tiny scale; large
# enough that real-count's t-based check is not dominated by its small-n tail.
SMALL_N = {"real-count": 8, "radial-density": 8, "channel-ring": 2, "hole-prob": 200}
CORR_REPEATS = 3        # N=128 correlations_pfaffian calls per analytic cycle


def derive_seed(seed, *path):
    """A 32-bit seed drawn from the workload seed and a path of small ints."""
    return int(np.random.SeedSequence([int(seed), *path]).generate_state(1)[0])


def _jittered(lo, hi, n, rng, frac=0.25):
    """n points evenly spread over [lo, hi], each moved by up to frac of a step."""
    grid = np.linspace(lo, hi, n)
    step = (hi - lo) / max(n - 1, 1)
    return grid + rng.uniform(-frac, frac, n) * step


def _upper_points(n, radius, rng):
    """n strictly upper-half-plane points inside the given radius."""
    x = _jittered(-0.8 * radius, 0.8 * radius, n, rng)
    y = np.clip(_jittered(0.3, min(4.0, 0.3 * radius), n, rng), 0.1, None)[::-1]
    return x + 1j * y


def _disk_points(n, radius, rng):
    """n points on a jittered polar grid covering the disk of this radius."""
    r = _jittered(0.05 * radius, 1.1 * radius, n, rng)
    theta = _jittered(0.0, 2.0 * np.pi, n, rng, frac=0.5)
    return r * np.exp(1j * rng.permutation(theta))


@dataclass
class Inputs:
    workload: str
    seed: int
    tiny: bool
    mc_calls: tuple = ()                     # (experiment, n_samples) per cycle
    probe: tuple = ()                        # determinism probe (experiment, n)
    corr: dict = field(default_factory=dict)  # name -> (reals, complexes, params)
    kernel_grid: tuple = ()                   # (points, params)
    real_density: list = field(default_factory=list)  # (params, x grid)
    kn_grid: tuple = ()                       # (z column, w row, params)
    rn_sets: tuple = ()                       # (list of point arrays, params)
    density_grid: tuple = ()                  # (points, params)
    hole_curve: tuple = ()                    # (s grid, params)

    def mc_seed(self, cycle, call):
        """Master seed of one run_mc call in one cycle."""
        return derive_seed(self.seed, 1, cycle, call)

    def digest(self):
        """Short fingerprint of the generated inputs."""
        h = hashlib.sha256(repr((self.workload, self.tiny, self.mc_calls, self.probe,
                                 self.mc_seed(0, 0))).encode())
        for arr in _arrays(self):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


def _arrays(inputs):
    for reals, complexes, _ in inputs.corr.values():
        yield reals
        yield complexes
    if inputs.kernel_grid:
        yield inputs.kernel_grid[0]
    for _, x in inputs.real_density:
        yield x
    if inputs.kn_grid:
        yield inputs.kn_grid[0]
        yield inputs.kn_grid[1]
    if inputs.rn_sets:
        yield from inputs.rn_sets[0]
    if inputs.density_grid:
        yield inputs.density_grid[0]
    if inputs.hole_curve:
        yield inputs.hole_curve[0]


def corr128_inputs(seed, tiny):
    """The 10 real + 10 complex correlation point set at N=128, L=32."""
    rng = np.random.default_rng(derive_seed(seed, 2))
    params = EnsembleParams(N=16 if tiny else 128, L=32, beta=1)
    m = 2 if tiny else 10
    radius = math.sqrt(params.N + params.L)
    return _jittered(-0.8 * radius, 0.8 * radius, m, rng), _upper_points(m, radius, rng), params


def build_inputs(workload, seed, tiny=False):
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    inputs = Inputs(workload=workload, seed=int(seed), tiny=tiny)
    if workload in MC_CYCLE:
        inputs.mc_calls = tuple((e, SMALL_N[e] if tiny else n) for e, n in MC_CYCLE[workload])
        inputs.probe = DETERMINISM_PROBE[workload]
        # the N=128 correlation also runs as a side probe on the MC workloads
        inputs.corr["n128"] = corr128_inputs(seed, tiny)
        return inputs

    rng = np.random.default_rng(derive_seed(seed, 3))
    big = 64 if tiny else 1000
    m = 2 if tiny else 10
    inputs.corr["n128"] = corr128_inputs(seed, tiny)
    p_big = EnsembleParams(N=big, L=32, beta=1)
    radius = math.sqrt(big + 32)
    inputs.corr["n1000"] = (_jittered(-0.8 * radius, 0.8 * radius, m, rng),
                            _upper_points(m, radius, rng), p_big)

    # a 12-point mixed grid, every ordered pair, as `indg kernel` evaluates it
    p128 = inputs.corr["n128"][2]
    r128 = math.sqrt(p128.N + p128.L)
    half = 2 if tiny else 6
    grid = np.concatenate([_jittered(-0.8 * r128, 0.8 * r128, half, rng) + 0j,
                           _upper_points(half, r128, rng)])
    inputs.kernel_grid = (grid, p128)

    sizes = ((16, 0.0), (p128.N, 0.0), (p128.N, 32.0), (p128.N, 0.5), (big, 32.0))
    for n, ell in sizes:
        params = EnsembleParams(N=n, L=ell, beta=1)
        edge = math.sqrt(n + ell) + 3.0
        inputs.real_density.append((params, _jittered(-edge, edge, 50 if tiny else 200, rng)))

    p2 = EnsembleParams(N=big, L=32, beta=2)
    r2 = math.sqrt(p2.N + p2.L)
    side = 10 if tiny else 100
    inputs.kn_grid = (_disk_points(side, r2, rng)[:, None], _disk_points(side, r2, rng)[None, :], p2)
    inputs.rn_sets = (tuple(_disk_points(4 if tiny else 20, r2, rng) for _ in range(5)), p2)
    inputs.density_grid = (_disk_points(200 if tiny else 2000, r2, rng), p2)
    s = np.sort(np.abs(_jittered(0.0, 1.6 * math.sqrt(p2.L), 40, rng)))
    inputs.hole_curve = (s, p2)
    return inputs


# --------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One call of a cycle.  fn resolves module attributes at call time, so
    the traced run's wrappers see it."""

    label: str
    fn: object
    matrices: int = 0       # matrices the call reduces into statistics
    check: object = None    # value -> bool, a correctness check of the result
    experiment: str = ""
    seed: int = 0
    n_samples: int = 0


def mc_ops(inputs, cycle):
    ops = []
    for k, (experiment, n) in enumerate(inputs.mc_calls):
        s = inputs.mc_seed(cycle, k)
        ops.append(Op(label=f"mc.{experiment}",
                      fn=lambda e=experiment, s=s, n=n: harness.run_mc(e, s, n),
                      matrices=MATRICES_PER_SAMPLE[experiment] * n,
                      experiment=experiment, seed=s, n_samples=n))
    return ops


def corr128_op(inputs):
    reals, complexes, params = inputs.corr["n128"]
    return Op(label="corr128",
              fn=lambda: re1.correlations_pfaffian(reals, complexes, params), matrices=1)


def _kernel_grid(points, params):
    return [re1.kernel_entries(a, b, params) for a in points for b in points]


def _real_density_table(table):
    return [(re1.density_real(x, params), re1.expected_real_count(params))
            for params, x in table]


def _rn_all(sets, params):
    return [cx.correlations_Rn(pts, params) for pts in sets]


def analytic_ops(inputs):
    reals, complexes, p_big = inputs.corr["n1000"]
    grid, p128 = inputs.kernel_grid
    z, w, p2 = inputs.kn_grid
    rn_sets, _ = inputs.rn_sets
    dens_pts, _ = inputs.density_grid
    s_grid, _ = inputs.hole_curve
    ops = [corr128_op(inputs) for _ in range(CORR_REPEATS)]
    ops += [
        Op("corr1000", lambda: re1.correlations_pfaffian(reals, complexes, p_big), matrices=1),
        Op("kernel_grid", lambda: _kernel_grid(grid, p128)),
        Op("real_density", lambda: _real_density_table(inputs.real_density)),
        Op("kernel_KN", lambda: cx.kernel_KN(z, w, p2)),
        Op("correlations_Rn", lambda: _rn_all(rn_sets, p2), matrices=len(rn_sets)),
        Op("density", lambda: cx.density(dens_pts, p2)),
        Op("hole_curve", lambda: np.array([cx.hole_probability(s, p2) for s in s_grid]),
           check=checks.hole_curve_valid),
    ]
    return ops


def cycle_ops(inputs, cycle):
    if inputs.workload in MC_CYCLE:
        return mc_ops(inputs, cycle)
    return analytic_ops(inputs)
