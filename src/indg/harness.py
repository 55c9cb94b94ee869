"""Monte Carlo harness: seeded experiments, histograms, reports.

Every experiment is deterministic given (name, master_seed, n_samples): each
sample index gets its own RNG stream spawned as
SeedSequence(master_seed, spawn_key=(index,)), and the merge step reduces
per-index results in index order.  _map_runs alone lays out the indices:
run r of the list an experiment passes it draws r*10**6 .. r*10**6+n-1
(_RUN_STRIDE), so no experiment computes an offset, and it refuses a run
other than the last that would spill into the next run's range.  A failing
sample raises WorkerError naming its index and master seed.

The work is mapped over contiguous chunks of indices, not single indices.
A chunk holds the fewest k draws with k * m > 500, m the summed side of the
matrices one index sends to eigvals: numpy's eigvals releases the GIL for a
stack of k m x m matrices only past that size, and holds it throughout for a
single m x m with m <= 500.  So a chunk holds 26 hole-prob and 32
real-density draws, 4 at N = 128, 6 sampler-equiv pairs, and 6, 3 and 3
channel maps at (d, k) = (14, 10), (14, 14) and (14, 18).  _run_chunk turns
each index into its own stream and hands the chunk function the list.
The chunk's streams go to sampling.quadratised_draws, the one
quadratised sampler: one numpy call per reduction layer, no W, ill rows
redrawn there; sampler-equiv first draws each index's polar matrix.  The
chunk's matrices then go to one eigvals call.  channel-ring reduces each map
through channels.quadratised_factor and diagonalises the chunk's square
factors in one call.  The worker threads (flag, else INDG_THREADS, else cpu
count) run chunks in parallel from one queue per run_mc call: _map_runs
takes every sub-run of the experiment (real-count's two L, sampler-equiv's
two beta, channel-ring's three geometries) and submits all their chunks to
one pool, largest eigvals side first, since eigvals cost grows as side**3
and the short chunks left for last keep both workers busy to the end
(Graham's longest-processing-time rule).  The pool is the one executor at
every worker count; with one thread it runs the chunks in submission order.
run_mc runs the whole experiment inside linalg._one_blas_thread, at every
worker count: BLAS threads under the workers would only oversubscribe the
cores, and zgeqrf/zgemm give different bits at one and two BLAS threads, so
without the pin the channel-ring reports would depend on the host's BLAS
setting.  A chunk that raises is rerun index by index, so the error names
its sample.  The worker count, the chunking, the
submission order and the caller's BLAS thread count therefore change only
the wall time, never the numbers; the canonical report payload excludes
wall time so byte identity across worker counts can be asserted directly.

A spectrum is the array linalg.eigenvalues returns, nothing else.  A chunk
returns arrays with one row per index: eigenvalue rows, modulus rows
(sampler-equiv) or eigenvalue rows plus a trace vector (channel-ring).  Each
experiment reduces the concatenated rows with array expressions:
np.histogram counts, real_mask sums, row minima, a masked maximum.
"""

import csv
import json
import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import complex_ensemble as cx
from . import real_ensemble as re1
from .channels import predicted_ring, quadratised_factor, random_complementary_map
from .linalg import _one_blas_thread, eigenvalues, real_mask
from .sampling import EnsembleParams, quadratised_draws, sample_induced_polar

__all__ = [
    "ExperimentReport",
    "EXPERIMENTS",
    "WorkerError",
    "run_mc",
    "ks_two_sample",
    "report_payload_bytes",
    "resolve_workers",
]

DEFAULT_BINS = 64
# modulus bin edges in rescaled units, |lambda| / sqrt(N+L)
_EDGES = np.linspace(0.0, 1.2, DEFAULT_BINS + 1)
_BIN_ORDER = 12  # Gauss-Legendre nodes per histogram bin for the expectations
_RUN_STRIDE = 10 ** 6  # run r of a _map_runs call draws spawn indices r * _RUN_STRIDE + i


@dataclass
class ExperimentReport:
    """One pass/fail comparison of an empirical statistic with its analytic value."""

    experiment: str
    params: dict
    statistic: str
    empirical: float
    analytic: float
    tolerance: float
    passed: bool
    seed: int
    wall_time: float = 0.0

    @classmethod
    def build(cls, experiment, params, statistic, empirical, analytic, tolerance, seed):
        passed = bool(abs(empirical - analytic) <= tolerance)
        return cls(experiment=experiment, params=dict(params), statistic=statistic,
                   empirical=float(empirical), analytic=float(analytic),
                   tolerance=float(tolerance), passed=passed, seed=int(seed))

    def payload(self):
        """Deterministic content: everything except wall time."""
        return {
            "experiment": self.experiment,
            "params": self.params,
            "statistic": self.statistic,
            "empirical": self.empirical,
            "analytic": self.analytic,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "seed": self.seed,
        }

    def to_dict(self):
        out = self.payload()
        out["wall_time"] = self.wall_time
        return out


def report_payload_bytes(reports):
    """Canonical bytes of a report list (wall time excluded) for reproducibility checks."""
    doc = [r.payload() for r in reports]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def resolve_workers(workers=None):
    """Explicit flag wins; else cpu count capped by the INDG_THREADS env var."""
    if workers is not None:
        return max(1, int(workers))
    n = os.cpu_count() or 1
    cap = os.environ.get("INDG_THREADS")
    if cap:
        try:
            n = min(n, max(1, int(cap)))
        except ValueError:
            raise ValueError(f"INDG_THREADS must be an integer, got {cap!r}") from None
    return n


class WorkerError(RuntimeError):
    """One sample failed; SeedSequence(master_seed, spawn_key=(index,)) redraws it."""

    def __init__(self, index, master_seed, cause):
        super().__init__(f"worker failed at sample index {index} "
                         f"(seed spawn ({master_seed}, ({index},))): {cause}")
        self.index = index
        self.master_seed = master_seed


def _index_rng(master_seed, index):
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _chunk_length(side):
    """Samples per chunk: the fewest k with k * side > 500, eigvals' GIL-release
    size, side being the summed side of the matrices one index sends to eigvals."""
    return 500 // side + 1


def _run_chunk(master_seed, fn, start, stop):
    """[fn(streams of start .. stop-1)]; if that raises, fn on each index's stream
    alone, so a failure names its index."""
    if stop - start > 1:
        try:
            return [fn([_index_rng(master_seed, i) for i in range(start, stop)])]
        except Exception:
            pass  # the rerun below gives the same results or names the failing index
    out = []
    for i in range(start, stop):
        try:
            out.append(fn([_index_rng(master_seed, i)]))
        except Exception as exc:
            raise WorkerError(i, master_seed, exc) from exc
    return out


def _map_runs(runs, workers, master_seed):
    """fn on the streams of the chunks of every run (fn, n, side), in one pool.

    Run r, r being its place in runs, covers spawn indices r*_RUN_STRIDE ..
    r*_RUN_STRIDE+n-1 in chunks of _chunk_length(side); a run other than the
    last holding more than _RUN_STRIDE indices would share streams with the
    next, and raises ValueError before any chunk runs.  The chunks are
    submitted largest side first (stably, so run order and then index order
    break ties): eigvals cost grows as side**3, and leaving the short chunks
    for last keeps every worker busy to the end.  A one-thread pool runs them
    in that order.  Returns one list per run, of its chunk results in index
    order; a chunk that had to be rerun index by index contributes one result
    per index, so concatenating a run's list gives the same result either way.
    """
    for _, n, _ in runs[:-1]:
        if n > _RUN_STRIDE:
            raise ValueError(f"n_samples={n} exceeds {_RUN_STRIDE}, the spawn indices "
                             "each sub-run of an experiment may use")
    owners, chunks = [], []
    for r in sorted(range(len(runs)), key=lambda r: -runs[r][2]):
        fn, n, side = runs[r]
        size = _chunk_length(side)
        start, stop = r * _RUN_STRIDE, r * _RUN_STRIDE + n
        for a in range(start, stop, size):
            owners.append(r)
            chunks.append((fn, a, min(a + size, stop)))
    with ThreadPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        parts = list(pool.map(partial(_run_chunk, master_seed), *zip(*chunks)))
    out = [[] for _ in runs]
    for r, part in zip(owners, parts):
        out[r] += part
    return out


def ks_two_sample(a, b):
    """Two-sample Kolmogorov-Smirnov: sup CDF distance and asymptotic p bound.

    Inputs must be nonempty ascending samples.  The bound is the one-term
    Smirnov tail 2 exp(-2 t^2 mn/(m+n)), clipped to 1; it overestimates the
    true p, so rejections are conservative.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("ks_two_sample needs nonempty samples")
    if np.any(np.diff(a) < 0) or np.any(np.diff(b) < 0):
        raise ValueError("ks_two_sample expects sorted samples")
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    t = float(np.max(np.abs(fa - fb)))
    m, n = a.size, b.size
    p = min(1.0, 2.0 * math.exp(-2.0 * t * t * m * n / (m + n)))
    return t, p


# --------------------------------------------------------------------------
# analytic bin expectations


def _expected_radial_complex(edges, params, n_samples):
    """E[# eigenvalues per rescaled modulus bin] for the beta=2 ensemble."""
    s = math.sqrt(params.N + params.L)
    r, w = cx._gl_nodes(edges, _BIN_ORDER)
    return n_samples * np.sum(w * 2.0 * np.pi * r * s * s * cx.density(s * r, params), axis=1)


def _expected_radial_real(edges, params, n_samples):
    """E[# eigenvalues per rescaled modulus bin], beta=1, reals included."""
    s = math.sqrt(params.N + params.L)
    r, w = cx._gl_nodes(edges, _BIN_ORDER)
    rr = s * r
    ang = re1.density_complex_azimuthal(rr, params)
    # both members of each conjugate pair land in the modulus bin
    pair_part = np.sum(w * 2.0 * rr * s * ang, axis=1)
    # density_real is even bit for bit, so one call covers x = rr and x = -rr
    real_part = np.sum(w * s * (2.0 * re1.density_real(rr, params)), axis=1)
    return n_samples * (pair_part + real_part)


def _expected_line_real(edges, params, n_samples):
    """E[# real eigenvalues per rescaled bin] on the real axis."""
    s = math.sqrt(params.N + params.L)
    x, w = cx._gl_nodes(edges, _BIN_ORDER)
    return n_samples * np.sum(w * s * re1.density_real(s * x, params), axis=1)


def _bins_within_3sigma(counts, expected):
    sigma = np.sqrt(np.maximum(expected, 1.0))
    return int(np.sum(np.abs(counts - expected) <= 3.0 * sigma))


def _bin_table(var, edges, counts, expected):
    """CSV rows: one (lo, hi, count, expected) row per bin."""
    return [(f"{var}_lo", f"{var}_hi", "count", "expected")] + list(
        zip(edges[:-1], edges[1:], counts.tolist(), expected))


# --------------------------------------------------------------------------
# chunk work: each draws one sample from each of its spawn streams


def _spectra_chunk(params, rngs):
    """Eigenvalues of one quadratised draw per stream, one row each."""
    return eigenvalues(quadratised_draws(params, rngs), params.beta)


def _spectra_run(params, n_samples):
    """The _map_runs run of n_samples quadratised spectra, one eigenvalue row each."""
    return partial(_spectra_chunk, params), n_samples, params.N


def _sampler_pairs_chunk(params, rngs):
    """|eigenvalues| of a polar and then a quadratised draw from each stream.

    Row j, of shape (2, N), holds the polar and the quadratised moduli of
    stream j.
    """
    polar = np.stack([sample_induced_polar(params, rng) for rng in rngs])
    pairs = np.stack([polar, quadratised_draws(params, rngs)], axis=1)
    return np.abs(eigenvalues(pairs, params.beta))


def _channel_chunk(geometry, rngs):
    """Quadratised spectra (one row per stream) and squared norms of random maps (d, k).

    Each map is reduced on its own, since QR and SVD overlap across the
    worker threads one matrix at a time, and a stacked reduction would hold
    the chunk's complete Q factors all at once; only the square factors are
    stacked, for the one eigenvalues call that needs the stack to drop the GIL.
    """
    d, k = geometry
    side = min(d, k) ** 2
    factors = np.empty((len(rngs), side, side), dtype=complex)
    norms = np.empty(len(rngs))
    for j, rng in enumerate(rngs):
        phi = random_complementary_map(d, k, rng)
        factors[j] = quadratised_factor(phi)
        norms[j] = np.sum(np.abs(phi.matrix) ** 2)
    return eigenvalues(factors, beta=2), norms


# --------------------------------------------------------------------------
# experiments


def _exp_radial_density(master_seed, n_samples, workers):
    params = EnsembleParams(N=128, L=32, beta=2)
    scale = 1.0 / math.sqrt(params.N + params.L)
    ev = np.concatenate(_map_runs([_spectra_run(params, n_samples)], workers, master_seed)[0])
    counts = np.histogram(np.abs(ev) * scale, bins=_EDGES)[0]
    expected = _expected_radial_complex(_EDGES, params, n_samples)
    ok = _bins_within_3sigma(counts, expected)
    meta = {"N": params.N, "L": params.L, "beta": 2, "n_samples": n_samples,
            "bins": DEFAULT_BINS}
    report = ExperimentReport.build(
        "radial-density", meta, "bins_within_3sigma", ok, DEFAULT_BINS,
        4.0, master_seed)
    return [report], {"radial_histogram": _bin_table("r", _EDGES, counts, expected)}


def _exp_real_count(master_seed, n_samples, workers):
    if n_samples < 2:
        raise ValueError("real-count needs n_samples >= 2 for the standard error of its mean")
    ensembles = (EnsembleParams(N=128, L=32, beta=1), EnsembleParams(N=128, L=0, beta=1))
    runs = _map_runs([_spectra_run(params, n_samples) for params in ensembles],
                     workers, master_seed)
    reports, artifacts = [], {}
    for params, rows in zip(ensembles, runs):
        counts = np.sum(real_mask(np.concatenate(rows)), axis=1).astype(float)
        mean = float(counts.mean())
        se = float(counts.std(ddof=1) / math.sqrt(len(counts)))
        meta = {"N": params.N, "L": params.L, "beta": 1, "n_samples": n_samples,
                "se": se}
        quad = re1.expected_real_count(params)
        asym = re1.real_count_leading_order(params.N, params.L)
        reports.append(ExperimentReport.build(
            "real-count", meta, "mean_vs_quadrature", mean, quad, 3.0 * se, master_seed))
        reports.append(ExperimentReport.build(
            "real-count", meta, "mean_vs_leading_order", mean, asym, 3.0 * se, master_seed))
        values, freq = np.unique(counts.astype(int), return_counts=True)
        artifacts[f"real_count_hist_L{int(params.L)}"] = (
            [("n_real", "frequency")] + list(zip(values.tolist(), freq.tolist())))
    return reports, artifacts


def _exp_hole_prob(master_seed, n_samples, workers):
    params = EnsembleParams(N=20, L=2, beta=2)
    radii = np.array([0.5, 1.0, 1.5])
    ev = np.concatenate(_map_runs([_spectra_run(params, n_samples)], workers, master_seed)[0])
    rmin = np.min(np.abs(ev), axis=1)
    fracs = (rmin[:, None] > radii).mean(axis=0)
    table = [("s", "analytic", "empirical")] + list(
        zip(radii.tolist(), cx.hole_probability(radii, params).tolist(), fracs.tolist()))
    reports = []
    for s, a, frac in table[1:]:
        tol = 3.0 * math.sqrt(a * (1.0 - a) / n_samples)
        meta = {"N": params.N, "L": params.L, "beta": 2, "n_samples": n_samples, "s": s}
        reports.append(ExperimentReport.build(
            "hole-prob", meta, "empty_disk_fraction", frac, a, tol, master_seed))
    return reports, {"hole_prob": table}


def _exp_sampler_equiv(master_seed, n_samples, workers):
    ensembles = (EnsembleParams(N=50, L=10, beta=1), EnsembleParams(N=50, L=10, beta=2))
    runs = _map_runs([(partial(_sampler_pairs_chunk, params), n_samples, 2 * params.N)
                      for params in ensembles], workers, master_seed)
    reports = []
    for params, rows in zip(ensembles, runs):
        mods = np.concatenate(rows)
        t, p = ks_two_sample(np.sort(mods[:, 0], axis=None), np.sort(mods[:, 1], axis=None))
        meta = {"N": params.N, "L": params.L, "beta": params.beta, "n_samples": n_samples,
                "ks_statistic": t}
        reports.append(ExperimentReport.build(
            "sampler-equiv", meta, "ks_p_bound", p, 1.0, 0.999, master_seed))
    return reports, {}


def _exp_channel_ring(master_seed, n_samples, workers):
    geometries = ((14, 10), (14, 14), (14, 18))
    runs = _map_runs([(partial(_channel_chunk, (d, k)), n_samples, min(d, k) ** 2)
                      for d, k in geometries], workers, master_seed)
    reports, artifacts = [], {}
    for (d, k), results in zip(geometries, runs):
        r_in, r_out = predicted_ring(d, k)
        spectra, traces = (np.concatenate(part) for part in zip(*results))
        # each map's leading eigenvalue (largest modulus) sits outside the ring
        mod = np.abs(spectra)
        mod = np.ma.masked_array(mod, np.arange(mod.shape[1]) == mod.argmax(axis=1)[:, None])
        inside = ((mod >= r_in - 0.05) & (mod <= r_out + 0.05)).sum()
        rows = [("realization", "re", "im")] + list(zip(
            np.repeat(np.arange(n_samples), spectra.shape[1]).tolist(),
            spectra.real.ravel().tolist(), spectra.imag.ravel().tolist()))
        meta = {"d": d, "k": k, "n_samples": n_samples,
                "r_in": r_in, "r_out": r_out, "delta": 0.05}
        reports.append(ExperimentReport.build(
            "channel-ring", meta, "annulus_containment", inside / mod.count(), 1.0, 0.1,
            master_seed))
        want = d * (k + 1) / k
        reports.append(ExperimentReport.build(
            "channel-ring", meta, "mean_trace_norm", float(traces.mean()), want,
            0.10 * want, master_seed))
        artifacts[f"channel_spectra_d{d}_k{k}"] = rows
    return reports, artifacts


def _exp_edge_profile(master_seed, n_samples, workers):
    # analytic-only check: finite-N density across both ring edges vs the
    # erfc profile; n_samples plays no role
    params = EnsembleParams(N=1000, L=500, beta=2)
    r_out = math.sqrt(params.N + params.L)
    r_in = math.sqrt(params.L)
    xis = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    want = cx.density_edge_profile(xis)
    outer = cx.density(r_out + xis, params)
    inner = cx.density(r_in - xis, params)
    dev = np.max(np.abs([outer - want, inner - want]))
    rows = [("xi", "profile", "density_outer", "density_inner")] + list(
        zip(xis.tolist(), want.tolist(), outer.tolist(), inner.tolist()))
    meta = {"N": params.N, "L": params.L, "beta": 2, "xi_grid": xis.tolist()}
    report = ExperimentReport.build(
        "edge-profile", meta, "max_profile_deviation", dev, 0.0, 0.01 / math.pi,
        master_seed)
    return [report], {"edge_profile": rows}


def _exp_real_density(master_seed, n_samples, workers):
    params = EnsembleParams(N=16, L=4, beta=1)
    scale = 1.0 / math.sqrt(params.N + params.L)
    ev = np.concatenate(_map_runs([_spectra_run(params, n_samples)], workers, master_seed)[0])
    line_edges = np.linspace(-1.2, 1.2, DEFAULT_BINS + 1)
    # dgeev returns each conjugate pair exactly, so both members are binned
    radial = np.histogram(np.abs(ev) * scale, bins=_EDGES)[0]
    line = np.histogram(ev.real[real_mask(ev)] * scale, bins=line_edges)[0]
    exp_radial = _expected_radial_real(_EDGES, params, n_samples)
    exp_line = _expected_line_real(line_edges, params, n_samples)
    meta = {"N": params.N, "L": params.L, "beta": 1, "n_samples": n_samples,
            "bins": DEFAULT_BINS}
    reports = [
        ExperimentReport.build("real-density", meta, "radial_bins_within_3sigma",
                               _bins_within_3sigma(radial, exp_radial),
                               DEFAULT_BINS, 4.0, master_seed),
        ExperimentReport.build("real-density", meta, "real_axis_bins_within_3sigma",
                               _bins_within_3sigma(line, exp_line),
                               DEFAULT_BINS, 4.0, master_seed),
    ]
    artifacts = {"real_density_radial": _bin_table("r", _EDGES, radial, exp_radial),
                 "real_density_axis": _bin_table("x", line_edges, line, exp_line)}
    return reports, artifacts


EXPERIMENTS = {
    "radial-density": _exp_radial_density,
    "real-count": _exp_real_count,
    "hole-prob": _exp_hole_prob,
    "sampler-equiv": _exp_sampler_equiv,
    "channel-ring": _exp_channel_ring,
    "edge-profile": _exp_edge_profile,
    "real-density": _exp_real_density,
}


def _require_integer(name, value, least):
    """value as an int; ValueError naming it unless it is an integer >= least."""
    try:
        n = operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return n


def run_mc(experiment, master_seed, n_samples, workers=None, out_dir=None):
    """Run one named experiment; returns its ExperimentReport list.

    Deterministic given (experiment, master_seed, n_samples) for any worker
    count and any BLAS thread count of the caller: numpy's OpenBLAS runs at
    one thread inside (linalg._one_blas_thread).  master_seed must be an
    integer >= 0 and n_samples an integer >= 1; anything else raises
    ValueError before any sample is drawn.  With out_dir set, writes
    <experiment>_report.json plus one CSV per histogram/table artifact, every
    file carrying the parameter set and seed.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}")
    master_seed = _require_integer("master_seed", master_seed, 0)
    n_samples = _require_integer("n_samples", n_samples, 1)
    nworkers = resolve_workers(workers)
    t0 = time.perf_counter()
    with _one_blas_thread():
        reports, artifacts = EXPERIMENTS[experiment](master_seed, n_samples, nworkers)
    elapsed = time.perf_counter() - t0
    for r in reports:
        r.wall_time = elapsed
    if out_dir is not None:
        _write_outputs(experiment, reports, artifacts, out_dir, master_seed)
    return reports


def _write_outputs(experiment, reports, artifacts, out_dir, master_seed):
    os.makedirs(out_dir, exist_ok=True)
    doc = {"experiment": experiment, "reports": [r.to_dict() for r in reports]}
    path = os.path.join(out_dir, f"{experiment}_report.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    provenance = json.dumps({"experiment": experiment, "seed": master_seed,
                             **reports[0].params}, sort_keys=True)
    for name, table in artifacts.items():
        with open(os.path.join(out_dir, f"{experiment}_{name}.csv"), "w", newline="") as fh:
            fh.write(f"# {provenance}\n")
            writer = csv.writer(fh)
            writer.writerows(table)
