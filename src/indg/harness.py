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
(sampler-equiv) or eigenvalue rows plus a trace vector (channel-ring).

Each experiment is two functions.  Its sampled side draws every sub-run in
one _map_runs call and returns [(params, rows)], rows being the run's
concatenated chunk rows.  Its check does all the rest at params: each check
reduces the rows with array expressions (np.histogram counts, real_mask
sums, row minima, row sorts, the KS distance), computes the analytic value
and returns the comparisons and the tables, each with the sub-run's
parameters; so a check at other params on the same rows is a mutation, with
no new draw.  run_mc alone builds the ExperimentReports.
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
    """Explicit flag wins; else cpu count capped by the INDG_THREADS env var.

    The count and a set cap must be integers >= 1, else ValueError names them.
    """
    if workers is not None:
        return _require_integer("workers", workers, 1)
    n = os.cpu_count() or 1
    cap = os.environ.get("INDG_THREADS")
    if cap:
        try:
            n = min(n, _require_integer("INDG_THREADS", int(cap), 1))
        except ValueError:
            raise ValueError(f"INDG_THREADS must be an integer >= 1, got {cap!r}") from None
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
    t = float(np.abs(fa - fb).max())
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


def _histogram_check(var, values, edges, expected):
    """Bins of the histogram of values whose count lies within 3 sigma of expected,
    and the CSV rows: one (lo, hi, count, expected) row per bin."""
    counts = np.histogram(values, bins=edges)[0]
    ok = int(np.sum(np.abs(counts - expected) <= 3.0 * np.sqrt(expected.clip(1.0))))
    return ok, [(f"{var}_lo", f"{var}_hi", "count", "expected")] + list(
        zip(edges[:-1], edges[1:], counts.tolist(), expected))


# --------------------------------------------------------------------------
# chunk work: each draws one sample from each of its spawn streams


def _spectra_chunk(params, rngs):
    """Eigenvalues of one quadratised draw per stream, one row each."""
    return eigenvalues(quadratised_draws(params, rngs), params.beta)


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
# sampled sides: sample(master_seed, n_samples, workers) -> [(params, rows)]


def _spectra(ensembles, master_seed, n_samples, workers):
    """n_samples quadratised spectra of each ensemble from one _map_runs call."""
    runs = _map_runs([(partial(_spectra_chunk, params), n_samples, params.N)
                      for params in ensembles], workers, master_seed)
    return [(params, np.concatenate(rows)) for params, rows in zip(ensembles, runs)]


def _sampler_pairs(master_seed, n_samples, workers):
    """sampler-equiv's polar and quadratised moduli at beta = 1 and 2."""
    ensembles = (EnsembleParams(N=50, L=10, beta=1), EnsembleParams(N=50, L=10, beta=2))
    runs = _map_runs([(partial(_sampler_pairs_chunk, params), n_samples, 2 * params.N)
                      for params in ensembles], workers, master_seed)
    return [(params, np.concatenate(rows)) for params, rows in zip(ensembles, runs)]


def _channel_maps(master_seed, n_samples, workers):
    """channel-ring's spectra and squared norms at each geometry (d, k)."""
    geometries = ((14, 10), (14, 14), (14, 18))
    runs = _map_runs([(partial(_channel_chunk, (d, k)), n_samples, min(d, k) ** 2)
                      for d, k in geometries], workers, master_seed)
    return [((d, k), tuple(np.concatenate(part) for part in zip(*results)))
            for (d, k), results in zip(geometries, runs)]


def _edge_params(master_seed, n_samples, workers):
    """edge-profile's one parameter set; its check is analytic, so no rows."""
    return [(EnsembleParams(N=1000, L=500, beta=2), None)]


# --------------------------------------------------------------------------
# checks: check(params, n_samples, rows) -> ([(meta, statistic, empirical, analytic,
# tolerance)], {table: (meta, rows)}), meta being the parameters each carries


def _meta(params, **extra):
    """A sub-run's report and table parameters: the ensemble's and the check's own."""
    return {"N": params.N, "L": params.L, "beta": params.beta, **extra}


def _check_radial_density(params, n_samples, ev):
    scale = 1.0 / math.sqrt(params.N + params.L)
    ok, rows = _histogram_check("r", np.abs(ev) * scale, _EDGES,
                                _expected_radial_complex(_EDGES, params, n_samples))
    meta = _meta(params, n_samples=n_samples, bins=DEFAULT_BINS)
    return ([(meta, "bins_within_3sigma", ok, DEFAULT_BINS, 4.0)],
            {"radial_histogram": (meta, rows)})


def _check_real_count(params, n_samples, ev):
    counts = np.sum(real_mask(ev), axis=1).astype(float)
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(len(counts)))
    meta = _meta(params, n_samples=n_samples, se=se)
    values, freq = np.unique(counts.astype(int), return_counts=True)
    table = [("n_real", "frequency")] + list(zip(values.tolist(), freq.tolist()))
    return ([(meta, "mean_vs_quadrature", mean, re1.expected_real_count(params), 3.0 * se),
             (meta, "mean_vs_leading_order", mean,
              re1.real_count_leading_order(params.N, params.L), 3.0 * se)],
            {f"real_count_hist_L{int(params.L)}": (meta, table)})


def _check_hole_prob(params, n_samples, ev):
    radii = np.array([0.5, 1.0, 1.5])
    fracs = (np.min(np.abs(ev), axis=1)[:, None] > radii).mean(axis=0)
    table = [("s", "analytic", "empirical")] + list(
        zip(radii.tolist(), cx.hole_probability(radii, params).tolist(), fracs.tolist()))
    meta = _meta(params, n_samples=n_samples)
    return ([({**meta, "s": s}, "empty_disk_fraction", frac, a,
              3.0 * math.sqrt(a * (1.0 - a) / n_samples)) for s, a, frac in table[1:]],
            {"hole_prob": (meta, table)})


def _check_sampler_pairs(params, n_samples, mods):
    t, p = ks_two_sample(np.sort(mods[:, 0], axis=None), np.sort(mods[:, 1], axis=None))
    return [(_meta(params, n_samples=n_samples, ks_statistic=t), "ks_p_bound", p, 1.0, 0.999)], {}


def _check_channel_ring(geometry, n_samples, rows):
    d, k = geometry
    spectra, traces = rows
    r_in, r_out = predicted_ring(d, k)
    # each map's leading eigenvalue (largest modulus) sits outside the ring
    mod = np.sort(np.abs(spectra), axis=1)[:, :-1]
    inside = ((mod >= r_in - 0.05) & (mod <= r_out + 0.05)).sum()
    table = [("realization", "re", "im")] + list(zip(
        np.repeat(np.arange(len(spectra)), spectra.shape[1]).tolist(),
        spectra.real.ravel().tolist(), spectra.imag.ravel().tolist()))
    meta = {"d": d, "k": k, "n_samples": n_samples, "r_in": r_in, "r_out": r_out, "delta": 0.05}
    want = d * (k + 1) / k
    return ([(meta, "annulus_containment", inside / mod.size, 1.0, 0.1),
             (meta, "mean_trace_norm", float(traces.mean()), want, 0.10 * want)],
            {f"channel_spectra_d{d}_k{k}": (meta, table)})


def _check_edge_profile(params, n_samples, rows):
    # analytic only: finite-N density across both ring edges vs the erfc profile
    xis = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    want = cx.density_edge_profile(xis)
    outer = cx.density(math.sqrt(params.N + params.L) + xis, params)
    inner = cx.density(math.sqrt(params.L) - xis, params)
    dev = np.abs([outer - want, inner - want]).max()
    table = [("xi", "profile", "density_outer", "density_inner")] + list(
        zip(xis.tolist(), want.tolist(), outer.tolist(), inner.tolist()))
    meta = _meta(params, xi_grid=xis.tolist())
    return ([(meta, "max_profile_deviation", dev, 0.0, 0.01 / math.pi)],
            {"edge_profile": (meta, table)})


def _check_real_density(params, n_samples, ev):
    scale = 1.0 / math.sqrt(params.N + params.L)
    line_edges = np.linspace(-1.2, 1.2, DEFAULT_BINS + 1)
    # dgeev returns each conjugate pair exactly, so both members are binned
    radial_ok, radial = _histogram_check("r", np.abs(ev) * scale, _EDGES,
                                         _expected_radial_real(_EDGES, params, n_samples))
    line_ok, line = _histogram_check("x", ev.real[real_mask(ev)] * scale, line_edges,
                                     _expected_line_real(line_edges, params, n_samples))
    meta = _meta(params, n_samples=n_samples, bins=DEFAULT_BINS)
    return ([(meta, "radial_bins_within_3sigma", radial_ok, DEFAULT_BINS, 4.0),
             (meta, "real_axis_bins_within_3sigma", line_ok, DEFAULT_BINS, 4.0)],
            {"real_density_radial": (meta, radial), "real_density_axis": (meta, line)})


# name: (sample, check, least n_samples)
EXPERIMENTS = {
    "radial-density": (partial(_spectra, (EnsembleParams(N=128, L=32, beta=2),)),
                       _check_radial_density, 1),
    "real-count": (partial(_spectra, (EnsembleParams(N=128, L=32, beta=1),
                                      EnsembleParams(N=128, L=0, beta=1))),
                   _check_real_count, 2),
    "hole-prob": (partial(_spectra, (EnsembleParams(N=20, L=2, beta=2),)), _check_hole_prob, 1),
    "sampler-equiv": (_sampler_pairs, _check_sampler_pairs, 1),
    "channel-ring": (_channel_maps, _check_channel_ring, 1),
    "edge-profile": (_edge_params, _check_edge_profile, 1),
    "real-density": (partial(_spectra, (EnsembleParams(N=16, L=4, beta=1),)),
                     _check_real_density, 1),
}


def _require_integer(name, value, least):
    """value as an int; ValueError naming it unless it is a non-bool integer >= least."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
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
    integer >= 0, n_samples an integer >= the experiment's least (2 for
    real-count, whose standard error needs two, else 1) and workers (when
    given) an integer >= 1; anything else raises ValueError before any
    sample is drawn.  With
    out_dir set, writes <experiment>_report.json plus one CSV per
    histogram/table artifact, each headed by the seed and the parameters of
    the sub-run that made it.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}")
    sample, check, least = EXPERIMENTS[experiment]
    master_seed = _require_integer("master_seed", master_seed, 0)
    n_samples = _require_integer("n_samples", n_samples, least)
    nworkers = resolve_workers(workers)
    t0 = time.perf_counter()
    reports, artifacts = [], {}
    with _one_blas_thread():
        for params, rows in sample(master_seed, n_samples, nworkers):
            checks, tables = check(params, n_samples, rows)
            reports += [ExperimentReport.build(experiment, *c, master_seed) for c in checks]
            artifacts.update(tables)
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
    for name, (params, table) in artifacts.items():
        provenance = json.dumps({"experiment": experiment, "seed": master_seed, **params},
                                sort_keys=True)
        with open(os.path.join(out_dir, f"{experiment}_{name}.csv"), "w", newline="") as fh:
            fh.write(f"# {provenance}\n")
            csv.writer(fh).writerows(table)
