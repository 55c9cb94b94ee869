"""Command line: sampling, spectra, analytic tables, seeded experiments.

Exit codes: 0 success (and verify pass), 1 verify failure, 2 usage error,
3 numeric failure (ill-conditioned quadratisation, non-convergence, ...).
One handler on the command group applies this policy to every command: a
numeric failure exits 3, and any other input the library rejects with a
ValueError is a usage error (exit 2, the library's message printed).  A
sample of `verify` that fails with any other exception re-raises it.  The
same handler runs every command with numpy's OpenBLAS at one thread
(linalg._one_blas_thread), so seeded outputs do not depend on the caller's
BLAS thread count.
"""

import csv
import json
import math
import sys
import warnings

import click
import numpy as np

from . import complex_ensemble as cx
from . import real_ensemble as re1
from .channels import predicted_ring, quadratised_spectrum, random_complementary_map
from .harness import WorkerError, run_mc
from .linalg import EigenConvergenceError, _one_blas_thread, eigenvalues, real_mask
from .sampling import EnsembleParams, QuadratisationError, sample_induced_quadratise

_NUMERIC_ERRORS = (QuadratisationError, EigenConvergenceError,
                   np.linalg.LinAlgError, FloatingPointError)


def _exit_numeric(exc):
    click.echo(f"numeric failure: {exc}", err=True)
    sys.exit(3)


def _parse_grid(spec):
    """Parse start:stop:count into an inclusive linspace of radii."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"--grid wants start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise click.UsageError(f"--grid wants numeric start:stop:count, got {spec!r}")
    if not (math.isfinite(start) and math.isfinite(stop)):
        # checked before np.linspace, which warns on a non-finite end point
        raise click.UsageError(f"--grid needs finite start and stop, got {spec!r}")
    if count < 1 or stop < start:
        raise click.UsageError("--grid needs stop >= start and count >= 1")
    if start < 0:
        raise click.UsageError(f"--grid radii must satisfy r >= 0, got {spec!r}")
    return np.linspace(start, stop, count)


class _Group(click.Group):
    """Runs every command at one BLAS thread; maps library failures to exit codes 3 and 2."""

    def invoke(self, ctx):
        try:
            with _one_blas_thread():
                return super().invoke(ctx)
        except WorkerError as exc:
            if not isinstance(exc.__cause__, _NUMERIC_ERRORS):
                raise
            _exit_numeric(exc)
        # before ValueError: QuadratisationError is one
        except _NUMERIC_ERRORS as exc:
            _exit_numeric(exc)
        except ValueError as exc:
            raise click.UsageError(str(exc))


@click.group(cls=_Group)
def main():
    """Induced non-Hermitian ensembles: samplers, exact spectral laws, experiments."""


@main.command()
@click.option("--beta", type=click.Choice(["1", "2"]), required=True)
@click.option("--n", "n", type=int, required=True, help="matrix dimension N")
@click.option("--l", "l", type=int, required=True, help="rectangularity index L = M - N")
@click.option("--count", type=int, default=1, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True,
              help="npz archive: matrices stacked [count, N, N] plus metadata")
def sample(beta, n, l, count, seed, out):
    """Draw matrices by quadratising (N+L) x N Gaussians."""
    params = EnsembleParams(N=n, L=l, beta=int(beta))
    if count < 1:
        raise click.UsageError("--count must be >= 1")
    rng = np.random.default_rng(seed)
    mats = np.stack([sample_induced_quadratise(params, rng) for _ in range(count)])
    np.savez(out, matrices=mats,
             N=params.N, L=params.L, beta=params.beta, seed=seed)
    click.echo(f"wrote {count} matrices ({params.N}x{params.N}, beta={params.beta}) to {out}")


@main.command()
@click.option("--in", "infile", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@click.option("--rescale", is_flag=True,
              help="divide eigenvalues by sqrt(N+L) (default: raw matrix units)")
def spectrum(infile, out, rescale):
    """Eigenvalues of stored matrices: CSV sample_idx, re, im, is_real."""
    try:
        with np.load(infile) as archive:
            try:
                mats, beta = archive["matrices"], int(archive["beta"])
                n_dim, l_idx = int(archive["N"]), float(archive["L"])
            except KeyError as exc:
                raise click.UsageError(
                    f"{infile} is not a sample archive (missing {exc})")
    except ValueError as exc:
        raise click.UsageError(f"{infile} is not a sample archive: {exc}")
    scale = 1.0 / math.sqrt(n_dim + l_idx) if rescale else 1.0
    if mats.ndim != 3:
        raise click.UsageError(f"{infile} is not a sample archive (matrices not [count, N, N])")
    ev = eigenvalues(mats, beta=beta)
    if beta == 1:
        # reals ascending, then the pair representatives (y > 0) by (x, y),
        # then their conjugates in the same order
        group = np.where(real_mask(ev), 0, np.where(ev.imag > 0.0, 1, 2))
        ev = np.take_along_axis(ev, np.lexsort((np.abs(ev.imag), ev.real, group)), axis=-1)
    idx = np.repeat(np.arange(len(ev)), ev.shape[-1])
    rows = list(zip(idx.tolist(), (scale * ev.real).ravel().tolist(),
                    (scale * ev.imag).ravel().tolist(), real_mask(ev).ravel().astype(int).tolist()))
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("sample_idx", "re", "im", "is_real"))
        writer.writerows(rows)
    click.echo(f"wrote {len(rows)} eigenvalues to {out}")


@main.command()
@click.option("--beta", type=click.Choice(["1", "2"]), required=True)
@click.option("--n", "n", type=int, required=True)
@click.option("--l", "l", type=float, required=True)
@click.option("--grid", required=True, help="radial grid start:stop:count (matrix units)")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def density(beta, n, l, grid, out):
    """Analytic mean density on a radial grid.

    beta=2: columns r, rho with rho the density at |z| = r.  beta=1: adds
    rho_real (real-axis density at x = r); rho is then the azimuthal average
    of the complex-pair density over the upper half circle (Gauss-Legendre
    panels in the angle, graded toward the real axis), so 2 pi r rho
    integrates to the expected number of complex eigenvalues.
    """
    params = EnsembleParams(N=n, L=l, beta=int(beta))
    r = _parse_grid(grid)
    rows = [("r", "rho", "rho_real")] if params.beta == 1 else [("r", "rho")]
    if params.beta == 2:
        rho = cx.density(r, params)
        rows.extend(zip(r.tolist(), np.atleast_1d(rho).tolist()))
    else:
        avg = re1.density_complex_azimuthal(r, params) / np.pi
        rows.extend(zip(r.tolist(), avg.tolist(), re1.density_real(r, params).tolist()))
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    click.echo(f"wrote {len(rows) - 1} density rows to {out}")


@main.command()
@click.option("--beta", type=click.Choice(["1"]), required=True,
              help="kernel entries exist for the real ensemble only")
@click.option("--n", "n", type=int, required=True)
@click.option("--l", "l", type=float, required=True)
@click.option("--points", type=click.Path(exists=True, dir_okay=False), required=True,
              help="CSV of points, one 're,im' row each ('#' comments allowed)")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def kernel(beta, n, l, points, out):
    """Matrix-kernel entries DS, S, IS (+ ordering term) for every point pair."""
    params = EnsembleParams(N=n, L=l, beta=int(beta))
    try:
        with warnings.catch_warnings():
            # an empty file is reported below, not as numpy's "no data" warning
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            pts_arr = np.loadtxt(points, delimiter=",", comments="#", ndmin=2)
    except ValueError as exc:
        raise click.UsageError(f"--points file is not numeric CSV: {exc}")
    if pts_arr.size == 0:
        raise click.UsageError("--points file holds no points")
    if pts_arr.shape[1] != 2:
        raise click.UsageError("--points file needs exactly two columns: re, im")
    bad = np.flatnonzero(~np.isfinite(pts_arr).all(axis=1))
    if bad.size:
        raise click.UsageError(f"--points file {points}: point {bad[0] + 1} is not finite")
    zs = pts_arr[:, 0] + 1j * pts_arr[:, 1]
    e = re1.kernel_entries(zs[:, None], zs[None, :], params)
    m = len(zs)
    i, j = np.divmod(np.arange(m * m), m)
    cols = [i, j, e.DS.real, e.DS.imag, e.S.real, e.S.imag, e.IS.real, e.IS.imag, e.eps]
    rows = [("i", "j", "ds_re", "ds_im", "s_re", "s_im", "is_re", "is_im", "eps")]
    rows += zip(*(np.ravel(c).tolist() for c in cols))
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    click.echo(f"wrote {m ** 2} kernel entries to {out}")


@main.command()
@click.option("--n", "n", type=int, required=True)
@click.option("--l", "l", type=float, required=True)
@click.option("--smax", type=float, required=True)
@click.option("--steps", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV destination (default: stdout)")
def holeprob(n, l, smax, steps, out):
    """Hole probability A(s) of the complex ensemble on s = 0 .. smax."""
    params = EnsembleParams(N=n, L=l, beta=2)
    if not math.isfinite(smax):
        # checked before np.linspace, which warns on a non-finite end point
        raise ValueError("hole radius must be a finite real >= 0")
    if smax <= 0 or steps < 1:
        raise click.UsageError("need --smax > 0 and --steps >= 1")
    s = np.linspace(0.0, smax, steps)
    rows = [("s", "A")] + list(zip(s.tolist(), cx.hole_probability(s, params).tolist()))
    if out is None:
        for row in rows:
            click.echo(",".join(str(v) for v in row))
    else:
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        click.echo(f"wrote {steps} rows to {out}")


@main.command()
@click.option("--experiment", required=True)
@click.option("--seed", type=int, required=True)
@click.option("--samples", type=int, required=True)
@click.option("--workers", type=int, default=None,
              help="thread count (default: cpu count, capped by INDG_THREADS)")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="directory for the JSON report and histogram CSVs")
def verify(experiment, seed, samples, workers, out_dir):
    """Run a named Monte Carlo experiment; exit 0 iff every check passes."""
    reports = run_mc(experiment, seed, samples, workers=workers, out_dir=out_dir)
    doc = {"experiment": experiment,
           "passed": all(r.passed for r in reports),
           "reports": [r.to_dict() for r in reports]}
    click.echo(json.dumps(doc, indent=2, sort_keys=True))
    sys.exit(0 if doc["passed"] else 1)


@main.command()
@click.option("--d", "d", type=int, required=True, help="input dimension")
@click.option("--k", "k", type=int, required=True, help="environment/output dimension")
@click.option("--realizations", type=int, default=8, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def channel(d, k, realizations, seed, out):
    """Quadratised spectra of random complementary maps, with predicted radii."""
    if realizations < 1:
        raise click.UsageError("--realizations must be >= 1")
    r_in, r_out = predicted_ring(d, k)
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(realizations):
        phi = random_complementary_map(d, k, rng)
        lam = quadratised_spectrum(phi)
        runs.append({
            "trace_norm": float(np.sum(np.abs(phi.matrix) ** 2)),
            "eigenvalues": [[float(z.real), float(z.imag)] for z in lam],
        })
    doc = {"d": d, "k": k, "seed": seed, "r_in": r_in, "r_out": r_out,
           "realizations": runs}
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    click.echo(f"wrote {realizations} realizations (d={d}, k={k}) to {out}")


if __name__ == "__main__":
    main()
