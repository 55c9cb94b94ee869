"""End-to-end command line checks through click's test runner."""
import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.integrate import quad
from scipy.linalg import block_diag

import indg
from indg import channels
from indg import cli
from indg import complex_ensemble as cx
from indg import harness, linalg
from indg import real_ensemble as re1
from indg.channels import predicted_ring
from indg.harness import WorkerError
from indg.cli import _NUMERIC_ERRORS, main
from indg.linalg import EigenConvergenceError
from indg.sampling import EnsembleParams, QuadratisationError

# sample archives the library rejects: a non-finite matrix, an unknown beta
NAN_ARCHIVE = {"matrices": np.full((1, 2, 2), np.nan), "N": 2, "L": 0, "beta": 2}
BETA3_ARCHIVE = {"matrices": np.eye(2)[None], "N": 2, "L": 0, "beta": 3}


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sample_writes_archive(runner, tmp_path):
    out = str(tmp_path / "m.npz")
    res = runner.invoke(main, ["sample", "--beta", "2", "--n", "6", "--l", "2",
                               "--count", "3", "--seed", "5", "--out", out])
    assert res.exit_code == 0, res.output
    with np.load(out) as archive:
        assert archive["matrices"].shape == (3, 6, 6)
        assert np.iscomplexobj(archive["matrices"])
        assert int(archive["N"]) == 6 and float(archive["L"]) == 2.0
        assert int(archive["beta"]) == 2 and int(archive["seed"]) == 5
    # reproducible: same seed, same matrices
    out2 = str(tmp_path / "m2.npz")
    runner.invoke(main, ["sample", "--beta", "2", "--n", "6", "--l", "2",
                         "--count", "3", "--seed", "5", "--out", out2])
    with np.load(out) as a1, np.load(out2) as a2:
        assert np.array_equal(a1["matrices"], a2["matrices"])


def test_spectrum_round_trip_beta1(runner, tmp_path):
    out = str(tmp_path / "m.npz")
    eig = str(tmp_path / "eig.csv")
    res = runner.invoke(main, ["sample", "--beta", "1", "--n", "10", "--l", "3",
                               "--count", "2", "--seed", "9", "--out", out])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["spectrum", "--in", out, "--out", eig])
    assert res.exit_code == 0, res.output
    rows = read_csv(eig)
    assert rows[0] == ["sample_idx", "re", "im", "is_real"]
    body = [(int(r[0]), float(r[1]), float(r[2]), int(r[3])) for r in rows[1:]]
    assert len(body) == 20  # 2 samples x 10 eigenvalues, conjugates included
    with np.load(out) as archive:
        mats = archive["matrices"]
    for idx in (0, 1):
        sample_rows = [r for r in body if r[0] == idx]
        eig_sum = sum(r[1] for r in sample_rows)
        assert np.isclose(eig_sum, np.trace(mats[idx]), atol=1e-8)
        # non-real rows come in conjugate pairs
        ims = sorted(r[2] for r in sample_rows if not r[3])
        assert np.allclose(np.array(ims) + np.array(ims[::-1]), 0.0, atol=1e-12)
        for r in sample_rows:
            assert (r[2] == 0.0) == bool(r[3])


def _rotation_block(x, y):
    return [[x, -y], [y, x]]


def test_spectrum_beta1_row_order(runner, tmp_path):
    # rows per sample: reals ascending, then the pair representatives (y > 0)
    # by (x, y), then their conjugates in the same order; dgeev's own order
    # differs.  The block entries make every eigenvalue exact.
    M = block_diag(_rotation_block(0.5, 0.5625), 2.0, _rotation_block(-1.0, 1.0), -1.0,
                   _rotation_block(0.5, 0.25), 0.5)
    archive = str(tmp_path / "m.npz")
    np.savez(archive, matrices=np.stack([M, -M]), N=9, L=0, beta=1)
    out = str(tmp_path / "eig.csv")
    res = runner.invoke(main, ["spectrum", "--in", archive, "--out", out])
    assert res.exit_code == 0, res.output
    rows = [(int(r[0]), float(r[1]), float(r[2]), int(r[3])) for r in read_csv(out)[1:]]
    first = [(-1.0, 0.0, 1), (0.5, 0.0, 1), (2.0, 0.0, 1),
             (-1.0, 1.0, 0), (0.5, 0.25, 0), (0.5, 0.5625, 0),
             (-1.0, -1.0, 0), (0.5, -0.25, 0), (0.5, -0.5625, 0)]
    second = [(-2.0, 0.0, 1), (-0.5, 0.0, 1), (1.0, 0.0, 1),
              (-0.5, 0.25, 0), (-0.5, 0.5625, 0), (1.0, 1.0, 0),
              (-0.5, -0.25, 0), (-0.5, -0.5625, 0), (1.0, -1.0, 0)]
    assert rows == [(0, *r) for r in first] + [(1, *r) for r in second]


def test_spectrum_rescale_flag(runner, tmp_path):
    out = str(tmp_path / "m.npz")
    runner.invoke(main, ["sample", "--beta", "2", "--n", "8", "--l", "2",
                         "--count", "1", "--seed", "3", "--out", out])
    raw, scaled = str(tmp_path / "raw.csv"), str(tmp_path / "scaled.csv")
    runner.invoke(main, ["spectrum", "--in", out, "--out", raw])
    runner.invoke(main, ["spectrum", "--in", out, "--out", scaled, "--rescale"])
    r_raw = np.array([[float(v) for v in row[1:3]] for row in read_csv(raw)[1:]])
    r_sc = np.array([[float(v) for v in row[1:3]] for row in read_csv(scaled)[1:]])
    assert np.allclose(r_sc * math.sqrt(10.0), r_raw, atol=1e-12)


def test_spectrum_rejects_foreign_archive(runner, tmp_path):
    bad = str(tmp_path / "bad.npz")
    np.savez(bad, stuff=np.eye(2))
    res = runner.invoke(main, ["spectrum", "--in", bad, "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2
    # one matrix, not a [count, N, N] stack
    np.savez(bad, matrices=np.eye(2), N=2, L=0, beta=2)
    res = runner.invoke(main, ["spectrum", "--in", bad, "--out", str(tmp_path / "x.csv")])
    assert res.exit_code == 2
    assert "matrices not [count, N, N]" in res.output
    # not an npz at all -> clean usage error, not a traceback
    garbage = tmp_path / "garbage.npz"
    garbage.write_text("not an archive")
    res = runner.invoke(main, ["spectrum", "--in", str(garbage),
                               "--out", str(tmp_path / "y.csv")])
    assert res.exit_code == 2


def test_density_beta2(runner, tmp_path):
    out = str(tmp_path / "d.csv")
    res = runner.invoke(main, ["density", "--beta", "2", "--n", "16", "--l", "4",
                               "--grid", "0:6:13", "--out", out])
    assert res.exit_code == 0, res.output
    rows = read_csv(out)
    assert rows[0] == ["r", "rho"]
    assert len(rows) == 14
    params = EnsembleParams(N=16, L=4.0, beta=2)
    grid = np.linspace(0.0, 6.0, 13)
    for row, r in zip(rows[1:], grid):
        assert np.isclose(float(row[0]), r, atol=1e-12)
        assert np.isclose(float(row[1]), cx.density(r, params), rtol=1e-12)


def test_density_beta1_columns(runner, tmp_path):
    out = str(tmp_path / "d1.csv")
    res = runner.invoke(main, ["density", "--beta", "1", "--n", "8", "--l", "2",
                               "--grid", "0.5:2.5:3", "--out", out])
    assert res.exit_code == 0, res.output
    rows = read_csv(out)
    assert rows[0] == ["r", "rho", "rho_real"]
    params = EnsembleParams(N=8, L=2.0, beta=1)
    for row in rows[1:]:
        r, rho, rho_real = (float(v) for v in row)
        assert np.isclose(rho_real, float(re1.density_real(r, params)), rtol=1e-10)
        # azimuthal average of the complex-pair density, checked by quadrature
        want = quad(lambda t: float(re1.density_complex(r * np.exp(1j * t), params)),
                    1e-9, math.pi - 1e-9, limit=200)[0] / math.pi
        assert np.isclose(rho, want, rtol=5e-4, atol=1e-9), (r, rho, want)


def test_density_grid_validation(runner, tmp_path):
    out = str(tmp_path / "d.csv")
    for bad in ("1:2", "a:b:c", "2:1:5", "0:1:0"):
        res = runner.invoke(main, ["density", "--beta", "2", "--n", "4", "--l", "0",
                                   "--grid", bad, "--out", out])
        assert res.exit_code == 2, bad


def test_kernel_command(runner, tmp_path):
    pts = tmp_path / "pts.csv"
    with open(pts, "w") as fh:
        fh.write("0.4,0.0\n-1.1,0.0\n0.5,0.8\n")
    out = str(tmp_path / "k.csv")
    res = runner.invoke(main, ["kernel", "--beta", "1", "--n", "8", "--l", "1.5",
                               "--points", str(pts), "--out", out])
    assert res.exit_code == 0, res.output
    rows = read_csv(out)
    assert rows[0] == ["i", "j", "ds_re", "ds_im", "s_re", "s_im", "is_re", "is_im", "eps"]
    assert len(rows) == 1 + 9  # all ordered pairs of three points
    params = EnsembleParams(N=8, L=1.5, beta=1)
    zs = [0.4, -1.1, 0.5 + 0.8j]
    for row in rows[1:]:
        i, j = int(row[0]), int(row[1])
        e = re1.kernel_entries(zs[i], zs[j], params)
        got = [float(v) for v in row[2:]]
        want = [complex(e.DS).real, complex(e.DS).imag, complex(e.S).real,
                complex(e.S).imag, complex(e.IS).real, complex(e.IS).imag, e.eps]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15), (i, j)


def test_kernel_rejects_bad_points(runner, tmp_path):
    pts = tmp_path / "pts.csv"
    with open(pts, "w") as fh:
        fh.write("0.1,0.2,0.3\n")
    res = runner.invoke(main, ["kernel", "--beta", "1", "--n", "8", "--l", "0",
                               "--points", str(pts), "--out", str(tmp_path / "k.csv")])
    assert res.exit_code == 2
    # header rows / non-numeric content -> clean usage error, not a traceback
    with open(pts, "w") as fh:
        fh.write("re,im\n0.3,0.0\n")
    res = runner.invoke(main, ["kernel", "--beta", "1", "--n", "8", "--l", "0",
                               "--points", str(pts), "--out", str(tmp_path / "k.csv")])
    assert res.exit_code == 2
    # no points at all (empty, or comments only) -> that error, and no numpy warning
    for text in ("", "# re,im\n"):
        pts.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["kernel", "--beta", "1", "--n", "8", "--l", "0",
                                       "--points", str(pts), "--out", str(tmp_path / "k.csv")])
        assert res.exit_code == 2
        assert "--points file holds no points" in res.output
        assert not caught, [str(w.message) for w in caught]


def test_holeprob_stdout_and_file(runner, tmp_path):
    res = runner.invoke(main, ["holeprob", "--n", "20", "--l", "2",
                               "--smax", "1.5", "--steps", "4"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "s,A"
    vals = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert np.isclose(vals[0.0], 1.0, rtol=1e-14)
    assert np.isclose(vals[0.5], 0.997698542191697, rtol=1e-12)
    assert np.isclose(vals[1.0], 0.898313934830039, rtol=1e-12)
    assert np.isclose(vals[1.5], 0.437293392614768, rtol=1e-12)
    out = str(tmp_path / "h.csv")
    res = runner.invoke(main, ["holeprob", "--n", "20", "--l", "2",
                               "--smax", "1.5", "--steps", "4", "--out", out])
    assert res.exit_code == 0
    rows = read_csv(out)
    assert rows[0] == ["s", "A"] and len(rows) == 5
    res = runner.invoke(main, ["holeprob", "--n", "20", "--l", "2",
                               "--smax", "-1", "--steps", "4"])
    assert res.exit_code == 2


def test_verify_pass_and_fail(runner, tmp_path):
    res = runner.invoke(main, ["verify", "--experiment", "edge-profile",
                               "--seed", "0", "--samples", "1"])
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["passed"] is True
    assert doc["experiment"] == "edge-profile"
    # real-count keeps the leading-order clauses, which fail at these sizes
    out_dir = str(tmp_path / "mc")
    res = runner.invoke(main, ["verify", "--experiment", "real-count",
                               "--seed", "19", "--samples", "150",
                               "--out", out_dir])
    assert res.exit_code == 1
    doc = json.loads(res.output)
    assert doc["passed"] is False
    by = {(rep["statistic"], rep["params"]["L"]): rep["passed"] for rep in doc["reports"]}
    assert by[("mean_vs_quadrature", 32)]
    assert not by[("mean_vs_leading_order", 32)]
    res = runner.invoke(main, ["verify", "--experiment", "nope",
                               "--seed", "0", "--samples", "1"])
    assert res.exit_code == 2


def test_channel_command(runner, tmp_path):
    out = str(tmp_path / "chan.json")
    res = runner.invoke(main, ["channel", "--d", "6", "--k", "8",
                               "--realizations", "2", "--seed", "11", "--out", out])
    assert res.exit_code == 0, res.output
    with open(out) as fh:
        doc = json.load(fh)
    r_in, r_out = predicted_ring(6, 8)
    assert doc["d"] == 6 and doc["k"] == 8
    assert np.isclose(doc["r_in"], r_in) and np.isclose(doc["r_out"], r_out)
    assert len(doc["realizations"]) == 2
    for run in doc["realizations"]:
        assert len(run["eigenvalues"]) == 36  # d^2 for k > d
        assert run["trace_norm"] > 0
    res = runner.invoke(main, ["channel", "--d", "1", "--k", "8",
                               "--realizations", "1", "--seed", "0",
                               "--out", str(tmp_path / "x.json")])
    assert res.exit_code == 2


def test_usage_errors(runner, tmp_path):
    # invalid ensemble parameters map to usage errors
    res = runner.invoke(main, ["sample", "--beta", "1", "--n", "0", "--l", "0",
                               "--seed", "1", "--out", str(tmp_path / "m.npz")])
    assert res.exit_code == 2
    res = runner.invoke(main, ["sample", "--beta", "1", "--n", "4", "--l", "-2",
                               "--seed", "1", "--out", str(tmp_path / "m.npz")])
    assert res.exit_code == 2
    res = runner.invoke(main, ["sample", "--beta", "3", "--n", "4", "--l", "0",
                               "--seed", "1", "--out", str(tmp_path / "m.npz")])
    assert res.exit_code == 2


def _failing_spectrum(exc):
    def spectra_chunk(params, rngs):
        raise exc
    return spectra_chunk


def test_verify_numeric_sample_failure_exits_3(runner, monkeypatch):
    monkeypatch.setattr(harness, "_spectra_chunk", _failing_spectrum(QuadratisationError(1e15)))
    res = runner.invoke(main, ["verify", "--experiment", "hole-prob",
                               "--seed", "0", "--samples", "4", "--workers", "1"])
    assert res.exit_code == 3
    assert "numeric failure" in res.output and "sample index 0" in res.output


def test_verify_programming_error_is_not_numeric(runner, monkeypatch):
    monkeypatch.setattr(harness, "_spectra_chunk", _failing_spectrum(TypeError("bad operand")))
    res = runner.invoke(main, ["verify", "--experiment", "hole-prob",
                               "--seed", "0", "--samples", "4", "--workers", "1"])
    assert res.exit_code != 3
    assert isinstance(res.exception, WorkerError)
    assert isinstance(res.exception.__cause__, TypeError)


def test_verify_non_integer_thread_cap_names_the_variable(runner, monkeypatch):
    monkeypatch.setenv("INDG_THREADS", "abc")
    res = runner.invoke(main, ["verify", "--experiment", "hole-prob",
                               "--seed", "0", "--samples", "4"])
    assert res.exit_code == 2
    assert "INDG_THREADS must be an integer, got 'abc'" in res.output


def test_numeric_error_classification():
    # the numeric-exit tuple catches quadratisation failures before the
    # ValueError mapping can turn them into usage errors
    assert issubclass(QuadratisationError, ValueError)
    assert QuadratisationError in _NUMERIC_ERRORS
    from indg.cli import _exit_numeric
    with pytest.raises(SystemExit) as exc_info:
        _exit_numeric(QuadratisationError(1e15))
    assert exc_info.value.code == 3


@pytest.mark.parametrize("args, message", [
    # rho is azimuthal, so a negative radius is refused by the radius rule
    (["density", "--beta", "1", "--n", "8", "--l", "2", "--grid=-1:1:5"],
     "radii must satisfy r >= 0"),
    (["density", "--beta", "1", "--n", "7", "--l", "2", "--grid", "0:1:5"],
     "restricted to even matrix dimension"),
    (["kernel", "--beta", "1", "--n", "7", "--l", "2"],
     "restricted to even matrix dimension"),
    # the correction term has one normalisation, so kernel takes no --variant
    (["kernel", "--beta", "1", "--n", "8", "--l", "0", "--variant", "theorem"],
     "No such option '--variant'"),
    (["spectrum", NAN_ARCHIVE], "matrix entries must be finite"),
    (["spectrum", BETA3_ARCHIVE], "beta must be 1 or 2, got 3"),
    (["holeprob", "--n", "20", "--l", "2", "--smax", "inf", "--steps", "4"],
     "hole radius must be a finite real >= 0"),
    (["holeprob", "--n", "20", "--l", "2", "--smax", "nan", "--steps", "4"],
     "hole radius must be a finite real >= 0"),
])
def test_library_value_errors_are_usage_errors(runner, tmp_path, args, message):
    if args[0] == "kernel":
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.0\n0.5,0.7\n")
        args = args + ["--points", str(pts)]
    if args[0] == "spectrum":
        np.savez(tmp_path / "m.npz", **args[1])
        args = ["spectrum", "--in", str(tmp_path / "m.npz")]
    res = runner.invoke(main, args + ["--out", str(tmp_path / "o.csv")])
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not (tmp_path / "o.csv").exists()


def test_channel_kraus_defect_exits_3(runner, tmp_path, monkeypatch):
    kraus = channels.complementary_kraus

    def scaled_kraus(channel):
        A = kraus(channel).copy()
        A[0] *= 1.01
        return A

    monkeypatch.setattr(channels, "complementary_kraus", scaled_kraus)
    res = runner.invoke(main, ["channel", "--d", "4", "--k", "5", "--realizations", "1",
                               "--seed", "3", "--out", str(tmp_path / "c.json")])
    assert res.exit_code == 3, res.output
    assert "Kraus identity resolution violated" in res.output


@pytest.mark.parametrize("command, target, exc", [
    ("spectrum", "eigenvalues", EigenConvergenceError("eigvals did not converge")),
    # a ValueError subclass: the numeric exit must win over the usage mapping
    ("sample", "sample_induced_quadratise", QuadratisationError(1e15)),
])
def test_numeric_failures_exit_3(runner, tmp_path, monkeypatch, command, target, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, fail)
    archive = str(tmp_path / "m.npz")
    np.savez(archive, matrices=np.eye(2)[None], N=2, L=0, beta=2)
    args = {"spectrum": ["spectrum", "--in", archive],
            "sample": ["sample", "--beta", "2", "--n", "4", "--l", "1", "--seed", "0"]}
    res = runner.invoke(main, args[command] + ["--out", str(tmp_path / "o")])
    assert res.exit_code == 3, res.output
    assert f"numeric failure: {exc}" in res.output


def test_seeded_commands_independent_of_the_callers_blas_threads(runner, tmp_path):
    # zgeqrf, zgemm and dgeev give different bits at one and two OpenBLAS
    # threads; every command runs BLAS at one thread whatever the caller set
    blas = linalg._openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS thread functions are not available")
    get, set_threads = blas
    archive = str(tmp_path / "draws.npz")

    def outputs(threads):
        out = tmp_path / str(threads)
        out.mkdir()
        commands = [
            ["channel", "--d", "14", "--k", "18", "--realizations", "2", "--seed", "3",
             "--out", str(out / "chan.json")],
            ["sample", "--beta", "2", "--n", "128", "--l", "32", "--count", "2", "--seed", "7",
             "--out", str(out / "draws.npz")],
            ["spectrum", "--in", archive, "--out", str(out / "eigs.csv")],
        ]
        for args in commands:
            set_threads(threads)
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
            assert get() == threads
        with np.load(out / "draws.npz") as drawn:
            matrices = drawn["matrices"].tobytes()
        return (out / "chan.json").read_bytes(), matrices, (out / "eigs.csv").read_bytes()

    before = get()
    try:
        set_threads(1)
        runner.invoke(main, ["sample", "--beta", "2", "--n", "128", "--l", "32",
                             "--count", "2", "--seed", "7", "--out", archive])
        assert outputs(2) == outputs(1)
    finally:
        set_threads(before)


def test_verify_overlapping_sub_runs_is_a_usage_error(runner, monkeypatch):
    # real-count's L=0 half draws from spawn index 10**6 on: more samples
    # per half would share streams with the L=32 half, and no draw is made
    def no_draw(params, rngs):
        raise AssertionError("spectra chunk ran")

    monkeypatch.setattr(harness, "_spectra_chunk", no_draw)
    res = runner.invoke(main, ["verify", "--experiment", "real-count", "--seed", "1",
                               "--samples", str(10 ** 6 + 1)])
    assert res.exit_code == 2, res.output
    assert "exceeds 1000000" in res.output


@pytest.mark.parametrize("experiment, seed, samples, message", [
    ("hole-prob", "-1", "10", "master_seed must be an integer >= 0, got -1"),
    ("edge-profile", "-1", "1", "master_seed must be an integer >= 0, got -1"),
])
def test_verify_negative_seed_is_a_usage_error(runner, monkeypatch, experiment, seed, samples,
                                               message):
    def no_draw(params, rngs):
        raise AssertionError("spectra chunk ran")

    monkeypatch.setattr(harness, "_spectra_chunk", no_draw)
    res = runner.invoke(main, ["verify", "--experiment", experiment, "--seed", seed,
                               "--samples", samples])
    assert res.exit_code == 2, res.output
    assert message in res.output


def test_density_negative_radius_names_the_radius_rule(runner, tmp_path):
    # rho depends on |z| at beta=2, so its rows stand; beta=1 refuses the grid
    res = runner.invoke(main, ["density", "--beta", "2", "--n", "4", "--l", "1",
                               "--grid=-1:1:3", "--out", str(tmp_path / "d2.csv")])
    assert res.exit_code == 0, res.output
    assert len(read_csv(tmp_path / "d2.csv")) == 4
    res = runner.invoke(main, ["density", "--beta", "1", "--n", "4", "--l", "1",
                               "--grid=-1:1:3", "--out", str(tmp_path / "d1.csv")])
    assert res.exit_code == 2, res.output
    assert "radii must satisfy r >= 0" in res.output
    assert "density_complex" not in res.output


def test_entry_point_usage_error_has_no_traceback(tmp_path):
    archive = tmp_path / "m.npz"
    np.savez(archive, **NAN_ARCHIVE)
    src = str(Path(indg.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "indg.cli", "spectrum", "--in", str(archive),
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert res.returncode == 2, res.stderr
    assert "Error:" in res.stderr and "matrix entries must be finite" in res.stderr
    assert "Traceback" not in res.stderr


def test_verify_real_count_one_sample_is_a_usage_error(tmp_path):
    # one sample has no standard error: refused before any draw, so neither
    # numpy's warnings nor a NaN tolerance reach the output
    src = str(Path(indg.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "indg.cli", "verify", "--experiment", "real-count",
         "--seed", "3", "--samples", "1", "--out", str(tmp_path / "mc")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert res.returncode == 2, res.stderr
    assert "Error:" in res.stderr and "n_samples >= 2" in res.stderr
    assert "RuntimeWarning" not in res.stderr
    assert "NaN" not in res.stdout + res.stderr
    assert not (tmp_path / "mc").exists()


@pytest.mark.parametrize("smax", ["inf", "nan"])
def test_holeprob_nonfinite_smax_warns_nothing(tmp_path, smax):
    # the radius is checked before the grid is built, so numpy has nothing to warn about
    src = str(Path(indg.__file__).parents[1])
    res = subprocess.run(
        [sys.executable, "-m", "indg.cli", "holeprob", "--n", "20", "--l", "2",
         "--smax", smax, "--steps", "4"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert res.returncode == 2, res.stderr
    assert "Error:" in res.stderr and "hole radius must be a finite real >= 0" in res.stderr
    assert "RuntimeWarning" not in res.stderr
