"""Monte Carlo harness: KS statistic, histograms, determinism, experiments."""
import json
import os
import tracemalloc
from functools import partial

import numpy as np
import pytest

from indg import harness, linalg
from indg import real_ensemble as re1
from indg import sampling
from indg.channels import Superoperator
from indg.harness import (
    EXPERIMENTS,
    ExperimentReport,
    WorkerError,
    _map_runs,
    ks_two_sample,
    report_payload_bytes,
    resolve_workers,
    run_mc,
)
from indg.linalg import EigenConvergenceError, eigenvalues, sample_gaussian
from indg.sampling import (EnsembleParams, QuadratisationError, quadratise,
                           sample_induced_quadratise, square_factors)


# ---------------------------------------------------------------- KS

def test_ks_identity_and_disjoint():
    a = np.sort(np.random.default_rng(0).uniform(size=1000))
    t, p = ks_two_sample(a, a)
    assert t == 0.0 and p == 1.0
    t, p = ks_two_sample(np.array([1.0, 2.0]), np.array([5.0, 6.0]))
    assert t == 1.0


def test_ks_same_distribution_not_rejected():
    a = np.sort(np.random.default_rng(0).uniform(size=1000))
    b = np.sort(np.random.default_rng(1).uniform(size=1000))
    t, p = ks_two_sample(a, b)
    assert 0.0 < t < 0.1
    assert p > 0.001


def test_ks_vs_brute_force_cdf():
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = np.sort(rng.normal(size=rng.integers(2, 30)))
        y = np.sort(rng.normal(size=rng.integers(2, 30)))
        t, _ = ks_two_sample(x, y)
        brute = 0.0
        for v in np.concatenate([x, y]):
            brute = max(brute, abs(np.mean(x <= v) - np.mean(y <= v)))
        assert abs(t - brute) < 1e-12


def test_ks_input_validation():
    with pytest.raises(ValueError):
        ks_two_sample(np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        ks_two_sample(np.array([2.0, 1.0]), np.array([1.0]))  # unsorted


# ---------------------------------------------------------------- reports

def test_report_payload_excludes_wall_time():
    r = ExperimentReport.build("x", {"N": 2}, "stat", 1.0, 1.0, 0.5, seed=7)
    r.wall_time = 123.0
    assert "wall_time" not in r.payload()
    assert r.to_dict()["wall_time"] == 123.0
    assert r.passed
    r2 = ExperimentReport.build("x", {"N": 2}, "stat", 2.0, 1.0, 0.5, seed=7)
    assert not r2.passed


def test_resolve_workers(monkeypatch):
    assert resolve_workers(4) == 4
    assert resolve_workers(0) == 1
    monkeypatch.setenv("INDG_THREADS", "2")
    assert resolve_workers() <= 2


def _spawn_indices(rngs):
    return [rng.bit_generator.seed_seq.spawn_key[0] for rng in rngs]


def test_map_indices_surfaces_failing_index():
    def fn(rngs):
        if 3 in _spawn_indices(rngs):
            raise ValueError("boom")
        return _spawn_indices(rngs)

    # side 251 gives chunks of 2: the chunk (2, 4) fails as a whole and is
    # rerun index by index
    with pytest.raises(RuntimeError, match="index 3"):
        _map_runs([(fn, 5, 251)], workers=1, master_seed=17)
    squares = _map_runs([(lambda rngs: [i * i for i in _spawn_indices(rngs)], 5, 251)],
                        workers=2, master_seed=17)[0]
    assert squares == [[0, 1], [4, 9], [16]]


def _record(seen, run, rngs):
    seen.append((run, _spawn_indices(rngs)))
    return _spawn_indices(rngs)


@pytest.mark.parametrize("workers", [1, 2])
def test_map_runs_takes_the_largest_side_first(workers):
    # sides 100, 251 and 100 give chunks of 6, 2 and 6 indices
    # run r draws spawn indices r * 10**6 + i, r its place in runs, not in
    # the submission order
    seen = []
    runs = [(partial(_record, seen, "small"), 8, 100),
            (partial(_record, seen, "large"), 5, 251),
            (partial(_record, seen, "tie"), 4, 100)]
    results = _map_runs(runs, workers, master_seed=17)
    one, two = 10 ** 6, 2 * 10 ** 6
    assert results == [[[0, 1, 2, 3, 4, 5], [6, 7]],
                       [[one, one + 1], [one + 2, one + 3], [one + 4]],
                       [[two, two + 1, two + 2, two + 3]]]
    if workers == 1:
        # the larger side's chunks first, then the tied runs in run order
        assert [run for run, _ in seen] == ["large"] * 3 + ["small"] * 2 + ["tie"]
        assert [indices for _, indices in seen] == [
            chunk for part in (results[1], results[0], results[2]) for chunk in part]
    else:
        assert sorted(seen) == sorted(
            (run, chunk) for run, part in zip(("small", "large", "tie"), results)
            for chunk in part)


def test_map_runs_refuses_overlapping_index_ranges():
    # a first run of 10**6 + 1 indices would draw index 10**6, the second
    # run's index 0; the call is refused before any chunk runs
    calls = []

    def fn(rngs):
        calls.append(_spawn_indices(rngs))
        return _spawn_indices(rngs)

    with pytest.raises(ValueError, match="exceeds 1000000"):
        _map_runs([(fn, 10 ** 6 + 1, 251), (fn, 2, 251)], workers=2, master_seed=17)
    assert calls == []


def test_map_runs_bounds_every_run_but_the_last(monkeypatch):
    # with a stride of 3, a run of 3 fills its range exactly, and only the
    # last run may hold more
    monkeypatch.setattr(harness, "_RUN_STRIDE", 3)
    fn = _spawn_indices
    assert _map_runs([(fn, 3, 600), (fn, 5, 600)], 1, 17) == [
        [[0], [1], [2]], [[3], [4], [5], [6], [7]]]
    with pytest.raises(ValueError, match="exceeds 3"):
        _map_runs([(fn, 4, 600), (fn, 1, 600)], 1, 17)


def test_channel_ring_refuses_overlapping_geometries(monkeypatch):
    # its three geometries draw from 0, 10**6 and 2 * 10**6: more than 10**6
    # maps per geometry is refused before any map is drawn
    def no_draw(geometry, rngs):
        raise AssertionError("channel chunk ran")

    monkeypatch.setattr(harness, "_channel_chunk", no_draw)
    with pytest.raises(ValueError, match="exceeds 1000000"):
        run_mc("channel-ring", 1, 10 ** 6 + 1)


@pytest.mark.parametrize("experiment,n", [("channel-ring", 4), ("real-count", 5),
                                          ("sampler-equiv", 7)])
def test_one_pool_per_run_mc_call(monkeypatch, experiment, n):
    # n puts more than one chunk in each sub-run, so a pool per sub-run
    # would open 2 or 3 pools
    executor, pools = harness.ThreadPoolExecutor, []

    def counting_executor(*args, **kwargs):
        pools.append(kwargs)
        return executor(*args, **kwargs)

    monkeypatch.setattr(harness, "ThreadPoolExecutor", counting_executor)
    run_mc(experiment, 3, n, workers=2)
    assert pools == [{"max_workers": 2}]


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_error_names_the_salted_stream(monkeypatch, workers):
    # real-count's L=0 half draws from spawn indices 10**6 + i; a failure
    # there must name the key that reproduces it, not the bare i
    index_rng = harness._index_rng

    def failing(master_seed, index):
        if index == 10 ** 6 + 2:
            raise FloatingPointError("injected")
        return index_rng(master_seed, index)

    monkeypatch.setattr(harness, "_index_rng", failing)
    with pytest.raises(WorkerError, match=r"seed spawn \(19, \(1000002,\)\)") as info:
        run_mc("real-count", 19, 4, workers=workers)
    assert info.value.index == 10 ** 6 + 2
    assert info.value.master_seed == 19
    assert isinstance(info.value.__cause__, FloatingPointError)


# ---------------------------------------------------------------- stacked chunks

@pytest.mark.parametrize("rows,side,per_index,want", [
    (160, 128, 1, 4),   # radial-density and real-count L=32
    (128, 128, 1, 4),   # real-count L=0
    (196, 100, 1, 6),   # channel-ring (14, 10)
    (196, 196, 1, 3),   # channel-ring (14, 14)
    (324, 196, 1, 3),   # channel-ring (14, 18)
    (60, 50, 2, 6),     # sampler-equiv: a polar and a quadratised draw per index
    (22, 20, 1, 26),    # hole-prob
    (20, 16, 1, 32),    # real-density
])
def test_chunk_length_table(rows, side, per_index, want):
    # rows (N+L, or d**2 for a channel) never enters the rule: draws that
    # share the side eigvals sees share a chunk length
    side *= per_index
    assert harness._chunk_length(side) == want
    assert want * side > 500  # past eigvals' GIL-release size
    assert (want - 1) * side <= 500  # and no larger than that needs


@pytest.mark.parametrize("M,N,beta", [(22, 20, 2), (160, 128, 1), (160, 128, 2),
                                      (129, 128, 1), (7, 4, 1), (7, 4, 2)])
def test_square_factors_match_quadratise_bit_for_bit(M, N, beta):
    rng = np.random.default_rng(M * N + beta)
    X = np.stack([sample_gaussian(M, N, beta, rng) for _ in range(3)])
    G = square_factors(X)
    for j in range(len(X)):
        assert G[j].tobytes() == quadratise(X[j])[0].tobytes()


def _stacked_draws(monkeypatch):
    # _spectra_chunk with eigenvalues passed through returns the stacked G
    monkeypatch.setattr(harness, "eigenvalues", lambda G, beta: G)
    return harness._spectra_chunk


@pytest.mark.parametrize("params", [EnsembleParams(N=20, L=2, beta=2),
                                    EnsembleParams(N=4, L=3, beta=1),
                                    EnsembleParams(N=6, L=0, beta=1)])
def test_chunk_draws_match_the_scalar_sampler(monkeypatch, params):
    chunk = _stacked_draws(monkeypatch)(params, [harness._index_rng(23, i) for i in range(5, 12)])
    for j, index in enumerate(range(5, 12)):
        G = sample_induced_quadratise(params, harness._index_rng(23, index))
        assert chunk[j].tobytes() == G.tobytes()


def test_ill_conditioned_row_is_redrawn_on_its_stream(monkeypatch):
    params = EnsembleParams(N=20, L=2, beta=2)
    seed, bad = 31, 4
    fresh = harness._index_rng(seed, bad).bit_generator.state
    draw = sample_gaussian

    def singular_first_draw(rows, cols, beta, rng):
        first = rng.bit_generator.state == fresh
        X = draw(rows, cols, beta, rng)
        if first:
            X[0] = 0.0  # a zero row of the top block makes Q1 singular
        return X

    monkeypatch.setattr(sampling, "sample_gaussian", singular_first_draw)
    X = np.stack([singular_first_draw(22, 20, 2, harness._index_rng(seed, i)) for i in range(8)])
    # square_factors refuses exactly the ill row, as a stack and alone
    with pytest.raises(QuadratisationError):
        square_factors(X)
    for i in range(8):
        if i == bad:
            with pytest.raises(QuadratisationError):
                square_factors(X[i:i + 1])
        else:
            square_factors(X[i:i + 1])
    chunk = _stacked_draws(monkeypatch)(params, [harness._index_rng(seed, i) for i in range(8)])
    for i in range(8):
        G = sample_induced_quadratise(params, harness._index_rng(seed, i))
        assert chunk[i].tobytes() == G.tobytes()


def test_ill_quadratised_half_of_a_pair_is_redrawn_on_its_stream(monkeypatch):
    # index 3's quadratised Gaussian, drawn after its polar matrix, has a
    # singular top block; its pair is the polar draw followed by
    # sample_induced_quadratise on the same stream, which redraws it
    params = EnsembleParams(N=6, L=2, beta=1)
    seed, bad = 41, 3
    rng = harness._index_rng(seed, bad)
    sampling.sample_induced_polar(params, rng)
    after_polar = rng.bit_generator.state
    draw, ill_draws = sample_gaussian, []

    def singular_after_polar(rows, cols, beta, rng):
        first = rng.bit_generator.state == after_polar
        X = draw(rows, cols, beta, rng)
        if first:
            X[0] = 0.0  # a zero row of the top block makes Q1 singular
            ill_draws.append(X)
        return X

    monkeypatch.setattr(sampling, "sample_gaussian", singular_after_polar)
    seen = []
    monkeypatch.setattr(harness, "eigenvalues", lambda G, beta: seen.append(G) or G)
    harness._sampler_pairs_chunk(params, [harness._index_rng(seed, i) for i in range(6)])
    assert len(ill_draws) == 1
    with pytest.raises(QuadratisationError):
        square_factors(ill_draws[0][None])
    for i in range(6):
        rng = harness._index_rng(seed, i)
        polar = sampling.sample_induced_polar(params, rng)
        assert seen[0][i, 0].tobytes() == polar.tobytes()
        assert seen[0][i, 1].tobytes() == sample_induced_quadratise(params, rng).tobytes()
    assert len(ill_draws) == 2  # the scalar sampler met the same ill draw


def test_failing_stacked_eigvals_names_the_salted_index(monkeypatch):
    params = EnsembleParams(N=20, L=2, beta=2)
    # the run sits second in the list, so it draws indices 10**6 + i
    target = sample_induced_quadratise(params, harness._index_rng(19, 10 ** 6 + 35))

    def eigvals_failing_on_target(G, beta):
        if any(np.array_equal(g, target) for g in G):
            raise EigenConvergenceError("injected")
        return eigenvalues(G, beta)

    monkeypatch.setattr(harness, "eigenvalues", eigvals_failing_on_target)
    # chunks of 26: index 35 sits inside the second chunk, not at its edge
    with pytest.raises(WorkerError, match=r"seed spawn \(19, \(1000035,\)\)") as info:
        harness._map_runs([harness._spectra_run(params, 1), harness._spectra_run(params, 40)],
                          2, 19)
    assert info.value.index == 10 ** 6 + 35
    assert isinstance(info.value.__cause__, EigenConvergenceError)


# sample counts that put a chunk boundary inside the run: hole-prob and
# real-density stack 26 and 32 draws per chunk, sampler-equiv 6 pairs, the
# N=128 ensembles 4 draws, and channel-ring 6, 3 and 3 maps, so its n=4
# crosses a boundary at (14, 14) and (14, 18)
_IDENTITY_N = {"radial-density": 5, "real-count": 5, "hole-prob": 50,
               "sampler-equiv": 7, "channel-ring": 4, "real-density": 50}


@pytest.mark.parametrize("experiment", sorted(_IDENTITY_N))
def test_reports_and_artifacts_identical_across_workers(tmp_path, experiment):
    n = _IDENTITY_N[experiment]
    outputs = []
    for workers in (1, 2, 3):
        out = tmp_path / str(workers)
        reports = run_mc(experiment, 8, n, workers=workers, out_dir=str(out))
        csvs = {f: (out / f).read_bytes() for f in sorted(os.listdir(out)) if f.endswith(".csv")}
        outputs.append((report_payload_bytes(reports), csvs))
    assert outputs[0] == outputs[1] == outputs[2]


def test_chunk_memory_stays_bounded():
    # tracemalloc peak of 2000 hole-prob draws on two workers; the per-index
    # map peaked at 3.57 MiB, and chunks of 26 draws peak at 2.5-2.7 MiB
    run_mc("hole-prob", 3, 40, workers=2)
    tracemalloc.start()
    try:
        run_mc("hole-prob", 3, 2000, workers=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6 * 2 ** 20


def _blas_threads():
    blas = linalg._openblas_threads()
    if blas is None:
        pytest.skip("numpy's bundled OpenBLAS thread functions are not available")
    return blas


def _channel_ring_outputs(out):
    reports = run_mc("channel-ring", 12345, 5, workers=1, out_dir=str(out))
    csvs = {f: (out / f).read_bytes() for f in sorted(os.listdir(out)) if f.endswith(".csv")}
    return report_payload_bytes(reports), csvs


def test_reports_independent_of_the_callers_blas_threads(tmp_path, monkeypatch):
    # zgeqrf and zgemm at channel-ring's sizes give different bits at one and
    # two OpenBLAS threads; run_mc runs BLAS at one thread whatever the caller set
    get, set_threads = _blas_threads()
    before = get()
    try:
        set_threads(2)
        at_two = _channel_ring_outputs(tmp_path / "two")
        assert get() == 2
        set_threads(1)
        at_one = _channel_ring_outputs(tmp_path / "one")
        assert get() == 1
        assert at_two == at_one

        set_threads(2)
        seen = []

        def failing(master_seed, index):
            seen.append(get())
            raise FloatingPointError("injected")

        monkeypatch.setattr(harness, "_index_rng", failing)
        with pytest.raises(WorkerError):
            run_mc("channel-ring", 12345, 2, workers=1)
        assert seen and set(seen) == {1}
        assert get() == 2
    finally:
        set_threads(before)


def test_ill_conditioned_channel_map_names_its_sample(monkeypatch):
    # a map whose standing matrix has a singular top block fails its chunk;
    # the rerun names its index, with QuadratisationError as the cause
    draw = harness.random_complementary_map

    def singular_at_index_4(d, k, rng):
        phi = draw(d, k, rng)
        if rng.bit_generator.seed_seq.spawn_key != (4,):
            return phi
        m = phi.matrix.copy()
        m[:, 0] = 0.0  # (14, 10) quadratises m.T: a zero row of its top block
        return Superoperator(matrix=m, spec=phi.spec)

    monkeypatch.setattr(harness, "random_complementary_map", singular_at_index_4)
    # the (14, 10) maps go 6 to a chunk: index 4 sits inside the first one
    with pytest.raises(WorkerError, match=r"seed spawn \(29, \(4,\)\)") as info:
        run_mc("channel-ring", 29, 6, workers=1)
    assert info.value.index == 4
    assert isinstance(info.value.__cause__, QuadratisationError)


# ---------------------------------------------------------------- bin expectations

@pytest.mark.parametrize("N,L", [(16, 4), (128, 32)])
def test_bin_expectations_sum_to_totals(N, L):
    # wide bins covering the whole support: the binned expectations add up
    # to the mean real count and to N
    reach = 1.0 + 10.0 / np.sqrt(N + L)
    p1, p2 = EnsembleParams(N=N, L=L, beta=1), EnsembleParams(N=N, L=L, beta=2)
    line = harness._expected_line_real(np.linspace(-reach, reach, 33), p1, 1)
    assert abs(line.sum() - re1.expected_real_count(p1)) < 1e-7
    radial = harness._expected_radial_complex(np.linspace(0.0, reach, 17), p2, 1)
    assert abs(radial.sum() - N) < 1e-12


def test_radial_real_expectation_counts_every_eigenvalue():
    params = EnsembleParams(N=16, L=4, beta=1)
    reach = 1.0 + 10.0 / np.sqrt(20.0)
    radial = harness._expected_radial_real(np.linspace(0.0, reach, 17), params, 1)
    assert abs(radial.sum() - 16.0) < 1e-6


# ---------------------------------------------------------------- experiments

def test_experiment_registry_and_validation():
    assert set(EXPERIMENTS) == {
        "radial-density", "real-count", "hole-prob", "sampler-equiv",
        "channel-ring", "edge-profile", "real-density",
    }
    with pytest.raises(ValueError):
        run_mc("nope", 0, 1)
    with pytest.raises(ValueError):
        run_mc("hole-prob", 0, 0)
    with pytest.raises(ValueError, match="n_samples >= 2"):
        run_mc("real-count", 0, 1)  # one sample has no standard error


@pytest.mark.parametrize("seed, n, message", [
    (-1, 10, "master_seed must be an integer >= 0, got -1"),
    (1.7, 2.5, "master_seed must be an integer >= 0, got 1.7"),
    (1, 2.5, "n_samples must be an integer >= 1, got 2.5"),
    (1, 0, "n_samples must be an integer >= 1, got 0"),
])
def test_run_mc_checks_seed_and_count_before_any_draw(monkeypatch, seed, n, message):
    def no_draw(params, rngs):
        raise AssertionError("spectra chunk ran")

    monkeypatch.setattr(harness, "_spectra_chunk", no_draw)
    with pytest.raises(ValueError, match=message):
        run_mc("hole-prob", seed, n)


def test_hole_prob_deterministic_across_workers():
    r1 = run_mc("hole-prob", 123, 200, workers=1)
    r3 = run_mc("hole-prob", 123, 200, workers=3)
    assert report_payload_bytes(r1) == report_payload_bytes(r3)
    assert [r.statistic for r in r1] == ["empty_disk_fraction"] * 3
    # a different seed must change the empirical side
    r_other = run_mc("hole-prob", 124, 200, workers=1)
    assert report_payload_bytes(r_other) != report_payload_bytes(r1)


def test_real_count_deterministic_across_workers():
    # both halves, including the L=0 streams at spawn indices 10**6 + i
    r1 = run_mc("real-count", 41, 12, workers=1)
    r2 = run_mc("real-count", 41, 12, workers=2)
    assert report_payload_bytes(r1) == report_payload_bytes(r2)


def test_edge_profile_experiment_passes():
    r = run_mc("edge-profile", 0, 1)
    assert len(r) == 1
    assert r[0].passed
    assert r[0].empirical < r[0].tolerance


def test_radial_density_experiment():
    r = run_mc("radial-density", 7, 64)
    assert r[0].passed, (r[0].empirical, r[0].analytic)
    assert r[0].analytic == 64.0  # all bins are expected within 3 sigma


def test_real_density_experiment():
    for rep in run_mc("real-density", 11, 150):
        assert rep.passed, (rep.statistic, rep.empirical)


def test_sampler_equiv_experiment():
    for rep in run_mc("sampler-equiv", 5, 150):
        assert rep.passed, (rep.params, rep.empirical)


def test_channel_ring_experiment():
    for rep in run_mc("channel-ring", 2, 3):
        assert rep.passed, (rep.params, rep.statistic, rep.empirical)


def test_real_count_experiment_structure():
    # the mean count agrees with the exact integral but not with the
    # square-root leading-order approximation at these sizes (the gap is
    # ~0.5-1.0 eigenvalues, far beyond Monte Carlo error)
    r = run_mc("real-count", 19, 400)
    by = {(rep.statistic, rep.params["L"]): rep for rep in r}
    assert by[("mean_vs_quadrature", 32)].passed
    assert by[("mean_vs_quadrature", 0)].passed
    assert not by[("mean_vs_leading_order", 32)].passed
    assert not by[("mean_vs_leading_order", 0)].passed


def test_run_mc_writes_outputs(tmp_path):
    run_mc("hole-prob", 123, 50, out_dir=str(tmp_path))
    files = sorted(os.listdir(tmp_path))
    assert "hole-prob_report.json" in files
    assert "hole-prob_hole_prob.csv" in files
    with open(tmp_path / "hole-prob_report.json") as fh:
        doc = json.load(fh)
    assert len(doc["reports"]) == 3
    assert all("wall_time" in rep for rep in doc["reports"])
    with open(tmp_path / "hole-prob_hole_prob.csv") as fh:
        first = fh.readline()
    assert first.startswith("#") and "seed" in first


def test_run_mc_writes_one_csv_per_table(tmp_path):
    run_mc("real-density", 5, 10, workers=1, out_dir=str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == [
        "real-density_real_density_axis.csv", "real-density_real_density_radial.csv",
        "real-density_report.json"]
