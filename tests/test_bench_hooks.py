"""The benchmark's trace hooks name attributes that exist in the program."""
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("table", ["ANALYTIC_HOOKS", "SAMPLE_HOOKS"])
def test_hooked_names_exist_and_are_callable(table):
    for mod, attr, *_ in getattr(tracing, table):
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"


def test_replay_table_matches_the_harness_draws(monkeypatch):
    # the traced run replays run_mc's draws serially from REPLAY_ENSEMBLES
    # and CHANNEL_GEOMETRIES; they must name the (ensemble, index) pairs the
    # harness actually draws
    from indg import harness

    seen = set()
    spectra_chunk, channel_chunk = harness._spectra_chunk, harness._channel_chunk

    def record_spectra(params, rngs):
        seen.update((params, rng.bit_generator.seed_seq.spawn_key[0]) for rng in rngs)
        return spectra_chunk(params, rngs)

    def record_channel(geometry, rngs):
        seen.update((tuple(geometry), rng.bit_generator.seed_seq.spawn_key[0]) for rng in rngs)
        return channel_chunk(geometry, rngs)

    monkeypatch.setattr(harness, "_spectra_chunk", record_spectra)
    monkeypatch.setattr(harness, "_channel_chunk", record_channel)
    n = 2
    for experiment in (*tracing.REPLAY_ENSEMBLES, "channel-ring"):
        seen.clear()
        harness.run_mc(experiment, 7, n, workers=1)
        if experiment == "channel-ring":
            want = {(geometry, g * 10 ** 6 + i)
                    for g, geometry in enumerate(tracing.CHANNEL_GEOMETRIES) for i in range(n)}
        else:
            want = {(params, offset + i)
                    for params, offset in tracing.REPLAY_ENSEMBLES[experiment] for i in range(n)}
        assert seen == want, experiment


@pytest.mark.parametrize("experiment", [*tracing.REPLAY_ENSEMBLES, "channel-ring"])
def test_serial_replay_runs_against_the_program(experiment):
    # the traced benchmark replays run_mc's draws through linalg.eigenvalues
    # and channels.quadratised_spectrum; a program change that breaks those
    # calls fails here, not first in the benchmark
    tracer = tracing.Tracer()
    with tracer.enabled():
        tracing.replay(tracer, experiment, 7, 1)
    spans = tracer.arrays()
    names = set(spans["names"][spans["name_id"]])
    assert "harness.replay" in names
    spectra = {"channels.quadratised_spectrum"} if experiment == "channel-ring" else {
        f"linalg.eigenvalues_b{params.beta}" for params, _ in tracing.REPLAY_ENSEMBLES[experiment]}
    assert spectra <= names, names
    assert not spans["failed"].any()
