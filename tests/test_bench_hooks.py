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
    spectrum_at, channel_at = harness._spectrum_at, harness._channel_at

    def record_spectrum(params, master_seed, index):
        seen.add((params, index))
        return spectrum_at(params, master_seed, index)

    def record_channel(geometry, master_seed, index):
        seen.add((tuple(geometry), index))
        return channel_at(geometry, master_seed, index)

    monkeypatch.setattr(harness, "_spectrum_at", record_spectrum)
    monkeypatch.setattr(harness, "_channel_at", record_channel)
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
