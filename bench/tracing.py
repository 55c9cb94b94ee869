"""Outside-in tracing for the benchmark's traced run.

The program is not modified.  Spans are recorded by wrapping public names in
the namespace of the module that calls them (`indg.real_ensemble.pfaffian`,
`indg.complex_ensemble.log_gamma`, ...), so a nested call becomes a child
span and a layer's self time is its span's duration minus the part covered
by its child spans.

Calls from threads other than the one that enabled the tracer pass straight
through: `run_mc`'s worker threads cannot be wrapped reliably.  The sampling
layers are measured instead by replaying the same sample indices serially
through the public functions, with the per-index
SeedSequence(master_seed, spawn_key=(index,)) scheme that harness.py
documents.

Spans are kept in memory and written out once, when the run ends.
"""

import threading
import time
import tracemalloc
from array import array
from contextlib import contextmanager

import numpy as np

from indg import channels, harness, linalg, sampling
from indg import complex_ensemble as cx
from indg import real_ensemble as re1


class Tracer:
    """In-memory span store: name, parent, root, start, end, failed."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.peak_bytes = {}        # span index -> tracemalloc peak inside it
        self._stack = [-1]
        self._owner = None

    @contextmanager
    def enabled(self):
        self._owner = threading.get_ident()
        try:
            yield self
        finally:
            self._owner = None

    def span(self, name, fn, *args, measure_memory=False, **kwargs):
        """Call fn(*args, **kwargs) inside a span named name."""
        if threading.get_ident() != self._owner:
            return fn(*args, **kwargs)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        top = self._stack[-1]
        self.name_id.append(nid)
        self.parent.append(top)
        self.root.append(idx if top < 0 else self.root[top])
        self.failed.append(0)
        self.end.append(0.0)
        memory = measure_memory and not tracemalloc.is_tracing()
        if memory:
            tracemalloc.start()
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed[idx] = 1
            raise
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            if memory:
                self.peak_bytes[idx] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def wrap(self, name, fn, namer=None, measure_memory=False):
        def traced(*args, **kwargs):
            label = namer(*args, **kwargs) if namer else name
            return self.span(label, fn, *args, measure_memory=measure_memory, **kwargs)
        return traced

    def arrays(self):
        """Spans as numpy columns, plus the name table."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "root": np.frombuffer(self.root, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).astype(bool),
        }


def _eigen_name(G, beta, *_, **__):
    return f"linalg.eigenvalues_b{beta}"


def _kernel_entries_name(a, b, *_, **__):
    rr = complex(a).imag == 0.0 and complex(b).imag == 0.0
    return "real_ensemble.kernel_entries_rr" if rr else "real_ensemble.kernel_entries"


# (module, attribute, span name, namer, measure memory).  Installed for the
# whole traced cycle; every call site they catch runs on the calling thread.
ANALYTIC_HOOKS = (
    (harness, "run_mc", "harness.run_mc", None, False),
    (re1, "correlations_pfaffian", "real_ensemble.correlations_pfaffian", None, False),
    (re1, "kernel_entries", None, _kernel_entries_name, False),
    (re1, "density_real", "real_ensemble.density_real", None, False),
    (re1, "expected_real_count", "real_ensemble.expected_real_count", None, False),
    (re1, "pfaffian", "linalg.pfaffian", None, False),
    (re1, "log_gamma", "special.log_gamma", None, False),
    (re1, "lower_reg_gamma", "special.lower_reg_gamma", None, False),
    (re1, "upper_reg_gamma", "special.upper_reg_gamma", None, False),
    (re1, "erfcx", "special.erfcx", None, False),
    (cx, "kernel_KN", "complex_ensemble.kernel_KN", None, True),
    (cx, "density", "complex_ensemble.density", None, False),
    (cx, "correlations_Rn", "complex_ensemble.correlations_Rn", None, False),
    (cx, "hole_probability", "complex_ensemble.hole_probability", None, False),
    (cx, "log_gamma", "special.log_gamma", None, False),
    (cx, "lower_reg_gamma", "special.lower_reg_gamma", None, False),
    (cx, "upper_reg_gamma", "special.upper_reg_gamma", None, False),
    (cx, "erfc", "special.erfc", None, False),
)

# Installed only while replaying sample indices serially.
SAMPLE_HOOKS = (
    (sampling, "sample_gaussian", "linalg.sample_gaussian", None, False),
    (sampling, "quadratise", "sampling.quadratise", None, False),
    (linalg, "eigenvalues", None, _eigen_name, False),
    (channels, "random_complementary_map", "channels.random_complementary_map", None, False),
    (channels, "quadratised_spectrum", "channels.quadratised_spectrum", None, False),
)


@contextmanager
def hooks(tracer, table):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, *_ in table]
    try:
        for mod, attr, name, namer, memory in table:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), namer, memory))
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


# --------------------------------------------------------------------------
# serial replay of run_mc's sample indices

# Ensemble and index offset of each run_mc experiment's samples, as in
# harness.py; channel-ring's geometries use the offset g * 10**6.
REPLAY_ENSEMBLES = {
    "real-count": ((sampling.EnsembleParams(N=128, L=32, beta=1), 0),
                   (sampling.EnsembleParams(N=128, L=0, beta=1), 10 ** 6)),
    "radial-density": ((sampling.EnsembleParams(N=128, L=32, beta=2), 0),),
    "hole-prob": ((sampling.EnsembleParams(N=20, L=2, beta=2), 0),),
}
CHANNEL_GEOMETRIES = ((14, 10), (14, 14), (14, 18))


def _index_rng(master_seed, index):
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def _replay_samples(experiment, master_seed, n):
    if experiment == "channel-ring":
        for g, (d, k) in enumerate(CHANNEL_GEOMETRIES):
            for i in range(n):
                phi = channels.random_complementary_map(d, k, _index_rng(master_seed, g * 10 ** 6 + i))
                channels.quadratised_spectrum(phi)
        return
    for params, offset in REPLAY_ENSEMBLES[experiment]:
        for i in range(n):
            G = sampling.sample_induced_quadratise(params, _index_rng(master_seed, offset + i))
            linalg.eigenvalues(G, beta=params.beta)


def replay(tracer, experiment, master_seed, n):
    """Redo one run_mc call's sampling work serially, under a harness.replay span."""
    with hooks(tracer, SAMPLE_HOOKS):
        tracer.span("harness.replay", _replay_samples, experiment, master_seed, n)


# --------------------------------------------------------------------------
# per-layer metrics

# (metric, unit); the rationale document gives each one's definition and the
# end-to-end metric it should move.
LAYER_METRICS = (
    ("harness.run_mc_s", "s"),
    ("harness.replay_busy_s", "s"),
    ("harness.parallel_efficiency", "ratio"),
    ("harness.expectation_ms", "ms"),
    ("linalg.eigenvalues_b1_ms", "ms"),
    ("linalg.eigenvalues_b2_ms", "ms"),
    ("linalg.sample_gaussian_ms", "ms"),
    ("linalg.pfaffian_ms", "ms"),
    ("linalg.pfaffian_calls", "count"),
    ("sampling.quadratise_ms", "ms"),
    ("sampling.quadratise_attempts", "count"),
    ("sampling.quadratise_retries", "count"),
    ("channels.random_complementary_map_ms", "ms"),
    ("channels.quadratised_spectrum_ms", "ms"),
    ("real_ensemble.correlations_pfaffian_ms", "ms"),
    ("real_ensemble.correlations_pfaffian_n1000_ms", "ms"),
    ("real_ensemble.kernel_entries_calls", "count"),
    ("real_ensemble.kernel_entries_ms", "ms"),
    ("real_ensemble.kernel_entries_rr_ms", "ms"),
    ("real_ensemble.density_real_ms", "ms"),
    ("real_ensemble.expected_real_count_ms", "ms"),
    ("special.calls", "count"),
    ("special.ms", "ms"),
    ("complex_ensemble.kernel_KN_ms", "ms"),
    ("complex_ensemble.kernel_KN_peak_mb", "MB"),
    ("complex_ensemble.correlations_Rn_ms", "ms"),
    ("complex_ensemble.density_ms", "ms"),
    ("complex_ensemble.hole_probability_ms", "ms"),
    ("tracing.overhead_s", "s"),
)

EXPECTATIONS = ("real_ensemble.expected_real_count", "complex_ensemble.hole_probability",
                "complex_ensemble.density")


def layer_metrics(tracer, cycles, workers, overhead_s):
    """Per-layer values from the spans of `cycles` traced cycles.

    Sums and counts are per traced cycle; `_ms` values of functions that run
    many times with like inputs are medians per call.  A layer the workload
    does not reach reads 0.
    """
    a = tracer.arrays()
    names = a["names"][a["name_id"]]
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    covered = np.zeros_like(dur)
    np.add.at(covered, a["parent"][has_parent], dur[has_parent])
    self_time = dur - covered
    roots = names[a["root"]]
    parents = np.where(has_parent, names[np.maximum(a["parent"], 0)], "")

    def sel(*wanted):
        return np.isin(names, wanted)

    def total(mask, values=dur):
        return float(values[mask].sum()) / cycles

    def p50(mask):
        return float(np.median(dur[mask])) if mask.any() else 0.0

    def count(mask):
        return int(mask.sum()) / cycles

    entries = sel("real_ensemble.kernel_entries", "real_ensemble.kernel_entries_rr")
    corr = sel("real_ensemble.correlations_pfaffian")
    rr128 = sel("real_ensemble.kernel_entries_rr") & np.isin(roots, ("bench.corr128",
                                                                      "bench.kernel_grid"))
    quad = sel("sampling.quadratise")
    special = np.char.startswith(names, "special.")
    kn = np.flatnonzero(sel("complex_ensemble.kernel_KN"))
    run_mc_s = total(sel("harness.run_mc"))
    replay_s = total(sel("harness.replay"))
    values = {
        "harness.run_mc_s": run_mc_s,
        "harness.replay_busy_s": replay_s,
        "harness.parallel_efficiency": replay_s / (run_mc_s * workers) if run_mc_s else 0.0,
        "harness.expectation_ms": 1e3 * total(sel(*EXPECTATIONS) & (parents == "harness.run_mc")),
        "linalg.eigenvalues_b1_ms": 1e3 * p50(sel("linalg.eigenvalues_b1")),
        "linalg.eigenvalues_b2_ms": 1e3 * p50(sel("linalg.eigenvalues_b2")),
        "linalg.sample_gaussian_ms": 1e3 * p50(sel("linalg.sample_gaussian")),
        "linalg.pfaffian_ms": 1e3 * p50(sel("linalg.pfaffian")),
        "linalg.pfaffian_calls": count(sel("linalg.pfaffian")),
        "sampling.quadratise_ms": 1e3 * p50(quad),
        "sampling.quadratise_attempts": count(quad),
        "sampling.quadratise_retries": count(quad & a["failed"]),
        "channels.random_complementary_map_ms": 1e3 * p50(sel("channels.random_complementary_map")),
        "channels.quadratised_spectrum_ms": 1e3 * p50(sel("channels.quadratised_spectrum")),
        "real_ensemble.correlations_pfaffian_ms": 1e3 * p50(corr & (roots == "bench.corr128")),
        "real_ensemble.correlations_pfaffian_n1000_ms":
            1e3 * total(corr & (roots == "bench.corr1000")),
        "real_ensemble.kernel_entries_calls": count(entries),
        "real_ensemble.kernel_entries_ms": 1e3 * total(entries, self_time),
        "real_ensemble.kernel_entries_rr_ms": 1e3 * p50(rr128),
        "real_ensemble.density_real_ms": 1e3 * total(sel("real_ensemble.density_real")),
        "real_ensemble.expected_real_count_ms":
            1e3 * total(sel("real_ensemble.expected_real_count")),
        "special.calls": count(special),
        "special.ms": 1e3 * total(special),
        "complex_ensemble.kernel_KN_ms": 1e3 * total(sel("complex_ensemble.kernel_KN")),
        "complex_ensemble.kernel_KN_peak_mb":
            max((tracer.peak_bytes.get(int(i), 0) for i in kn), default=0) / 2 ** 20,
        "complex_ensemble.correlations_Rn_ms": 1e3 * total(sel("complex_ensemble.correlations_Rn")),
        "complex_ensemble.density_ms": 1e3 * total(sel("complex_ensemble.density")),
        "complex_ensemble.hole_probability_ms":
            1e3 * total(sel("complex_ensemble.hole_probability")),
        "tracing.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
