#!/usr/bin/env python3
"""Benchmark of the indg toolkit: one command, three workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-large --seed 1 --seconds 30 --trace 0

Workloads: mc-large, mc-small, analytic (see bench/README.md for why each
exists and which metric each layer should move).  The program is imported
from ./src; the benchmark sets no thread-count environment variable and
records the ones it finds.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics from a traced run and writes its spans to
.bench_out/.  Either way it checks the program's outputs; failed operations
are counted in the result's "failed" field.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

if not (SRC / "indg" / "__init__.py").is_file():
    sys.exit(f"bench: no program sources at {SRC / 'indg'}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import indg  # noqa: E402

if Path(indg.__file__).resolve().parent != (SRC / "indg").resolve():
    sys.exit(f"bench: imported indg from {indg.__file__}, not from {SRC}")

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from indg import harness  # noqa: E402

SETUP_REPEATS = 5
# The Monte Carlo workloads time the N=128 correlation as a side probe,
# spread over the run so that one slow stretch of the machine does not
# decide its median.
CORR_PROBE_EVERY_S = 4.0
CORR_PROBE_MIN = 5
REDRAW_FACTOR = 4
RSS_POLL_S = 0.25
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "INDG_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("matrices_per_s", "1/s"),
    ("corr_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def environment():
    """Versions, CPU and thread settings as found; nothing is set here."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "sched_affinity": affinity,
        "workers": harness.resolve_workers(),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.attempted = 0
        self.failures = []
        self.alarms = []            # (op, statistics) awaiting a confirmation draw
        self.red_passed = 0
        self.red_total = 0

    def record(self, label, ok, reason=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {reason}")

    def run(self, op, tracer=None):
        """Run one operation, check its result, return its wall seconds."""
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = op.fn()
            else:
                value = tracer.span("bench." + op.label, op.fn)
        except Exception as exc:  # an operation that raises counts as failed
            self.record(op.label, False, f"raised {exc!r}")
            return time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        if not checks.is_finite(value):
            self.record(op.label, False, "non-finite result")
        elif op.experiment:
            passed, total = checks.known_red(value)
            self.red_passed += passed
            self.red_total += total
            alarms = checks.mc_alarms(value)
            if alarms:
                self.alarms.append((op, alarms))
            self.record(op.label, True)
        elif op.check is not None and not op.check(value):
            self.record(op.label, False, op.check.__doc__)
        else:
            self.record(op.label, True)
        return seconds

    def confirm_alarms(self):
        """Redraw each statistical alarm once, on a fresh seed with REDRAW_FACTOR
        times the samples.

        Each Monte Carlo check is a 3-sigma test, so a correct program fails
        one in a few hundred draws; a defect fails the larger redraw as well.
        """
        for k, (op, alarms) in enumerate(self.alarms):
            seed = workloads.derive_seed(self.inputs.seed, 4, k)
            n = REDRAW_FACTOR * op.n_samples
            try:
                again = checks.mc_alarms(harness.run_mc(op.experiment, seed, n))
            except Exception as exc:  # a redraw that raises confirms the failure
                again = [f"raised {exc!r}"]
            print(f"mc_alarm {op.label} seed {op.seed}: {', '.join(alarms)}; "
                  f"redraw seed {seed} n={n}: {', '.join(again) or 'passed'}")
            if again:
                self.failures.append(f"{op.label} seed {op.seed}: {', '.join(alarms)} "
                                     f"(redraw failed too)")


def run_cycle(ops, ledger, tracer=None):
    """Run a cycle's operations; return (wall seconds, per-op seconds)."""
    t0 = time.perf_counter()
    times = [ledger.run(op, tracer) for op in ops]
    return time.perf_counter() - t0, times


def warm_up(inputs, ledger):
    """Load lazy code paths and BLAS threads before anything is timed."""
    if inputs.workload in workloads.MC_CYCLE:
        for k, (experiment, _) in enumerate(inputs.mc_calls):
            seed = workloads.derive_seed(inputs.seed, 5, k)
            n = workloads.SMALL_N[experiment]
            ledger.run(workloads.Op(f"warmup.{experiment}",
                                    lambda e=experiment, s=seed, n=n: harness.run_mc(e, s, n),
                                    experiment=experiment, seed=seed, n_samples=n))
    else:
        ledger.run(workloads.corr128_op(inputs))


def more_time(t_start, seconds, last):
    """True while another step as long as the last one still fits in the run."""
    return time.perf_counter() - t_start + last <= seconds


def timed_run(inputs, seconds, ledger):
    """Run cycles until the next would overrun; end-to-end values and their notes."""
    mc = inputs.workload in workloads.MC_CYCLE
    walls, corr, mc_seconds, matrices = [], [], 0.0, 0
    t_start = last_probe = time.perf_counter()
    cycle = 0
    while cycle == 0 or more_time(t_start, seconds, walls[-1]):
        ops = workloads.cycle_ops(inputs, cycle)
        wall, times = run_cycle(ops, ledger)
        walls.append(wall)
        for op, dt in zip(ops, times):
            matrices += op.matrices
            if op.experiment:
                mc_seconds += dt
            if op.label == "corr128":
                corr.append(dt)
        cycle += 1
        if mc and time.perf_counter() - last_probe >= CORR_PROBE_EVERY_S:
            # the N=128 correlation as a side probe, between the timed cycles
            corr.append(ledger.run(workloads.corr128_op(inputs)))
            last_probe = time.perf_counter()
    while len(corr) < CORR_PROBE_MIN:
        corr.append(ledger.run(workloads.corr128_op(inputs)))
    rate = matrices / (mc_seconds if mc else sum(walls))
    notes = {
        "wall_s": f"median of {len(walls)} cycles",
        "matrices_per_s": (f"{matrices} matrices over {mc_seconds:.3f} s of run_mc" if mc else
                           f"{matrices} Pfaffian/determinant reductions over {sum(walls):.3f} s"),
        "corr_p50_ms": f"median of {len(corr)} calls" + (", side probe" if mc else ""),
    }
    values = {"wall_s": statistics.median(walls), "matrices_per_s": rate,
              "corr_p50_ms": 1e3 * statistics.median(corr)}
    print("cycle_walls_s " + " ".join(f"{w:.4f}" for w in walls))
    print("corr_calls_ms " + " ".join(f"{1e3 * c:.1f}" for c in corr))
    return values, notes


def traced_run(inputs, seconds, ledger, env):
    """Alternate untraced and traced cycles; per-layer metrics from the traced ones."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    t_start = time.perf_counter()
    cycle, last = 0, 0.0
    while cycle == 0 or more_time(t_start, seconds, last):
        t_pair = time.perf_counter()
        plain.append(run_cycle(workloads.cycle_ops(inputs, 2 * cycle), ledger)[0])
        ops = workloads.cycle_ops(inputs, 2 * cycle + 1)
        with tracer.enabled(), tracing.hooks(tracer, tracing.ANALYTIC_HOOKS):
            traced.append(run_cycle(ops, ledger, tracer)[0])
        with tracer.enabled():
            for op in ops:
                if op.experiment:
                    tracing.replay(tracer, op.experiment, op.seed, op.n_samples)
        cycle += 1
        last = time.perf_counter() - t_pair
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = tracing.layer_metrics(tracer, cycle, env["workers"], overhead)
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{inputs.workload}-seed{inputs.seed}.npz"
    peaks = tracer.peak_bytes
    np.savez_compressed(path, env=json.dumps(env), cycles=cycle,
                        peak_span=np.array(list(peaks), dtype=np.int64),
                        peak_bytes=np.array(list(peaks.values()), dtype=np.int64),
                        **tracer.arrays())
    print(f"spans {len(tracer.start)} from {cycle} traced cycles written to "
          f"{path.relative_to(ROOT)}")
    return metrics


def probes(inputs, ledger):
    """Correctness probes outside the timed region."""
    if inputs.workload in workloads.MC_CYCLE:
        experiment, n = inputs.probe
        seed = workloads.derive_seed(inputs.seed, 6)
        try:
            same = checks.determinism_probe(experiment, seed, n)
        except Exception as exc:  # a probe that raises is a failed operation
            same, reason = False, f"raised {exc!r}"
        else:
            reason = "report bytes differ between workers=1 and the default"
        ledger.record(f"determinism.{experiment}", same, reason)
        print(f"determinism_probe {experiment} n={n} seed={seed}: "
              f"workers=1 vs {harness.resolve_workers()} {'identical' if same else 'DIFFERENT'}")
        return
    for name, check in checks.analytic_oracles(inputs):
        try:
            ok, reason = check(), "disagrees with its oracle"
        except Exception as exc:  # an oracle that raises is a failed operation
            ok, reason = False, f"raised {exc!r}"
        ledger.record(f"oracle.{name}", ok, reason)
        print(f"oracle {name}: {'ok' if ok else 'FAILED'}")


def cpu_ticks():
    """(steal, total) clock ticks summed over the CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def _descendants(pid):
    """Process ids below pid, from /proc (empty where /proc is missing)."""
    out = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                for child in map(int, fh.read().split()):
                    out += [child] + _descendants(child)
    except OSError:
        pass
    return out


def _peak_kib(pid):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ChildMemory:
    """Peak resident memory of every child process seen while it lives.

    getrusage reports only the largest child reaped so far, so the workers
    of a process pool would count once; this polls each live descendant's
    high-water mark and sums them.
    """

    def __init__(self):
        self.peak_kib = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _poll(self):
        while not self._stop.wait(RSS_POLL_S):
            for pid in _descendants(os.getpid()):
                kib = _peak_kib(pid)
                self.peak_kib[pid] = max(self.peak_kib.get(pid, 0), kib)

    def peak_rss_mb(self):
        """This process's peak plus its children's; read it before the probes
        and the set-up interpreters run."""
        children = max(sum(self.peak_kib.values()),
                       resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children) / 1024.0


def setup_seconds(args):
    """Median wall time of fresh interpreters that import indg and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(2 if args.tiny else SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small sizes, for the benchmark's own self-test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    inputs = workloads.build_inputs(args.workload, args.seed, args.tiny)
    if args.setup_only:
        return 0
    env = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")
    print(f"inputs_digest {inputs.digest()}")
    print("env " + json.dumps(env, sort_keys=True))

    ledger = Ledger(inputs)
    with ChildMemory() as memory:
        warm_up(inputs, ledger)
        ticks = cpu_ticks()
        if args.trace:
            metrics, notes = traced_run(inputs, args.seconds, ledger, env), {}
        else:
            values, notes = timed_run(inputs, args.seconds, ledger)
        after = cpu_ticks()
        if ticks and after:
            # a virtual machine's CPUs can be taken by other guests; the
            # timed figures include that loss, so the run reports its size
            steal, total = after[0] - ticks[0], after[1] - ticks[1]
            print(f"host_steal_share {steal / max(total, 1):.3f} of CPU time during the timed cycles")
    if not args.trace:
        values["peak_rss_mb"] = memory.peak_rss_mb()
        notes["peak_rss_mb"] = "this process plus its children"
    probes(inputs, ledger)
    ledger.confirm_alarms()
    if not args.trace:
        values["setup_s"], repeats = setup_seconds(args)
        notes["setup_s"] = f"median of {repeats} fresh interpreters"
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    failed = len(ledger.failures)
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"{name} {m['value']:.6g} {m['unit']}" + (f" ({note})" if note else ""))
    print(f"failed_frac {failed / ledger.attempted:.6g} ratio "
          f"({failed} of {ledger.attempted} operations)")
    if ledger.red_total:
        print(f"known_red real-count.mean_vs_leading_order: {ledger.red_passed} of "
              f"{ledger.red_total} reports passed (not counted as failures)")
    for reason in ledger.failures:
        print(f"failure {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": ledger.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
