"""Self-test of the benchmark at tiny scale.

    python3 -m pytest bench/test_bench.py -q

Runs bench/run.py with --tiny and checks the result against the metric
names and units that BENCHMARK.json declares.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_bench(workload, seed, trace, cwd=ROOT, check=True):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if check:
        assert out.returncode == 0, out.stderr
    return out


def result_of(out):
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    digest = next(line.split()[1] for line in lines if line.startswith("inputs_digest "))
    return result, digest, lines


def declared(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_nothing_fails(workload):
    result, _, lines = result_of(run_bench(workload, 1, trace=0))
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("failed_frac 0 ratio") for line in lines)
    for name, unit in declared("end_to_end").items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    result, _, _ = result_of(run_bench(workload, 1, trace=1))
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer")
    assert result["correct"] and result["failed"] == 0
    assert (ROOT / ".bench_out" / f"spans-{workload}-seed1.npz").is_file()


def test_seed_changes_inputs_not_metric_set():
    a, digest_a, _ = result_of(run_bench("analytic", 1, trace=0))
    b, digest_b, _ = result_of(run_bench("analytic", 2, trace=0))
    _, digest_a2, _ = result_of(run_bench("analytic", 1, trace=0))
    assert digest_a != digest_b
    assert digest_a == digest_a2
    assert set(a["metrics"]) == set(b["metrics"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in DECLARED["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("mc-small", 1, trace=0, cwd=tmp_path, check=False)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
