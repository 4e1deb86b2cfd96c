"""Self-test of the benchmark: short passes are all-correct, the seed changes
the inputs but no verdict, and traced counters repeat across runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench_workloads  # noqa: E402  (needs src/ on the path)


def one_pass(name: str, seed: int):
    workload = bench_workloads.WORKLOADS[name](seed)
    gate = bench_workloads.Gate()
    instances = workload.run_pass(gate)
    return workload.fingerprint(), gate, instances


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_seed_changes_inputs_not_verdicts(name):
    inputs_a, gate_a, instances_a = one_pass(name, 1)
    inputs_b, gate_b, instances_b = one_pass(name, 2)
    assert inputs_a != inputs_b
    assert gate_a.failed == 0, gate_a.misses
    assert gate_b.failed == 0, gate_b.misses
    assert gate_a.attempted == gate_b.attempted
    assert instances_a == instances_b
    # reports of commands that take no seed are the same for every seed
    for label in set(gate_a.report_hashes) - {"majorana", "verify-family"}:
        assert gate_a.report_hashes[label] == gate_b.report_hashes[label]


def traced_counts(name: str) -> dict:
    """Count metrics of a short traced run with a fixed seed."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=HERE.parent, timeout=170,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def test_traced_counters_repeat_across_runs():
    first = traced_counts("search-float")
    assert first["orthograph.pair_tests"] and first["kscolor.search.nodes"]
    assert first["scalar.exact_mul"]
    assert traced_counts("search-float") == first
