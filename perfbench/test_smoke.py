"""Smoke test of the benchmark at its smallest size. No timing gates.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines


def smoke(workload, trace, *extra):
    rc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--size", "smoke", *extra)
    return rc, json.loads(lines[-2]), json.loads(lines[-1])


def check_schema(record, result, listed):
    assert set(result) == RESULT_KEYS
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    units = {m["name"]: m["unit"] for m in listed}
    assert set(result["metrics"]) == set(units)
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"} and m["unit"] == units[name]
        assert isinstance(m["value"], (int, float))
    for name, m in record["metrics"].items():
        assert m["unit"] and m["samples"] >= 1 and m["q1"] <= m["value"] <= m["q3"]
    assert record["seed"] == 3 and record["inputs"]
    for key in ("git_rev", "src_sha256", "python", "mpmath_backend", "nproc"):
        assert key in record["env"]


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_end_to_end_schema(workload):
    rc, record, result = smoke(workload, 0)
    check_schema(record, result, SPEC["end_to_end"])
    assert rc == 0 and result["correct"] and record["fail_frac"] == 0, record["failures"]
    if workload == "asym-large-g":
        assert record["ref_rows"] > 0 and record["ref_mismatch_frac"] is not None


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_per_layer_schema_and_tracer_completeness(workload):
    # A traced call count that differs from cProfile's fails the run.
    rc, record, result = smoke(workload, 1)
    check_schema(record, result, SPEC["per_layer"])
    assert rc == 0 and result["correct"], record["failures"]


def test_perturbed_table_cell_fails():
    rc, record, result = smoke("routes-wide-n", 0, "--inject-fault", "2", "3")
    assert rc == 1 and not result["correct"]
    assert record["fail_frac"] > 0
    assert any("byte-identical" in f[0] for f in record["failures"])


def test_inputs_depend_only_on_seed():
    for name in workloads.NAMES:
        assert workloads.make_inputs(name, 7, "full") == workloads.make_inputs(name, 7, "full")
    seen = {json.dumps(workloads.make_inputs("identities", s, "full")) for s in range(5)}
    assert len(seen) > 1


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, lines = bench("--workload", "identities", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
        assert rc != 0 and not any(line.startswith("{") for line in lines)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
