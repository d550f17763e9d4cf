#!/usr/bin/env python3
"""mvlab benchmark: cold-process workloads with exact-output gates.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every repetition of a workload runs in a fresh single-threaded Python
process (``child.py``), so memos start cold as they do for a user of
the command line, and one repetition follows another: a closed loop with
one client. The parent never imports mvlab. It turns the seed into the
workload's inputs, starts repetitions as long as the next one is
expected to end within ``--seconds``, and reports medians.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (process start
to ``import mvlab`` done, sampled in extra import-only processes too),
``wall_s`` (the workload's steps, set-up excluded), ``cpu_s`` (user plus
system time of the child process) and ``peak_rss_mb`` (the child's
maximum resident set). ``--trace 1`` alternates untraced and traced
repetitions, then runs one repetition under cProfile, and reports the
per-layer metrics; a traced call count that differs from cProfile's is
a failed check.

The next-to-last line of output is the full run record (inputs,
environment, median, quartiles and sample count of every metric,
``fail_frac`` and ``ref_mismatch_frac``). The last line is the summary
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0
when every check passed, 1 when one failed, and 2 when the benchmark
cannot run here (no mvlab source next to it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Import-only processes per run, on top of one set-up sample per repetition.
SETUP_SAMPLES = 5
# No repetition may run past this many seconds after the run started.
RUN_LIMIT_S = 170


def per_layer_units() -> dict:
    units = {}
    for name, _, _ in tracer.LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units[f"{tracer.STEP_LAYER}.self_s"] = "s"
    for name in tracer.CELL_LAYERS:
        units[f"{name}.distinct"] = "count"
    units.update({
        "agn.a_direct.memo_hit_ratio": "ratio",
        "agn.table_bytes": "bytes",
        "agn.max_num_bits": "bits",
        "agn.max_den_bits": "bits",
        "genus.max_coeff_bits": "bits",
        "traced_wall_s": "s",
        "trace_overhead_s": "s",
    })
    return units


class Run:
    """The repetitions of one workload for one seed, and their outcome."""

    def __init__(self, workload: str, inputs: dict, fault=None):
        self.workload = workload
        self.inputs = inputs
        self.fault = fault
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.ref_rows = 0
        self.ref_mismatch = 0
        self.env: dict = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def gate(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append([name, False, detail])

    def child(self, mode: str) -> dict | None:
        """Run one child process to its end; None when it did not report."""
        spec = {
            "mode": mode,
            "workload": self.workload,
            "inputs": self.inputs,
            "fault": self.fault,
            "deadline_s": max(5, RUN_LIMIT_S - self.elapsed()),
        }
        argv = [sys.executable, "-I", str(HERE / "child.py"), json.dumps(spec)]
        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            # wait4 reaps the child and gives its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        lines = out.decode("utf-8", "replace").strip().splitlines()
        try:
            rep = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except ValueError:
            rep = None
        if rep is None:
            self.gate(f"{mode} repetition", False,
                      f"child exited with {proc.returncode} and no result")
            return None
        rep["setup_s"] = rep["ready"] - spawned
        rep["cpu_s"] = usage.ru_utime + usage.ru_stime
        rep["peak_rss_mb"] = usage.ru_maxrss / 1024  # KiB on Linux
        self.env.setdefault("python", rep["python"])
        self.env.setdefault("mpmath_backend", rep["mpmath_backend"])
        if mode != "setup":
            self.attempted += rep["attempted"]
            self.failed += rep["failed"]
            self.failures += rep["failures"]
            self.ref_rows += rep["ref_rows"]
            self.ref_mismatch += rep["ref_mismatch"]
        return rep


def summary(samples: list, unit: str) -> dict:
    """Median, quartiles and sample count of one metric."""
    if len(samples) >= 2:
        q1, med, q3 = statistics.quantiles(samples, n=4)
        med = statistics.median(samples)
    else:
        q1 = med = q3 = samples[0]
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "samples": len(samples)}


def measure_end_to_end(run: Run, seconds: float) -> dict:
    run.child("setup")  # writes bytecode caches; a user's install has them
    setups = [r["setup_s"] for r in (run.child("setup") for _ in range(SETUP_SAMPLES)) if r]
    reps, last = [], 0.0
    while not reps or run.elapsed() + last <= seconds:
        began = run.elapsed()
        rep = run.child("plain")
        if rep is None:
            break
        reps.append(rep)
        last = run.elapsed() - began
    if not reps:
        return {}
    setups += [r["setup_s"] for r in reps]
    metrics = {"setup_s": summary(setups, "s")}
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        metrics[name] = summary([r[name] for r in reps], END_TO_END[name])
    return metrics


def measure_per_layer(run: Run, seconds: float) -> dict:
    run.child("setup")
    plain, traced, last = [], [], 0.0
    # Leave room for the next pair and for the cProfile repetition at the
    # end, which takes about one and a half pairs.
    while not traced or run.elapsed() + last * 2.5 <= seconds:
        began = run.elapsed()
        rep, trep = run.child("plain"), run.child("traced")
        if rep is None or trep is None:
            break
        plain.append(rep)
        traced.append(trep)
        last = run.elapsed() - began
    profiled = run.child("profile")
    if not traced or profiled is None:
        return {}
    # Tracer completeness: every layer's traced call count must equal
    # cProfile's count for the same function in the same workload.
    for trep in traced:
        for name, want in profiled["profile_calls"].items():
            got = trep["calls"][name]
            run.gate(f"traced calls of {name}", got == want,
                     f"tracer counted {got}, cProfile {want}")

    units = per_layer_units()
    samples: dict[str, list] = {}
    for trep in traced:
        for name, value in {**trep["layer_metrics"], "traced_wall_s": trep["wall_s"]}.items():
            samples.setdefault(name, []).append(value)
    metrics = {name: summary(values, units[name]) for name, values in samples.items()}
    overhead = metrics["traced_wall_s"]["value"] - statistics.median(r["wall_s"] for r in plain)
    metrics["trace_overhead_s"] = dict(summary([overhead], "s"), samples=len(plain))
    return metrics


def environment() -> dict:
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src" / "mvlab").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = done.stdout.strip() or None
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 size: str = "full", fault=None) -> tuple[dict, dict]:
    inputs = workloads.make_inputs(workload, seed, size)
    run = Run(workload, inputs, fault)
    measure = measure_per_layer if trace else measure_end_to_end
    metrics = measure(run, seconds)
    wanted = per_layer_units() if trace else END_TO_END
    if set(metrics) != set(wanted):
        run.gate("every metric measured", False, "a repetition did not report")
    attempted = max(run.attempted, 1)
    record = {
        "benchmark": "mvlab-perfbench",
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": trace,
        "run_seconds": seconds,
        "elapsed_s": run.elapsed(),
        "inputs": inputs,
        "env": {**environment(), **run.env},
        "metrics": metrics,
        "attempted": attempted,
        "failed": run.failed,
        "fail_frac": run.failed / attempted,
        "ref_rows": run.ref_rows,
        "ref_mismatch_frac": run.ref_mismatch / run.ref_rows if run.ref_rows else None,
        "failures": run.failures[:10],
    }
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    return record, result


def print_table(records: list) -> None:
    print(f"{'workload':<14} {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'n':>3}  unit")
    for rec in records:
        rows = [(k, v) for k, v in rec["metrics"].items()]
        rows.append(("fail_frac", {"value": rec["fail_frac"], "unit": "ratio",
                                   "samples": rec["attempted"]}))
        ref = rec["ref_mismatch_frac"]
        rows.append(("ref_mismatch_frac", {"value": "n/a" if ref is None else ref,
                                           "unit": "ratio", "samples": rec["ref_rows"]}))
        for name, m in rows:
            cells = [m["value"], m.get("q1", ""), m.get("q3", "")]
            text = [f"{c:>12.6g}" if isinstance(c, float) else f"{c!s:>12}" for c in cells]
            print(f"{rec['workload']:<14} {name:<18} {' '.join(text)} {m['samples']:>3}  {m['unit']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="smoke: the smallest size, for the smoke test")
    p.add_argument("--inject-fault", type=int, nargs=2, metavar=("G", "N"),
                   help="make the alternating route wrong at one cell (tests the gates)")
    args = p.parse_args(argv)

    missing = [rel for rel in ("src/mvlab/__init__.py", workloads.GOLDEN[0])
               if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: no mvlab checkout at {ROOT}: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    records, correct = [], True
    for name in names:
        record, result = run_workload(name, args.seed, args.seconds, args.trace,
                                      args.size, args.inject_fault)
        records.append(record)
        correct &= result["correct"]
        print(json.dumps(record), flush=True)
    if args.workload == "all":
        print_table(records)
    else:
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
