"""One repetition of one workload, in a fresh single-threaded process.

Started by run.py as ``python -I perfbench/child.py '<spec json>'``. The
first thing it does is import mvlab and its command line, as the
``mvlab`` entry point does, from the checkout's ``src``; it reports the
moment that import finished, so the parent can time set-up from process
start. Modes:

- ``setup``: import only.
- ``plain``: run the workload's steps untraced.
- ``traced``: wrap the layer functions first and report per-layer counts
  and self times; the spans go to ``.bench_out/spans-<workload>.tsv``.
- ``profile``: run the steps under cProfile and report the call count of
  each layer function, to check that the tracer missed none.

Prints one JSON object on stdout and nothing else.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import mvlab.cli  # noqa: E402

READY = time.perf_counter()

import cProfile  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import mpmath.libmp  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402

# Keep at most this many failure descriptions in a result.
MAX_FAILURES = 5


def _inject_fault(cell) -> None:
    """Make the alternating route return a wrong value at one cell."""
    cell = tuple(cell)
    original = mvlab.agn.a_alt

    def a_alt(g, n):
        val = original(g, n)
        return val + 1 if (g, n) == cell else val

    mvlab.agn.a_alt = a_alt


def _bits(values) -> tuple[int, int]:
    num = max((abs(v.numerator).bit_length() for v in values), default=0)
    den = max((v.denominator.bit_length() for v in values), default=0)
    return num, den


def run(spec: dict) -> dict:
    out = {
        "ready": READY,
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
    }
    if spec["mode"] == "setup":
        return out

    mode = spec["mode"]
    tracer = tr.Tracer() if mode == "traced" else None
    if tracer:
        tracer.install("mvlab")
    if spec.get("fault"):
        _inject_fault(spec["fault"])
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec['workload']}-", dir=scratch))
    result = {"ref_rows": 0, "ref_mismatch": 0}
    steps = workloads.steps(mvlab, spec["workload"], spec["inputs"], result, workdir, ROOT)

    profiler = cProfile.Profile() if mode == "profile" else None
    gates, walls = [], []
    try:
        for i, (name, step) in enumerate(steps):
            if profiler:
                profiler.enable()
            t0 = time.perf_counter()
            if tracer:
                tracer.begin_step(i, t0)
            try:
                gates += step()
            except Exception:  # a traceback is a failed operation, not a crash
                tb = traceback.format_exc().strip().splitlines()
                gates.append((f"{name} raised", False, " | ".join(tb[-3:])))
            t1 = time.perf_counter()
            if tracer:
                tracer.end_step(t1)
            if profiler:
                profiler.disable()
            walls.append([name, t1 - t0])

        if tracer:
            out.update(_trace_report(tracer, spec["workload"], walls, gates))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if profiler:
        out["profile_calls"] = tr.profile_call_counts(profiler, tr.layer_functions("mvlab"))
    failures = [g for g in gates if not g[1]]
    out.update(
        wall_s=sum(w for _, w in walls),
        steps=walls,
        attempted=len(gates),
        failed=len(failures),
        failures=failures[:MAX_FAILURES],
        ref_rows=result["ref_rows"],
        ref_mismatch=result["ref_mismatch"],
    )
    return out


def _trace_report(tracer: "tr.Tracer", workload: str, walls, gates) -> dict:
    """Per-layer numbers of a traced repetition; appends its own gates."""
    times = tracer.self_times()
    for i, (name, wall) in enumerate(walls):
        own, span = times["steps"].get(i, (0.0, 0.0))
        gates.append((
            f"self times of step {name} sum to its wall time",
            abs(own - wall) <= 1e-6 and abs(span - wall) <= 1e-9,
            f"self {own!r}, span {span!r}, wall {wall!r}",
        ))
    negative = [n for n, s in times["negative"].items() if s]
    gates.append(("no span has negative self time", not negative, f"layers {negative}"))
    calls = tracer.call_counts()
    cells = tracer.cells
    num, den = _bits([v for c in cells.values() for v in c.values()])
    coeff = max(_bits([c for p in tracer.profiles.values() for _, c in p.items()]))
    metrics = {f"{name}.calls": n for name, n in calls.items()}
    metrics.update({f"{name}.self_s": s for name, s in times["layers"].items()})
    metrics.update({f"{name}.distinct": len(c) for name, c in cells.items()})
    direct = calls["agn.a_direct"]
    metrics.update({
        "agn.a_direct.memo_hit_ratio":
            1 - len(cells["agn.a_direct"]) / direct if direct else 0.0,
        "agn.table_bytes": sum(Path(p).stat().st_size for p in tracer.saved_paths),
        "agn.max_num_bits": num,
        "agn.max_den_bits": den,
        "genus.max_coeff_bits": coeff,
    })
    tracer.write_spans(str(ROOT / ".bench_out" / f"spans-{workload}.tsv"))
    return {"calls": calls, "layer_metrics": metrics}


def main() -> int:
    spec = json.loads(sys.argv[1])
    # The default action of SIGALRM ends the process: a stuck repetition
    # cannot outlive the run's time limit.
    signal.alarm(max(1, int(spec.get("deadline_s", 170))))
    print(json.dumps(run(spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
