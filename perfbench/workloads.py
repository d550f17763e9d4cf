"""The benchmark's workloads: seeded inputs, steps, and exact-output gates.

``make_inputs`` runs in the benchmark's parent process and turns a seed
into the inputs a workload needs; only those inputs reach the program.
``steps`` runs in the child process, after ``import mvlab``, and returns
the workload's steps in order. Each step returns a list of gates
``(name, passed, detail)``; every gate is one checked operation behind
``fail_frac``. The asymptotics step also reports how many of its rows
disagree with the published polynomials, which is ``ref_mismatch_frac``
and never a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

NAMES = ("asym-large-g", "routes-wide-n", "identities")

# "full" is what the benchmark measures; "smoke" is the smallest size at
# which every step and gate still runs, for the smoke test.
SIZES = {
    "full": {
        "asym-large-g": {"gmax": 36, "n_count": 3},
        "routes-wide-n": {"gmax": 12, "nmax": 40},
        "identities": {"nx": 12, "fgmax": 6, "gmax": 18},
    },
    "smoke": {
        "asym-large-g": {"gmax": 20, "n_count": 1},
        "routes-wide-n": {"gmax": 3, "nmax": 8},
        "identities": {"nx": 6, "fgmax": 3, "gmax": 6},
    },
}

ROUTES = ("direct", "alt", "series")
ASYM_ORDER = 5
ASYM_BITS = 320
# Only (g, n) = (15, 8) with the alternating route matches the golden file.
GOLDEN = ("tests/golden/agn_g15_n8.txt", 15, 8, "alt")
# A denominator no a_{g,n} in the funceq window has, so the seeded
# override always differs from the true cell.
PERTURB_DEN = 999983


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """The generated inputs of one run. The same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    p = dict(SIZES[size][workload])
    if workload == "asym-large-g":
        p["n"] = sorted(rng.sample(range(7), p.pop("n_count")))
    elif workload == "routes-wide-n":
        p["order"] = rng.sample(ROUTES, len(ROUTES))
    elif workload == "identities":
        # n >= 1, because the n = 0 column is constant in x and no
        # identity sees it; g + n <= nx keeps the cell's first
        # x-derivative inside the checked window.
        cells = [
            (g, n)
            for g in range(p["fgmax"] + 1)
            for n in range(1, p["nx"] - g + 1)
            if 2 * g - 2 + n > 0
        ]
        g, n = rng.choice(cells)
        p["cell"] = [g, n]
        p["value"] = str(Fraction(rng.randrange(1, PERTURB_DEN), PERTURB_DEN))
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {NAMES}")
    return p


class Gates(list):
    """Gates of one step, with a helper for the common comparison."""

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.append((name, bool(ok), "" if ok else detail))


def run_cli(mvlab, argv: list[str]) -> tuple[int, str]:
    """``mvlab <argv>`` in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = mvlab.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, buf.getvalue()


def _suite(mvlab, gates: Gates, suite: str, cases: int, *extra: str) -> None:
    rc, out = run_cli(mvlab, ["verify", "--suite", suite, *extra, "--format", "json"])
    doc = json.loads(out) if rc in (0, 1) else {"cases": [], "pass": False}
    bad = [c["name"] for c in doc["cases"] if not c["passed"]]
    gates.check(
        f"verify {suite}",
        rc == 0 and doc["pass"] and len(doc["cases"]) == cases and not bad,
        f"exit {rc}, {len(doc['cases'])} cases, failing {bad[:3]}",
    )


def _asym_steps(mvlab, p, result):
    gmax, n_list = p["gmax"], p["n"]

    def asym():
        g = Gates()
        argv = [
            "asym", "--target", "both", "--order", str(ASYM_ORDER),
            "--bits", str(ASYM_BITS), "--gmax", str(gmax),
            "--n", *map(str, n_list), "--format", "json",
        ]
        rc, out = run_cli(mvlab, argv)
        rows = json.loads(out)["cases"] if rc in (0, 1) else []
        want = {(t, n, k) for t in ("vol", "sv") for n in n_list for k in range(4)}
        got = {(r["target"], r["n"], r["k"]) for r in rows}
        mismatched = sum(1 for r in rows if not r["passed"])
        result["ref_rows"] += len(rows)
        result["ref_mismatch"] += mismatched
        g.check("asym rows", got == want and len(rows) == len(want),
                f"exit {rc}, {len(rows)} rows")
        # Exit 1 is the documented answer to a reference mismatch.
        g.check("asym exit code", rc == (1 if mismatched else 0),
                f"exit {rc} with {mismatched} mismatched rows")
        return g

    def top():
        g = Gates()
        _suite(mvlab, g, "lambda", gmax - 1, "--gmax", str(gmax))
        return g

    def bottom():
        g = Gates()
        _suite(mvlab, g, "iz", gmax - 1, "--gmax", str(gmax))
        return g

    return [("asym", asym), ("verify-lambda", top), ("verify-iz", bottom)]


def _routes_steps(mvlab, p, workdir: Path, root: Path):
    gmax, nmax = p["gmax"], p["nmax"]
    cells = (gmax + 1) * (nmax + 1)
    tables = workdir / "routes"
    steps = []

    def build(method):
        def step():
            g = Gates()
            out = tables / f"{method}.txt"
            rc, text = run_cli(mvlab, [
                "table", "--gmax", str(gmax), "--nmax", str(nmax),
                "--method", method, "--out", str(out), "--format", "json",
            ])
            entries = json.loads(text)["entries"] if rc == 0 else None
            g.check(f"table {method}", rc == 0 and entries == cells,
                    f"exit {rc}, {entries} entries")
            return g
        return step

    for method in p["order"]:
        steps.append((f"table-{method}", build(method)))

    def same_bytes():
        g = Gates()
        blobs = {}
        for method in ROUTES:
            f = tables / f"{method}.txt"
            blobs[method] = f.read_bytes() if f.is_file() else None
        first = blobs[ROUTES[0]]
        g.check("three routes byte-identical",
                first is not None and all(b == first for b in blobs.values()),
                "route tables differ: "
                + ", ".join(m for m, b in blobs.items() if b != first))
        return g

    def cache():
        g = Gates()
        rc, text = run_cli(mvlab, ["cache", "--cache-dir", str(tables), "--format", "json"])
        files = json.loads(text)["files"] if rc == 0 else []
        g.check("cache loads and validates",
                rc == 0 and sorted(f["name"] for f in files)
                == sorted(f"{m}.txt" for m in ROUTES)
                and all(f["entries"] == cells for f in files),
                f"exit {rc}, files {files}")
        return g

    def golden():
        g = Gates()
        rel, ggold, ngold, method = GOLDEN
        out = workdir / "golden" / "table.txt"
        rc, _ = run_cli(mvlab, [
            "table", "--gmax", str(ggold), "--nmax", str(ngold),
            "--method", method, "--out", str(out), "--format", "json",
        ])
        g.check("golden file bytes",
                rc == 0 and out.read_bytes() == (root / rel).read_bytes(),
                f"exit {rc}, bytes differ from {rel}")
        return g

    def table1():
        g = Gates()
        _suite(mvlab, g, "table1", 35)
        return g

    steps += [("same-bytes", same_bytes), ("cache", cache),
              ("golden", golden), ("verify-table1", table1)]
    return steps


def _identities_steps(mvlab, p):
    nx, fgmax, gmax = p["nx"], p["fgmax"], p["gmax"]
    cell = tuple(p["cell"])
    value = Fraction(p["value"])

    def clean():
        g = Gates()
        rep = mvlab.verify_functional_eqs(nx, fgmax)
        g.check("funceq clean", rep.passed and rep.checked > 0,
                f"{len(rep.failures)} nonzero residuals")
        return g

    def perturbed():
        g = Gates()
        rep = mvlab.verify_functional_eqs(nx, fgmax, overrides={cell: value})
        g.check("funceq perturbation detected", not rep.passed,
                f"a{cell} = {value} went unnoticed")
        return g

    def profiles():
        g = Gates()
        for gg in range(gmax + 1):
            g.check(f"u_direct({gg}) == u_from_tilde({gg})",
                    mvlab.u_direct(gg) == mvlab.u_from_tilde(gg), "profiles differ")
        return g

    def rows():
        g = Gates()
        for gg in range(2, gmax + 1):
            want = tuple(
                c * (5 * gg - 5 - j) * (5 * gg - 3 - j)
                for j, c in enumerate(mvlab.coeffs_C(gg).C)
            )
            g.check(f"kazarian_c({gg})", mvlab.kazarian_c(gg) == want, "row differs")
        return g

    return [("funceq", clean), ("funceq-perturbed", perturbed),
            ("profiles", profiles), ("kazarian-rows", rows)]


def steps(mvlab, workload: str, p: dict, result: dict, workdir: Path, root: Path):
    """The ordered (name, callable) steps of one repetition."""
    if workload == "asym-large-g":
        return _asym_steps(mvlab, p, result)
    if workload == "routes-wide-n":
        return _routes_steps(mvlab, p, workdir, root)
    if workload == "identities":
        return _identities_steps(mvlab, p)
    raise ValueError(f"unknown workload {workload!r}")
