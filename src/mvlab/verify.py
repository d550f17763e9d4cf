"""Named verification suites, shared by the CLI and the test suite.

Each suite replays one of the package's cross-checks and reports
case-by-case results. The 35 published table values are embedded here
as the fixed reference the rest of the machinery must reproduce.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .agn import METHODS, build_table, route
from .funceq import verify_functional_eqs
from .genus import _coeff_C
from .volumes import (
    cg_seq,
    lambda_g_value,
    volume,
    volume_closed_g0,
    volume_closed_g1,
)

__all__ = ["GOLDEN_TABLE1", "VerifyCase", "VerifyResult", "run_suite", "SUITES"]


def _f(s: str) -> Fraction:
    return Fraction(s)


# Published reference values a_{g,n} for g <= 4, n <= 6.
GOLDEN_TABLE1: dict[tuple[int, int], Fraction] = {
    (0, 0): _f("0"), (0, 1): _f("0"), (0, 2): _f("0"), (0, 3): _f("1"),
    (0, 4): _f("1"), (0, 5): _f("3"), (0, 6): _f("15"),
    (1, 0): _f("0"), (1, 1): _f("1/12"), (1, 2): _f("1/8"), (1, 3): _f("11/24"),
    (1, 4): _f("21/8"), (1, 5): _f("163/8"), (1, 6): _f("1595/8"),
    (2, 0): _f("1/96"), (2, 1): _f("29/640"), (2, 2): _f("337/1152"),
    (2, 3): _f("319/128"), (2, 4): _f("10109/384"), (2, 5): _f("42445/128"),
    (2, 6): _f("620641/128"),
    (3, 0): _f("575/21504"), (3, 1): _f("20555/82944"), (3, 2): _f("77633/27648"),
    (3, 3): _f("1038595/27648"), (3, 4): _f("16011391/27648"),
    (3, 5): _f("31040465/3072"), (3, 6): _f("201498115/1024"),
    (4, 0): _f("2106241/7962624"), (4, 1): _f("1103729/294912"),
    (4, 2): _f("160909109/2654208"), (4, 3): _f("14674841399/13271040"),
    (4, 4): _f("99177888029/4423680"), (4, 5): _f("442442475179/884736"),
    (4, 6): _f("10765584400823/884736"),
}


class VerifyCase(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class VerifyResult(NamedTuple):
    suite: str
    cases: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    @property
    def summary(self) -> str:
        good = sum(1 for c in self.cases if c.passed)
        return f"{good}/{len(self.cases)} entries match"


def _case(name: str, got, want) -> VerifyCase:
    ok = got == want
    return VerifyCase(name, ok, "" if ok else f"got {got}, want {want}")


def _suite_table1(gmax) -> list[VerifyCase]:
    if gmax is not None:
        raise ValueError("suite 'table1' checks the fixed window g <= 4, n <= 6 and takes no gmax")
    table = build_table(4, 6, "direct")
    return [
        _case(f"a({g},{n})", table.value(g, n), GOLDEN_TABLE1[(g, n)])
        for (g, n) in sorted(GOLDEN_TABLE1)
    ]


def _suite_paths(gmax) -> list[VerifyCase]:
    gmax = 15 if gmax is None else gmax
    cases = []
    for g in range(gmax + 1):
        for n in range(9):
            d, *others = (route(m)(g, n) for m in METHODS)
            ok = all(v == d for v in others)
            cases.append(VerifyCase(f"paths({g},{n})", ok, "" if ok else f"direct {d}"))
    return cases


def _suite_funceq(gmax) -> list[VerifyCase]:
    gmax = 4 if gmax is None else gmax
    if gmax < 1:
        # The seeded cell a(1,1) enters at eps^0, outside the window
        # b <= 2*gmax - 2, so its detection could not be checked.
        raise ValueError(f"suite 'funceq' needs gmax >= 1, got {gmax}")
    clean = verify_functional_eqs(8, gmax)
    poisoned = verify_functional_eqs(
        8, gmax, overrides={(1, 1): Fraction(1, 11)}
    )
    return [
        VerifyCase(
            f"window(8,{gmax}) residuals vanish",
            clean.passed,
            "" if clean.passed else f"{len(clean.failures)} nonzero",
        ),
        VerifyCase(
            "perturbed table detected",
            not poisoned.passed,
            "" if not poisoned.passed else "perturbation went unnoticed",
        ),
    ]


def _suite_closed(gmax) -> list[VerifyCase]:
    nmax = 15 if gmax is None else gmax
    cases = [
        _case(f"volume(0,{n})", volume(0, n), volume_closed_g0(n))
        for n in range(3, nmax + 1)
    ]
    cases += [
        _case(f"volume(1,{n})", volume(1, n), volume_closed_g1(n))
        for n in range(1, nmax + 1)
    ]
    return cases


def _suite_lambda(gmax) -> list[VerifyCase]:
    gmax = 20 if gmax is None else gmax
    return [
        _case(f"top coeff g={g}", _coeff_C(g, g), lambda_g_value(g))
        for g in range(2, gmax + 1)
    ]


def _suite_iz(gmax) -> list[VerifyCase]:
    gmax = 20 if gmax is None else gmax
    cs = cg_seq(gmax)
    cases = []
    for g in range(2, gmax + 1):
        want = Fraction(1, 24**g) * cs[g] / ((5 * g - 3) * (5 * g - 5))
        cases.append(_case(f"bottom coeff g={g}", _coeff_C(g, 0), want))
    return cases


SUITES = {
    "table1": _suite_table1,
    "paths": _suite_paths,
    "funceq": _suite_funceq,
    "closed": _suite_closed,
    "lambda": _suite_lambda,
    "iz": _suite_iz,
}


def run_suite(name: str, gmax: int | None = None) -> VerifyResult:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {sorted(SUITES)}")
    cases = tuple(SUITES[name](gmax))
    if not cases:
        # An empty suite would report "0/0 entries match" and pass.
        raise ValueError(f"suite {name!r} has no cases at gmax {gmax}")
    return VerifyResult(name, cases)
