"""End-to-end acceptance checks, one test per contract item.

Each test prints a single PASS/FAIL line (visible with -v via the test
outcome, and in captured output on failure) and then asserts.
"""

import random
import time
from fractions import Fraction
from math import factorial

from mpmath import mp

from mvlab.agn import a_alt, a_direct, build_table, load_table, save_table
from mvlab.asym import compare_report, richardson_fit
from mvlab.exact import double_factorial
from mvlab.funceq import verify_functional_eqs
from mvlab.genus import agn_from_series, coeffs_C, kazarian_c, u_direct, u_from_tilde
from mvlab.verify import GOLDEN_TABLE1
from mvlab.volumes import (
    PiScaled,
    cg_seq,
    kappa,
    lambda_g_value,
    volume,
)

GOLDEN_FILE = __file__.rsplit("/", 1)[0] + "/golden/agn_g15_n8.txt"


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    table = build_table(4, 6, "direct")
    elapsed = time.perf_counter() - t0
    bad = [
        (g, n)
        for (g, n), want in GOLDEN_TABLE1.items()
        if table.value(g, n) != want
    ]
    assert table.value(4, 6) == Fraction(10765584400823, 884736)
    _report(
        1,
        "35 published table entries reproduced exactly in under 5 s",
        not bad and elapsed < 5.0,
        f"mismatches={bad}, {elapsed:.2f}s",
    )


def test_criterion_02_triple_path_equality():
    t0 = time.perf_counter()
    bad = []
    for g in range(16):
        for n in range(9):
            d = a_direct(g, n)
            if agn_from_series(g, n) != d:
                bad.append(("series", g, n))
            if n >= 2 and a_alt(g, n) != d:
                bad.append(("alt", g, n))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        "three evaluation paths agree exactly for g <= 15, n <= 8 in under 60 s",
        not bad and elapsed < 60.0,
        f"mismatches={bad}, {elapsed:.2f}s",
    )


def test_criterion_03_functional_equations():
    t0 = time.perf_counter()
    clean = verify_functional_eqs(8, 4)
    poisoned = verify_functional_eqs(6, 2, overrides={(1, 1): Fraction(1, 11)})
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "all residuals vanish on the (Nx=8, Gmax=4) window and a perturbed "
        "table is rejected, in under 30 s",
        clean.passed and not poisoned.passed and elapsed < 30.0,
        f"clean={clean.passed}, poisoned_caught={not poisoned.passed}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_04_closed_form_volumes():
    bad = []
    for n in range(3, 16):
        want = PiScaled(Fraction(2) ** (5 - n), 4 * n - 12)
        if volume(0, n) != want:
            bad.append((0, n))
    for n in range(1, 16):
        coeff = (
            Fraction(factorial(n), double_factorial(2 * n - 1))
            + Fraction(2 * n, (2 * n - 1) * 2**n)
        ) / 3
        if volume(1, n) != PiScaled(coeff, 4 * n):
            bad.append((1, n))
    _report(
        4,
        "genus-0 and genus-1 volumes match their closed forms exactly "
        "for n <= 15",
        not bad,
        f"mismatches={bad}",
    )


def test_criterion_05_top_and_bottom_coefficients():
    c = cg_seq(20)
    bad = []
    if c[2] != 98 or c[3] != 19600:
        bad.append(("seeds", c[2], c[3]))
    for g in range(2, 21):
        C = coeffs_C(g).C
        if C[g] != lambda_g_value(g):
            bad.append(("top", g))
        if C[0] != Fraction(c[g], 24**g) / ((5 * g - 3) * (5 * g - 5)):
            bad.append(("bottom", g))
    _report(
        5,
        "top coefficient matches the closed product formula and bottom "
        "coefficient matches the quadratic-recursion sequence, g <= 20",
        not bad,
        f"mismatches={bad}",
    )


def test_criterion_06_profile_path_equivalence():
    t0 = time.perf_counter()
    bad = []
    for g in range(2, 21):
        if u_direct(g) != u_from_tilde(g):
            bad.append(("u", g))
        row = kazarian_c(g)
        C = coeffs_C(g).C
        for j in range(g + 1):
            if row[j] != C[j] * (5 * g - 5 - j) * (5 * g - 3 - j):
                bad.append(("row", g, j))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        "both profile recursions and the quadratic row recursion agree "
        "exactly for g <= 20 in under 60 s",
        not bad and elapsed < 60.0,
        f"mismatches={bad}, {elapsed:.2f}s",
    )


def test_criterion_07_asymptotic_coefficients():
    report = compare_report([0, 1, 2], 60, 5, target="both")
    failing = [
        f"{r.target} n={r.n} k={r.k}: est={r.estimate} ref={r.reference} "
        f"rel={r.rel_deviation}"
        for r in report.rows
        if not r.passed
    ]
    _report(
        7,
        "fitted expansion coefficients match the published polynomials "
        "on their tolerance schedule (gmax=60, K=5)",
        report.passed,
        "; ".join(failing) or "all rows pass",
    )


def test_criterion_08_extrapolator_oracle():
    rng = random.Random(424242)
    worst = mp.mpf(0)
    with mp.workprec(320):
        for K in range(1, 7):
            cs = [
                Fraction(
                    rng.choice([-1, 1]) * rng.randint(1, 999), rng.randint(1, 64)
                )
                for _ in range(K + 1)
            ]
            samples = [
                (g, sum(c / Fraction(g) ** k for k, c in enumerate(cs)))
                for g in range(20, 61)
            ]
            fit = richardson_fit(samples, K)
            for k, c in enumerate(cs):
                want = mp.mpf(c.numerator) / c.denominator
                rel = abs(fit.coefficients[k].value - want) / abs(want)
                worst = max(worst, rel)
        ok = worst < mp.mpf("1e-15")
        detail = f"worst relative error {mp.nstr(worst, 3)}"
    _report(
        8,
        "synthetic 1/g series recovered to 15+ significant digits for "
        "K <= 6 on the [20, 60] window",
        ok,
        detail,
    )


def test_criterion_09_large_n_scaling():
    k2 = kappa(2)

    def dev(n: int) -> Fraction:
        v = volume(2, n)
        assert v.pi_half_exponent == 4 * n + 12
        return abs(v.coeff * Fraction(2) ** n / n / k2.coeff - 1)

    d100, d400 = dev(100), dev(400)
    assert isinstance(d100, Fraction) and isinstance(d400, Fraction)
    _report(
        9,
        "normalized genus-2 volume is within 10% of its scaling constant "
        "at n=400 and closer than at n=100, exactly",
        d400 < Fraction(1, 10) and d400 < d100,
        f"dev(400)={float(d400):.4f}, dev(100)={float(d100):.4f}",
    )


def test_criterion_10_persistence(tmp_path):
    table = build_table(15, 8, "alt")
    out = tmp_path / "agn_g15_n8.txt"
    save_table(table, out)
    loaded = load_table(out)
    round_trip = loaded.entries == table.entries
    with open(GOLDEN_FILE, "rb") as fh:
        golden = fh.read()
    identical = out.read_bytes() == golden
    _report(
        10,
        "table save/load round-trips exactly and matches the committed "
        "golden file byte for byte",
        round_trip and identical,
        f"round_trip={round_trip}, identical={identical}",
    )
