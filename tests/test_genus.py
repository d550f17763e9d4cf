import re
from collections import Counter
from fractions import Fraction
from math import factorial, lcm, prod

import pytest

from mvlab import genus, volumes
from mvlab.agn import a_direct
from mvlab.asym import estimate_m
from mvlab.exact import LaurentT, RowStore, bernoulli, laurent_dt
from mvlab.genus import (
    SupportError,
    agn_from_series,
    coeffs_C,
    kazarian_c,
    tilde_u,
    u_direct,
    u_from_tilde,
)
from mvlab.verify import run_suite
from mvlab.volumes import sv_constant

import laurent_ref
from laurent_ref import (ZERO, GenusBlock, add, closed_H, genus_ode_residual, hg_block, monomial,
                         scale, sub, weighted_sum)


def test_profile_support_is_exact():
    for g in range(2, 15):
        u = u_from_tilde(g)
        lo, hi = -(5 * g - 1), -(4 * g - 1)
        assert u.support() == list(range(lo, hi + 1)), g


def test_two_profile_recursions_agree():
    for g in range(2, 37):
        assert u_direct(g) == u_from_tilde(g), g


def _u_direct_quadruple_sum(g):
    # The recursion of u_direct term by term: ordered (g1, j1, g2, j2)
    # with g1 + g2 + j1 + j2 = g and 0 <= g1, g2 <= g-1.
    quad = ZERO
    for g1 in range(g):
        for g2 in range(min(g - g1, g - 1) + 1):
            jtot = g - g1 - g2
            for j1 in range(jtot + 1):
                j2 = jtot - j1
                w = Fraction(
                    (-1) ** jtot,
                    4**jtot * factorial(2 * j1 + 1) * factorial(2 * j2 + 1),
                )
                pair = laurent_dt(u_direct(g1), 2 * j1) * laurent_dt(u_direct(g2), 2 * j2)
                quad = add(quad, scale(pair, w))
    lin = ZERO
    for j in range(1, g + 1):
        w = Fraction((-1) ** j, 4**j * factorial(2 * j))
        lin = add(lin, scale(laurent_dt(u_direct(g - j), 2 * j), w))
    return sub(scale(quad, Fraction(1, 2)), lin) * monomial(-1)


def test_cauchy_square_matches_quadruple_sum():
    for g in range(1, 9):
        assert u_direct(g) == _u_direct_quadruple_sum(g), g


def test_coeffs_positive():
    for g in range(2, 15):
        assert all(c > 0 for c in coeffs_C(g).C), g


def test_coeffs_rejects_low_genus():
    with pytest.raises(ValueError):
        coeffs_C(1)


def test_quadratic_row_recursion_matches_profiles():
    assert kazarian_c(1) == (Fraction(1, 12), Fraction(1, 24))
    for g in range(2, 81):
        row = kazarian_c(g)
        C = coeffs_C(g).C
        for j in range(g + 1):
            assert row[j] == C[j] * (5 * g - 5 - j) * (5 * g - 3 - j), (g, j)


def _kazarian_term_by_term(gmax):
    # The row recursion of kazarian_c one Fraction at a time: the ordered
    # convolution over g1 + g2 = g and j1 + j2 = j, halved.
    rows = {1: (Fraction(1, 12), Fraction(1, 24))}
    for g in range(2, gmax + 1):
        prev, row = rows[g - 1], []
        for j in range(g + 1):
            t = Fraction(0)
            if j >= 1:
                t += Fraction(g + 1 - j, 5 * g - 2 - j) * row[j - 1]
            if j <= g - 1:
                t += Fraction((5 * g - 6 - j) * (5 * g - 4 - j), 12) * prev[j]
            conv = Fraction(0)
            for g1 in range(1, g):
                r1, r2 = rows[g1], rows[g - g1]
                for j1 in range(j + 1):
                    if j1 <= g1 and j - j1 <= g - g1:
                        conv += r1[j1] * r2[j - j1]
            row.append(t + conv / 2)
        rows[g] = tuple(row)
    return rows


def test_dense_rows_match_term_by_term_recursion():
    for g, row in _kazarian_term_by_term(12).items():
        assert kazarian_c(g) == row, g
        assert all(type(c) is Fraction for c in kazarian_c(g)), g


def _counted_kernel(monkeypatch):
    # Record the order of each D_T^k kernel call the towers make.
    calls = []
    kernel = genus.dt_numerators

    def counted(lo, nums, k):
        calls.append(k)
        return kernel(lo, nums, k)

    monkeypatch.setattr(genus, "dt_numerators", counted)
    return calls


def test_tower_takes_each_derivative_once(monkeypatch):
    # Genus g takes D_T^(2(g-h)) of each lower profile h in one kernel
    # call, so to genus 12 each tower makes 12 * 13 / 2 = 78 calls, and
    # a second sweep, which builds nothing, makes none.
    for store, build in (("_tower", u_from_tilde), ("_u_direct", u_direct)):
        monkeypatch.setattr(genus, store, getattr(genus, store)[:1])
        monkeypatch.setattr(genus, "_u_direct_W", genus._u_direct_W[:1])
        calls = _counted_kernel(monkeypatch)
        for h in range(13):
            build(h)
        assert Counter(calls) == {2 * k: 13 - k for k in range(1, 13)}, store
        assert len(calls) == 78, store
        for h in range(13):
            build(h)
        assert len(calls) == 78, store


# Reference recursions: the LaurentT tower the int kernel replaced, one
# laurent_dt, product and normalized weighted_sum per term, and the
# row recursion with its triangular step on Fractions.
def _half_square(rows, g):
    return [
        (Fraction(1, 2) if 2 * g1 == g else 1, rows[g1] * rows[g - g1])
        for g1 in range(1, g // 2 + 1)
    ]


def _reference_tower(gmax):
    tus = us = [LaurentT({0: 1, 1: -1})]
    ws, u_ws = [], []
    for g in range(1, gmax + 1):
        w = abs(bernoulli(2 * g)) / factorial(2 * g)
        ws.append(w)
        u_ws.append(w * Fraction(4**g - 2, 4**g))
        dts = [laurent_dt(tus[g - g1], 2 * g1) for g1 in range(1, g + 1)]
        tu = weighted_sum(_half_square(tus, g) + list(zip(ws, dts))) * monomial(-1)
        tus = tus + [tu]
        us = us + [weighted_sum([(1, tu)] + list(zip(u_ws, dts)))]
    return tus, us


def _reference_u_direct(gmax):
    us, Ws = [LaurentT({0: 1, 1: -1})], [LaurentT({0: 1, 1: -1})]
    for g in range(1, gmax + 1):
        dts = [(j, laurent_dt(us[g - j], 2 * j)) for j in range(1, g + 1)]
        v_top = weighted_sum(
            (Fraction((-1) ** j, 4**j * factorial(2 * j + 1)), d) for j, d in dts
        )
        terms = [(1, Ws[0] * v_top)] + _half_square(Ws, g)
        for j, d in dts:
            terms.append((Fraction((-1) ** (j + 1), 4**j * factorial(2 * j)), d))
        res = weighted_sum(terms) * monomial(-1)
        us.append(res)
        Ws.append(add(v_top, res))
    return us


def _reference_kazarian(gmax):
    rows = {1: LaurentT({0: Fraction(1, 12), 1: Fraction(1, 24)})}
    for g in range(2, gmax + 1):
        conv = weighted_sum(_half_square(rows, g))
        prev, row, c = rows[g - 1], {}, Fraction(0)
        for j in range(g + 1):
            c = (
                Fraction(g + 1 - j, 5 * g - 2 - j) * c
                + Fraction((5 * g - 6 - j) * (5 * g - 4 - j), 12) * prev.coeff(j)
                + conv.coeff(j)
            )
            row[j] = c
        rows[g] = LaurentT(row)
    return rows


def test_tower_kernel_matches_laurent_reference():
    tus, us = _reference_tower(60)
    for g in range(61):
        assert tilde_u(g).dense() == tus[g].dense(), g
        assert u_from_tilde(g).dense() == us[g].dense(), g


def test_direct_kernel_matches_laurent_reference():
    for g, u in enumerate(_reference_u_direct(60)):
        assert u_direct(g).dense() == u.dense(), g


def test_row_kernel_matches_fraction_reference():
    # The stored row is the plain ints R_g * c_g.
    for g, row in _reference_kazarian(60).items():
        want = tuple(row.coeff(j) for j in range(g + 1))
        assert kazarian_c(g) == want, g
        assert genus._kaz_rows[g] == [genus._row_den(g) * c for c in want], g
        assert all(type(x) is int for x in genus._kaz_rows[g]), g


def test_series_closed_forms_low_genus():
    # genus 0: odd double factorials; genus 1: mixed factorial form
    assert agn_from_series(0, 3) == 1
    assert agn_from_series(0, 4) == 1
    assert agn_from_series(0, 5) == 3
    assert agn_from_series(0, 6) == 15
    assert agn_from_series(1, 1) == Fraction(1, 12)
    assert agn_from_series(1, 2) == Fraction(1, 8)
    for g in range(2):
        for n in range(10):
            assert agn_from_series(g, n) == a_direct(g, n), (g, n)


def test_series_rows_are_built_once(monkeypatch):
    # Every series quantity of genus g reads the one stored row of genus
    # g, built by one `kazarian_c` call, and `coeffs_C` and `hg_block`
    # read the one tower entry of genus g: up to genus 9 the tower makes
    # one kernel call per lower profile per genus, 45 in all, and none
    # after that.
    monkeypatch.setattr(genus, "_tower", genus._tower[:1])
    monkeypatch.setattr(genus, "_kaz_rows", genus._kaz_rows[:1])
    monkeypatch.setattr(genus, "_series", {})
    calls, rows = _counted_kernel(monkeypatch), []
    kaz = genus.kazarian_c

    def counted_rows(g):
        rows.append(g)
        return kaz(g)

    monkeypatch.setattr(genus, "kazarian_c", counted_rows)
    for g in (2, 5, 9):
        for n in range(31):
            agn_from_series(g, n)
        coeffs_C(g)
        hg_block(g)
    assert rows == [2, 5, 9]
    assert len(genus._kaz_rows) == 10
    assert len(genus._tower) == 10
    assert len(calls) == 9 * 10 // 2


def test_series_cells_match_rising_product_sum():
    # The rising-product sum over the C row, one Fraction per term: the
    # n >= 2 cells cancel its factors m(m+2) against C's denominators.
    for g in range(2, 41):
        C = coeffs_C(g).C
        for n in range(41):
            want = Fraction(0)
            for j, c in enumerate(C):
                m = 5 * g - 5 - j
                want += c * prod(range(m, m + 2 * n, 2))
            assert agn_from_series(g, n) == want, (g, n)


def test_series_cells_read_only_the_rows(monkeypatch):
    # Every n, n < 2 included, reads the row numerators, not the C row.
    want = {(g, n): agn_from_series(g, n) for g in range(2, 13) for n in range(4)}

    def no_rows(g):
        raise AssertionError(f"coeffs_C({g}) called")

    monkeypatch.setattr(genus, "coeffs_C", no_rows)
    monkeypatch.setattr(genus, "_series", {})
    assert {cell: agn_from_series(*cell) for cell in want} == want


def _refuse(name):
    def refused(*args):
        raise AssertionError(f"{name}{args} called")
    return refused


def test_numbers_read_no_profile(monkeypatch):
    # The series cells, the area constants, the lambda/iz suites and the
    # fits run with every profile recursion refused, from empty stores.
    def numbers():
        return (agn_from_series(30, 4), sv_constant(20, 3), run_suite("lambda", 30),
                run_suite("iz", 30), estimate_m(2, 24, 3))

    want = numbers()
    assert want[2].passed and want[3].passed
    for name in ("tilde_u", "u_from_tilde", "u_direct"):
        monkeypatch.setattr(genus, name, _refuse(name))
    monkeypatch.setattr(genus, "_kaz_rows", genus._kaz_rows[:1])
    monkeypatch.setattr(genus, "_series", {})
    monkeypatch.setattr(volumes, "_sv_rows", RowStore())
    assert numbers() == want
    assert len(genus._kaz_rows) == 31


def test_profile_data_reads_no_row(monkeypatch):
    # The other way: coeffs_C and the ODE check run with the row
    # recursion refused, from a tower cut back to genus 0. The cut is
    # the whole reset: no derivative outlives the profiles.
    want = coeffs_C(12)
    monkeypatch.setattr(genus, "kazarian_c", _refuse("kazarian_c"))
    monkeypatch.setattr(genus, "_kaz_rows", genus._kaz_rows[:1])
    monkeypatch.setattr(genus, "_tower", genus._tower[:1])
    assert coeffs_C(12) == want
    assert genus_ode_residual(8) == ZERO
    assert len(genus._kaz_rows) == 1
    assert len(genus._tower) == 13


def _zero_b(which):
    # A `convolve_into` that zeroes the entries `which(size)` of its sum:
    # in the row recursion, of B_j.
    convolve_into = genus.convolve_into

    def broken(acc, a, b):
        convolve_into(acc, a, b)
        for j in which(len(acc)):
            acc[j] = 0
    return broken


def test_row_check_is_exact():
    # Row 3 must be four nonzero ints, c_{3,j} at j = 0..3.
    row = [1, 2, 3, 4]
    genus._check_row(row, 3)
    text = r"^row c\[3\]: \d+ entries, zero at \[[0-9, ]*\]; want 4 nonzero$"
    for bad in ([0, 2, 3, 4], [1, 2, 3, 0], [1, 0, 3, 4], [1, 2, 3, 4, 1], [1, 2, 3], []):
        with pytest.raises(SupportError, match=text):
            genus._check_row(bad, 3)


@pytest.mark.parametrize("which", [lambda size: {0}, lambda size: set(range(size))],
                         ids=["first-entry-zero", "all-zero"])
def test_defective_row_is_refused_when_stored(monkeypatch, which):
    # A wrong sum is refused when its row is stored, by an inexact division
    # (first-entry-zero) or by the support check (all-zero); a read never
    # sees it.
    monkeypatch.setattr(genus, "_kaz_rows", genus._kaz_rows[:1])
    monkeypatch.setattr(genus, "_series", {})
    monkeypatch.setattr(genus, "convolve_into", _zero_b(which))
    with pytest.raises(SupportError, match=r"row c\[2\]"):
        agn_from_series(5, 3)
    assert len(genus._kaz_rows) == 2


def _lowered(p):
    # R_g with the exponent of the prime p lowered by 1 wherever it is positive.
    row_den = genus._row_den
    return lambda g: row_den(g) // p if row_den(g) % p == 0 else row_den(g)


@pytest.mark.parametrize("p,g,what", [(3, 1, "R_1/(6*R_0)"), (5, 4, "R_4 * c[4,3]"),
                                      (7, 9, "R_9 * c[9,8]")], ids=["p3", "p5", "p7"])
def test_lowered_bound_fails_at_the_first_genus_it_misses(monkeypatch, p, g, what):
    # R_g holds p exactly to the power the denominator of row g needs, at
    # the first genus whose R_g has p; one factor less is an inexact
    # division there, and the rows below it are stored unchanged.
    kazarian_c(12)
    want = genus._kaz_rows[:g]
    monkeypatch.setattr(genus, "_kaz_rows", genus._kaz_rows[:1])
    monkeypatch.setattr(genus, "_row_den", _lowered(p))
    text = f"row c[{g}]: {what} is not an int; the bound R_{g} misses a factor"
    with pytest.raises(SupportError, match=f"^{re.escape(text)}$"):
        kazarian_c(12)
    assert genus._kaz_rows == want


@pytest.mark.parametrize("pair,g", [(lambda g1, g2: g1 == g2, 2),
                                    (lambda g1, g2: g1 == 1 < g2, 3),
                                    (lambda g1, g2: g1 == 2 < g2, 5)],
                         ids=["middle", "one-and-rest", "two-and-rest"])
def test_doubled_pair_cofactor_is_refused(monkeypatch, pair, g):
    # One pair at twice its cofactor: the rows below the first genus it
    # enters agree with the tower's coeffs_C, and that genus's row is
    # refused by an inexact division before it could disagree.
    convolve_into = genus.convolve_into

    def doubled(acc, a, b):
        convolve_into(acc, [2 * x for x in a] if pair(len(a) - 1, len(b) - 1) else a, b)

    monkeypatch.setattr(genus, "_kaz_rows", genus._kaz_rows[:1])
    monkeypatch.setattr(genus, "convolve_into", doubled)
    for h in range(2, g):
        m = range(5 * h - 5, 4 * h - 6, -1)
        assert kazarian_c(h) == tuple(c * k * (k + 2) for c, k in zip(coeffs_C(h).C, m)), h
    with pytest.raises(SupportError, match=rf"^row c\[{g}\]: R_{g} \* c\[{g},"):
        kazarian_c(g)


def test_row_den_divisibilities():
    # Floor superadditivity: R_g1 R_g2 divides R_(g1+g2), 6 R_(g-1) divides
    # R_g, so every cofactor of the row recursion is an int.
    R = [genus._row_den(g) for g in range(151)]
    assert R[:3] == [1, 48, 2304]
    for g in range(1, 151):
        assert R[g] % (6 * R[g - 1]) == 0, g
        for g1 in range(1, g // 2 + 1):
            assert R[g] % (R[g1] * R[g - g1]) == 0, (g1, g - g1)


def test_row_den_is_tight():
    # R_g is a multiple of the reduced denominator of row g, at most 16
    # bits above it: a looser bound would silently widen every row.
    for g in range(1, 61):
        den = lcm(*(c.denominator for c in kazarian_c(g)))
        q, r = divmod(genus._row_den(g), den)
        assert r == 0 and q.bit_length() <= 16, (g, q)


def test_tower_rebuilds_after_truncation(monkeypatch):
    # Each genus keeps its Bernoulli weights in its own tower entry, so
    # a tower cut back to genus 0 rebuilds the same profiles.
    want = [(tilde_u(g), u_from_tilde(g)) for g in range(41)]
    monkeypatch.setattr(genus, "_tower", genus._tower[:1])
    assert [(tilde_u(g), u_from_tilde(g)) for g in range(41)] == want
    for g in range(1, 41):
        w = abs(bernoulli(2 * g)) / factorial(2 * g)
        assert genus._tower[g][2:] == (w, w * (1 - Fraction(2, 4**g))), g


def _at_one(p):
    # Value of a Laurent polynomial in T at T = 1, i.e. at x = 0.
    return sum((c for _, c in p.items()), Fraction(0))


def test_closed_blocks_vanish_or_match_at_one():
    assert _at_one(closed_H(0).laurent) == 0
    assert _at_one(closed_H(1).laurent) == 0
    assert _at_one(closed_H(2).laurent) == Fraction(1, 96)


def test_closed_blocks_generate_the_table():
    # n-th x-derivative at T = 1 recovers a_{g,n}; the log term only
    # matters through its derivative, and log(1/T) itself dies at T = 1.
    for g in range(3):
        for n in range(9):
            got = _at_one(closed_H(g).ddx_n(n).laurent)
            assert got == a_direct(g, n), (g, n)


def test_closed_block_range():
    with pytest.raises(ValueError):
        closed_H(3)


def test_ode_residual_vanishes():
    for g in range(2, 11):
        assert genus_ode_residual(g) == ZERO, g


def test_ode_residual_builds_each_second_derivative_once(monkeypatch):
    # One list of H_h'', h = 0..g, feeds both the x*H_g'' term and the
    # quadratic sum H_0''*H_g'' plus the inner pairs.
    calls = Counter()
    ddx_n = GenusBlock.ddx_n

    def counted(self, k):
        calls[k] += 1
        return ddx_n(self, k)

    monkeypatch.setattr(GenusBlock, "ddx_n", counted)
    assert genus_ode_residual(10) == ZERO
    assert calls == {2: 11, 1: 1, 4: 1}


def test_ode_residual_sees_a_wrong_block(monkeypatch):
    # H_5 doubled: every residual that reads it, as H_g, as H_{g-1} or
    # inside the quadratic sum, is nonzero.
    block = laurent_ref.hg_block

    def doubled(h):
        b = block(h)
        return GenusBlock(b.log_coeff, scale(b.laurent, 2)) if h == 5 else b

    monkeypatch.setattr(laurent_ref, "hg_block", doubled)
    assert genus_ode_residual(4) == ZERO
    for g in (5, 6, 7, 10):
        assert genus_ode_residual(g) != ZERO, g


def test_ode_residual_range():
    with pytest.raises(ValueError):
        genus_ode_residual(1)


def test_tilde_profiles_have_matching_width():
    # tu^[g] has exactly the g exponents -(5g-1)..-4g; u^[g] adds -(4g-1).
    for g in range(2, 37):
        assert tilde_u(g).support() == list(range(-(5 * g - 1), -4 * g + 1)), g


def test_support_check_is_exact():
    # A tu^[3] must cover -14..-12: a missing end or an extra exponent fails.
    window = {-14: 1, -13: 2, -12: 3}
    genus._check_support(LaurentT(window), 3, "tu", width=3)
    with pytest.raises(genus.SupportError, match="is not exactly"):
        genus._check_support(LaurentT({**window, -12: 0}), 3, "tu", width=3)
    with pytest.raises(genus.SupportError, match="is not exactly"):
        genus._check_support(LaurentT({**window, -13: 0}), 3, "tu", width=3)
    with pytest.raises(genus.SupportError, match="expected within"):
        genus._check_support(LaurentT({**window, -11: 1}), 3, "tu", width=3)
    with pytest.raises(genus.SupportError, match="expected within"):
        genus._check_support(LaurentT(), 3, "tu", width=3)
