from collections import Counter
from fractions import Fraction

import pytest

from mvlab import genus
from mvlab.agn import a_direct
from mvlab.genus import (
    agn_from_series,
    closed_H,
    coeffs_C,
    genus_ode_residual,
    hg_block,
    kazarian_c,
    tilde_u,
    u_direct,
    u_from_tilde,
)


def test_profile_support_is_exact():
    for g in range(2, 15):
        u = u_from_tilde(g)
        lo, hi = -(5 * g - 1), -(4 * g - 1)
        assert u.support() == list(range(lo, hi + 1)), g


def test_two_profile_recursions_agree():
    for g in range(2, 21):
        assert u_direct(g) == u_from_tilde(g), g


def test_coeffs_positive():
    for g in range(2, 15):
        assert all(c > 0 for c in coeffs_C(g).C), g


def test_coeffs_rejects_low_genus():
    with pytest.raises(ValueError):
        coeffs_C(1)


def test_quadratic_row_recursion_matches_profiles():
    assert kazarian_c(1) == (Fraction(1, 12), Fraction(1, 24))
    for g in range(2, 21):
        row = kazarian_c(g)
        C = coeffs_C(g).C
        for j in range(g + 1):
            assert row[j] == C[j] * (5 * g - 5 - j) * (5 * g - 3 - j), (g, j)


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
    # Every series quantity of genus g reads one cached C row, so the
    # profile u^[g] is assembled once however many cells are asked for.
    monkeypatch.setattr(genus, "_rows", {})
    monkeypatch.setattr(genus, "_series", {})
    built = Counter()
    profile = genus.u_from_tilde

    def counted(g):
        built[g] += 1
        return profile(g)

    monkeypatch.setattr(genus, "u_from_tilde", counted)
    for g in (2, 5, 9):
        for n in range(31):
            agn_from_series(g, n)
        coeffs_C(g)
        hg_block(g)
    assert built == {2: 1, 5: 1, 9: 1}


def test_closed_blocks_vanish_or_match_at_one():
    assert closed_H(0).laurent.eval_at_one() == 0
    assert closed_H(1).laurent.eval_at_one() == 0
    assert closed_H(2).laurent.eval_at_one() == Fraction(1, 96)


def test_closed_blocks_generate_the_table():
    # n-th x-derivative at T = 1 recovers a_{g,n}; the log term only
    # matters through its derivative, and log(1/T) itself dies at T = 1.
    for g in range(3):
        for n in range(9):
            got = closed_H(g).ddx_n(n).laurent.eval_at_one()
            assert got == a_direct(g, n), (g, n)


def test_closed_block_range():
    with pytest.raises(ValueError):
        closed_H(3)


def test_ode_residual_vanishes():
    for g in range(2, 11):
        assert genus_ode_residual(g).is_zero(), g


def test_ode_residual_range():
    with pytest.raises(ValueError):
        genus_ode_residual(1)


def test_tilde_profiles_have_matching_width():
    for g in range(2, 12):
        sup = tilde_u(g).support()
        assert len(sup) <= g + 1, g
