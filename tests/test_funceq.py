from fractions import Fraction
from math import comb, factorial

import pytest

from mvlab.agn import a_direct
from mvlab.exact import GaussianRat
from mvlab.funceq import _expand, verify_functional_eqs


def test_window_8_4_clean():
    report = verify_functional_eqs(8, 4)
    assert report.passed
    assert report.failures == ()
    assert report.checked > 0


def test_small_windows():
    assert verify_functional_eqs(0, 0).passed
    assert verify_functional_eqs(4, 1).passed


def test_poisoned_table_is_caught():
    report = verify_functional_eqs(6, 2, overrides={(1, 1): Fraction(1, 11)})
    assert not report.passed
    f = report.failures[0]
    assert f.identity in {"offset-quadratic", "offset-cubic", "unshifted"}
    assert all(Fraction(f.value) != 0 for f in report.failures)
    # the corrupted coefficient sits at x^1 eps^0; some residual must
    # show up inside the checked window
    assert all(2 * f.x_power + f.eps_power <= 12 for f in report.failures)


@pytest.mark.parametrize("nx, gmax, count", [(6, 2, 13), (8, 3, 24)])
def test_every_window_cell_perturbation_is_caught(nx, gmax, count):
    cells = [
        (g, n)
        for g in range(gmax + 1)
        for n in range(1, nx - g + 1)
        if 2 * g - 2 + n > 0
    ]
    assert len(cells) == count
    for cell in cells:
        report = verify_functional_eqs(nx, gmax, overrides={cell: Fraction(1, 999983)})
        assert not report.passed, cell


def test_checked_counts_whole_window():
    r = verify_functional_eqs(3, 1)
    lattice = sum(
        1
        for a in range(4)
        for b in range(-2, 1)
        if 2 * a + b <= 6
    )
    assert r.checked == 3 * lattice


def _offset_series(sign, gmax, nbuild, cap):
    """H(x + sign*i*eps/2) expanded term by term in Gaussian rationals."""
    step = GaussianRat(Fraction(0), Fraction(sign, 2))
    out = {}
    for g in range(gmax + 1):
        for n in range(nbuild + 1):
            base = GaussianRat.from_rational(Fraction(a_direct(g, n), factorial(n)))
            power = GaussianRat.from_rational(1)
            for k in range(n + 1):
                key = (n - k, 2 * g - 2 + k)
                if cap(*key):
                    out[key] = out.get(key, GaussianRat()) + (base * power).scale(comb(n, k))
                power = power * step
    return out


def test_shifted_builds_are_conjugate():
    nx, gmax = 5, 2
    nbuild = nx + 2 * gmax + 5

    def cap(a, b):
        return a <= nx + 4 and b <= 2 * gmax + 1 and 2 * a + b <= 2 * nx + 6

    _, s, d = _expand(a_direct, gmax, nbuild, cap)
    plus = _offset_series(+1, gmax, nbuild, cap)
    minus = _offset_series(-1, gmax, nbuild, cap)
    assert set(plus) == set(minus)
    for key, v in plus.items():
        assert minus[key] == v.conjugate(), key
    # S = H(x + i eps/2) + H(x - i eps/2) and D = (H(x + i eps/2) - H(x - i eps/2))/i
    sigma = {k: plus[k] + minus[k] for k in plus}
    delta = {k: plus[k] - minus[k] for k in plus}
    assert all(v.im == 0 for v in sigma.values())
    assert all(v.re == 0 for v in delta.values())
    assert s == {k: v.re for k, v in sigma.items() if v.re}
    assert d == {k: v.im for k, v in delta.items() if v.im}
    assert s and d


def test_unshifted_build_matches_table():
    nx, gmax = 6, 2

    def cap(a, b):
        return a <= nx + 4 and b <= 2 * gmax + 1

    plain, _, _ = _expand(a_direct, gmax, nx, cap)
    assert plain == {
        (n, 2 * g - 2): Fraction(a_direct(g, n), factorial(n))
        for g in range(gmax + 1)
        for n in range(nx + 1)
        if cap(n, 2 * g - 2) and a_direct(g, n)
    }
    assert plain.get((1, 0)) == a_direct(1, 1)
    assert plain.get((3, -2)) == Fraction(a_direct(0, 3), factorial(3))
