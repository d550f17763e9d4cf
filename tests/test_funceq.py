import hashlib
from fractions import Fraction
from math import comb, factorial, perm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvlab import funceq
from mvlab.agn import a_direct
from mvlab.exact import GaussianRat
from mvlab.funceq import _add, _dx, _eps_deps, _expand, _mul, _times, verify_functional_eqs


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


def _window_cells(nx, gmax):
    return [
        (g, n)
        for g in range(gmax + 1)
        for n in range(1, nx - g + 1)
        if 2 * g - 2 + n > 0
    ]


@pytest.mark.parametrize("nx, gmax, count", [(6, 2, 13), (8, 3, 24), (12, 6, 61)])
def test_every_window_cell_perturbation_is_caught(nx, gmax, count):
    cells = _window_cells(nx, gmax)
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


def test_build_reads_no_genus_above_the_window(monkeypatch):
    # A cell of genus g enters at eps^(2g-2) and above, and the headroom
    # ends at eps^(2*nx + 6), so the (8, 40) build reads genera <= 12 only.
    genera = set()

    def recording(g, n):
        genera.add(g)
        return a_direct(g, n)

    monkeypatch.setattr(funceq, "a_direct", recording)
    verify_functional_eqs(8, 40)
    assert max(genera) == 12


@pytest.mark.parametrize("nx, gmax, reach", [(12, 6, 23), (8, 40, 24)])
def test_build_reads_only_cells_with_a_kept_term(monkeypatch, nx, gmax, reach):
    # A term (g, n, k) is kept only when n - k <= top(2g - 2 + k). For these
    # windows the highest such n is reach - 2g, and every cell below it is read.
    cells = set()

    def recording(g, n):
        cells.add((g, n))
        return a_direct(g, n)

    monkeypatch.setattr(funceq, "a_direct", recording)
    verify_functional_eqs(nx, gmax)
    gbuild = min(gmax, nx + 4)
    assert cells == {(g, n) for g in range(gbuild + 1) for n in range(reach - 2 * g + 1)}


def _reports_digest(windows):
    """sha256 of the reprs of each window's clean report and of two
    seeded ones: a cell at the top genus built, and a(1, 1)."""
    reports = []
    for nx, gmax in windows:
        reports.append(verify_functional_eqs(nx, gmax))
        reports.append(verify_functional_eqs(nx, gmax, {(min(gmax, nx + 4), 1): Fraction(7, 3)}))
        reports.append(verify_functional_eqs(nx, gmax, {(1, 1): Fraction(1, 11)}))
    return hashlib.sha256("\n".join(map(repr, reports)).encode()).hexdigest()


@pytest.mark.parametrize("windows, digest", [
    ([(8, 40), (8, 20), (4, 12), (12, 6), (8, 12), (3, 1), (0, 3), (2, 9), (6, 3), (12, 12)],
     "fecc0c71620966a91da24c31f96b3a826ef2d1927754b6620ba3bf8e0be93a7a"),
    ([(20, 21)], "dc1b7674c73a07348bf34a98c0ae7d1b9f3c281e11f70d41e9f58da21c45f714"),
])
def test_reports_are_pinned(windows, digest):
    assert _reports_digest(windows) == digest


def test_window_past_its_reach_reports_as_at_its_reach():
    assert verify_functional_eqs(8, 40)._replace(gmax=12) == verify_functional_eqs(8, 12)


def _as_dict(p):
    """A row series (rows, den) as {(x_power, eps_power): Fraction}, zeros dropped."""
    rows, den = p
    return {(a, b): Fraction(v, den) for b, row in rows.items() for a, v in enumerate(row) if v}


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

    def top(b):
        return min(nx + 4, (2 * nx + 6 - b) // 2) if b <= 2 * gmax + 1 else -1

    def cap(a, b):
        return a <= nx + 4 and b <= 2 * gmax + 1 and 2 * a + b <= 2 * nx + 6

    _, s, d = (_as_dict(p) for p in _expand(a_direct, gmax, nbuild, top))
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

    def top(b):
        return nx + 4 if b <= 2 * gmax + 1 else -1

    def cap(a, b):
        return a <= nx + 4 and b <= 2 * gmax + 1

    plain = _as_dict(_expand(a_direct, gmax, nx, top)[0])
    assert plain == {
        (n, 2 * g - 2): Fraction(a_direct(g, n), factorial(n))
        for g in range(gmax + 1)
        for n in range(nx + 1)
        if cap(n, 2 * g - 2) and a_direct(g, n)
    }
    assert plain.get((1, 0)) == a_direct(1, 1)
    assert plain.get((3, -2)) == Fraction(a_direct(0, 3), factorial(3))


# The reference: series as dicts {(x_power, eps_power): Fraction}, one
# Fraction operation per term. The row kernels must agree with it.


def _ref_put(s, key, val):
    tot = s.get(key, 0) + val
    if tot == 0:
        s.pop(key, None)
    else:
        s[key] = tot


def _ref_add(*ps):
    out = {}
    for p in ps:
        for k, v in p.items():
            _ref_put(out, k, v)
    return out


def _ref_times(p, c, x=0, eps=0):
    return {(a + x, b + eps): v * c for (a, b), v in p.items()}


def _ref_mul(p, q, cap):
    out = {}
    for (a1, b1), v1 in p.items():
        for (a2, b2), v2 in q.items():
            key = (a1 + a2, b1 + b2)
            if cap(*key):
                _ref_put(out, key, v1 * v2)
    return out


def _ref_dx(p, k=1):
    return {(a - k, b): v * perm(a, k) for (a, b), v in p.items() if a >= k}


def _ref_eps_deps(p):
    return {k: v * k[1] for k, v in p.items() if k[1] != 0}


def _ref_expand(table, gmax, nbuild, cap):
    h, s, d = {}, {}, {}
    for g in range(gmax + 1):
        for n in range(nbuild + 1):
            agn = table(g, n)
            if agn == 0:
                continue
            base = Fraction(agn, factorial(n))
            for k in range(n + 1):
                key = (n - k, 2 * g - 2 + k)
                if not cap(*key):
                    continue
                if k == 0:
                    _ref_put(h, key, base)
                w = Fraction(2 * (-1) ** (k // 2) * comb(n, k), 2**k)
                _ref_put(d if k % 2 else s, key, base * w)
    return h, s, d


def _ref_residuals(nx, gmax, table):
    nbuild = nx + 2 * gmax + 5

    def cap(a, b):
        return a <= nx + 4 and b <= 2 * gmax + 1 and 2 * a + b <= 2 * nx + 6

    h, s, d = _ref_expand(table, gmax, nbuild, cap)
    dxd = _ref_dx(d)
    dxd_sq = _ref_mul(dxd, dxd, cap)
    d1, d2 = _ref_dx(h), _ref_dx(h, 2)
    return {
        "offset-quadratic": _ref_add(
            _ref_times(dxd_sq, -1), _ref_dx(s, 2), {(1, -2): Fraction(-2)}),
        "offset-cubic": _ref_add(
            _ref_eps_deps(d),
            _ref_times(dxd, Fraction(1, 2), x=1),
            _ref_times(_ref_dx(d, 3), Fraction(-1, 24), eps=2),
            _ref_times(_ref_mul(dxd_sq, dxd, cap), Fraction(-1, 12), eps=2),
        ),
        "unshifted": _ref_add(
            _ref_eps_deps(d1),
            _ref_times(d2, 1, x=1),
            _ref_times(d1, Fraction(1, 2)),
            _ref_times(_ref_mul(d2, d2, cap), Fraction(-1, 4), eps=2),
            _ref_times(_ref_dx(h, 4), Fraction(-1, 24), eps=2),
        ),
    }


def _grid():
    cases = [(nx, gmax, None) for nx, gmax in [(0, 0), (3, 1), (4, 1), (8, 4), (12, 6)]]
    for nx, gmax in [(6, 2), (8, 3), (12, 6)]:
        cases += [(nx, gmax, {c: Fraction(1, 999983)}) for c in _window_cells(nx, gmax)]
    cases += [(nx, gmax, {(1, 1): Fraction(1, 11)}) for nx, gmax in [(6, 2), (8, 4)]]
    return cases


def test_grid_has_105_cases():
    assert len(_grid()) == 105


@pytest.mark.parametrize("nx, gmax, overrides", _grid())
def test_rows_match_fraction_reference(monkeypatch, nx, gmax, overrides):
    # Record the residual dicts each build hands verify_functional_eqs,
    # then compare them key for key, the headroom outside the window
    # included, and the two reports.
    seen = {}

    def recording(name, build):
        def run(nx, gmax, table):
            seen[name] = build(nx, gmax, table)
            return seen[name]
        return run

    monkeypatch.setattr(funceq, "_residuals", recording("rows", funceq._residuals))
    report = verify_functional_eqs(nx, gmax, overrides)
    monkeypatch.setattr(funceq, "_residuals", recording("ref", _ref_residuals))
    want = verify_functional_eqs(nx, gmax, overrides)
    assert seen["rows"].keys() == seen["ref"].keys()
    for label, res in seen["ref"].items():
        assert sorted(seen["rows"][label].items()) == sorted(res.items()), label
    assert report == want
    assert report.passed == (overrides is None)


# The row kernels against the dict model, operation by operation.

_row = st.lists(st.integers(-9, 9), max_size=6)
_rows = st.dictionaries(st.integers(-2, 3), _row, max_size=4)
_series = st.tuples(_rows, st.integers(1, 60))
_scales = st.fractions(max_denominator=50)


@st.composite
def _tops(draw):
    """A truncation rule of the form verify_functional_eqs uses, small
    enough that products cross it: a <= amax, b <= bmax, 2a + b <= c."""
    amax, bmax, c = draw(st.integers(0, 6)), draw(st.integers(-3, 6)), draw(st.integers(-4, 14))

    def top(b):
        return min(amax, (c - b) // 2) if b <= bmax else -1

    return top


def _cap(top):
    return lambda a, b: a <= top(b)


@settings(max_examples=300, deadline=None)
@given(_series, _series, _tops())
@example(({-2: [], -1: [0, 0]}, 3), ({-1: [1, 2, 3]}, 1), lambda b: 4)
@example(({-2: [1, 1, 1, 1]}, 1), ({0: [1, 1, 1, 1]}, 2), lambda b: 3)
def test_mul_matches_dict_model(p, q, top):
    got = _mul(p, q, top)
    assert got[1] == p[1] * q[1]
    assert _as_dict(got) == _ref_mul(_as_dict(p), _as_dict(q), _cap(top))


@settings(max_examples=300, deadline=None)
@given(_series, _tops())
@example(({0: [1, 1], 1: [1]}, 1), lambda b: 4)
@example(({-2: [0, 3], 0: [2], 1: []}, 5), lambda b: 2)
def test_square_matches_dict_model(p, top):
    # A square takes each pair of eps-rows once; the model takes every
    # ordered pair.
    got = _mul(p, p, top)
    assert got[1] == p[1] ** 2
    assert _as_dict(got) == _ref_mul(_as_dict(p), _as_dict(p), _cap(top))


def test_mul_truncates_exactly_at_the_cap():
    # Two rows of four ones: the untruncated square is 1, 2, 3, 4, 3, 2, 1.
    p = ({0: [1, 1, 1, 1]}, 1)
    for kept in range(8):
        rows, den = _mul(p, p, lambda b: kept - 1)
        assert _as_dict((rows, den)) == {
            (a, 0): Fraction(c) for a, c in enumerate([1, 2, 3, 4, 3, 2, 1][:kept])
        }
    assert _mul(p, p, lambda b: 3)[0] == {0: [1, 2, 3, 4]}
    assert _mul(p, p, lambda b: -1)[0] == {}


@settings(max_examples=300, deadline=None)
@given(_series, st.integers(0, 4), _scales, st.integers(0, 3), st.integers(-2, 2))
def test_unary_kernels_match_dict_model(p, k, c, x, eps):
    model = _as_dict(p)
    assert _as_dict(_dx(p, k)) == _ref_dx(model, k)
    assert _as_dict(_eps_deps(p)) == _ref_eps_deps(model)
    scaled = _ref_times(model, c, x=x, eps=eps)
    assert _as_dict(_times(p, c, x=x, eps=eps)) == {k: v for k, v in scaled.items() if v}


@settings(max_examples=300, deadline=None)
@given(st.lists(_series, min_size=1, max_size=4))
@example([({-2: [1]}, 2), ({-2: [1]}, 3), ({-2: [0, 5]}, 7)])
@example([({-1: [1, 0, 3]}, 4), ({-1: [-1, 0, -3]}, 4)])
def test_add_matches_dict_model(ps):
    assert _add(*ps) == _ref_add(*(_as_dict(p) for p in ps))


_tables = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 7)),
    st.fractions(max_denominator=30),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(_tables, _tops())
def test_expand_matches_dict_model(cells, top):
    def table(g, n):
        return Fraction(cells.get((g, n), 0))

    got = _expand(table, 2, 7, top)
    assert got[0][1] == got[1][1] == got[2][1]
    want = _ref_expand(table, 2, 7, _cap(top))
    assert [_as_dict(p) for p in got] == list(want)
