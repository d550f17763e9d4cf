"""Functional identities satisfied by the full generating function.

The table a_{g,n} assembles into H(x, eps) = sum eps^(2g-2) x^n/n! a_{g,n}.
Three exact identities constrain H: two couple its values at the offset
points x +- i*eps/2, one involves only derivatives at x itself. After
truncation they become monomial-by-monomial statements over the
rationals: (+-i/2)^k alternates, so the sum of the two offset values is
a real series and their difference is i times a real series. A pass
here means exact cancellation, digit for digit, of every coefficient in
the checked window.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, lcm, perm
from typing import NamedTuple

from .agn import a_direct
from .exact import convolve_into

__all__ = ["FunceqFailure", "FunceqReport", "verify_functional_eqs"]

# A bivariate series is a pair (rows, den): rows[b] lists the int
# numerators of x^0, x^1, ... at eps^b, and den > 0 is one denominator
# for the whole series. Rows may be empty, hold zeros or differ in
# length. eps powers start at -2 (the g = 0 layer); products reach below
# that before an eps^2 prefactor lifts them back.
Rows = dict[int, list[int]]
BiSeries = tuple[Rows, int]


def _row(rows: Rows, b: int, length: int) -> list[int]:
    """rows[b], created or padded with zeros to at least length entries."""
    row = rows.setdefault(b, [])
    if len(row) < length:
        row.extend([0] * (length - len(row)))
    return row


def _add(*ps: BiSeries) -> dict[tuple[int, int], Fraction]:
    """The sum as a dict {(x_power, eps_power): Fraction} of its nonzero
    coefficients: each series is rescaled to the lcm of the denominators,
    the rows are added as ints, and only here are Fractions built."""
    den = lcm(*(d for _, d in ps))
    acc: Rows = {}
    for rows, d in ps:
        s = den // d
        for b, row in rows.items():
            tot = _row(acc, b, len(row))
            tot[:len(row)] = [t + s * v for t, v in zip(tot, row)]
    return {
        (a, b): Fraction(v, den) for b, row in acc.items() for a, v in enumerate(row) if v
    }


def _times(p: BiSeries, c: Fraction | int, x: int = 0, eps: int = 0) -> BiSeries:
    """c * x^x * eps^eps * p."""
    rows, den = p
    c = Fraction(c)
    pad = [0] * x
    return (
        {b + eps: pad + [c.numerator * v for v in row] for b, row in rows.items()},
        den * c.denominator,
    )


def _mul(p: BiSeries, q: BiSeries, top) -> BiSeries:
    """p * q, keeping x^a eps^b only for a <= top(b).

    Each pair of eps-rows is an int convolution truncated to the kept
    length top(b) + 1, which every row at eps^b shares. A square (p is
    q) takes each unordered pair of rows once, the pair off the diagonal
    at weight 2.
    """
    (prows, pden), (qrows, qden) = p, q
    if p is q:
        twice = {b: [2 * v for v in row] for b, row in prows.items()}
        pairs = [(b1 + b2, r1, r1 if b1 == b2 else twice[b2])
                 for b1, r1 in prows.items() for b2 in prows if b1 <= b2]
    else:
        pairs = [(b1 + b2, r1, r2) for b1, r1 in prows.items() for b2, r2 in qrows.items()]
    out: Rows = {}
    for b, r1, r2 in pairs:
        m = top(b) + 1
        if m > 0 and r1 and r2:
            convolve_into(_row(out, b, min(len(r1) + len(r2) - 1, m)), r1, r2)
    return out, pden * qden


def _dx(p: BiSeries, k: int = 1) -> BiSeries:
    rows, den = p
    return {b: [perm(a, k) * v for a, v in enumerate(row[k:], k)] for b, row in rows.items()}, den


def _eps_deps(p: BiSeries) -> BiSeries:
    rows, den = p
    return {b: [b * v for v in row] for b, row in rows.items() if b}, den


def _expand(table, gmax: int, nbuild: int, top) -> tuple[BiSeries, BiSeries, BiSeries]:
    """One pass over the table gives H, S = H(x + i*eps/2) + H(x - i*eps/2)
    and D = (H(x + i*eps/2) - H(x - i*eps/2))/i, keeping x^a eps^b only
    for a <= top(b).

    The offset turns x^n into a binomial sum whose k-th term carries
    (+-i/2)^k and moves k units of x-degree into eps-degree. Even k
    survive only in S and odd k only in D, both with the real weight
    2*(-1)^(k//2)/2^k. All three series share the denominator
    L = lcm of den(a_{g,n}) * n! * 2^n. With q = num(a_{g,n}) * L /
    (den(a_{g,n}) * n! * 2^n), the k-th term of a_{g,n} x^n/n! has the
    int numerator q * comb(n, k) * 2^(n-k) * (+-2).

    The table is read at (g, n), g <= gmax and n <= nbuild, only when
    one of its terms is kept: n - k <= top(2g - 2 + k) for some k <= n.
    """
    # tops[b + 2] = top(b) for every eps power b = 2g - 2 + k the terms reach
    tops = [top(b) for b in range(-2, 2 * gmax + nbuild - 1)]
    cells = []
    for g in range(gmax + 1):
        # Some term k <= n is kept exactly when n <= max(k + top(2g - 2 + k) for k <= n).
        reach = accumulate((k + t for k, t in enumerate(tops[2 * g:2 * g + nbuild + 1])), max)
        for n, r in enumerate(reach):
            if n <= r:
                agn = Fraction(table(g, n))
                if agn:
                    cells.append((g, n, agn))
    den = lcm(*(agn.denominator * factorial(n) << n for _, n, agn in cells))
    # Every kept x^a eps^b has a <= top(b), so each row is made full length
    # once; rows no term reaches are dropped at the end.
    h, s, d = ({b: [0] * (t + 1) for b, t in enumerate(tops, -2) if t >= 0} for _ in range(3))
    for g, n, agn in cells:
        q = agn.numerator * (den // (agn.denominator * factorial(n) << n))
        for k, t in enumerate(tops[2 * g:2 * g + n + 1]):
            if n - k > t:
                continue
            b = 2 * g - 2 + k
            term = q * comb(n, k) << (n - k)
            if k == 0:
                h[b][n] += term
            (d if k % 2 else s)[b][n - k] += term * (2 if k % 4 < 2 else -2)
    # A kept term needs only den(a_{g,n}) * k! * (n-k)! * 2^k, and the
    # window keeps both k and n - k small, so most of the n! in L cancels
    # against comb(n, k). One gcd over the three series removes the
    # common factor before the products.
    c = gcd(den, *(v for rows in (h, s, d) for row in rows.values() for v in row))
    return tuple(({b: [v // c for v in row] for b, row in rows.items() if any(row)}, den // c)
                 for rows in (h, s, d))


class FunceqFailure(NamedTuple):
    """One nonzero residual coefficient, at x^x_power eps^eps_power.

    value is the exact rational coefficient. The offset-cubic residual
    is i times a real series, so its value is the residual divided by i.
    """

    identity: str
    x_power: int
    eps_power: int
    value: str


class FunceqReport(NamedTuple):
    nx: int
    gmax: int
    checked: int
    failures: tuple[FunceqFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _residuals(nx: int, gmax: int, table) -> dict[str, dict[tuple[int, int], Fraction]]:
    """The three residual series for the window (nx, gmax), each as a
    dict {(x_power, eps_power): Fraction} of its nonzero coefficients,
    headroom above the window included. Genus g enters at eps^(2g-2) and
    up, where top < 0 past 2*nx + 6: no genus above nx + 4 is built.
    Within genus g, a term k of a_{g,n} lands at eps^(2g-2+k), x^(n-k),
    so _expand reads n only up to K + (2*nx + 8 - 2g - K)//2, where
    K = min(2*gmax + 3 - 2g, 2*nx + 8 - 2g) is the last k kept: 23 - 2g
    at (12, 6), 24 - 2g at (8, 40). nx + 2*gbuild + 5 only bounds it."""
    gbuild = min(gmax, nx + 4)

    # Keep headroom above the window: up to four x-derivatives are
    # still pending when terms pass through here, and eps^2 prefactors
    # raise b by two. So x^a eps^b is kept for a <= nx + 4,
    # b <= 2*gmax + 1 and 2a + b <= 2*nx + 6; top(b) is the highest such
    # a, negative when there is none.
    def top(b: int) -> int:
        return min(nx + 4, (2 * nx + 6 - b) // 2) if b <= 2 * gmax + 1 else -1

    h, s, d = _expand(table, gbuild, nx + 2 * gbuild + 5, top)

    dxd = _dx(d)
    dxd_sq = _mul(dxd, dxd, top)
    d1, d2 = _dx(h), _dx(h, 2)
    return {
        # (d/dx Delta)^2 + d2/dx2 Sigma = 2x/eps^2, with Delta = i D:
        # -(d/dx D)^2 + d2/dx2 S - 2x/eps^2 = 0
        "offset-quadratic": _add(_times(dxd_sq, -1), _dx(s, 2), ({-2: [0, -2]}, 1)),
        # (eps d/deps + x/2 d/dx - eps^2/24 d3/dx3) Delta + eps^2/12 (d/dx Delta)^3 = 0,
        # divided by i: the same operator on D, minus eps^2/12 (d/dx D)^3
        "offset-cubic": _add(
            _eps_deps(d),
            _times(dxd, Fraction(1, 2), x=1),
            _times(_dx(d, 3), Fraction(-1, 24), eps=2),
            _times(_mul(dxd_sq, dxd, top), Fraction(-1, 12), eps=2),
        ),
        # eps d/deps d/dx H + x d2/dx2 H + 1/2 d/dx H
        #   - eps^2/4 (d2/dx2 H)^2 - eps^2/24 d4/dx4 H = 0
        "unshifted": _add(
            _eps_deps(d1),
            _times(d2, 1, x=1),
            _times(d1, Fraction(1, 2)),
            _times(_mul(d2, d2, top), Fraction(-1, 4), eps=2),
            _times(_dx(h, 4), Fraction(-1, 24), eps=2),
        ),
    }


def verify_functional_eqs(nx: int, gmax: int, overrides=None) -> FunceqReport:
    """Check the three identities on the window x^a eps^b with
    a <= nx, b <= 2*gmax - 2, a + b/2 <= nx.

    The build margin in n exceeds the window so that every monomial
    inside it receives all of its contributions; everything outside is
    discarded before judging. overrides patches individual table
    entries, which is how the tests confirm the check has teeth.
    """
    if nx < 0 or gmax < 0:
        raise ValueError("window bounds must be nonnegative")
    overrides = overrides or {}

    def table(g: int, n: int) -> Fraction:
        if (g, n) in overrides:
            return Fraction(overrides[(g, n)])
        return a_direct(g, n)

    def in_window(a: int, b: int) -> bool:
        return a <= nx and b <= 2 * gmax - 2 and 2 * a + b <= 2 * nx

    residuals = _residuals(nx, gmax, table)

    # Residual dicts never store exact zeros, so count the whole window
    # lattice (eps powers run from -2 upward) as what was examined.
    lattice = sum(
        1
        for a in range(nx + 1)
        for b in range(-2, 2 * gmax - 1)
        if 2 * a + b <= 2 * nx
    )
    checked = len(residuals) * lattice
    failures: list[FunceqFailure] = []
    for label, res in residuals.items():
        for (a, b), v in sorted(res.items()):
            if in_window(a, b):
                failures.append(FunceqFailure(label, a, b, str(v)))
    return FunceqReport(nx, gmax, checked, tuple(failures))
