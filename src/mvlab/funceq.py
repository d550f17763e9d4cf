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

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm

from .agn import a_direct

__all__ = ["FunceqFailure", "FunceqReport", "verify_functional_eqs"]

# A bivariate series is a dict {(x_power, eps_power): Fraction}.
# x powers are nonnegative; eps powers start at -2 (the g = 0 layer).
BiSeries = dict


def _put(s: BiSeries, key: tuple[int, int], val: Fraction) -> None:
    tot = s.get(key, 0) + val
    if tot == 0:
        s.pop(key, None)
    else:
        s[key] = tot


def _add(*ps: BiSeries) -> BiSeries:
    out: BiSeries = {}
    for p in ps:
        for k, v in p.items():
            _put(out, k, v)
    return out


def _times(p: BiSeries, c: Fraction, x: int = 0, eps: int = 0) -> BiSeries:
    """c * x^x * eps^eps * p."""
    return {(a + x, b + eps): v * c for (a, b), v in p.items()}


def _mul(p: BiSeries, q: BiSeries, cap) -> BiSeries:
    out: BiSeries = {}
    for (a1, b1), v1 in p.items():
        for (a2, b2), v2 in q.items():
            key = (a1 + a2, b1 + b2)
            if cap(*key):
                _put(out, key, v1 * v2)
    return out


def _dx(p: BiSeries, k: int = 1) -> BiSeries:
    return {(a - k, b): v * perm(a, k) for (a, b), v in p.items() if a >= k}


def _eps_deps(p: BiSeries) -> BiSeries:
    return {k: v * k[1] for k, v in p.items() if k[1] != 0}


def _expand(table, gmax: int, nbuild: int, cap) -> tuple[BiSeries, BiSeries, BiSeries]:
    """One pass over the table gives H, S = H(x + i*eps/2) + H(x - i*eps/2)
    and D = (H(x + i*eps/2) - H(x - i*eps/2))/i.

    The offset turns x^n into a binomial sum whose k-th term carries
    (+-i/2)^k and moves k units of x-degree into eps-degree. Even k
    survive only in S and odd k only in D, both with the real weight
    2*(-1)^(k//2)/2^k.
    """
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
                    _put(h, key, base)
                w = Fraction(2 * (-1) ** (k // 2) * comb(n, k), 2**k)
                _put(d if k % 2 else s, key, base * w)
    return h, s, d


@dataclass(frozen=True)
class FunceqFailure:
    """One nonzero residual coefficient, at x^x_power eps^eps_power.

    value is the exact rational coefficient. The offset-cubic residual
    is i times a real series, so its value is the residual divided by i.
    """

    identity: str
    x_power: int
    eps_power: int
    value: str


@dataclass(frozen=True)
class FunceqReport:
    nx: int
    gmax: int
    checked: int
    failures: tuple[FunceqFailure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


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

    nbuild = nx + 2 * gmax + 5

    # Keep headroom above the window: up to four x-derivatives are
    # still pending when terms pass through here, and eps^2 prefactors
    # raise b by two.
    def cap(a: int, b: int) -> bool:
        return a <= nx + 4 and b <= 2 * gmax + 1 and 2 * a + b <= 2 * nx + 6

    def in_window(a: int, b: int) -> bool:
        return a <= nx and b <= 2 * gmax - 2 and 2 * a + b <= 2 * nx

    h, s, d = _expand(table, gmax, nbuild, cap)

    dxd = _dx(d)
    dxd_sq = _mul(dxd, dxd, cap)
    d1, d2 = _dx(h), _dx(h, 2)
    residuals = {
        # (d/dx Delta)^2 + d2/dx2 Sigma = 2x/eps^2, with Delta = i D:
        # -(d/dx D)^2 + d2/dx2 S - 2x/eps^2 = 0
        "offset-quadratic": _add(_times(dxd_sq, -1), _dx(s, 2), {(1, -2): Fraction(-2)}),
        # (eps d/deps + x/2 d/dx - eps^2/24 d3/dx3) Delta + eps^2/12 (d/dx Delta)^3 = 0,
        # divided by i: the same operator on D, minus eps^2/12 (d/dx D)^3
        "offset-cubic": _add(
            _eps_deps(d),
            _times(dxd, Fraction(1, 2), x=1),
            _times(_dx(d, 3), Fraction(-1, 24), eps=2),
            _times(_mul(dxd_sq, dxd, cap), Fraction(-1, 12), eps=2),
        ),
        # eps d/deps d/dx H + x d2/dx2 H + 1/2 d/dx H
        #   - eps^2/4 (d2/dx2 H)^2 - eps^2/24 d4/dx4 H = 0
        "unshifted": _add(
            _eps_deps(d1),
            _times(d2, 1, x=1),
            _times(d1, Fraction(1, 2)),
            _times(_mul(d2, d2, cap), Fraction(-1, 4), eps=2),
            _times(_dx(h, 4), Fraction(-1, 24), eps=2),
        ),
    }

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
