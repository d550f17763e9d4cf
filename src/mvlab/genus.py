"""Genus-by-genus Laurent data in T and everything derived from it.

Two independent recursions produce the genus profiles u^[g] of the second
x-derivative of the free energy: one goes through the auxiliary profiles
tu^[g] and a Bernoulli-weighted change of variables, the other is a
self-contained quadratic recursion, summed as a Cauchy square. Their
agreement is a core consistency check. From u^[g] we extract the
coefficients C_{g,j}, run an independent recursion for
c_{g,j} = C_{g,j}*(5g-5-j)*(5g-3-j), rebuild the numbers a_{g,n} via a
rising-factorial formula, and check the genus blocks H_g against a
second-order ODE in x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from .exact import (
    GenusBlock,
    LaurentT,
    bernoulli,
    double_factorial,
    fraction_sum,
    laurent_dt,
    weighted_sum,
)

__all__ = [
    "GenusCoeffs",
    "tilde_u",
    "u_from_tilde",
    "u_direct",
    "coeffs_C",
    "kazarian_c",
    "agn_from_series",
    "closed_H",
    "hg_block",
    "genus_ode_residual",
]


class SupportError(Exception):
    """Genus profile has a T-exponent outside its proven support."""


def _check_support(p: LaurentT, g: int, what: str, width: int) -> None:
    """Require the support of p to be exactly the exponents lo..lo+width-1."""
    if g < 2:
        return
    lo = -(5 * g - 1)
    hi = lo + width - 1
    sup = p.support()
    if not sup or sup[0] < lo or sup[-1] > hi:
        raise SupportError(f"{what}[{g}] supported on {sup}, expected within [{lo},{hi}]")
    if sup != list(range(lo, hi + 1)):
        raise SupportError(f"{what}[{g}] support {sup} is not exactly [{lo},{hi}]")


_tilde: list[LaurentT] = [LaurentT({0: 1, 1: -1})]


def tilde_u(g: int) -> LaurentT:
    """Profile tu^[g], by the Bernoulli-weighted genus recursion.

    Its support is exactly the g exponents -(5g-1)..-4g.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    while len(_tilde) <= g:
        gg = len(_tilde)
        # (1/2) * sum over ordered pairs g1 + g2 = gg: each unordered pair
        # once, the middle square at weight 1/2.
        terms = [
            (Fraction(1, 2) if 2 * g1 == gg else 1, _tilde[g1] * _tilde[gg - g1])
            for g1 in range(1, gg // 2 + 1)
        ]
        for g1 in range(1, gg + 1):
            w = abs(bernoulli(2 * g1)) / factorial(2 * g1)
            terms.append((w, laurent_dt(_tilde[gg - g1], 2 * g1)))
        res = weighted_sum(terms) * LaurentT.monomial(-1)
        _check_support(res, gg, "tu", width=gg)
        _tilde.append(res)
    return _tilde[g]


def u_from_tilde(g: int) -> LaurentT:
    """Profile u^[g] assembled from the tu tower.

    Not memoized: its one caller in the package, coeffs_C, keeps the row
    it reads off the profile.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    terms = [(1, tilde_u(g))]
    for g1 in range(1, g + 1):
        w = (
            Fraction(2 ** (2 * g1 - 1) - 1, 2 ** (2 * g1 - 1))
            * abs(bernoulli(2 * g1))
            / factorial(2 * g1)
        )
        terms.append((w, laurent_dt(tilde_u(g - g1), 2 * g1)))
    acc = weighted_sum(terms)
    _check_support(acc, g, "u", width=g + 1)
    return acc


_u_direct: list[LaurentT] = [LaurentT({0: 1, 1: -1})]
# W_s = sum over h + j = s of v(j) * D_T^(2j) u^[h], v(j) = (-1/4)^j/(2j+1)!.
_u_direct_W: list[LaurentT] = [_u_direct[0]]


def u_direct(g: int) -> LaurentT:
    """Profile u^[g] by the self-contained recursion, a Cauchy square.

    The quadratic sum runs over g1 + j1 + g2 + j2 = g with
    0 <= g1, g2 <= g-1 and j1, j2 >= 0, at weight v(j1) * v(j2),
    v(j) = (-1/4)^j / (2j+1)!, on D_T^(2j1) u^[g1] * D_T^(2j2) u^[g2].
    The weight factors, so the sum is sum_{s1+s2=g} V_s1 * V_s2 with
    V_s = W_s for s < g and V_g = W_g - u^[g], where
    W_s = sum_{h+j=s} v(j) * D_T^(2j) u^[h] is kept once u^[s] is known:
    about g/2 + 1 products per genus. The linear sum reads the same D_T^(2j)
    u^[g-j], at weight (-1/4)^j / (2j)!.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    while len(_u_direct) <= g:
        gg = len(_u_direct)
        dts = [(j, laurent_dt(_u_direct[gg - j], 2 * j)) for j in range(1, gg + 1)]
        v_top = weighted_sum(
            (Fraction((-1) ** j, 4**j * factorial(2 * j + 1)), d) for j, d in dts
        )
        # (1/2) * quad: V_0 * V_gg, each unordered inner pair once, and
        # the middle square at weight 1/2.
        terms = [(1, _u_direct_W[0] * v_top)]
        for s in range(1, gg // 2 + 1):
            w = Fraction(1, 2) if 2 * s == gg else 1
            terms.append((w, _u_direct_W[s] * _u_direct_W[gg - s]))
        for j, d in dts:
            terms.append((Fraction((-1) ** (j + 1), 4**j * factorial(2 * j)), d))
        res = weighted_sum(terms) * LaurentT.monomial(-1)
        _check_support(res, gg, "u", width=gg + 1)
        _u_direct.append(res)
        _u_direct_W.append(v_top + res)
    return _u_direct[g]


@dataclass(frozen=True)
class GenusCoeffs:
    g: int
    C: tuple[Fraction, ...]


_rows: dict[int, GenusCoeffs] = {}


def coeffs_C(g: int) -> GenusCoeffs:
    """C_{g,j} for j = 0..g, read off the u^[g] profile.

    C_{g,j} is the coefficient of T^-(5g-1-j) in u^[g] divided by
    (5g-3-j)*(5g-5-j). The support of u^[g] must be exactly the g+1
    exponents -(5g-1)..-(4g-1); anything else is an internal error.
    Each row is built once.
    """
    if g < 2:
        raise ValueError("coeffs_C needs g >= 2")
    if g not in _rows:
        u = u_from_tilde(g)
        vals = []
        for j in range(g + 1):
            c = u.coeff(-(5 * g - 1 - j))
            vals.append(c / ((5 * g - 3 - j) * (5 * g - 5 - j)))
        _rows[g] = GenusCoeffs(g, tuple(vals))
    return _rows[g]


_kaz_rows: dict[int, tuple[Fraction, ...]] = {1: (Fraction(1, 12), Fraction(1, 24))}


def kazarian_c(g: int) -> tuple[Fraction, ...]:
    """Row c_{g,j}, j = 0..g, of the quadratic genus recursion.

    Seeded at g = 1 with (1/12, 1/24), the two coefficients of u^[1].
    The linear-in-row factor is (g+1-j)/(5g-2-j) acting on c_{g,j-1}.
    """
    if g < 1:
        raise ValueError("kazarian_c needs g >= 1")
    for gg in range(2, g + 1):
        if gg in _kaz_rows:
            continue
        prev = _kaz_rows[gg - 1]
        row: list[Fraction] = []
        for j in range(gg + 1):
            t = Fraction(0)
            if j >= 1:
                t += Fraction(gg + 1 - j, 5 * gg - 2 - j) * row[j - 1]
            if j <= gg - 1:
                t += Fraction((5 * gg - 6 - j) * (5 * gg - 4 - j), 12) * prev[j]
            conv = Fraction(0)
            for g1 in range(1, gg):
                g2 = gg - g1
                r1, r2 = _kaz_rows[g1], _kaz_rows[g2]
                for j1 in range(j + 1):
                    j2 = j - j1
                    if j1 <= g1 and j2 <= g2:
                        conv += r1[j1] * r2[j2]
            row.append(t + conv / 2)
        _kaz_rows[gg] = tuple(row)
    return _kaz_rows[g]


def _is_structural_zero(g: int, n: int) -> bool:
    """True when (g, n) has no stratum; a_{g,n} is 0 there by convention."""
    return g < 0 or n < 0 or 2 * g - 2 + n <= 0


_series: dict[tuple[int, int], Fraction] = {}


def agn_from_series(g: int, n: int) -> Fraction:
    """a_{g,n} rebuilt from genus data, no table recursion involved.

    Genus 0 and 1 come from derivatives of the closed genus blocks;
    genus >= 2 uses 2^n * sum_j C_{g,j} * rising((5g-5-j)/2, n), where
    2^n * rising(m/2, n) = m(m+2)...(m+2n-2) is an integer. The
    genus >= 2 cells are memoized.
    """
    if _is_structural_zero(g, n):
        return Fraction(0)
    if g == 0:
        return Fraction(double_factorial(2 * n - 7)) if n >= 3 else Fraction(0)
    if g == 1:
        return Fraction(2 ** (n - 1) * factorial(n - 1) + double_factorial(2 * n - 3), 24)
    if (g, n) not in _series:
        terms = []
        for j, c in enumerate(coeffs_C(g).C):
            m = 5 * g - 5 - j
            terms.append((c.numerator * prod(range(m, m + 2 * n, 2)), c.denominator))
        _series[(g, n)] = fraction_sum(terms)
    return _series[(g, n)]


def closed_H(g: int) -> GenusBlock:
    """The closed genus blocks H_0, H_1, H_2."""
    if g == 0:
        return GenusBlock(
            Fraction(0),
            LaurentT(
                {
                    0: Fraction(1, 40),
                    2: Fraction(-1, 12),
                    4: Fraction(1, 8),
                    5: Fraction(-1, 15),
                }
            ),
        )
    if g == 1:
        return GenusBlock(
            Fraction(1, 24), LaurentT({0: Fraction(1, 24), 1: Fraction(-1, 24)})
        )
    if g == 2:
        return GenusBlock(
            Fraction(0),
            LaurentT(
                {
                    -5: Fraction(7, 1440),
                    -4: Fraction(5, 1152),
                    -3: Fraction(7, 5760),
                }
            ),
        )
    raise ValueError("closed form available only for g in {0, 1, 2}")


def hg_block(g: int) -> GenusBlock:
    """H_g as a genus block; closed forms below genus 2, C data above."""
    if g <= 1:
        return closed_H(g)
    C = coeffs_C(g).C
    return GenusBlock(
        Fraction(0), LaurentT({-(5 * g - 5 - j): C[j] for j in range(g + 1)})
    )


def genus_ode_residual(g: int) -> GenusBlock:
    """Left side of the genus ODE; identically zero when the tower is right.

    x*H_g'' + (2g - 3/2)*H_g' - (1/4)*sum_{g1+g2=g} H_g1''*H_g2''
    - (1/24)*H_{g-1}''''.
    """
    if g < 2:
        raise ValueError("the ODE check starts at g = 2")
    blocks = {h: hg_block(h) for h in range(g + 1)}
    d1 = blocks[g].ddx_n(1)
    d2 = d1.ddx_n(1)
    res = d2.laurent.times_x() + d1.laurent.scale(Fraction(4 * g - 3, 2))
    quad = LaurentT.zero()
    for g1 in range(g + 1):
        a = blocks[g1].ddx_n(2).laurent
        b = blocks[g - g1].ddx_n(2).laurent
        quad = quad + a * b
    res = res - quad.scale(Fraction(1, 4))
    res = res - blocks[g - 1].ddx_n(4).laurent.scale(Fraction(1, 24))
    return GenusBlock(Fraction(0), res)
