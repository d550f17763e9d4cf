"""Genus-by-genus Laurent data in T and everything derived from it.

Two independent recursions produce the genus profiles u^[g] of the second
x-derivative of the free energy: one goes through the auxiliary profiles
tu^[g] and a Bernoulli-weighted change of variables, the other is a
self-contained quadratic recursion, summed as a Cauchy square. Their
agreement is a core consistency check. A third, Kazarian's quadratic row
recursion, gives the rows c_{g,j} = C_{g,j}*(5g-5-j)*(5g-3-j) directly,
at one linear term per genus, on ints over a known denominator R_g.

The rows serve the numbers: `_numerators(g)` reads them, and from it the
series cells a_{g,n} (a rising-factorial formula), the area constants, the
fits and the `lambda`/`iz` suites. `coeffs_C` reads C_{g,j} off u^[g] of
the tilde tower instead, so `mvlab genus` runs on the tower, and comparing
`coeffs_C` with `kazarian_c` compares two independent recursions. The
tests check the tower's blocks H_g against the genus ODE in x as well.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, isqrt, lcm, prod
from typing import NamedTuple

from .exact import LaurentT, bernoulli, convolve_into, double_factorial, fold

__all__ = [
    "GenusCoeffs",
    "tilde_u",
    "u_from_tilde",
    "u_direct",
    "coeffs_C",
    "kazarian_c",
    "agn_from_series",
]


class SupportError(Exception):
    """A genus profile or row has an exponent outside its proven support."""


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


def _pairs(rows, g: int) -> list:
    """Squares of (1/2) * sum_{g1+g2=g, g1,g2>=1} rows[g1] * rows[g2]:
    each unordered pair once, the middle one at weight 1/2."""
    return [
        (Fraction(1, 2) if 2 * g1 == g else 1, rows[g1], rows[g - g1])
        for g1 in range(1, g // 2 + 1)
    ]


def _dt2(lo: int, nums: list[int]) -> tuple[int, list[int]]:
    """D_T^2 on the numerators of sum nums[i] T^(lo+i): the coefficient
    of T^e becomes e(e-2) times itself, at T^(e-4). Leading zeros, from
    T^0 and T^2, are dropped."""
    nums = [e * (e - 2) * c for e, c in enumerate(nums, lo)]
    start = next((i for i, c in enumerate(nums) if c), len(nums))
    return lo - 4 + start, nums[start:]


def _derivatives(cache: list, profiles: list[LaurentT]) -> list:
    """D_T^(2(g-h)) profiles[h] for h < g = len(profiles), as
    (lo, nums, den) triples.

    cache[h] is (profile, k, lo, nums): the numerators of D_T^(2k) of
    that profile over its denominator, from T^lo up. Genus g advances
    each entry by one `_dt2`, one small-int factor per coefficient. An
    entry made from another profile object, or already past order
    2(g-h), starts again from the profile, so a cut-back or edited
    tower is followed.
    """
    g = len(profiles)
    out = []
    for h, p in enumerate(profiles):
        if h == len(cache):
            cache.append(None)
        ent = cache[h]
        if ent is None or ent[0] is not p or ent[1] > g - h:
            lo, nums, _ = p.dense()
            ent = (p, 0, lo, nums)
        _, k, lo, nums = ent
        while k < g - h:
            lo, nums = _dt2(lo, nums)
            k += 1
        cache[h] = (p, k, lo, nums)
        out.append((lo, nums, p.dense()[2]))
    return out


# Per genus g: tu^[g], u^[g], and the weights w_g = |B_2g| / (2g)! and
# (1 - 2^(1-2g)) * w_g that D_T^(2g) tu^[h] carries in the tu^[g+h] and
# u^[g+h] sums. All four come from one pass; genus 0 has no weights.
_tower: list[tuple[LaurentT, LaurentT, Fraction, Fraction]] = [
    (LaurentT({0: 1, 1: -1}),) * 2 + (Fraction(0),) * 2
]
# The tu^[h] derivatives the tower reads, derived from _tower's entries.
_tower_dts: list = []


def tilde_u(g: int) -> LaurentT:
    """Profile tu^[g], by the Bernoulli-weighted genus recursion.

    Its support is exactly the g exponents -(5g-1)..-4g. The same pass
    forms u^[g]: its sum reads the same D_T^(2g1) tu^[g-g1], g1 = 1..g,
    at the weights (1 - 2^(1-2g1)) |B_2g1| / (2g1)!, so each derivative
    is taken once, by one D_T^2 step from the one genus g-1 read. Each
    of tu^[g] and u^[g] is one `fold` over the lcm of its terms'
    denominators, normalized once. The weights of genus g are formed
    when genus g is built and kept in its tower entry.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    while len(_tower) <= g:
        gg = len(_tower)
        w = abs(bernoulli(2 * gg)) / factorial(2 * gg)
        w_u = w * Fraction(4**gg - 2, 4**gg)
        tus = [t[0] for t in _tower]
        # D_T^(2g1) tu^[gg-g1] and its two weights, for g1 = gg..1.
        dts = _derivatives(_tower_dts, tus)
        ws = [w] + [t[2] for t in _tower[:0:-1]]
        u_ws = [w_u] + [t[3] for t in _tower[:0:-1]]
        rows = [p.dense() for p in tus]
        lo = -(5 * gg - 2)  # tu^[gg] * T: T^lo..T^(lo+gg-1)
        acc, den = fold(lo, gg, _pairs(rows, gg), list(zip(ws, dts)))
        tu = LaurentT.from_dense(lo - 1, acc, den)
        _check_support(tu, gg, "tu", width=gg)
        acc, den = fold(lo - 1, gg + 1, (), [(1, tu.dense())] + list(zip(u_ws, dts)))
        u = LaurentT.from_dense(lo - 1, acc, den)
        _check_support(u, gg, "u", width=gg + 1)
        _tower.append((tu, u, w, w_u))
    return _tower[g][0]


def u_from_tilde(g: int) -> LaurentT:
    """Profile u^[g] assembled from the tu tower; tilde_u's pass keeps it."""
    tilde_u(g)
    return _tower[g][1]


_u_direct: list[LaurentT] = [LaurentT({0: 1, 1: -1})]
# W_s = sum over h + j = s of v(j) * D_T^(2j) u^[h], v(j) = (-1/4)^j/(2j+1)!.
_u_direct_W: list[LaurentT] = [_u_direct[0]]
_u_direct_dts: list = []


def u_direct(g: int) -> LaurentT:
    """Profile u^[g] by the self-contained recursion, a Cauchy square.

    The quadratic sum runs over g1 + j1 + g2 + j2 = g with
    0 <= g1, g2 <= g-1 and j1, j2 >= 0, at weight v(j1) * v(j2),
    v(j) = (-1/4)^j / (2j+1)!, on D_T^(2j1) u^[g1] * D_T^(2j2) u^[g2].
    The weight factors, so the sum is sum_{s1+s2=g} V_s1 * V_s2 with
    V_s = W_s for s < g and V_g = W_g - u^[g], where
    W_s = sum_{h+j=s} v(j) * D_T^(2j) u^[h] is kept once u^[s] is known:
    about g/2 + 1 products per genus. The linear sum reads the same D_T^(2j)
    u^[g-j], at weight (-1/4)^j / (2j)!. The derivatives and sums run on
    the same kernel as the tu tower.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    while len(_u_direct) <= g:
        gg = len(_u_direct)
        # D_T^(2j) u^[gg-j] for j = gg..1.
        dts = _derivatives(_u_direct_dts, _u_direct)
        js = range(gg, 0, -1)
        lo = -(5 * gg - 2)
        v_top = LaurentT.from_dense(lo, *fold(lo, gg, (), [
            (Fraction((-1) ** j, 4**j * factorial(2 * j + 1)), d) for j, d in zip(js, dts)
        ])).dense()
        # (1/2) * quad: V_0 * V_gg, then the inner pairs of W.
        ws = [p.dense() for p in _u_direct_W]
        squares = [(1, ws[0], v_top)] + _pairs(ws, gg)
        lines = [(Fraction((-1) ** (j + 1), 4**j * factorial(2 * j)), d) for j, d in zip(js, dts)]
        res = LaurentT.from_dense(lo - 1, *fold(lo, gg + 1, squares, lines))
        _check_support(res, gg, "u", width=gg + 1)
        _u_direct.append(res)
        W = fold(lo - 1, gg + 1, (), [(1, v_top), (1, res.dense())])
        _u_direct_W.append(LaurentT.from_dense(lo - 1, *W))
    return _u_direct[g]


class GenusCoeffs(NamedTuple):
    C: tuple[Fraction, ...]


def _numerators(g: int) -> tuple[list[int], int]:
    """(X, R) for g >= 2, unreduced: X_j / R = c_{g,j} = C_{g,j} m(m+2),
    m = 5g-5-j, j = 0..g, the stored row of the row recursion, R = R_g.

    `agn_from_series` and `_coeff_C` read their genus data only from here;
    `coeffs_C` reads the same numbers off the tilde tower. A missing row is
    built and checked once, by `kazarian_c`; a read makes no `Fraction`.
    """
    if len(_kaz_rows) <= g:
        kazarian_c(g)
    return _kaz_rows[g], _row_den(g)


def _coeff_C(g: int, j: int) -> Fraction:
    """C_{g,j} = X_j / ((5g-5-j)(5g-3-j) R), read off `_numerators(g)`."""
    nums, den = _numerators(g)
    m = 5 * g - 5 - j
    return Fraction(nums[j], m * (m + 2) * den)


def coeffs_C(g: int) -> GenusCoeffs:
    """C_{g,j} for j = 0..g, read off the u^[g] profile of the tilde tower.

    C_{g,j} = U_j / ((5g-5-j)(5g-3-j) den), with U_j / den the
    coefficient of T^-(5g-1-j) in u^[g]. The support of u^[g] must be
    exactly the g+1 exponents -(5g-1)..-(4g-1); anything else is an
    internal error. The row is not kept: the tower keeps u^[g]. The
    series cells and the fits read the same numbers from the row
    recursion instead (`_numerators`), so this is its cross-check.
    """
    if g < 2:
        raise ValueError("coeffs_C needs g >= 2")
    _, nums, den = u_from_tilde(g).dense()
    ms = range(5 * g - 5, 4 * g - 6, -1)
    return GenusCoeffs(tuple(Fraction(U, m * (m + 2) * den) for U, m in zip(nums, ms)))


@cache
def _row_den(g: int) -> int:
    """R_g = prod over primes p, (p-1)^2 <= 4g, of p^floor(4g/(p-1)^2): R_g c_g is
    integral (measured, not proved; checked on every row built). The floors
    are superadditive, so R_g1 R_g2 | R_(g1+g2) and 6 R_(g-1) | R_g."""
    ps = [p for p in range(2, isqrt(4 * g) + 2) if all(p % q for q in range(2, p))]
    return prod(p ** (4 * g // (p - 1) ** 2) for p in ps)


# Row g as the ints R_g * c_g; the seed, row 0, is the T^1 coefficient of u^[0] = 1 - T.
_kaz_rows: list[list[int]] = [[-1]]


def _exact(n: int, d: int, g: int, what: str) -> int:
    """n / d in building row g; a remainder means R_g misses a factor."""
    q, r = divmod(n, d)
    if r:
        raise SupportError(f"row c[{g}]: {what} is not an int; the bound R_{g} misses a factor")
    return q


def _check_row(row: list[int], g: int) -> None:
    """Require row g to be exactly g+1 nonzero entries, the j = 0..g of the series sum."""
    zeros = [j for j, x in enumerate(row) if not x]
    if len(row) != g + 1 or zeros:
        raise SupportError(f"row c[{g}]: {len(row)} entries, zero at {zeros}; want {g + 1} nonzero")


def kazarian_c(g: int) -> tuple[Fraction, ...]:
    """Row c_{g,j}, j = 0..g, of the quadratic genus recursion, on ints.

    c_{g,j} = (g+1-j)/(5g-2-j) c_{g,j-1} + b_j, b_j the y^j coefficient of
    (1/2) sum_{g1+g2=g} c_g1 c_g2 + (5g-6-j)(5g-4-j)/12 c_{g-1}. B_j = 2 R_g b_j
    sums each unordered pair once, its shorter row scaled by (2 off the
    middle, 1 on it) R_g/(R_g1 R_g2), and row g-1 at R_g/(6 R_(g-1)). With
    Q_j = (5g-2)...(5g-2-j), Y_j = 2 Q_j X_j = (g+1-j) Y_(j-1) + Q_j B_j.
    Each division is exact, or raises `SupportError` at the first genus R_g misses.
    """
    if g < 1:
        raise ValueError("kazarian_c needs g >= 1")
    while len(_kaz_rows) <= g:
        gg = len(_kaz_rows)
        R = _row_den(gg)
        s = _exact(R, 6 * _row_den(gg - 1), gg, f"R_{gg}/(6*R_{gg - 1})")
        acc = [s * (5 * gg - 6 - j) * (5 * gg - 4 - j) * x for j, x in enumerate(_kaz_rows[-1])]
        acc.append(0)
        for g1 in range(1, gg // 2 + 1):
            s = _exact(R, _row_den(g1) * _row_den(gg - g1), gg, f"R_{gg}/(R_{g1}*R_{gg - g1})")
            s *= 1 if 2 * g1 == gg else 2
            convolve_into(acc, [s * x for x in _kaz_rows[g1]], _kaz_rows[gg - g1])
        row, y, q = [], 0, 1
        for j, b in enumerate(acc):
            q *= 5 * gg - 2 - j
            y = (gg + 1 - j) * y + q * b
            row.append(_exact(y, 2 * q, gg, f"R_{gg} * c[{gg},{j}]"))
        _check_row(row, gg)
        _kaz_rows.append(row)
    return tuple(Fraction(x, _row_den(g)) for x in _kaz_rows[g])


def _is_structural_zero(g: int, n: int) -> bool:
    """True when (g, n) has no stratum; a_{g,n} is 0 there by convention."""
    return g < 0 or n < 0 or 2 * g - 2 + n <= 0


_series: dict[tuple[int, int], Fraction] = {}


def agn_from_series(g: int, n: int) -> Fraction:
    """a_{g,n} rebuilt from genus data, no table recursion involved.

    Genus 0 and 1 are closed forms: a_{0,n} = (2n-7)!! and
    a_{1,n} = (2^(n-1) (n-1)! + (2n-3)!!)/24. Genus >= 2 uses
    2^n * sum_j C_{g,j} * rising(m/2, n), m = 5g-5-j, where
    2^n * rising(m/2, n) = m(m+2)...(m+2n-2). With C_{g,j} =
    X_j / (m(m+2) R), term j is X_j (m+4)(m+6)...(m+2n-2) / t_j over
    R, where the divisor t_j is what the rising product leaves of
    m(m+2): m(m+2) at n = 0, m+2 at n = 1 and 1 for n >= 2. At n >= 2
    the cell is one int dot product over R; at n < 2 the terms are
    summed as ints over R L, L = lcm(t_j). One Fraction is reduced at
    the end. X and R = R_g come from `_numerators(g)`, the stored row of
    the row recursion. The genus >= 2 cells are memoized.
    """
    if _is_structural_zero(g, n):
        return Fraction(0)
    if g == 0:
        return Fraction(double_factorial(2 * n - 7)) if n >= 3 else Fraction(0)
    if g == 1:
        return Fraction(2 ** (n - 1) * factorial(n - 1) + double_factorial(2 * n - 3), 24)
    if (g, n) not in _series:
        nums, den = _numerators(g)
        ms = range(5 * g - 5, 4 * g - 6, -1)
        if n >= 2:
            L = 1
            total = sum(U * prod(range(m + 4, m + 2 * n, 2)) for U, m in zip(nums, ms))
        else:
            ts = [prod(range(m + 2 * n, m + 4, 2)) for m in ms]
            L = lcm(*ts)
            total = sum(U * (L // t) for U, t in zip(nums, ts))
        _series[(g, n)] = Fraction(total, den * L)
    return _series[(g, n)]

