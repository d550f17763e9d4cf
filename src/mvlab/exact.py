"""Exact arithmetic building blocks.

Rationals are ``fractions.Fraction`` throughout (lowest terms, exact).
This module adds the pieces the rest of the package leans on: Bernoulli
numbers, double factorials, the Pochhammer symbol, Gaussian rationals,
Laurent polynomials in the variable T together with the derivation
D_T = d/dx acting as D_T(T^e) = -e*T^(e-2), and genus blocks that pair a
Laurent part with a log(1/T) coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Iterable, Mapping

__all__ = [
    "bernoulli",
    "double_factorial",
    "pochhammer",
    "fraction_sum",
    "GaussianRat",
    "LaurentT",
    "laurent_dt",
    "GenusBlock",
]

_bernoulli_cache: dict[int, Fraction] = {0: Fraction(1)}


def bernoulli(m: int) -> Fraction:
    """Return the Bernoulli number B_m, in the convention B_1 = -1/2.

    Uses the defining recurrence sum(C(m+1, k) * B_k for k in 0..m) = 0
    and memoizes every value computed along the way.
    """
    if m < 0:
        raise ValueError("bernoulli index must be nonnegative")
    if m not in _bernoulli_cache:
        for k in range(1, m + 1):
            if k in _bernoulli_cache:
                continue
            acc = sum(comb(k + 1, j) * _bernoulli_cache[j] for j in range(k))
            _bernoulli_cache[k] = Fraction(-acc, k + 1)
    return _bernoulli_cache[m]


def double_factorial(m: int) -> int:
    """Return m!! for integer m >= -3, with (-1)!! = 1 and (-3)!! = -1."""
    if m < -3:
        raise ValueError("double factorial defined here only for m >= -3")
    if m == -3:
        return -1
    if m in (-2, -1, 0):
        return 1
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising product a*(a+1)*...*(a+n-1); equals 1 when n = 0."""
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def fraction_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of num/den over the integer pairs (num, den), den > 0.

    The numerators are summed as ints over one running common
    denominator: no Fraction per term, and a gcd only when a term's
    denominator does not divide the running one. One Fraction is built
    at the end.
    """
    num, den = 0, 1
    for n, d in terms:
        q, r = divmod(den, d)
        if r:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den = den // g * d
        else:
            num += n * q
    return Fraction(num, den)


@dataclass(frozen=True)
class GaussianRat:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def from_rational(q: Fraction | int) -> "GaussianRat":
        return GaussianRat(Fraction(q), Fraction(0))

    def __add__(self, other: "GaussianRat") -> "GaussianRat":
        return GaussianRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRat") -> "GaussianRat":
        return GaussianRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRat":
        return GaussianRat(-self.re, -self.im)

    def __mul__(self, other: "GaussianRat") -> "GaussianRat":
        return GaussianRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def scale(self, q: Fraction | int) -> "GaussianRat":
        q = Fraction(q)
        return GaussianRat(self.re * q, self.im * q)

    def conjugate(self) -> "GaussianRat":
        return GaussianRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        return f"({self.re})+({self.im})i"


class LaurentT:
    """Finite Laurent polynomial in T with exact rational coefficients.

    Immutable. Zero coefficients are never stored.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Fraction | int] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(e)] = c
        object.__setattr__(self, "_c", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentT is immutable")

    @staticmethod
    def monomial(e: int, c: Fraction | int = 1) -> "LaurentT":
        return LaurentT({e: Fraction(c)})

    @staticmethod
    def zero() -> "LaurentT":
        return LaurentT()

    def coeff(self, e: int) -> Fraction:
        return self._c.get(e, Fraction(0))

    def items(self) -> Iterable[tuple[int, Fraction]]:
        return self._c.items()

    def support(self) -> list[int]:
        return sorted(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentT) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    @staticmethod
    def _of(clean: dict[int, Fraction]) -> "LaurentT":
        """Wrap a dict that already holds only nonzero Fractions."""
        res = LaurentT.__new__(LaurentT)
        object.__setattr__(res, "_c", clean)
        return res

    def __add__(self, other: "LaurentT") -> "LaurentT":
        out = dict(self._c)
        for e, c in other._c.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentT._of(out)

    def __sub__(self, other: "LaurentT") -> "LaurentT":
        return self + (-other)

    def __neg__(self) -> "LaurentT":
        return self.scale(-1)

    def _scaled_numerators(self) -> tuple[int, list[tuple[int, int]]]:
        """(d, [(e, c*d)]) with d the lcm of the coefficient denominators."""
        d = 1
        for c in self._c.values():
            d = lcm(d, c.denominator)
        return d, [(e, c.numerator * (d // c.denominator)) for e, c in self._c.items()]

    def __mul__(self, other: "LaurentT") -> "LaurentT":
        # An integer convolution over one shared denominator: no Fraction
        # arithmetic and no gcd per pair of terms, one per output exponent.
        da, left = self._scaled_numerators()
        db, right = other._scaled_numerators()
        acc: dict[int, int] = {}
        for e1, n1 in left:
            for e2, n2 in right:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + n1 * n2
        den = da * db
        return LaurentT._of({e: Fraction(v, den) for e, v in acc.items() if v})

    def scale(self, q: Fraction | int) -> "LaurentT":
        q = Fraction(q)
        if q == 0:
            return LaurentT.zero()
        return LaurentT._of({e: c * q for e, c in self._c.items()})

    def eval_at_one(self) -> Fraction:
        """Value at T = 1, i.e. at x = 0."""
        return sum(self._c.values(), Fraction(0))

    def times_x(self) -> "LaurentT":
        """Multiply by x = (1 - T^2)/2."""
        return (self - self * LaurentT.monomial(2)).scale(Fraction(1, 2))

    def __repr__(self) -> str:
        if not self._c:
            return "LaurentT(0)"
        parts = [f"({c})*T^{e}" for e, c in sorted(self._c.items())]
        return "LaurentT(" + " + ".join(parts) + ")"


def laurent_dt(p: LaurentT, k: int = 1) -> LaurentT:
    """Apply the derivation D_T = d/dx k times: D_T(T^e) = -e*T^(e-2).

    One pass: D_T^k(T^e) = (-1)^k * e(e-2)...(e-2k+2) * T^(e-2k), which
    vanishes exactly for even 0 <= e <= 2k-2.
    """
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    sign = -1 if k % 2 else 1
    out: dict[int, Fraction] = {}
    for e, c in p.items():
        f = prod(range(e, e - 2 * k, -2))
        if f:
            out[e - 2 * k] = c * (sign * f)
    return LaurentT._of(out)


@dataclass(frozen=True)
class GenusBlock:
    """A Laurent polynomial in T plus an optional log(1/T) multiple.

    Only the genus-1 block carries a nonzero log coefficient.
    """

    log_coeff: Fraction
    laurent: LaurentT

    def ddx_n(self, k: int) -> "GenusBlock":
        """Apply d/dx k times in one pass; the result has no log part."""
        if k < 0:
            raise ValueError("derivative order must be nonnegative")
        if k == 0:
            return self
        lau = laurent_dt(self.laurent, k)
        if self.log_coeff:
            # d/dx log(1/T) = T^-2, so the log part feeds D^(k-1) T^-2.
            lau = lau + laurent_dt(LaurentT.monomial(-2, self.log_coeff), k - 1)
        return GenusBlock(Fraction(0), lau)

    def is_zero(self) -> bool:
        return self.log_coeff == 0 and self.laurent.is_zero()

