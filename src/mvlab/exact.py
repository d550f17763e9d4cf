"""Exact arithmetic building blocks.

Rationals are ``fractions.Fraction`` throughout (lowest terms, exact).
This module adds the pieces the rest of the package leans on: Bernoulli
numbers, double factorials, growing rows of rationals with per-row and
shared denominators and their Cauchy coefficients, the integer
convolution, ``LaurentT``, the frozen record of a Laurent polynomial in
T that the genus tower stores, the one sum kernel ``fold``, the one
D_T^k kernel ``dt_numerators``, and ``Frozen``, the base of the
immutable records that must not be tuples. A comment marks each name that stays with no caller in the package.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod
from operator import mul
from typing import Iterator, Mapping, Sequence

__all__ = [
    "bernoulli",
    "double_factorial",
    "pochhammer",
    "Frozen",
    "RowStore",
    "cauchy_coeff",
    "convolve_into",
    "GaussianRat",
    "LaurentT",
    "fold",
    "dt_numerators",
    "laurent_dt",
    "unlimited_digits",
]

_bernoulli_cache: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}
# The last row of the Seidel-Entringer triangle built so far. Row r ends
# in the Euler zigzag number E_r, and E_(2n-1) is the tangent number T_n.
_entringer_row = [1]


def bernoulli(m: int) -> Fraction:
    """Return the Bernoulli number B_m, in the convention B_1 = -1/2.

    B_2n = (-1)^(n-1) * 2n * T_n / (4^n * (4^n - 1)), from the integer
    tangent numbers T_n. Those are read off the Seidel-Entringer
    triangle, whose row r is 0 followed by the running sums of row r-1
    reversed. Only the last row is kept: each call extends it from where
    the previous one stopped, and memoizes every B_2n passed on the way.
    """
    global _entringer_row
    if m < 0:
        raise ValueError("bernoulli index must be nonnegative")
    if m > 1 and m % 2:
        return Fraction(0)
    bs = _bernoulli_cache
    if m not in bs:
        row = _entringer_row
        while len(row) < m:  # B_m is read off row m - 1
            row = [0, *accumulate(reversed(row))]
            if len(row) % 2 == 0:
                n = len(row) // 2
                q = 4**n
                bs[2 * n] = Fraction((-1) ** (n - 1) * 2 * n * row[-1], q * (q - 1))
        _entringer_row = row
    return bs[m]


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


# No src caller: perfbench/tracer.py's LAYERS times it by name.
def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising product a*(a+1)*...*(a+n-1); equals 1 when n = 0."""
    if n < 0:
        raise ValueError("pochhammer length must be nonnegative")
    a = Fraction(a)
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


@contextmanager
def unlimited_digits() -> Iterator[None]:
    """Lift CPython's limit on the digits of an int <-> decimal string
    conversion for the block, and put the old limit back after it.

    The exact values mvlab prints, saves and loads are of any width.
    Before CPython 3.10.7 there is no limit and nothing to lift.
    """
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class RowStore:
    """Growing rows of rationals, one per genus, as ints.

    Row g holds int numerators nums[g] over its own denominator dens[g],
    the lcm of its entries' denominators, so entry k is
    nums[g][k] / dens[g]. The store also keeps den, the lcm of all the
    dens[g], and each row's cofactor cof[g] = den // dens[g]: entry k of
    row g is cof[g] * nums[g][k] / den over the one shared denominator.
    A row is rescaled only when an entry's denominator does not divide
    its own, and the cofactors only when den grows.
    """

    __slots__ = ("nums", "dens", "cof", "den")

    def __init__(self) -> None:
        self.nums: list[list[int]] = []
        self.dens: list[int] = []
        self.cof: list[int] = []
        self.den = 1

    def __len__(self) -> int:
        return len(self.nums)

    def add_row(self) -> None:
        self.nums.append([])
        self.dens.append(1)
        self.cof.append(self.den)

    def append(self, g: int, num: int, den: int) -> None:
        """Append num/den, den > 0, to row g, reduced with one gcd."""
        d = gcd(num, den)
        if d > 1:
            num //= d
            den //= d
        row, row_den = self.nums[g], self.dens[g]
        q, r = divmod(row_den, den)
        if r:
            new = lcm(row_den, den)
            s = new // row_den
            row[:] = [c * s for c in row]
            self.dens[g] = new
            q = new // den
            if self.den % new:
                t = lcm(self.den, new) // self.den
                self.cof = [c * t for c in self.cof]
                self.den *= t
            self.cof[g] = self.den // new
        row.append(num * q)

    def square(self, g: int, k: int) -> int:
        """The coefficient of t^k in sum_{g1+g2=g} row g1 * row g2, as its
        numerator over den**2.

        One dot product per unordered pair g1 <= g2 of the rows' own
        numerators, scaled once by the two cofactors, at weight 2 off the
        middle. Entries past a row's end count as zero.
        """
        nums, cof = self.nums, self.cof
        total = 0
        for g1 in range(g // 2 + 1):
            w = 1 if 2 * g1 == g else 2
            total += w * cof[g1] * cof[g - g1] * cauchy_coeff(nums[g1], nums[g - g1], k)
        return total


def cauchy_coeff(x: Sequence[int], y: Sequence[int], k: int) -> int:
    """Coefficient of t^k in (sum x_i t^i) * (sum y_j t^j), k >= 0, for
    int lists x and y: one dot product of int slices. Entries past
    either list's end count as zero."""
    lo = max(0, k - len(y) + 1)
    hi = min(k, len(x) - 1)
    return sum(map(mul, x[lo:hi + 1], reversed(y[k - hi:k - lo + 1])))


def convolve_into(acc: list[int], a: Sequence[int], b: Sequence[int]) -> None:
    """Add the int convolution a*b into acc, truncated to len(acc): one
    shifted slice of the longer factor per nonzero entry of the shorter."""
    if len(a) < len(b):
        a, b = b, a
    for j, y in zip(range(len(acc)), b):
        if y:
            # The slice acc[j:k] stops at len(acc), and so does the zip.
            k = j + len(a)
            acc[j:k] = [s + x * y for s, x in zip(acc[j:k], a)]


class Frozen:
    """Base of the immutable records that must not be tuples.

    A subclass names its fields in __slots__ and sets them once, when
    the record is made, through object.__setattr__. Equality, hash and
    repr follow the fields, as for a frozen dataclass. Unlike a
    NamedTuple, the record takes no length, + or int * from tuple: each
    subclass defines the ones it has, and the others raise TypeError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({args})"


# No src caller: perfbench/tracer.py's LAYERS times its product by name.
class GaussianRat(Frozen):
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

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


class LaurentT(Frozen):
    """Finite Laurent polynomial in T with exact rational coefficients:
    the frozen record the genus tower stores its profiles in.

    Immutable and dense: the coefficient of T^(lo + i) is nums[i] / den
    for one int tuple nums and one int den > 0. The form is normal, so
    equal values have equal fields: gcd(den, *nums) == 1, both end
    numerators are nonzero (interior zeros are stored), and zero is
    (lo, nums, den) = (0, (), 1).
    """

    __slots__ = ("_lo", "_nums", "_den")

    def __init__(self, coeffs: Mapping[int, Fraction | int] | None = None):
        fracs = {int(e): Fraction(c) for e, c in (coeffs or {}).items()}
        fracs = {e: c for e, c in fracs.items() if c}
        lo = min(fracs, default=0)
        den = lcm(*(c.denominator for c in fracs.values()))
        nums = [0] * (max(fracs, default=-1) - lo + 1)
        for e, c in fracs.items():
            nums[e - lo] = c.numerator * (den // c.denominator)
        self._set(lo, nums, den)

    def _set(self, lo: int, nums: list[int], den: int) -> None:
        """Store sum(nums[i] * T^(lo+i)) / den, den > 0, in normal form."""
        start, end = 0, len(nums)
        while end and not nums[end - 1]:
            end -= 1
        while start < end and not nums[start]:
            start += 1
        nums = nums[start:end]
        g = gcd(den, *nums)
        if g > 1:
            nums = [n // g for n in nums]
            den //= g
        object.__setattr__(self, "_lo", lo + start if nums else 0)
        object.__setattr__(self, "_nums", tuple(nums))
        object.__setattr__(self, "_den", den if nums else 1)

    @staticmethod
    def from_dense(lo: int, nums: list[int], den: int) -> "LaurentT":
        """sum(nums[i] * T^(lo+i)) / den, den > 0, in normal form: the
        inverse of `dense`, for any ints."""
        res = LaurentT.__new__(LaurentT)
        res._set(lo, nums, den)
        return res

    def coeff(self, e: int) -> Fraction:
        i = e - self._lo
        if 0 <= i < len(self._nums):
            return Fraction(self._nums[i], self._den)
        return Fraction(0)

    # Also read by perfbench/child.py, for genus.max_coeff_bits.
    def items(self) -> list[tuple[int, Fraction]]:
        """(exponent, coefficient) for each nonzero term, ascending."""
        return [
            (e, Fraction(n, self._den)) for e, n in enumerate(self._nums, self._lo) if n
        ]

    def dense(self) -> tuple[int, tuple[int, ...], int]:
        """(lo, nums, den): the coefficient of T^(lo + i) is nums[i] / den."""
        return self._lo, self._nums, self._den

    def support(self) -> list[int]:
        return [e for e, n in enumerate(self._nums, self._lo) if n]

    # No src caller: perfbench/tracer.py's LAYERS times it by name.
    def __mul__(self, other: "LaurentT") -> "LaurentT":
        # An integer convolution over the product of the two denominators,
        # and one gcd for the result.
        a, b = self._nums, other._nums
        acc = [0] * (len(a) + len(b) - 1) if a and b else []
        convolve_into(acc, a, b)
        return LaurentT.from_dense(self._lo + other._lo, acc, self._den * other._den)

    def __repr__(self) -> str:
        if not self._nums:
            return "LaurentT(0)"
        parts = [f"({c})*T^{e}" for e, c in self.items()]
        return "LaurentT(" + " + ".join(parts) + ")"


def _place(lo: int, size: int, r_lo: int, width: int) -> int:
    """Index of T^r_lo in a window of size exponents from T^lo, for a term
    of width exponents that must lie inside it."""
    i = r_lo - lo
    if i < 0 or i + width > size:
        raise ValueError(
            f"term at T^{r_lo}..T^{r_lo + width - 1} outside T^{lo}..T^{lo + size - 1}"
        )
    return i


def fold(lo: int, size: int, squares, lines) -> tuple[list[int], int]:
    """The one sum kernel: sum of w*a*b over squares (w, a, b) and of w*r
    over lines (w, r), as int numerators acc[i] at T^(lo+i), i < size,
    over one denominator, the lcm of the terms' denominators.

    Rows a, b, r are (lo, nums, den) triples, as `LaurentT.dense` gives
    them; w is a Fraction or an int. The squares are summed first, over
    the lcm of their own denominators, each scaled once on its shorter
    factor; that sum is scaled once to the common denominator, and each
    line is scaled and added in. So the large primes of the lines'
    weights never enter a convolution. A term reaching outside
    T^lo..T^(lo+size-1) raises ValueError. Nothing is reduced:
    `LaurentT.from_dense` normalizes the result once.
    """
    sq_dens = [w.denominator * a[2] * b[2] for w, a, b in squares]
    sq_den = lcm(*sq_dens)
    den = lcm(sq_den, *(w.denominator * r[2] for w, r in lines))
    acc = [0] * size
    for (w, a, b), d in zip(squares, sq_dens):
        if a[1] and b[1]:
            i = _place(lo, size, a[0] + b[0], len(a[1]) + len(b[1]) - 1)
            x, y = sorted((a[1], b[1]), key=len)
            s = w.numerator * (sq_den // d)
            convolve_into(acc, y, [0] * i + [s * c for c in x])
    if squares and den != sq_den:
        s = den // sq_den
        acc = [s * c for c in acc]
    for w, (r_lo, nums, r_den) in lines:
        if nums:
            i = _place(lo, size, r_lo, len(nums))
            k = i + len(nums)
            s = w.numerator * (den // (w.denominator * r_den))
            acc[i:k] = [t + s * c for t, c in zip(acc[i:k], nums)]
    return acc, den


def dt_numerators(lo: int, nums: Sequence[int], k: int) -> tuple[int, list[int]]:
    """The one D_T^k kernel, on the numerators of sum nums[i] T^(lo+i):
    (lo', nums') with D_T^k(T^e) = (-1)^k e(e-2)...(e-2k+2) T^(e-2k), over
    the same denominator. Leading zeros are dropped.

    One pass: the falling product f(e) follows from f(e-2) by
    f(e) = f(e-2) * e / (e-2k), an exact division, and is formed afresh
    only when that step has a zero. It vanishes exactly for even
    0 <= e <= 2k-2, as T^0 of u^[0] = 1 - T does.
    """
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    out: list[int] = []
    f1 = f2 = 0  # f(e-1), f(e-2)
    for e, c in zip(range(lo, lo + len(nums)), nums):
        if f2 and e != 2 * k:
            f = f2 * e // (e - 2 * k)
        else:
            f = prod(range(e, e - 2 * k, -2))
        f2, f1 = f1, f
        out.append(f * c)
    if k % 2:
        out = [-x for x in out]
    start = next((i for i, c in enumerate(out) if c), len(out))
    return lo - 2 * k + start, out[start:]


# No src caller: perfbench/tracer.py's LAYERS times it by name, and the
# tests' reference tower reads it. The towers call `dt_numerators`.
def laurent_dt(p: LaurentT, k: int = 1) -> LaurentT:
    """Apply the derivation D_T = d/dx k times: D_T(T^e) = -e*T^(e-2)."""
    return LaurentT.from_dense(*dt_numerators(p._lo, p._nums, k), p._den)
