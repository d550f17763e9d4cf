"""Volumes, their closed forms, and area Siegel-Veech constants.

Every quantity here is an exact rational multiple of a (half-integer)
power of pi, carried by PiScaled. Numeric output happens only on
request, at a stated precision: mpmath is imported when the first float
is made, by PiScaled.to_mpf, so exact work never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import mul

from .agn import _grow, a_direct
from .exact import Frozen, RowStore, bernoulli, double_factorial
from .genus import _is_structural_zero, agn_from_series

__all__ = [
    "PiScaled",
    "volume",
    "volume_closed_g0",
    "volume_closed_g1",
    "lambda_g_value",
    "cg_seq",
    "kappa",
    "sv_constant",
]


class PiScaled(Frozen):
    """An exact value coeff * pi^(pi_half_exponent / 2)."""

    __slots__ = ("coeff", "pi_half_exponent")

    def __init__(self, coeff: Fraction, pi_half_exponent: int):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "pi_half_exponent", pi_half_exponent)

    def to_mpf(self, bits: int = 320) -> mp.mpf:
        """Round to an mpf at `bits`.

        The numerator, its quotient by the denominator and pi^(e/2) are
        each rounded at `bits`, so the result can be several ulps from the
        correctly rounded value (ROADMAP item 11). A negative exponent
        divides by pi^(|e|/2): multiplying by the rounded pi^(e/2) instead
        can change the last bit. `MPoly.eval_mpf` and the fit's
        `from_rational` also make floats.
        """
        import mpmath as mp

        _check_precision(bits)
        e = self.pi_half_exponent
        with mp.workprec(bits):
            val = mp.mpf(self.coeff.numerator) / self.coeff.denominator
            if e < 0:
                return val / mp.pi ** (mp.mpf(-e) / 2)
            return val * mp.pi ** (mp.mpf(e) / 2)

    def __str__(self) -> str:
        e = self.pi_half_exponent
        if e == 0 or self.coeff == 0:
            return str(self.coeff)
        power = str(e // 2) if e % 2 == 0 else f"({e}/2)"
        return f"{self.coeff} * pi^{power}"


# The ceiling on a float's precision. Cold, `volume --numeric` takes
# 0.3 s at 2^17 bits and `asym --gmax 20 --order 2` 2.3 s; at 2^20 bits
# the first takes 8 s and the second over 2 minutes (README).
MAX_BITS = 2**17


def _check_precision(bits: int) -> None:
    if bits < 64:
        raise ValueError("precision below 64 bits is rejected")
    if bits > MAX_BITS:
        raise ValueError(f"precision above {MAX_BITS} bits is rejected")


def _check_stratum(g: int, n: int) -> None:
    if _is_structural_zero(g, n):
        raise ValueError(f"no stratum for (g, n) = ({g}, {n})")


def volume(g: int, n: int) -> PiScaled:
    """Total mass of the (g, n) stratum in its standard normalization.

    Requires g >= 0, n >= 0 and 2g - 2 + n > 0. The (0, 3) case sits
    outside the general factorial expression and is the constant 4.
    """
    _check_stratum(g, n)
    if (g, n) == (0, 3):
        return PiScaled(Fraction(4), 0)
    coeff = (
        Fraction(2) ** (2 * g + 1)
        * Fraction(factorial(4 * g - 4 + n), factorial(6 * g - 7 + 2 * n))
        * a_direct(g, n)
    )
    return PiScaled(coeff, 12 * g - 12 + 4 * n)


def volume_closed_g0(n: int) -> PiScaled:
    """Genus-zero closed form pi^(2n-6) / 2^(n-5), for n >= 3."""
    if n < 3:
        raise ValueError("genus-zero strata need n >= 3")
    return PiScaled(Fraction(2) ** (5 - n), 4 * n - 12)


def volume_closed_g1(n: int) -> PiScaled:
    """Genus-one closed form, for n >= 1."""
    if n < 1:
        raise ValueError("genus-one strata need n >= 1")
    coeff = (
        Fraction(factorial(n), double_factorial(2 * n - 1))
        + Fraction(2 * n, (2 * n - 1) * 2**n)
    ) / 3
    return PiScaled(coeff, 4 * n)


def lambda_g_value(g: int) -> Fraction:
    """Closed form for the top coefficient C_{g,g}, g >= 2.

    (2^(2g-1) - 1) / 2^(2g-1) * (4g-7)!! * |B_2g| / (2g)!.
    """
    if g < 2:
        raise ValueError("defined for g >= 2")
    return (
        Fraction(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1))
        * double_factorial(4 * g - 7)
        * abs(bernoulli(2 * g))
        / factorial(2 * g)
    )


def cg_seq(gmax: int) -> list[Fraction]:
    """The integer sequence c_g entering the bottom coefficient C_{g,0}.

    Seeds c_0 = -1, c_1 = 2, c_2 = 98; the quadratic recursion applies
    from g = 3 on. Every c_g with g >= 1 is even, so the quadratic sum
    is divisible by 4 and its half is an int: the recursion runs on ints.
    """
    if gmax < 0:
        raise ValueError("gmax must be nonnegative")
    c = [-1, 2, 98][: gmax + 1]
    for g in range(3, gmax + 1):
        inner = c[2 : g - 1]
        c.append(50 * (g - 1) ** 2 * c[g - 1] + sum(map(mul, inner, reversed(inner))) // 2)
    return [Fraction(x) for x in c]


def _gamma_half(num2: int) -> PiScaled:
    """Gamma(num2 / 2): a rational times pi^0 or pi^(1/2)."""
    if num2 % 2 == 0:
        if num2 < 2:
            raise ValueError("pole of Gamma")
        return PiScaled(Fraction(factorial(num2 // 2 - 1)), 0)
    if num2 >= 1:
        m = (num2 - 1) // 2
        return PiScaled(Fraction(double_factorial(2 * m - 1), 2**m), 1)
    if num2 == -1:
        return PiScaled(Fraction(-2), 1)
    raise ValueError("half-integer Gamma below -1/2 not needed here")


def kappa(g: int) -> PiScaled:
    """Large-n scale factor: volume(g, n) ~ kappa(g) n^(g/2) pi^(2n) / 2^n."""
    if g < 0:
        raise ValueError("g must be nonnegative")
    cg = cg_seq(g)[g]
    gam = _gamma_half(5 * g - 1)
    coeff = Fraction(64) * cg / (Fraction(384) ** g * gam.coeff)
    return PiScaled(coeff, 12 * g - 11 - gam.pi_half_exponent)


# Row g holds B_g[k] = a_{g,k+1}/k! for k = 0, 1, ..., except that the
# entry of a_{0,3} is 0: the area bracket leaves out every product with it.
_sv_rows = RowStore()


def _sv_entry(g: int, k: int) -> tuple[int, int]:
    v = Fraction(0) if (g, k) == (0, 2) else agn_from_series(g, k + 1) / factorial(k)
    return v.numerator, v.denominator


def sv_constant(g: int, n: int) -> PiScaled:
    """Area Siegel-Veech constant of the (g, n) stratum, a multiple of pi^-2.

    Defined on the same (g, n) as volume; undefined when a_{g,n} = 0.
    The a_{g,n} come from the genus-series route, which needs no table
    below (g, n).
    """
    _check_stratum(g, n)
    a = agn_from_series(g, n)
    if a == 0:
        raise ValueError(f"a_({g},{n}) vanishes; no area constant")
    # The two linear terms as one Fraction, then the quadratic sum over
    # g1 + g2 = g, n1 + n2 = n + 2 of comb(n, n1 - 1) a_{g1,n1} a_{g2,n2}.
    # With k_i = n_i - 1, comb(n, k1) = n!/(k1! k2!), so that sum is n!
    # times sum_{g1+g2=g} [t^n] B_g1 * B_g2: one integer dot product of
    # two kept rows per unordered genus pair, over the store's den**2.
    edge = agn_from_series(g - 1, n + 2)
    if n >= 2:
        edge += n * (n - 1) * agn_from_series(g, n - 1)
    # Rows below g to B[n]; row g to B_g[n-3], since B_g[k] pairs only
    # with B_0[n-k], which is 0 for n-k < 3.
    _grow(_sv_rows, g - 1, n + 2, 0, _sv_entry)
    _grow(_sv_rows, g, n - 1, 0, _sv_entry)
    quad_den = _sv_rows.den**2
    bracket = Fraction(
        factorial(n) * _sv_rows.square(g, n) * edge.denominator + edge.numerator * quad_den,
        quad_den * edge.denominator,
    )
    return PiScaled(bracket / (4 * a), -4)
