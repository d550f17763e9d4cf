"""The Laurent algebra the tests compare against, and the genus ODE check.

The package keeps `LaurentT` as a frozen (lo, nums, den) record: the
tower stores its profiles in it and reads them back with `dense`. The
ring operations live here, on the package's own pieces: every sum is one
`exact.fold` of lines over the terms' joint span, products are
`LaurentT.__mul__`, and D_T^k is `exact.laurent_dt`. So the tests check
the package against one sum kernel, not a second one.

On top of them sit the genus blocks H_g (closed forms for g <= 2, the
C_{g,j} of the tilde tower above) and the residual of the genus ODE in
x, which vanishes when the tower is right.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from mvlab import genus
from mvlab.exact import LaurentT, fold, laurent_dt

ZERO = LaurentT()


def monomial(e: int, c: Fraction | int = 1) -> LaurentT:
    return LaurentT({e: Fraction(c)})


def weighted_sum(terms: Iterable[tuple[Fraction | int, LaurentT]]) -> LaurentT:
    """Exact sum of w * p over the pairs (w, p), w a Fraction or an int:
    one `fold` over the terms' joint span, reduced with one gcd."""
    live = [(w, p.dense()) for w, p in terms if w and p != ZERO]
    if not live:
        return ZERO
    lo = min(r[0] for _, r in live)
    size = max(r[0] + len(r[1]) for _, r in live) - lo
    return LaurentT.from_dense(lo, *fold(lo, size, (), live))


def add(p: LaurentT, q: LaurentT) -> LaurentT:
    return weighted_sum(((1, p), (1, q)))


def sub(p: LaurentT, q: LaurentT) -> LaurentT:
    return weighted_sum(((1, p), (-1, q)))


def neg(p: LaurentT) -> LaurentT:
    return weighted_sum(((-1, p),))


def scale(p: LaurentT, q: Fraction | int) -> LaurentT:
    return weighted_sum(((Fraction(q), p),))


def times_x(p: LaurentT) -> LaurentT:
    """Multiply by x = (1 - T^2)/2."""
    return scale(sub(p, p * monomial(2)), Fraction(1, 2))


class GenusBlock(NamedTuple):
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
            lau = add(lau, laurent_dt(monomial(-2, self.log_coeff), k - 1))
        return GenusBlock(Fraction(0), lau)


def closed_H(g: int) -> GenusBlock:
    """The closed genus blocks H_0, H_1, H_2."""
    if g == 0:
        return GenusBlock(Fraction(0), LaurentT({
            0: Fraction(1, 40), 2: Fraction(-1, 12), 4: Fraction(1, 8), 5: Fraction(-1, 15),
        }))
    if g == 1:
        return GenusBlock(Fraction(1, 24), LaurentT({0: Fraction(1, 24), 1: Fraction(-1, 24)}))
    if g == 2:
        return GenusBlock(Fraction(0), LaurentT({
            -5: Fraction(7, 1440), -4: Fraction(5, 1152), -3: Fraction(7, 5760),
        }))
    raise ValueError("closed form available only for g in {0, 1, 2}")


def hg_block(g: int) -> GenusBlock:
    """H_g as a genus block; closed forms below genus 2, C data above."""
    if g <= 1:
        return closed_H(g)
    C = genus.coeffs_C(g).C
    return GenusBlock(Fraction(0), LaurentT({-(5 * g - 5 - j): C[j] for j in range(g + 1)}))


def genus_ode_residual(g: int) -> LaurentT:
    """Left side of the genus ODE; identically zero when the tower is right.

    x*H_g'' + (2g - 3/2)*H_g' - (1/4)*sum_{g1+g2=g} H_g1''*H_g2''
    - (1/24)*H_{g-1}''''.
    """
    if g < 2:
        raise ValueError("the ODE check starts at g = 2")
    blocks = [hg_block(h) for h in range(g + 1)]
    d2 = [b.ddx_n(2).laurent for b in blocks]
    # (1/4) * sum over g1 + g2 = g is half of H_0''*H_g'' plus the inner pairs.
    quad = weighted_sum([(1, d2[0] * d2[g])] + [(w, a * b) for w, a, b in genus._pairs(d2, g)])
    return weighted_sum([
        (1, times_x(d2[g])),
        (Fraction(4 * g - 3, 2), blocks[g].ddx_n(1).laurent),
        (Fraction(-1, 2), quad),
        (Fraction(-1, 24), blocks[g - 1].ddx_n(4).laurent),
    ])
