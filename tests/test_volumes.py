from fractions import Fraction
from math import comb

import pytest
from mpmath import mp

from mvlab.agn import a_direct
from mvlab.genus import agn_from_series, coeffs_C
from mvlab.volumes import (
    PiScaled,
    cg_seq,
    kappa,
    lambda_g_value,
    sv_constant,
    volume,
    volume_closed_g0,
    volume_closed_g1,
)


def test_volume_examples():
    assert volume(0, 3) == PiScaled(Fraction(4), 0)
    assert volume(0, 4) == PiScaled(Fraction(2), 4)
    assert volume(1, 1) == PiScaled(Fraction(2, 3), 4)
    assert volume(2, 0) == PiScaled(Fraction(1, 15), 12)


def test_volume_rejects_empty_strata():
    for g, n in [(0, 0), (0, 2), (1, 0), (-1, 3)]:
        with pytest.raises(ValueError):
            volume(g, n)


def test_genus_zero_closed_form():
    for n in range(3, 16):
        assert volume(0, n) == volume_closed_g0(n), n
    with pytest.raises(ValueError):
        volume_closed_g0(2)


def test_genus_one_closed_form():
    for n in range(1, 16):
        assert volume(1, n) == volume_closed_g1(n), n
    with pytest.raises(ValueError):
        volume_closed_g1(0)


def test_top_coefficient_closed_form():
    for g in range(2, 21):
        assert coeffs_C(g).C[g] == lambda_g_value(g), g


def test_bottom_coefficient_closed_form():
    c = cg_seq(20)
    assert c[2] == 98
    assert c[3] == 19600
    assert c[4] == 8824802
    for g in range(2, 21):
        want = Fraction(c[g], 24**g) / ((5 * g - 3) * (5 * g - 5))
        assert coeffs_C(g).C[0] == want, g


def test_kappa_values():
    assert kappa(0) == PiScaled(Fraction(32), -12)
    assert kappa(1) == PiScaled(Fraction(1, 3), 1)
    assert kappa(2) == PiScaled(Fraction(7, 1080), 12)
    assert kappa(3) == PiScaled(Fraction(245, 7962624), 25)


def test_sv_examples():
    assert sv_constant(1, 1) == PiScaled(Fraction(3), -4)
    assert sv_constant(0, 5) == PiScaled(Fraction(5, 3), -4)
    assert sv_constant(2, 0) == PiScaled(Fraction(19, 6), -4)


def test_sv_rejects_empty_strata():
    with pytest.raises(ValueError):
        sv_constant(1, 0)


def test_sv_alternate_source():
    # sv_constant reads the series route; the same area bracket on the
    # direct route's cells must give the same exact constants.
    for g in range(5):
        for n in range(6):
            if 2 * g - 2 + n <= 0:
                continue
            bracket = n * (n - 1) * a_direct(g, n - 1) + a_direct(g - 1, n + 2)
            for g1 in range(g + 1):
                for n1 in range(1, n + 2):
                    g2, n2 = g - g1, n + 2 - n1
                    if 3 * g1 - 3 + n1 > 0 and 3 * g2 - 3 + n2 > 0:
                        bracket += comb(n, n1 - 1) * a_direct(g1, n1) * a_direct(g2, n2)
            want = PiScaled(bracket / (4 * a_direct(g, n)), -4)
            assert sv_constant(g, n) == want, (g, n)


def _sv_term_by_term(g, n):
    """The area bracket with one Fraction operation per term, summed over
    ordered pairs (g1, n1), (g2, n2)."""
    a = agn_from_series(g, n)
    bracket = Fraction(0)
    if n >= 2:
        bracket += n * (n - 1) * agn_from_series(g, n - 1)
    bracket += agn_from_series(g - 1, n + 2)
    for g1 in range(g + 1):
        for n1 in range(1, n + 2):
            g2, n2 = g - g1, n + 2 - n1
            if 3 * g1 - 3 + n1 <= 0 or 3 * g2 - 3 + n2 <= 0:
                continue
            bracket += comb(n, n1 - 1) * agn_from_series(g1, n1) * agn_from_series(g2, n2)
    return PiScaled(bracket / (4 * a), -4)


def test_sv_constant_matches_term_by_term_bracket():
    strata = [(g, n) for g in range(25) for n in range(9) if 2 * g - 2 + n > 0]
    assert len(strata) == 221
    for g, n in strata:
        assert sv_constant(g, n) == _sv_term_by_term(g, n), (g, n)


def test_large_n_scaling_toward_kappa():
    # volume(2,n) * 2^n / (pi^{2n} n) tends to kappa(2); the deviation
    # is an exact rational and shrinks as n grows.
    k2 = kappa(2)

    def dev(n):
        v = volume(2, n)
        assert v.pi_half_exponent == 4 * n + 12
        ratio = v.coeff * Fraction(2) ** n / n
        return abs(ratio / k2.coeff - 1)

    d15, d60 = dev(15), dev(60)
    assert isinstance(d60, Fraction)
    assert d60 < d15


def test_pi_scaled_str():
    assert str(PiScaled(Fraction(2, 3), 4)) == "2/3 * pi^2"
    assert str(PiScaled(Fraction(1, 3), 1)) == "1/3 * pi^(1/2)"
    assert str(PiScaled(Fraction(4), 0)) == "4"
    assert str(PiScaled(Fraction(3), -4)) == "3 * pi^-2"


def test_pi_scaled_to_mpf():
    with mp.workprec(350):
        got = volume(0, 4).to_mpf(320)
        want = 2 * mp.pi**2
        assert abs(got - want) < mp.mpf(2) ** -300
    with pytest.raises(ValueError):
        volume(0, 4).to_mpf(32)


def test_pi_scaled_to_mpf_divides_at_negative_exponent():
    # coeff / pi^2 rounded once per operation; multiplying by pi^-2
    # instead differs in the last bit in 43 of these 261 cases
    for g in range(13):
        for n in range(7):
            if 2 * g - 2 + n <= 0:
                continue
            c = sv_constant(g, n)
            assert c.pi_half_exponent == -4
            for bits in (64, 320, 640):
                with mp.workprec(bits):
                    want = mp.mpf(c.coeff.numerator) / c.coeff.denominator / mp.pi**2
                assert c.to_mpf(bits)._mpf_ == want._mpf_, (g, n, bits)
