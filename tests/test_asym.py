import random
from fractions import Fraction
from math import comb

import pytest
from mpmath import mp

from mvlab import asym
from mvlab.asym import (
    compare_report,
    conjectured_C,
    conjectured_m,
    estimate_C,
    estimate_m,
    normalize_vol,
    richardson_fit,
)
from mvlab.agn import a_direct
from mvlab.genus import agn_from_series
from mvlab.volumes import PiScaled, sv_constant


def test_normalize_vol_reference_point():
    # independent route: the prefactor collapses to 27/81920 * pi^7
    r = normalize_vol(2, 0, Fraction(1, 96))
    assert r == PiScaled(Fraction(27, 81920), 14)
    with mp.workprec(320):
        assert abs(r.to_mpf(320) - mp.mpf("0.99545797")) < 1e-7


def test_normalize_vol_positive_and_converging():
    r11 = normalize_vol(1, 1, Fraction(1, 12))
    assert r11.to_mpf(320) > 0
    devs = [
        abs(normalize_vol(g, 0, agn_from_series(g, 0)).to_mpf(320) - 1)
        for g in (4, 8)
    ]
    assert devs[1] < devs[0]


def test_normalize_vol_rejections():
    with pytest.raises(ValueError):
        normalize_vol(0, 3, Fraction(1))
    with pytest.raises(ValueError):
        normalize_vol(0, 2, Fraction(0))
    with pytest.raises(ValueError):
        normalize_vol(1, 1, Fraction(1, 12)).to_mpf(32)
    # agn_from_series returns 0 off the strata; that must not normalize to 0
    for g, n in ((5, -1), (-1, 8), (0, -2)):
        with pytest.raises(ValueError, match="no stratum"):
            normalize_vol(g, n, agn_from_series(g, n))


def test_richardson_recovers_random_rational_series():
    rng = random.Random(8371)
    for K in range(1, 7):
        cs = [
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 1000), rng.randint(1, 64))
            for _ in range(K + 1)
        ]
        samples = [
            (g, sum(c / Fraction(g) ** k for k, c in enumerate(cs)))
            for g in range(20, 61)
        ]
        fit = richardson_fit(samples, K)
        assert fit.window == (60 - K, 60)
        with mp.workprec(320):
            for k, c in enumerate(cs):
                want = mp.mpf(c.numerator) / c.denominator
                rel = abs(fit.coefficients[k].value - want) / abs(want)
                assert rel < mp.mpf("1e-15"), (K, k)


def test_richardson_constant_sequence():
    fit = richardson_fit([(g, 7) for g in range(20, 42)], 3)
    with mp.workprec(320):
        assert abs(fit.coefficients[0].value - 7) < mp.mpf("1e-80")
        for k in range(1, 4):
            assert abs(fit.coefficients[k].value) < mp.mpf("1e-75")


def test_richardson_interpolates_exactly_on_square_window():
    K = 4
    rng = random.Random(99)
    vals = {g: Fraction(rng.randint(1, 9), g) for g in range(50, 50 + K + 2)}
    fit = richardson_fit(list(vals.items()), K)
    assert fit.shift_used == 1
    with mp.workprec(320):
        for g in range(51, 51 + K + 1):
            model = sum(
                fit.coefficients[k].value / mp.mpf(g) ** k for k in range(K + 1)
            )
            want = mp.mpf(vals[g].numerator) / vals[g].denominator
            assert abs(model - want) < mp.mpf("1e-80"), g


def test_richardson_minimal_window_has_no_bars():
    fit = richardson_fit([(g, Fraction(1, g)) for g in (30, 31, 32)], 2)
    assert fit.shift_used == 0
    assert all(b.value == 0 for b in fit.error_estimates)


def test_fit_floats_have_the_precision_they_are_tagged_with():
    # Every reported float is rounded once, to the precision of its tag.
    synthetic = [
        (g, Fraction(1, 3) + Fraction(2, 7 * g) - Fraction(5, g**3)) for g in range(20, 31)
    ]
    for bits in (64, 320):
        fits = [
            estimate_m(0, 36, 5, bits),
            estimate_C(0, 36, 5, bits),
            richardson_fit(synthetic, 5, bits),
        ]
        for fit in fits:
            assert fit.precision_bits == bits
            for x in fit.coefficients + fit.error_estimates:
                assert x.precision_bits == bits
                assert x.value._mpf_[3] <= bits


def _exact(x) -> Fraction:
    # The value of an mpf, exactly.
    sign, man, exp, _ = x._mpf_
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def _round_once(q: Fraction, bits: int) -> Fraction:
    # q rounded to nearest, ties to even, at a mantissa of `bits` bits.
    if q == 0:
        return q
    a = abs(q)
    e = a.numerator.bit_length() - a.denominator.bit_length() - bits
    while a / Fraction(2) ** e >= 2**bits:
        e += 1
    while a / Fraction(2) ** e < 2 ** (bits - 1):
        e -= 1
    r = round(a / Fraction(2) ** e) * Fraction(2) ** e
    return r if q > 0 else -r


def _fraction_solve(pts, K):
    # Gauss-Jordan over Fractions on sum_k c_k / g^k = v.
    rows = [[Fraction(1, g**k) for k in range(K + 1)] + [v] for g, v in pts]
    for col in range(K + 1):
        piv = next(r for r in range(col, K + 1) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(K + 1):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def _reference_fit(samples, K, bits):
    # Each sample rounded once as richardson_fit rounds it, then both
    # windows solved exactly, then each coefficient and bar rounded once.
    pts = sorted(
        (g, _exact((v if isinstance(v, PiScaled) else PiScaled(Fraction(v), 0)).to_mpf(bits)))
        for g, v in samples
    )
    top = _fraction_solve(pts[-(K + 1):], K)
    shift = min(5, len(pts) - (K + 1))
    alt = _fraction_solve(pts[-(K + 1) - shift : len(pts) - shift], K) if shift else top
    return (
        [_round_once(c, bits) for c in top],
        [_round_once(abs(c - a), bits) for c, a in zip(top, alt)],
    )


def test_fits_are_correctly_rounded():
    # Every coefficient and bar is the exact solution of the rounded
    # samples, rounded once: no rounding inside the solve, and the
    # right power of g in the interpolation.
    synthetic = [
        (g, Fraction(1, 3) + Fraction(2, 7 * g) - Fraction(5, g**3) + Fraction(1, 11 * g**9))
        for g in range(20, 41)
    ]
    for bits in (64, 128, 320):
        for K in range(9):
            fits = [
                (richardson_fit(synthetic, K, bits), synthetic),
                (estimate_m(0, 36, K, bits),
                 [(g, normalize_vol(g, 0, agn_from_series(g, 0))) for g in range(31 - K, 37)]),
                (estimate_C(2, 36, K, bits), [(g, sv_constant(g, 2)) for g in range(31 - K, 37)]),
            ]
            for fit, samples in fits:
                coeffs, bars = _reference_fit(samples, K, bits)
                assert [_exact(c.value) for c in fit.coefficients] == coeffs, (bits, K)
                assert [_exact(b.value) for b in fit.error_estimates] == bars, (bits, K)


def test_richardson_takes_exact_samples_only():
    samples = [(g, sv_constant(g, 0)) for g in range(26, 37)]
    assert richardson_fit(samples, 5) == estimate_C(0, 36, 5)
    with pytest.raises(TypeError):
        richardson_fit([(g, mp.mpf(1) / g) for g in range(20, 26)], 2)


def test_richardson_input_errors(monkeypatch):
    with pytest.raises(ValueError):
        richardson_fit([(20, 1), (20, 2), (21, 3)], 1)
    with pytest.raises(ValueError):
        richardson_fit([(20, 1), (21, 2)], 2)
    with pytest.raises(ValueError, match="nonnegative"):
        richardson_fit([(20, 1), (21, 2)], -1)
    with pytest.raises(ValueError, match="precision below 64 bits"):
        richardson_fit([(20, 1), (21, 2), (22, 3)], 1, precision_bits=32)
    with pytest.raises(ValueError, match="no expansion in 1/g"):
        richardson_fit([(0, 1), (1, 2), (2, 3)], 1)
    # bad inputs are rejected before the first sample is built
    monkeypatch.setattr(asym, "agn_from_series", None)
    monkeypatch.setattr(asym, "sv_constant", None)
    for estimate in (estimate_m, estimate_C):
        with pytest.raises(ValueError, match="nonnegative"):
            estimate(0, 20, -1)
        with pytest.raises(ValueError, match="no stratum"):
            estimate(-1, 20, 3)
        with pytest.raises(ValueError, match="precision below 64 bits"):
            estimate(0, 20, 1, 32)
    with pytest.raises(ValueError, match="no stratum"):
        compare_report([0, -1], 20, 3, target="vol")


def test_richardson_rejects_a_non_integral_genus():
    # g = 20.5, ..., 29.5 once fitted at the truncated nodes 20, ..., 29.
    halves = [Fraction(2 * k + 41, 2) for k in range(10)]
    with pytest.raises(ValueError, match="integers"):
        richardson_fit([(g, 1 + 1 / g) for g in halves], 2)
    exact = [(g, 1 + Fraction(1, g)) for g in range(20, 30)]
    as_fractions = [(Fraction(g), v) for g, v in exact]
    assert richardson_fit(as_fractions, 2) == richardson_fit(exact, 2)


def test_fits_read_only_their_windows():
    # The top K+1 samples and the shifted window: K+6 genera in all.
    # At 64 bits a least-squares solve over the top 2K is numerically
    # singular here, so no fit may depend on one.
    for estimate in (estimate_m, estimate_C):
        fit = estimate(0, 36, 5, 64)
        assert fit.window == (31, 36)
        assert fit.shift_used == 5
    assert list(asym._sample_genera(36, 5)) == list(range(26, 37))


def test_estimate_requires_room():
    with pytest.raises(ValueError):
        estimate_m(0, 15, 3)
    with pytest.raises(ValueError):
        estimate_C(0, 19, 5)


def test_window_stability():
    # dropping gmax by 4 decouples the comparison from the bar window
    f40 = estimate_m(0, 40, 3)
    f36 = estimate_m(0, 36, 3)
    with mp.workprec(320):
        for k in range(4):
            d = abs(f40.coefficients[k].value - f36.coefficients[k].value)
            assert d <= 10 * f40.error_estimates[k].value, k


def test_precision_sufficiency():
    lo = estimate_m(0, 40, 3, 320)
    hi = estimate_m(0, 40, 3, 640)
    with mp.workprec(640):
        for k in range(4):
            d = abs(mp.mpf(0) + lo.coefficients[k].value - hi.coefficients[k].value)
            assert d < lo.error_estimates[k].value, k


def test_second_coefficient_is_cubic_in_n():
    # least-squares cubic through n = 0..6 must predict n = 7 within
    # ten times the combined window bars
    fits = {n: estimate_m(n, 60, 5) for n in range(8)}
    with mp.workprec(320):
        X = mp.matrix([[mp.mpf(n) ** j for j in range(4)] for n in range(7)])
        y = mp.matrix([fits[n].coefficients[2].value for n in range(7)])
        beta, _ = mp.qr_solve(X, y)
        pred = sum(beta[j] * mp.mpf(7) ** j for j in range(4))
        got = fits[7].coefficients[2].value
        v7 = mp.matrix([mp.mpf(7) ** j for j in range(4)])
        w = X * mp.lu_solve(X.T * X, v7)
        combined = fits[7].error_estimates[2].value + sum(
            abs(w[n]) * fits[n].error_estimates[2].value for n in range(7)
        )
        assert abs(pred - got) <= 10 * combined


def test_conjectured_polynomials():
    with mp.workprec(320):
        assert abs(conjectured_m(2, 0).eval_mpf() - mp.mpf("0.0103576")) < 1e-6
        assert abs(conjectured_C(1, 0).eval_mpf() - mp.mpf("0.2842695")) < 1e-6
    for n in (0, 3, 11):
        assert conjectured_m(0, n).m_coeffs == (Fraction(1),)
        assert conjectured_C(0, n).m_coeffs == (Fraction(1, 4),)
    assert conjectured_m(1, 5).m_coeffs == (Fraction(0), Fraction(1))
    # The n-dependent terms vanish at n = 0, so pin them at n = 1 and 5:
    # the M^2 coefficient of m_2 is -27n/6 + 19/2 and the M coefficient
    # of C_2 is -n^3/48 + 5n^2/16 - 3n/4 + 5/24, the values that
    # test_area_polynomials_follow_from_volume_polynomials derives.
    assert conjectured_m(2, 1).m_coeffs[2] == Fraction(5)
    assert conjectured_m(2, 5).m_coeffs[2] == Fraction(-13)
    assert conjectured_C(2, 1).m_coeffs[1] == Fraction(-1, 4)
    assert conjectured_C(2, 5).m_coeffs[1] == Fraction(5, 3)
    with pytest.raises(ValueError):
        conjectured_m(4, 0)
    with pytest.raises(ValueError):
        conjectured_C(-1, 0)


def _series_mul(a, b):
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _series_inv(a):
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(-sum(a[j] * out[k - j] for j in range(1, k + 1)) / a[0])
    return out


def _implied_area_coefficients(n: int, M: Fraction, order: int) -> list:
    """C_0, then the relative C_1..C_order, at one n and one rational M.

    They come from the m_k alone. sv_constant writes the area constant
    over pi^2 as [a(g-1, n+2) + n(n-1) a(g, n-1) + sum over splits of
    comb(n, n1-1) a(g1, n1) a(g2, n2)] / (4 pi^2 a(g, n)). Only splits
    with one small side (h, m) matter to any order in x = 1/g, and each
    such piece occurs twice. With a(g, n) = r(g, n) / (P(g, n) pi^(6g-5+2n)),
    where P is the rational prefactor of normalize_vol and
    r = sum_k m_k(n) x^k, each ratio is a series in x whose coefficients
    are polynomials in pi^2 = -144 M.
    """
    size = order + 1

    def lin(c0, c1):
        return [Fraction(c0), Fraction(c1)] + [Fraction(0)] * (size - 2)

    def r(h, nn):  # r(g - h, nn), using 1/(g - h)^k = x^k (1 - h x)^-k
        out = [Fraction(0)] * size
        step = _series_inv(lin(1, -h))
        power = lin(1, 0)
        for k in range(size):
            mk = sum(c * M**i for i, c in enumerate(conjectured_m(k, nn).m_coeffs))
            for i in range(size - k):
                out[i + k] += mk * power[i]
            power = _series_mul(power, step)
        return out

    # (h, n', weight, p): the piece is
    # weight * pi^(2p) * P(g, n) r(g - h, n') / (P(g - h, n') r(g, n))
    pieces = [(1, n + 2, Fraction(1, 4), 0)]
    if n >= 2:
        pieces.append((0, n - 1, Fraction(n * (n - 1), 4), 0))
    for h in range(order + 1):
        for m in range(1, min(order + 2 - 2 * h, n + 1) + 1):
            if 3 * h - 3 + m > 0:
                weight = Fraction(2 * comb(n, m - 1)) * a_direct(h, m) / 4
                pieces.append((h, n + 2 - m, weight, 3 * h + m - 3))
    total = [Fraction(0)] * size
    for h, nn, weight, p in pieces:
        # P(g, n) / P(g - h, nn) = 3^s4 (4g-4+n)_s4 / (2^s2 (6g-7+2n)_s6)
        s4, s6, s2 = 4 * h + n - nn, 6 * h + 2 * (n - nn), 10 * h + 4 * (n - nn)
        num, den = lin(1, 0), lin(1, 0)
        for j in range(s4):
            num = _series_mul(num, lin(4, n - 4 - j))
        for j in range(s6):
            den = _series_mul(den, lin(6, 2 * n - 7 - j))
        series = _series_mul(_series_mul(num, _series_inv(den)), r(h, nn))
        series = _series_mul(series, _series_inv(r(0, n)))
        scale = weight * (-144 * M) ** p * Fraction(3) ** s4 / Fraction(2) ** s2
        shift = s6 - s4  # the falling factorials leave x^(s6 - s4)
        for i in range(size - shift):
            total[i + shift] += scale * series[i]
    return [total[0]] + [c / total[0] for c in total[1:]]


def test_area_polynomials_follow_from_volume_polynomials():
    # The area Siegel-Veech formula maps the volume expansion onto the
    # area-constant expansion, so C_0..C_3 are fixed exactly by m_0..m_3
    # and the small-genus table. Seven values of M pin polynomials of
    # degree up to 6 in M, and n = 0..9 those up to degree 9 in n. This is
    # what fixes the M^2 coefficient of m_2 at -27n/6 + 19/2 (the C_2 and
    # C_3 terms in M^2 and M^3 need it) and the M coefficient of C_2 at
    # -24n/32 in its linear term; neither comes from a fit.
    for n in range(10):
        for M in map(Fraction, range(-3, 4)):
            implied = _implied_area_coefficients(n, M, 3)
            for k, got in enumerate(implied):
                want = sum(c * M**i for i, c in enumerate(conjectured_C(k, n).m_coeffs))
                assert got == want, (n, M, k)


def test_compare_report_empty():
    rep = compare_report([], 60, 5)
    assert rep.rows == ()
    assert rep.passed


def test_compare_report_short_window_degrades_gracefully():
    rep = compare_report([0], 20, 5, target="vol")
    assert len(rep.rows) == 4
    # n may be any iterable; a one-shot one must still reach every target
    both = compare_report(iter([0]), 20, 5, target="both").rows
    assert len(both) == 8 and both[:4] == rep.rows
    for row in rep.rows:
        assert float(row.error_bar) >= 0
        assert row.reference


def test_compare_report_scales_relative_area_terms():
    # C_k for k >= 1 are relative to C_0; the fitted area constant is not
    rep = compare_report([0], 20, 5, target="sv")
    assert [r.k for r in rep.rows] == [0, 1, 2, 3]
    with mp.workprec(320):
        c0 = conjectured_C(0, 0).eval_mpf()
        for row in rep.rows:
            want = c0 if row.k == 0 else c0 * conjectured_C(row.k, 0).eval_mpf()
            assert row.reference == mp.nstr(want, 12), row.k


def test_compare_report_passes_beyond_acceptance_inputs():
    # criterion 7 checks n = 0, 1, 2; the references must hold at every n
    rep = compare_report(range(3, 9), 60, 5)
    assert len(rep.rows) == 2 * 6 * 4
    failing = [
        f"{r.target} n={r.n} k={r.k}: est={r.estimate} ref={r.reference}"
        for r in rep.rows
        if not r.passed
    ]
    assert not failing, failing


def test_compare_report_rejects_bad_target():
    with pytest.raises(ValueError):
        compare_report([0], 60, 5, target="everything")
