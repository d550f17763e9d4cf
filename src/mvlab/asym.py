"""Numerical extraction of 1/g expansion coefficients.

The exact table supplies r(g, n) (normalized volumes) or area constants
at fixed n for a run of genera; a windowed polynomial-in-1/g fit pulls
out the expansion coefficients, with error bars from re-fitting on a
shifted window. The results are compared against the conjectured
polynomials in n and M = -pi^2/144.

Samples stay exact (PiScaled or rational) until richardson_fit rounds
each one through PiScaled.to_mpf at a caller-chosen precision. The
fits then read each rounded sample as the exact dyadic rational it is
and solve their windows exactly, with integer Lagrange weights in g;
every coefficient and error bar is rounded to nearest at that precision
once, from its exact value, so a BigFloat's tag is its mantissa width
and the value is the correctly rounded fit of the rounded samples.

mpmath is imported when the first float is made, inside the functions
that make or print floats (PiScaled.to_mpf, MPoly.eval_mpf,
richardson_fit, _judge, compare_report), so importing this module
does not load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm, prod
from typing import NamedTuple

from .genus import agn_from_series
from .volumes import PiScaled, _check_precision, _check_stratum, sv_constant

__all__ = [
    "BigFloat",
    "MPoly",
    "AsymFit",
    "normalize_vol",
    "richardson_fit",
    "estimate_m",
    "estimate_C",
    "conjectured_m",
    "conjectured_C",
    "CompareRow",
    "CompareReport",
    "compare_report",
]

class BigFloat(NamedTuple):
    """An mpmath float tagged with the precision it was rounded to."""

    value: object
    precision_bits: int


class MPoly(NamedTuple):
    """A polynomial in M = -pi^2/144 with rational coefficients.

    m_coeffs[i] multiplies M^i. Instances here come from specializing
    the conjectured two-variable polynomials at an integer n.
    """

    m_coeffs: tuple

    def eval_mpf(self, bits: int = 320) -> mp.mpf:
        import mpmath as mp

        with mp.workprec(bits):
            m_val = -(mp.pi**2) / 144
            acc = mp.mpf(0)
            for c in reversed(self.m_coeffs):
                acc = acc * m_val + mp.mpf(c.numerator) / c.denominator
            return +acc


class AsymFit(NamedTuple):
    """Result of a windowed 1/g fit.

    coefficients come from exact interpolation on the top K+1 samples.
    The error estimates are coefficient-wise differences against a fit
    on a window shifted down by shift_used (zeros when no shift fits).
    Every coefficient and error estimate is a BigFloat rounded to
    precision_bits.
    """

    coefficients: tuple
    error_estimates: tuple
    window: tuple
    K: int
    shift_used: int
    precision_bits: int


def normalize_vol(g: int, n: int, a: Fraction) -> PiScaled:
    """r(g, n): the volume relative to its conjectured leading behavior.

    Exact: a rational times pi^(6g - 5 + 2n). Tends to 1 as g grows at
    fixed n.
    """
    _check_stratum(g, n)
    if (g, n) == (0, 3):
        raise ValueError("no normalization at (g, n) = (0, 3)")
    rat = (
        Fraction(a)
        * factorial(4 * g - 4 + n)
        * Fraction(3) ** (4 * g + n - 4)
        / (factorial(6 * g - 7 + 2 * n) * Fraction(2) ** (10 * g + 4 * n - 11))
    )
    return PiScaled(rat, 2 * (6 * g - 5 + 2 * n))


def _sample_value(s, bits: int) -> tuple[int, int]:
    """The sample rounded once to `bits`, as the exact dyadic man * 2^exp."""
    if not isinstance(s, PiScaled):
        s = PiScaled(Fraction(s), 0)
    sign, man, exp, _ = s.to_mpf(bits)._mpf_
    return (-man if sign else man), exp


def _window_coefficients(pts, K: int) -> list[tuple[int, int]]:
    """Exact c_0..c_K, as pairs (p, q) with q > 0, through K+1 dyadic samples.

    sum_k c_k g^(K-k) is the polynomial through the points (g, g^K * v),
    so c_k is the coefficient of g^(K-k) in sum_i g_i^K v_i L_i(g), with
    L_i(g) = prod_{j != i} (g - g_j) / (g_i - g_j). The node polynomials
    have int coefficients; everything is summed as ints over one
    denominator: the lcm of the node denominators times a power of 2.
    """
    gs = [g for g, _, _ in pts]
    e0 = min(exp for _, _, exp in pts)
    # prod_j (g - g_j), highest power first.
    full = [1]
    for a in gs:
        full = [x - a * y for x, y in zip(full + [0], [0] + full)]
    node_dens = [prod(gi - gj for gj in gs if gj != gi) for gi in gs]
    den = lcm(*node_dens)
    nums = [0] * (K + 1)
    for (g, man, exp), d in zip(pts, node_dens):
        w = g**K * man * (den // d) << (exp - e0)
        # The node polynomial prod_{j != i} (g - g_j) by synthetic
        # division of the full product by (g - g_i), highest power first.
        q = 0
        for k, c in enumerate(full[:-1]):
            q = c + g * q
            nums[k] += w * q
    if e0 >= 0:
        return [(x << e0, den) for x in nums]
    return [(x, den << -e0) for x in nums]


def richardson_fit(samples, K: int, precision_bits: int = 320) -> AsymFit:
    """Fit sum_{k<=K} c_k / g^k to the top of a sampled sequence.

    samples: iterable of (g, value) with distinct g != 0; value is
    exact: a PiScaled or a number that Fraction accepts (an mpf raises
    TypeError). Each value is rounded once, by PiScaled.to_mpf, and read
    as the exact dyadic rational it then is.
    Needs at least K+1 samples; the fit uses the top K+1, and error bars
    come from sliding that window down by up to 5 samples. Each window
    is solved exactly, with integer Lagrange node polynomials in g; each
    coefficient c and each bar |c - a| against the shifted window's a is
    then rounded to nearest at precision_bits once, from its exact value.
    """
    import mpmath as mp
    from mpmath.libmp import from_rational, round_nearest

    if K < 0:
        raise ValueError(f"fit order K must be nonnegative, got {K}")
    _check_precision(precision_bits)
    samples = list(samples)
    if any(g != int(g) for g, _ in samples):
        raise ValueError("sample genera must be integers")
    pts = sorted(
        ((int(g), *_sample_value(v, precision_bits)) for g, v in samples),
        key=lambda t: t[0],
    )
    if len({g for g, _, _ in pts}) != len(pts):
        raise ValueError("duplicate g values in samples")
    if len(pts) < K + 1:
        raise ValueError(f"need at least {K + 1} samples for K = {K}")
    if K and any(g == 0 for g, _, _ in pts):
        raise ValueError("g = 0 has no expansion in 1/g")
    top = pts[-(K + 1):]
    coeffs = _window_coefficients(top, K)

    shift = min(5, len(pts) - (K + 1))
    if shift > 0:
        alt = _window_coefficients(pts[-(K + 1) - shift : len(pts) - shift], K)
        bars = [(abs(p * s - r * q), q * s) for (p, q), (r, s) in zip(coeffs, alt)]
    else:
        bars = [(0, 1)] * (K + 1)

    def wrap(pairs):
        return tuple(
            BigFloat(mp.make_mpf(from_rational(p, q, precision_bits, round_nearest)),
                     precision_bits)
            for p, q in pairs
        )

    return AsymFit(
        coefficients=wrap(coeffs),
        error_estimates=wrap(bars),
        window=(top[0][0], top[-1][0]),
        K=K,
        shift_used=shift,
        precision_bits=precision_bits,
    )


def _check_room(n: int, gmax: int, K: int, precision_bits: int) -> None:
    # Reject before any sample is computed: bad input would otherwise
    # be found only after the genus rows up to gmax are built. Samples
    # start at g = 2, where every n >= 0 has a stratum.
    if n < 0:
        raise ValueError(f"no stratum for n = {n}")
    if K < 0:
        raise ValueError(f"fit order K must be nonnegative, got {K}")
    if gmax < 2 * K + 10:
        raise ValueError("gmax must be at least 2K + 10")
    _check_precision(precision_bits)


def _sample_genera(gmax: int, K: int) -> range:
    # The top K+1 samples and the 5 the shifted window adds below them.
    return range(gmax - K - 5, gmax + 1)


def estimate_m(n: int, gmax: int, K: int, precision_bits: int = 320) -> AsymFit:
    """Fit the normalized-volume expansion at fixed n."""
    _check_room(n, gmax, K, precision_bits)
    samples = [
        (g, normalize_vol(g, n, agn_from_series(g, n))) for g in _sample_genera(gmax, K)
    ]
    return richardson_fit(samples, K, precision_bits)


def estimate_C(n: int, gmax: int, K: int, precision_bits: int = 320) -> AsymFit:
    """Fit the area-constant expansion at fixed n."""
    _check_room(n, gmax, K, precision_bits)
    samples = [(g, sv_constant(g, n)) for g in _sample_genera(gmax, K)]
    return richardson_fit(samples, K, precision_bits)


def _mpoly(*rows) -> MPoly:
    return MPoly(tuple(Fraction(r) for r in rows))


def conjectured_m(k: int, n: int) -> MPoly:
    """The paper's volume-expansion polynomial m_k at integer n, k <= 3.

    The M^2 coefficient of m_2 is -27n/6 + 19/2; it was transcribed as
    -17n/6 + 19/2. The area Siegel-Veech formula turns m_0..m_k into
    C_0..C_k exactly, and under it the M^2 coefficient of C_2 and four
    coefficients of C_3 each force the n-slope -27/6 (the check is
    tests/test_asym.py::test_area_polynomials_follow_from_volume_polynomials).
    The fits at n = 0..8 differ from the transcription by
    -5/3 * n * M^2 to five digits.
    """
    if not 0 <= k <= 3:
        raise ValueError("published coefficients stop at k = 3")
    if k == 0:
        return _mpoly(1)
    if k == 1:
        return _mpoly(0, 1)
    if k == 2:
        return _mpoly(
            0,
            Fraction(n**3, 24) - Fraction(3 * n**2, 8) + Fraction(4 * n, 6) + Fraction(1, 2),
            Fraction(-27 * n, 6) + Fraction(19, 2),
        )
    return _mpoly(
        0,
        -Fraction(8 * n**4, 288) + Fraction(17 * n**3, 48)
        - Fraction(860 * n**2, 576) + Fraction(104 * n, 48) - Fraction(55, 180),
        -Fraction(27 * n**4, 288) + Fraction(65 * n**3, 48)
        - Fraction(1890 * n**2, 576) - Fraction(373 * n, 48) + Fraction(3615, 180),
        Fraction(14256 * n**2, 576) - Fraction(6156 * n, 48) + Fraction(28650, 180),
        -Fraction(126846, 180),
    )


def conjectured_C(k: int, n: int) -> MPoly:
    """The paper's area-constant polynomial C_k at integer n, k <= 3.

    C_0 = 1/4 is absolute; C_k for k >= 1 are relative to it, so the
    area constant behaves as C_0 * (1 + sum_k C_k / g^k).

    The linear term of the M coefficient of C_2 is -24n/32; it was
    transcribed as -6n/32, a factor 4 off. The area Siegel-Veech
    formula applied to m_0..m_2 gives -24n/32, and with it C_1..C_3
    follow from m_1..m_3 in every coefficient. The fits at n = 0..8
    differ from the transcription by -9/16 * n * M to five digits.
    """
    if not 0 <= k <= 3:
        raise ValueError("published coefficients stop at k = 3")
    if k == 0:
        return _mpoly(Fraction(1, 4))
    if k == 1:
        return _mpoly(
            Fraction(n**2, 48) - Fraction(3 * n, 16) + Fraction(1, 4),
            Fraction(-1, 2),
        )
    if k == 2:
        return _mpoly(
            -Fraction(5 * n**3, 576) + Fraction(59 * n**2, 576)
            - Fraction(11 * n, 32) + Fraction(23, 72),
            -Fraction(12 * n**3, 576) + Fraction(180 * n**2, 576)
            - Fraction(24 * n, 32) + Fraction(15, 72),
            Fraction(72 * n, 32) - Fraction(648, 72),
        )
    return _mpoly(
        Fraction(4 * n**4, 1152) - Fraction(179 * n**3, 3456)
        + Fraction(929 * n**2, 3456) - Fraction(989 * n, 1728) + Fraction(295, 720),
        Fraction(17 * n**4, 1152) - Fraction(978 * n**3, 3456)
        + Fraction(5169 * n**2, 3456) - Fraction(4851 * n, 1728) + Fraction(1165, 720),
        Fraction(54 * n**4, 1152) - Fraction(3564 * n**3, 3456)
        + Fraction(13554 * n**2, 3456) + Fraction(4428 * n, 1728) - Fraction(16140, 720),
        -Fraction(42768 * n**2, 3456) + Fraction(192456 * n, 1728) - Fraction(105300, 720),
        Fraction(253692, 720),
    )


def _sv_reference(k: int, n: int) -> MPoly:
    """The absolute area-constant coefficient the fit yields: C_0, then C_0 * C_k."""
    c = conjectured_C(k, n)
    if k == 0:
        return c
    c0 = conjectured_C(0, n).m_coeffs[0]
    return MPoly(tuple(c0 * x for x in c.m_coeffs))


class CompareRow(NamedTuple):
    target: str
    n: int
    k: int
    estimate: str
    error_bar: str
    reference: str
    rel_deviation: str
    passed: bool


class CompareReport(NamedTuple):
    gmax: int
    K: int
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


# Tolerances keyed by expansion order; order three is judged by sign,
# order of magnitude, and error-bar overlap instead.
_TOL_M = {0: ("abs", 1e-8), 1: ("rel", 1e-5), 2: ("rel", 1e-3)}
_TOL_C = {0: ("abs", 1e-8), 1: ("rel", 1e-3), 2: ("rel", 1e-3)}


def _judge(k: int, est, bar, ref, tol_table) -> tuple[bool, mp.mpf]:
    import mpmath as mp

    dev = abs(est - ref)
    rel = dev / abs(ref) if ref != 0 else mp.inf
    if k <= 2:
        kind, tol = tol_table[k]
        return (dev < tol) if kind == "abs" else (rel < tol), rel
    same_sign = mp.sign(est) == mp.sign(ref)
    magnitude = abs(est) / abs(ref) if ref != 0 else mp.inf
    # Shift-window bars understate slow power-law truncation bias at the
    # top retained order; grant them the same factor 10 the window
    # stability check uses.
    overlap = dev <= 10 * bar
    return same_sign and mp.mpf("0.1") <= magnitude <= 10 and overlap, rel


def compare_report(
    n_list, gmax: int, K: int, target: str = "both", precision_bits: int = 320
) -> CompareReport:
    """Fit, then compare each coefficient against its reference polynomial.

    One row per (target, n, k <= min(3, K)). target chooses normalized
    volumes ("vol", against m_k), area constants ("sv", against C_0 and
    then C_0 * C_k), or both.
    """
    import mpmath as mp

    if target not in ("vol", "sv", "both"):
        raise ValueError("target must be vol, sv, or both")
    n_list = tuple(n_list)  # iterated once per target
    for n in n_list:
        _check_room(n, gmax, K, precision_bits)
    jobs = []
    if target in ("vol", "both"):
        jobs.append(("vol", estimate_m, conjectured_m, _TOL_M))
    if target in ("sv", "both"):
        jobs.append(("sv", estimate_C, _sv_reference, _TOL_C))
    rows = []
    with mp.workprec(precision_bits):
        for label, fit_fn, ref_fn, tol_table in jobs:
            for n in n_list:
                fit = fit_fn(n, gmax, K, precision_bits)
                for k in range(min(3, K) + 1):
                    est = fit.coefficients[k].value
                    bar = fit.error_estimates[k].value
                    ref = ref_fn(k, n).eval_mpf(precision_bits)
                    ok, rel = _judge(k, est, bar, ref, tol_table)
                    rows.append(
                        CompareRow(
                            target=label,
                            n=n,
                            k=k,
                            estimate=mp.nstr(est, 12),
                            error_bar=mp.nstr(bar, 3),
                            reference=mp.nstr(ref, 12),
                            rel_deviation=mp.nstr(rel, 3),
                            passed=ok,
                        )
                    )
    return CompareReport(gmax, K, tuple(rows))
