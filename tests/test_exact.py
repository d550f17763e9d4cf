import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvlab import exact
from mvlab.exact import (
    GaussianRat,
    LaurentT,
    RowStore,
    bernoulli,
    double_factorial,
    cauchy_coeff,
    convolve_into,
    fold,
    laurent_dt,
    pochhammer,
)
from mvlab.volumes import PiScaled

from laurent_ref import ZERO, GenusBlock, add, monomial, neg, scale, sub, times_x, weighted_sum

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=64
)

exponents = st.integers(min_value=-30, max_value=30)


@st.composite
def laurents(draw):
    pairs = draw(st.dictionaries(exponents, rationals, max_size=6))
    return LaurentT({e: c for e, c in pairs.items() if c != 0})


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_recurrence():
    for m in range(1, 41):
        total = sum(math.comb(m + 1, k) * bernoulli(k) for k in range(m + 1))
        assert total == 0, f"recurrence fails at m={m}"


def _bernoulli_term_by_term(mmax):
    """B_0..B_mmax by the recurrence with one Fraction operation per term."""
    bs = [Fraction(1)]
    for k in range(1, mmax + 1):
        acc = sum(math.comb(k + 1, j) * bs[j] for j in range(k))
        bs.append(Fraction(-acc, k + 1))
    return bs


def test_bernoulli_matches_term_by_term_recurrence():
    want = _bernoulli_term_by_term(200)
    for m in range(201):
        assert bernoulli(m) == want[m], m
    assert bernoulli(1) == Fraction(-1, 2)


def test_bernoulli_von_staudt_clausen():
    # B_2n + sum(1/p over the primes p with (p - 1) | 2n) is an integer,
    # so den(B_2n) is the product of those primes; B_2n > 0 for odd n.
    primes = [p for p in range(2, 502) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for m in range(2, 501, 2):
        ps = [p for p in primes if m % (p - 1) == 0]
        b = bernoulli(m)
        assert b.denominator == math.prod(ps), m
        assert (b + sum(Fraction(1, p) for p in ps)).denominator == 1, m
        assert (b > 0) == (m % 4 == 2), m


def test_bernoulli_extends_a_cold_memo_in_any_order(monkeypatch):
    want = {m: bernoulli(m) for m in range(121)}
    monkeypatch.setattr(exact, "_bernoulli_cache", {0: Fraction(1), 1: Fraction(-1, 2)})
    monkeypatch.setattr(exact, "_entringer_row", [1])
    for m in (40, 7, 120, 2, 41, 0, 1, 80, 119, 64, 121):
        assert bernoulli(m) == want.get(m, 0), m
    # The triangle was extended once, to row 119, the row B_120 is read off.
    assert len(exact._entringer_row) == 120


def test_bernoulli_matches_term_by_term_recurrence_and_sympy():
    sympy = pytest.importorskip("sympy")
    for m in range(201):
        # sympy >= 1.12 takes B_1 = +1/2; this package uses -1/2.
        if m != 1:
            assert bernoulli(m) == Fraction(str(sympy.bernoulli(m))), m


def test_double_factorial():
    assert double_factorial(-3) == -1
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384
    with pytest.raises(ValueError):
        double_factorial(-5)


def test_pochhammer():
    assert pochhammer(Fraction(3), 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    assert pochhammer(Fraction(-2), 4) == 0


# Entries for a store of rows: zero entries, small denominators that
# divide a row's running one, and ~100-bit ones that force a rescale of
# the row and of the cofactors.
row_entry = st.builds(
    Fraction,
    st.one_of(st.just(0), st.integers(-(2**120), 2**120)),
    st.one_of(st.integers(1, 12), st.integers(2**96, 2**100)),
)
# (row, entry, m): the entry is appended to that row as the unreduced
# pair (m * numerator, m * denominator).
store_appends = st.lists(st.tuples(st.integers(0, 3), row_entry, st.integers(1, 6)), max_size=16)


def _cauchy_model(xs, ys, k):
    return sum(
        (xs[i] * ys[k - i] for i in range(k + 1) if i < len(xs) and k - i < len(ys)),
        Fraction(0),
    )


@given(store_appends, st.integers(0, 24))
@example([], 0)
@example([(0, Fraction(0), 1), (1, Fraction(1, 3), 2)], 1)
@example([(0, Fraction(1, 2), 1), (0, Fraction(1, 4), 3), (1, Fraction(5, 2**97 + 1), 1)], 1)
@example([(2, Fraction(1, 6), 1), (0, Fraction(1, 3), 1), (2, Fraction(1, 4), 5),
          (1, Fraction(0), 2)] + [(1, Fraction(1, 6), 1)] * 3, 2)
@settings(max_examples=150)
def test_dense_row_matches_fraction_model(appends, k):
    store, model = RowStore(), []
    for g, v, m in appends:
        while len(store) <= g:
            store.add_row()
            model.append([])
        store.append(g, m * v.numerator, m * v.denominator)
        model[g].append(v)
        # After each append: every entry reads back over its row's
        # denominator, the lcm of the row's entry denominators; den is
        # the lcm of the rows' denominators, and each cofactor takes its
        # row's denominator to den.
        for h, xs in enumerate(model):
            assert len(store.nums[h]) == len(xs)
            assert [Fraction(c, store.dens[h]) for c in store.nums[h]] == xs
            assert store.dens[h] == math.lcm(1, *(v.denominator for v in xs))
            assert store.cof[h] * store.dens[h] == store.den
        assert store.den == math.lcm(*store.dens)
        assert all(type(c) is int for row in store.nums for c in row)
    # The Cauchy coefficient of two rows' numerators, entries past either
    # row's end being zero; k runs past both ends. square(g, k) sums it
    # over g1 + g2 = g, scaled by the cofactors, over den**2.
    for x, xs in enumerate(model):
        for y, ys in enumerate(model):
            num = cauchy_coeff(store.nums[x], store.nums[y], k)
            assert type(num) is int
            assert Fraction(num, store.dens[x] * store.dens[y]) == _cauchy_model(xs, ys, k)
        want = sum((_cauchy_model(model[g1], model[x - g1], k) for g1 in range(x + 1)), Fraction(0))
        assert Fraction(store.square(x, k), store.den**2) == want


_ints = st.lists(st.integers(-50, 50), max_size=8)


@given(_ints, _ints, _ints, st.integers(-3, 3))
@example([], [], [], 0)
@example([1, 2], [], [3], 2)
@example([0, 0, 0], [0, 4, 0], [7, 0, 2], 0)
@example([5, 1], [1, 2, 3], [4, 5], -1)
@settings(max_examples=200)
def test_convolve_into_matches_definition(start, a, b, extra):
    # The starting sum is nonzero in general, and its length falls
    # below, at or above the full product length; either factor may be
    # the longer one.
    full = len(a) + len(b) - 1 if a and b else 0
    acc = (start + [0] * 20)[:max(0, full + extra)]
    want = [
        s + sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
        for k, s in enumerate(acc)
    ]
    swapped = list(acc)
    convolve_into(acc, a, b)
    convolve_into(swapped, b, a)
    assert acc == swapped == want


@given(laurents(), laurents(), laurents())
@settings(max_examples=60)
def test_laurent_ring_laws(p, q, r):
    assert add(p, q) == add(q, p)
    assert p * q == q * p
    assert add(add(p, q), r) == add(p, add(q, r))
    assert (p * q) * r == p * (q * r)
    assert p * add(q, r) == add(p * q, p * r)
    assert add(p, ZERO) == p
    assert p * monomial(0) == p
    assert sub(p, p) == ZERO


@given(laurents(), laurents())
@settings(max_examples=60)
def test_laurent_leibniz(p, q):
    assert laurent_dt(p * q) == add(laurent_dt(p) * q, p * laurent_dt(q))


def test_laurent_dt_monomial():
    # d/dx of T^e is -e T^(e-2)
    p = monomial(5, Fraction(3))
    assert laurent_dt(p) == monomial(3, Fraction(-15))
    assert laurent_dt(monomial(0)) == ZERO


def _dt_once(p):
    # The defining single step D_T(T^e) = -e*T^(e-2), term by term.
    out = {}
    for e, c in p.items():
        out[e - 2] = out.get(e - 2, 0) - e * c
    return LaurentT(out)


def _mul_reference(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return LaurentT(out)


def _no_stored_zero(p):
    return all(c != 0 for _, c in p.items())


@st.composite
def low_laurents(draw):
    # Small nonnegative even exponents are the ones that vanish under D_T^k.
    pairs = draw(st.dictionaries(st.integers(-6, 18), rationals, max_size=8))
    return LaurentT({e: c for e, c in pairs.items() if c != 0})


@given(low_laurents(), st.integers(min_value=0, max_value=8))
@settings(max_examples=80)
def test_laurent_dt_power_is_repeated_step(p, k):
    stepped = p
    for _ in range(k):
        stepped = _dt_once(stepped)
    once = p
    for _ in range(k):
        once = laurent_dt(once)
    got = laurent_dt(p, k)
    assert got == stepped == once
    assert _no_stored_zero(got)


def test_laurent_dt_power_drops_terms_mid_way():
    # Every exponent 0..16 at once: T^0..T^(2k-2) with even exponent die
    # at some step before the last, the others survive all k steps.
    p = LaurentT({e: Fraction(e + 1, 3) for e in range(17)})
    for k in range(9):
        stepped = p
        for _ in range(k):
            stepped = _dt_once(stepped)
        got = laurent_dt(p, k)
        assert got == stepped
        dropped = {e for e in range(0, 2 * k - 1, 2)}
        assert got.support() == sorted(e - 2 * k for e in range(17) if e not in dropped)
    with pytest.raises(ValueError):
        laurent_dt(p, -1)


@given(laurents(), laurents())
@settings(max_examples=80)
def test_laurent_mul_matches_reference(p, q):
    got = p * q
    assert got == _mul_reference(p, q)
    assert _no_stored_zero(got)


def test_laurent_mul_edge_cases():
    one_plus = LaurentT({0: 1, 1: 1})
    one_minus = LaurentT({0: 1, 1: -1})
    prod = one_plus * one_minus
    assert prod == LaurentT({0: 1, 2: -1})
    assert prod.support() == [0, 2] and _no_stored_zero(prod)
    assert one_plus * ZERO == ZERO
    assert ZERO * one_plus == ZERO
    halves = LaurentT({-1: Fraction(1, 6), 3: Fraction(-5, 4)})
    thirds = LaurentT({2: Fraction(3, 10), 6: Fraction(2, 9)})
    assert halves * thirds == _mul_reference(halves, thirds)
    # A shared denominator must not leak into the stored coefficients.
    assert (halves * thirds).coeff(1) == Fraction(1, 20)


def _span(*ps):
    # (lo, size) of the exponents the nonzero ps reach.
    rows = [p.dense() for p in ps if p != ZERO]
    if not rows:
        return 0, 0
    lo = min(r[0] for r in rows)
    return lo, max(r[0] + len(r[1]) for r in rows) - lo


@given(laurents(), laurents(), laurents(), rationals, rationals)
@settings(max_examples=80)
def test_fold_places_each_term_and_rejects_strays(p, q, r, v, w):
    # A square or a line starting anywhere in the window lands at its own
    # exponents; one reaching past either end of the window is an error.
    want = add(scale(p * q, v), scale(r, w))
    lo, size = _span(p * q, r)
    squares, lines = [(v, p.dense(), q.dense())], [(w, r.dense())]
    assert LaurentT.from_dense(lo, *fold(lo, size, squares, lines)) == want
    assert LaurentT.from_dense(lo - 2, *fold(lo - 2, size + 5, squares, lines)) == want
    if size:
        for window in ((lo + 1, size), (lo, size - 1)):
            with pytest.raises(ValueError, match="outside"):
                fold(*window, squares, lines)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool),
       low_laurents(), st.integers(min_value=0, max_value=8))
@settings(max_examples=60)
def test_genus_block_ddx_n_is_repeated_ddx(log_coeff, lau, k):
    block = GenusBlock(log_coeff, lau)
    stepped = block
    for _ in range(k):
        stepped = stepped.ddx_n(1)
    reference = block
    for _ in range(k):
        # d/dx log(1/T) = T^-2 feeds the Laurent part on the first step.
        extra = monomial(-2, reference.log_coeff)
        reference = GenusBlock(Fraction(0), add(_dt_once(reference.laurent), extra))
    got = block.ddx_n(k)
    assert got == stepped == reference
    if k:
        assert got.log_coeff == 0


def test_laurent_immutable():
    p = monomial(1)
    with pytest.raises(AttributeError):
        p._nums = ()


def test_laurent_record_has_no_sums():
    # LaurentT only stores: the sums are the tests' own, in laurent_ref.
    p = monomial(1)
    for op in (lambda: p + p, lambda: p - p, lambda: -p, lambda: 2 * p):
        with pytest.raises(TypeError):
            op()


# A plain dict {exponent: nonzero Fraction} is the model of the dense
# LaurentT; every operation is compared with its dict version.
wide_exponents = st.one_of(st.integers(-30, 30), st.sampled_from([-400, 400]))


@st.composite
def models(draw):
    pairs = draw(st.dictionaries(wide_exponents, rationals, max_size=6))
    return {e: c for e, c in pairs.items() if c}, pairs


def _model_sum(*weighted):
    out = {}
    for w, ref in weighted:
        for e, c in ref.items():
            out[e] = out.get(e, Fraction(0)) + w * c
    return {e: c for e, c in out.items() if c}


def _model_mul(a, b):
    return _model_sum(*((c, {e + f: d for f, d in b.items()}) for e, c in a.items()))


def _model_dt(ref, k):
    for _ in range(k):
        ref = _model_sum(*((-e * c, {e - 2: 1}) for e, c in ref.items()))
    return ref


def _agrees(p, ref):
    items = list(p.items())
    assert items == sorted(ref.items())
    assert all(type(c) is Fraction for _, c in items)
    assert p.support() == sorted(ref)
    assert (p == ZERO) == (not ref)
    for e in set(ref) | {min(ref, default=0) - 1, max(ref, default=0) + 1, 0}:
        assert p.coeff(e) == ref.get(e, 0)
    # Normal form: the value rebuilt from the model has the same fields.
    rebuilt = LaurentT(ref)
    assert p == rebuilt and hash(p) == hash(rebuilt) and repr(p) == repr(rebuilt)
    assert math.gcd(p._den, *p._nums) == 1 and p._den > 0
    assert not p._nums or (p._nums[0] and p._nums[-1])


def _check_ops(a, b, q, k):
    (ra, pa), (rb, pb) = a, b
    pa, pb = LaurentT(pa), LaurentT(pb)
    _agrees(pa, ra)
    _agrees(add(pa, pb), _model_sum((1, ra), (1, rb)))
    _agrees(sub(pa, pb), _model_sum((1, ra), (-1, rb)))
    _agrees(neg(pa), _model_sum((-1, ra)))
    _agrees(pa * pb, _model_mul(ra, rb))
    _agrees(scale(pa, q), _model_sum((q, ra)))
    _agrees(scale(pa, 0), {})
    _agrees(weighted_sum([(q, pa), (3, pb), (0, pa)]), _model_sum((q, ra), (3, rb)))
    _agrees(laurent_dt(pa, k), _model_dt(ra, k))
    half = Fraction(1, 2)
    _agrees(times_x(pa), _model_sum((half, ra), (-half, _model_mul(ra, {2: 1}))))


@given(models(), models(), rationals, st.integers(min_value=0, max_value=8))
@settings(max_examples=150)
def test_dense_laurent_matches_dict_model(a, b, q, k):
    _check_ops(a, b, q, k)


def test_dense_laurent_wide_and_far_operands():
    gap = {-400: Fraction(1, 3), 400: Fraction(-2, 5)}
    far = {400: Fraction(7, 9)}
    small = {-1: Fraction(1, 6), 0: Fraction(-3), 2: Fraction(5, 4)}
    for a in (gap, far, small, {}):
        for b in (gap, far, small, {}):
            for k in (0, 1, 8):
                _check_ops((a, a), (b, b), Fraction(-7, 12), k)


def test_dense_laurent_normal_form():
    # Equal values reached by different routes have equal fields.
    p = LaurentT({-2: Fraction(1, 6), 3: Fraction(3, 4)})
    routes = [
        LaurentT({-2: Fraction(2, 12), 3: Fraction(6, 8), 9: 0, -5: 0}),
        scale(add(p, p), Fraction(1, 2)),
        sub(scale(p, 6), scale(p, 5)),
        p * monomial(0),
        p * monomial(-7, 4) * monomial(7, Fraction(1, 4)),
        weighted_sum([(Fraction(1, 3), p), (Fraction(2, 3), p)]),
        sub(add(p, monomial(0, 5)), monomial(0, 5)),
    ]
    for r in routes:
        assert r == p and hash(r) == hash(p) and repr(r) == repr(p), r
    # Zero is canonical, however it is reached.
    zeros = [
        LaurentT(), LaurentT({5: 0}), sub(p, p), scale(p, 0), ZERO * p, p * ZERO,
        laurent_dt(monomial(0), 3), weighted_sum([]), weighted_sum([(0, p)]),
    ]
    for z in zeros:
        assert z == ZERO and hash(z) == hash(ZERO) and repr(z) == "LaurentT(0)"
        assert z.support() == [] and z.items() == []


gaussians = st.builds(GaussianRat, rationals, rationals)


@given(gaussians, gaussians)
@settings(max_examples=60)
def test_gaussian_conjugation(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    prod = a * a.conjugate()
    assert prod.im == 0 and prod.re >= 0


def test_gaussian_arithmetic():
    i = GaussianRat(Fraction(0), Fraction(1))
    assert i * i == GaussianRat.from_rational(Fraction(-1))
    assert (i - i).is_zero()


@given(st.fractions(max_denominator=10**9).filter(lambda q: q != 0))
@settings(max_examples=60)
def test_bigfloat_round_trip(q):
    # PiScaled.to_mpf is the one exact-to-float step; at pi^0 it rounds q
    v = PiScaled(q, 0).to_mpf(256)
    assert isinstance(v, mp.mpf)
    assert v._mpf_[3] <= 256  # mantissa bits: rounded at 256, not above
    with mp.workprec(400):
        exact = mp.mpf(q.numerator) / q.denominator
        rel = abs(v - exact) / abs(exact)
        assert rel < mp.mpf(2) ** -250


def test_bigfloat_rejects_low_precision():
    with pytest.raises(ValueError, match="precision below 64 bits"):
        PiScaled(Fraction(1, 3), 0).to_mpf(32)
