import random
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import example, given, settings, strategies as st

from mjtheta import series
from mjtheta.cyclo import cmul, ex
from mjtheta.errors import Divergent, NonInvertibleLeadingTerm
from mjtheta.series import (
    QSeries, series_add, series_mul, series_pow, series_rescale,
    series_half_shift, series_slice, series_shift, series_eq,
    series_first_mismatch,
)


def poly(pairs, order=20, den=1):
    return QSeries({k: Fraction(v) for k, v in pairs.items()}, order, den)


def same_series(got, want):
    assert (got.coeffs, got.den, got.order) == \
        (want.coeffs, want.den, want.order)


# -- oracle: dense polynomial arithmetic ---------------------------------

def dense_mul(a, b, order):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if ka + kb < order:
                out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def test_add_mul_against_dense():
    rng = random.Random(7)
    for _ in range(50):
        a = {rng.randrange(0, 10): rng.randrange(-5, 6) for _ in range(5)}
        b = {rng.randrange(0, 10): rng.randrange(-5, 6) for _ in range(5)}
        a = {k: v for k, v in a.items() if v}
        b = {k: v for k, v in b.items() if v}
        A, B = poly(a), poly(b)
        C = series_mul(A, B)
        lo_a = min(a) if a else 20
        lo_b = min(b) if b else 20
        assert C.order == min(20 + lo_b, 20 + lo_a)
        want = dense_mul(a, b, int(C.order))
        assert {k: v for k, v in C.coeffs.items()} == \
            {k: Fraction(v) for k, v in want.items()}


def test_window_tracking_mul():
    # q^2 * (known to order 5) against (known to order 7): window math
    a = poly({2: 1}, order=5)
    b = poly({0: 1, 1: 3}, order=7)
    c = series_mul(a, b)
    assert c.order == min(5 + 0, 7 + 2) == 5
    assert c.coeff(3) == 3


def test_pow_inverse_roundtrip():
    a = poly({0: 1, 1: -1, 3: 2}, order=15)
    inv = series_pow(a, -1)
    one = series_mul(a, inv)
    assert series_eq(one, QSeries.one(one.order))
    # Laurent case with a pole
    t = QSeries({-1: Fraction(1), 1: Fraction(196884)}, 10, 1)
    tinv = series_pow(t, -1)
    assert tinv.lo == 1
    assert series_eq(series_mul(t, tinv), QSeries.one(1))


def test_pow_negative_matches_repeated_inverse():
    a = poly({0: 2, 1: 1}, order=12)
    x = series_pow(a, -3)
    y = series_pow(series_pow(a, 3), -1)
    assert series_eq(x, y)


def test_reciprocal_needs_leading_term():
    with pytest.raises(NonInvertibleLeadingTerm):
        series_pow(QSeries.zero(10), -1)


def test_rescale():
    a = poly({1: 5, 3: 7}, order=10)
    b = series_rescale(a, 2)
    assert b.coeff(2) == 5 and b.coeff(6) == 7
    assert b.order == 20
    c = series_rescale(a, Fraction(1, 2))
    assert c.coeff(Fraction(1, 2)) == 5
    assert c.order == 5


def test_rescale_needs_positive_exponent():
    for t in (0, -1, Fraction(-1, 2)):
        with pytest.raises(Divergent):
            series_rescale(poly({1: 5}), t)


def test_half_shift():
    # f(tau + 1/2): coefficient at exponent n flips sign for odd n
    a = poly({0: 1, 1: 1, 2: 1}, order=10)
    b = series_half_shift(a, Fraction(1, 2))
    assert b.coeff(0) == 1 and b.coeff(1) == -1 and b.coeff(2) == 1
    # round trip through +s then -s is the identity, exactly
    s = Fraction(3, 8)
    c = series_half_shift(series_half_shift(a, s), -s)
    assert series_eq(a, c)


def test_half_shift_fractional_exponents():
    a = QSeries({1: Fraction(2)}, 3, 24)  # 2 q^{1/24}
    b = series_half_shift(a, Fraction(1, 2))
    assert b.coeff(Fraction(1, 24)) == 2 * ex(Fraction(1, 48))


_shift_values = st.one_of(
    st.integers(-5, 5), st.fractions(max_denominator=4),
    st.sampled_from([ex(Fraction(1, 3)), -ex(Fraction(1, 4))]))


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(-40, 150), _shift_values, max_size=60),
       st.sampled_from([1, 2, 3, 24, 96]),
       st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))
def test_half_shift_matches_one_root_per_coefficient(coeffs, den, s):
    # the oracle takes e^{2 pi i s k/den} afresh at every key k; the
    # package takes one root per residue of k
    a = QSeries(coeffs, 200, den)
    got = series_half_shift(a, s)
    want = QSeries({k: cmul(v, ex(s * Fraction(k, den)))
                    for k, v in a.coeffs.items()}, a.order, den)
    assert (got.coeffs, got.den, got.order) == \
        (want.coeffs, want.den, want.order)
    assert [type(v) for v in got.coeffs.values()] == \
        [type(v) for v in want.coeffs.values()]


def test_slice():
    a = poly({0: 1, 1: 2, 2: 3, 3: 4, 4: 5}, order=5)
    s = series_slice(a, 1, 2)
    assert s.coeff(0) == 2 and s.coeff(2) == 4
    assert s.order == 4
    # fractional residue off-grid picks nothing but keeps honest window
    s2 = series_slice(a, Fraction(1, 3), 1)
    assert not s2.coeffs and s2.order == 5 - Fraction(1, 3)


# -- oracle: the slice one Fraction per term --------------------------------

def fraction_slice(a, r, b):
    """series_slice as it was: each exponent as a Fraction, the picked
    terms rebuilt by QSeries.from_terms."""
    r, b = Fraction(r), Fraction(b)
    out = []
    for k, v in a.coeffs.items():
        x = Fraction(k, a.den)
        if (x - r) % b == 0:
            out.append((x - r, v))
    return QSeries.from_terms(out, a.order - r) if out else \
        QSeries.zero(a.order - r)


@st.composite
def slice_case(draw):
    """A series with den > 1 allowed, negative keys and a window that may
    cut into its support; a fractional residue r of either sign and a
    fractional or integral modulus b > 0."""
    den = draw(st.sampled_from([1, 2, 3, 4, 24, 96]))
    coeffs = draw(st.dictionaries(
        st.integers(min_value=-3 * den, max_value=6 * den),
        st.integers(min_value=-9, max_value=9).filter(bool), max_size=30))
    order = Fraction(draw(st.integers(min_value=-40, max_value=120)),
                     draw(st.sampled_from([1, 7, den])))
    r = Fraction(draw(st.integers(min_value=-60, max_value=60)),
                 draw(st.sampled_from([1, 2, 3, 8, 24, 96])))
    b = Fraction(draw(st.integers(min_value=1, max_value=8)),
                 draw(st.sampled_from([1, 2, 3, 4, 16])))
    return QSeries(coeffs, order, den), r, b


@settings(max_examples=400, deadline=None)
@given(slice_case())
@example((QSeries({-1: 2, 23: 3, 47: 5}, 3, 24), Fraction(-1, 24), 1))
@example((QSeries({-9: 1, 15: 2, 39: 4}, 2, 48), Fraction(-3, 16),
          Fraction(1, 2)))
@example((QSeries({1: 1}, 5, 2), Fraction(1, 3), 2))  # off the grid
def test_slice_matches_fraction_slice(case):
    a, r, b = case
    same_series(series_slice(a, r, b), fraction_slice(a, r, b))


def test_shift():
    a = poly({0: 1, 2: 3}, order=6)
    b = series_shift(a, Fraction(-1, 4))
    assert b.coeff(Fraction(-1, 4)) == 1
    assert b.coeff(Fraction(7, 4)) == 3
    assert b.order == 6 - Fraction(1, 4)


small_series = st.builds(
    lambda d, o: poly({k: v for k, v in d.items() if v}, order=o),
    st.dictionaries(st.integers(min_value=-3, max_value=8),
                    st.integers(min_value=-9, max_value=9), max_size=5),
    st.integers(min_value=9, max_value=14),
)


@settings(max_examples=80, deadline=None)
@given(small_series, small_series, small_series)
def test_ring_axioms(a, b, c):
    assert series_eq(series_add(a, b), series_add(b, a))
    assert series_eq(series_mul(a, b), series_mul(b, a))
    assert series_eq(series_mul(a, series_add(b, c)),
                     series_add(series_mul(a, b), series_mul(a, c)))
    assert series_eq(series_mul(series_mul(a, b), c),
                     series_mul(a, series_mul(b, c)))


@settings(max_examples=50, deadline=None)
@given(small_series, st.integers(min_value=0, max_value=4))
def test_pow_is_repeated_mul(a, e):
    direct = series_pow(a, e)
    acc = QSeries.one(99)
    for _ in range(e):
        acc = series_mul(acc, a)
    assert series_eq(direct, acc)


# -- windows off the integer grid -------------------------------------------

def hand_mul(a, b):
    """Window and coefficients of a*b from exact exponents, no key units."""
    lo = lambda s: s.lo if s.coeffs else s.order
    order = min(a.order + lo(b), b.order + lo(a))
    out = {}
    for xa, va in a.items():
        for xb, vb in b.items():
            if xa + xb < order:
                out[xa + xb] = out.get(xa + xb, 0) + va * vb
    return order, {x: v for x, v in out.items() if v}


fractional_series = st.builds(
    lambda d, den, num: QSeries({k: Fraction(v) for k, v in d.items()},
                                Fraction(num, 7 * den), den),
    st.dictionaries(st.integers(min_value=-6, max_value=30),
                    st.integers(min_value=-9, max_value=9), max_size=6),
    st.sampled_from([2, 3, 4, 6]),
    # order * den = num / 7 is never an integer
    st.integers(min_value=1, max_value=200).filter(lambda n: n % 7),
)


@settings(max_examples=150, deadline=None)
@given(fractional_series, fractional_series)
def test_mul_fractional_window_by_hand(a, b):
    assert (a.order * a.den).denominator > 1
    c = series_mul(a, b)
    order, want = hand_mul(a, b)
    assert c.order == order
    assert dict(c.items()) == want
    assert all(x < c.order for x, _v in c.items())


def test_mul_fractional_window_example():
    # a = 1 + 2q^{1/2} + 5q^{3/2} + O(q^{11/6})
    # b = q^{1/3} - q^{2/3} + O(q^{7/4})
    a = QSeries({0: Fraction(1), 1: Fraction(2), 3: Fraction(5)},
                Fraction(11, 6), 2)
    b = QSeries({1: Fraction(1), 2: Fraction(-1)}, Fraction(7, 4), 3)
    c = series_mul(a, b)
    # window min(11/6 + 1/3, 7/4 + 0) = 7/4 on the grid 1/6: key bound 10.5
    assert c.order == Fraction(7, 4) and c.den == 6
    # 5q^{3/2} * q^{1/3} = 5q^{11/6} lies just past the window and is cut
    assert dict(c.items()) == {Fraction(1, 3): 1, Fraction(2, 3): -1,
                               Fraction(5, 6): 2, Fraction(7, 6): -2}


# -- first mismatch ---------------------------------------------------------

def fraction_scan(a, b):
    """Oracle: walk the exact exponents of both supports in increasing order
    through coeff(), stopping at the first that differs below both windows."""
    window = min(a.order, b.order)
    for x in sorted({x for s in (a, b) for x, _v in s.items()}):
        if x < window and a.coeff(x) != b.coeff(x):
            return x, a.coeff(x), b.coeff(x)
    return None


@st.composite
def near_pairs(draw):
    """a with den > 1 and a fractional window, and b: a re-keyed on a finer
    grid with a few coefficients changed, and its own fractional window."""
    a = draw(fractional_series)
    f = draw(st.sampled_from([1, 2, 5]))
    den = a.den * f
    coeffs = {k * f: v for k, v in a.coeffs.items()}
    for k, dv in draw(st.dictionaries(
            st.integers(min_value=-6 * f, max_value=30 * f),
            st.integers(min_value=-2, max_value=2), max_size=3)).items():
        coeffs[k] = coeffs.get(k, 0) + dv
    num = draw(st.integers(min_value=1, max_value=1400).filter(
        lambda n: n % 7))
    return a, QSeries(coeffs, Fraction(num, 7 * den), den)


@settings(max_examples=200, deadline=None)
@given(near_pairs())
def test_first_mismatch_against_fraction_scan(pair):
    a, b = pair
    assert (a.order * a.den).denominator > 1
    want = fraction_scan(a, b)
    assert series_first_mismatch(a, b) == want
    if want is not None:
        x, va, vb = want
        assert series_first_mismatch(b, a) == (x, vb, va)
    assert series_eq(a, b) == (want is None)


def test_first_mismatch_example():
    # a = 1 + 2q^{1/2} + O(q^{11/6}), b = 1 + 2q^{1/2} - q^{4/3} + O(q^{5/3})
    a = QSeries({0: Fraction(1), 1: Fraction(2)}, Fraction(11, 6), 2)
    b = QSeries({0: Fraction(1), 3: Fraction(2), 8: Fraction(-1)},
                Fraction(5, 3), 6)
    assert series_first_mismatch(a, b) == (Fraction(4, 3), 0, -1)
    # past the shorter window nothing is compared
    c = QSeries({0: Fraction(1), 3: Fraction(2), 10: Fraction(7)},
                Fraction(5, 3), 6)
    assert series_first_mismatch(a, c) is None
    assert series_eq(a, c)


# -- the Kronecker kernel against the pair loop -------------------------------

def pair_loop_mul(a, b):
    """Oracle: series_mul with every product taken by the pair loop."""
    den, ca, cb = series._align(a, b)
    order = min(a.order + series._lo_eff(b), b.order + series._lo_eff(a))
    return QSeries(series._mul_pairs(ca, cb, ceil(order * den)),
                   order, den)


def same_product(c, want):
    assert (c.coeffs, c.order, c.den) == (want.coeffs, want.order, want.den)
    assert all(type(v) is int for v in c.coeffs.values())


# values at and next to the slot byte boundaries, besides uniform ones
_edge_values = st.sampled_from(
    [s * v for e in (7, 8, 15, 16, 63, 64, 399, 400) for s in (1, -1)
     for v in (2 ** e - 1, 2 ** e, 2 ** e + 1)])


@st.composite
def int_series(draw):
    """Int coefficients on keys offset + stride * j, negative keys allowed,
    den from 1 to 24 and windows off the key grid (order * den = num / 7)
    that may cut into the support or lie below it."""
    den = draw(st.sampled_from([1, 2, 3, 24]))
    stride = draw(st.sampled_from([1, 2, 3, 5, 24]))
    offset = draw(st.integers(min_value=-40, max_value=40))
    mag = draw(st.sampled_from([1, 9, 10 ** 6, 10 ** 40, 10 ** 120]))
    values = st.one_of(st.integers(min_value=-mag, max_value=mag),
                       _edge_values).filter(bool)
    coeffs = draw(st.dictionaries(
        st.integers(min_value=-5, max_value=25).map(
            lambda j: offset + stride * j), values, max_size=8))
    num = draw(st.integers(min_value=-300, max_value=1500))
    return QSeries(coeffs, Fraction(num, 7 * den), den)


@settings(max_examples=400, deadline=None)
@given(int_series(), int_series())
@example(QSeries({0: -15}, 5), QSeries({0: 17}, 5))  # |c| = 255: 9 bits
@example(QSeries({0: 127, 1: 127}, 9), QSeries({0: 1, 1: 1}, 9))  # 2 * 127
@example(QSeries({0: 255, 3: -255}, 9),
         QSeries({0: 257, 6: 1}, Fraction(58, 7)))
@example(QSeries({}, 5), QSeries({0: 1, 1: 2}, 5))
@example(QSeries({0: 2, 3: 5}, 5), QSeries({0: 7}, 10))  # 5 keys, stride 3
@example(QSeries({-48: 10 ** 120}, Fraction(9, 7), 24),
         QSeries({-1: -(10 ** 120), 2: 3}, Fraction(7, 3), 3))
def test_kronecker_matches_pair_loop(a, b):
    same_product(series_mul(a, b), pair_loop_mul(a, b))
    same_product(series_mul(b, a), pair_loop_mul(b, a))


@st.composite
def unit_lead_series(draw):
    """Int coefficients led by +-1, den 1 to 24, with a window of at most
    40 keys past the lead, off the key grid."""
    den = draw(st.sampled_from([1, 2, 24]))
    lead = draw(st.integers(min_value=-30, max_value=30))
    mag = draw(st.sampled_from([1, 10 ** 6, 10 ** 40]))
    coeffs = draw(st.dictionaries(
        st.integers(min_value=1, max_value=40).map(lambda j: lead + j),
        st.integers(min_value=-mag, max_value=mag).filter(bool),
        max_size=6))
    coeffs[lead] = draw(st.sampled_from([1, -1]))
    num = draw(st.integers(min_value=7 * lead + 1, max_value=7 * (lead + 40)))
    return QSeries(coeffs, Fraction(num, 7 * den), den)


@settings(max_examples=200, deadline=None)
@given(unit_lead_series(), st.integers(min_value=1, max_value=3))
@example(QSeries({0: 1, 1: -1}, 10), 1)  # 1/(1 - q) = 1 + q + q^2 + ...
@example(QSeries({-1: -1, 1: 196884}, 10), 2)  # a pole, lead -1
def test_negative_pow_of_int_unit_lead_stays_int(a, e):
    # the Fraction path is the oracle; the int result takes the Kronecker
    # kernel in later products
    as_fractions = QSeries({k: Fraction(v) for k, v in a.coeffs.items()},
                           a.order, a.den)
    got, want = series_pow(a, -e), series_pow(as_fractions, -e)
    assert (got.coeffs, got.den, got.order) == \
        (want.coeffs, want.den, want.order)
    assert all(type(v) is int for v in got.coeffs.values())
    one = series_mul(series_pow(a, e), got)
    assert series_eq(one, QSeries.one(one.order))


@pytest.mark.parametrize("m", [1, 3, 10 ** 120])
def test_kronecker_cancellation(m):
    # m (1 - q^3) * m (1 + q^3 + q^6 + ...) = m^2 (1 - q^30): nothing but the
    # constant survives below the window, on a stride-3 grid with den 24
    a = QSeries({0: m, 72: -m}, 11, 24)
    b = QSeries({72 * i: m for i in range(10)}, 10, 24)
    c = series_mul(a, b)
    same_product(c, pair_loop_mul(a, b))
    assert c.coeffs == {0: m * m} and c.order == 10
    # (q + q^2)(q - q^2) = q^2 - q^4: the q^3 terms cancel exactly
    c = series_mul(QSeries({1: m, 2: m}, 9), QSeries({1: m, 2: -m}, 9))
    assert c.coeffs == {2: m * m, 4: -m * m}
    # an operand with no term inside its window is zero up to it: the
    # product is zero up to 4/3 + 5
    c = series_mul(QSeries({5: m}, 6), QSeries({5: -m}, Fraction(4, 3)))
    assert c.coeffs == {} and c.order == Fraction(19, 3)


def test_non_int_values_take_the_pair_loop(monkeypatch):
    calls = []
    kernel = series._mul_kronecker
    monkeypatch.setattr(series, "_mul_kronecker",
                        lambda *args: calls.append(args) or kernel(*args))
    ints = QSeries({0: 1, 1: 2}, 9)
    for other in (QSeries({0: Fraction(1, 2), 1: 3}, 9),
                  QSeries({0: 1, 2: Fraction(3)}, 9),
                  QSeries({0: ex(Fraction(1, 3)), 1: 1}, 9)):
        same = series_mul(ints, other)
        assert calls == []
        want = pair_loop_mul(ints, other)
        assert (same.coeffs, same.order, same.den) == \
            (want.coeffs, want.order, want.den)
    series_mul(ints, ints)
    assert len(calls) == 1
