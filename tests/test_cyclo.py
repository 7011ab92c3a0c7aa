import cmath
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from mjtheta.arith import is_fundamental
from mjtheta.cyclo import Cyc, cyclotomic_poly, cadd, cmul
from mjtheta.errors import BadDiscriminant

from product_oracles import Cyclotomic, cconj, cinv, gauss_sum, root

# The package's one irrational value is x + y G_D, which it never computes
# with; the field arithmetic the Borcherds oracles need is the oracle field
# Cyclotomic at one conductor, tested here.  Every exact identity of the
# oracle is cross-checked numerically.


def approx_eq(a, b, tol=1e-9):
    return abs(complex(a) - complex(b)) < tol


def as_fraction(a):
    """Oracle: a as a Fraction, or ValueError if it is irrational."""
    if isinstance(a, Cyc):
        raise ValueError(f"not rational: {a!r}")
    return Fraction(a)


# negative fundamental discriminants, |D| from 3 to 99
NEG_FUNDAMENTAL = [D for D in range(-99, -2) if is_fundamental(D)]


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_roots_of_unity_order():
    for den in (3, 5, 8, 12, 24):
        z = root(den, Fraction(1, den))
        acc = Fraction(1)
        for _ in range(den):
            acc = acc * z
        assert acc == 1
        assert approx_eq(z, cmath.exp(2j * cmath.pi / den))


def test_rational_demotion():
    # a value with y = 0 is its rational x, of x's own type
    for x in (3, Fraction(-5, 2), 0):
        v = Cyc.make(-7, x, 0)
        assert v == x and type(v) is type(x)
    assert isinstance(Cyc.make(-7, 3, Fraction(1, 2)), Cyc)


def test_inverse():
    # the oracle cinv, which the fit oracles of test_borcherds solve with
    for den, num in [(5, 2), (7, 3), (8, 1), (12, 5)]:
        z = root(den, Fraction(num, den)) + Fraction(3, 2)
        zi = cinv(z)
        assert z * zi == 1
        assert approx_eq(zi, 1 / complex(z))


def test_conjugate():
    z = root(7, Fraction(1, 7)) + root(7, Fraction(2, 7))
    zc = cconj(z)
    assert approx_eq(zc, complex(z).conjugate())
    # z * conj(z) is real: equals its own conjugate
    p = z * zc
    assert p == cconj(p)
    # the conjugate of x + y G_D is x - y G_D, as G_D is imaginary
    assert cconj(Cyc.make(-8, 1, 2)) == Cyc.make(-8, 1, -2)


def test_as_fraction():
    assert as_fraction(Cyc.make(-3, Fraction(1, 3), 0)) == Fraction(1, 3)
    with pytest.raises(ValueError):
        as_fraction(Cyc.make(-3, 0, 1))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
turns = st.fractions(min_value=0, max_value=1, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(turns, turns, rationals)
def test_ring_axioms_numeric(r1, r2, c):
    n = lcm(r1.denominator, r2.denominator)
    a = root(n, r1) + c
    b = root(n, r2)
    assert approx_eq(a * b, complex(a) * complex(b), tol=1e-7)
    assert approx_eq(a + b, complex(a) + complex(b), tol=1e-7)
    # distributivity, exactly
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(turns)
def test_half_turn_pairs(r):
    # e(r) * e(-r) == 1 exactly, at the conductor of r or a multiple
    for n in (r.denominator, 6 * r.denominator):
        assert root(n, r) * root(n, -r) == 1


# -- differential oracle: every operand through Fraction -------------------
#
# The helpers take the native operation when both operands are exactly int
# or Fraction.  The oracle is the rule they replace: wrap each operand in
# Fraction.

small_ints = st.integers(min_value=-10**6, max_value=10**6)
operands = st.one_of(st.integers(min_value=-3, max_value=3), small_ints,
                     rationals)


def same_value(got, want):
    assert got == want and want == got
    assert hash(got) == hash(want)


@settings(max_examples=200, deadline=None)
@given(operands, operands)
def test_helpers_match_fraction_rule(a, b):
    same_value(cadd(a, b), Fraction(a) + Fraction(b))
    same_value(cmul(a, b), Fraction(a) * Fraction(b))
    same_value(cmul(a, -1), -Fraction(a))


def test_helpers_refuse_an_irrational_value():
    # cadd and cmul take ints and Fractions only: a Cyc has no arithmetic
    g = Cyc.make(-4, 0, 1)
    for op in (cadd, cmul):
        for args in ((g, 1), (1, g), (g, g)):
            with pytest.raises(TypeError):
                op(*args)


@settings(max_examples=100, deadline=None)
@given(small_ints, small_ints)
def test_int_arithmetic_stays_int(a, b):
    assert type(cadd(a, b)) is int and cadd(a, b) == a + b
    assert type(cmul(a, b)) is int and cmul(a, b) == a * b
    assert type(cmul(a, -1)) is int
    # int and Fraction of one value are interchangeable keys
    assert len({cmul(a, b), Fraction(a) * Fraction(b)}) == 1
    assert cadd(a, -a) == 0


# -- the value x + y G_D ----------------------------------------------------

def test_equal_values_hash_equal():
    # equal by (D, x, y), whatever the types of x and y
    a = Cyc.make(-8, 3, 2)
    b = Cyc.make(-8, Fraction(6, 2), Fraction(2))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert (a.D, a.x, a.y) == (-8, 3, 2)
    assert a != Cyc.make(-8, 3, -2) and a != Cyc.make(-24, 3, 2)


def test_conductor_is_never_2_mod_4():
    # the conductor of Q(sqrt D) is |D|, which a fundamental D never has
    # = 2 mod 4; make refuses every D that is not negative fundamental
    for D in NEG_FUNDAMENTAL:
        assert Cyc.make(D, 0, 1).n == -D and -D % 4 != 2
    for D in (-1, -2, -6, -12, -16, -27, 0, 5, 8, 1):
        with pytest.raises(BadDiscriminant):
            Cyc.make(D, 0, 1)
        with pytest.raises(BadDiscriminant):
            Cyc.make(D, 1, 0)


def test_eq_with_a_non_number_is_false():
    z = Cyc.make(-4, 0, 1)
    assert not z == "x" and z != "x"
    assert not z == None and z != None  # noqa: E711
    assert z != Fraction(1, 2) and z != 0 and 0 != z


def test_values_have_no_operators():
    # cadd, cmul and the series_* functions are the one
    # spelling of each operation
    from mjtheta.series import QSeries
    for cls in (Cyc, QSeries):
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                     "__pow__"):
            assert not hasattr(cls, name), (cls, name)
    with pytest.raises(TypeError):
        Cyc.make(-4, 0, 1) + 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NEG_FUNDAMENTAL), rationals, rationals)
def test_coordinates_are_the_reduced_gauss_sum(D, x, y):
    # c is the oracle's reduction of x + y sum_b (D/b) zeta^(-b) modulo
    # Phi_|D|
    v = Cyc.make(D, x, y)
    want = gauss_sum(D) * y + x
    assert Cyclotomic.of(v, -D).c == want.c
    if y:
        assert v.c == want.c and len(v.c) == len(cyclotomic_poly(-D)) - 1
