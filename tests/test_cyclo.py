import cmath
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from mjtheta.arith import divisors
from mjtheta.cyclo import (
    Cyc, ex, cyclotomic_poly, cadd, cmul, _lift, _reduce_mod_phi,
)

from product_oracles import cinv

# float-embedding oracle: every exact identity is cross-checked numerically


def approx_eq(a, b, tol=1e-9):
    return abs(complex(a) - complex(b)) < tol


def emb(x):
    """The complex float approximation of an exact value, zeta_n at
    exp(2 pi i / n)."""
    if not isinstance(x, Cyc):
        return complex(Fraction(x))
    z = cmath.exp(2j * cmath.pi / x.n)
    return sum(float(c) * z ** i for i, c in enumerate(x.c))


def as_fraction(a):
    """Oracle: a as a Fraction, or ValueError if it is irrational."""
    if isinstance(a, Cyc):
        raise ValueError(f"not rational: {a!r}")
    return Fraction(a)


def cconj(a):
    """Oracle: the complex conjugate, zeta_n -> zeta_n^-1."""
    if not isinstance(a, Cyc):
        return Fraction(a)
    out = [0] * a.n
    for i, x in enumerate(a.c):
        out[-i % a.n] += x
    return Cyc.make(a.n, out)


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_ex_basic():
    assert ex(0) == 1
    assert ex(1) == 1
    assert ex(Fraction(1, 2)) == -1
    assert ex(Fraction(1, 5)) != 0
    z4 = ex(Fraction(1, 4))
    assert isinstance(z4, Cyc)
    assert approx_eq(emb(z4), 1j)
    assert cmul(z4, z4) == -1


def test_roots_of_unity_order():
    for den in (3, 5, 8, 12, 24):
        z = ex(Fraction(1, den))
        acc = Fraction(1)
        for _ in range(den):
            acc = cmul(acc, z)
        assert acc == 1
        assert approx_eq(emb(z), cmath.exp(2j * cmath.pi / den))


def test_rational_demotion():
    z = ex(Fraction(1, 6))
    w = ex(Fraction(-1, 6))
    p = cmul(z, w)
    assert not isinstance(p, Cyc)
    assert p == 1


def test_conductor_mixing():
    a = ex(Fraction(1, 3))
    b = ex(Fraction(1, 4))
    p = cmul(a, b)
    assert approx_eq(emb(p), cmath.exp(2j * cmath.pi * (1 / 3 + 1 / 4)))
    s = cadd(a, b)
    assert approx_eq(emb(s),
                     cmath.exp(2j * cmath.pi / 3) + cmath.exp(2j * cmath.pi / 4))


def test_inverse():
    # the oracle cinv, which the fit oracles of test_borcherds solve with
    for den, num in [(5, 2), (7, 3), (8, 1), (12, 5)]:
        z = cadd(ex(Fraction(num, den)), Fraction(3, 2))
        zi = cinv(z)
        assert cmul(z, zi) == 1
        assert approx_eq(emb(zi), 1 / emb(z))


def test_conjugate():
    z = cadd(ex(Fraction(1, 7)), ex(Fraction(2, 7)))
    zc = cconj(z)
    assert approx_eq(emb(zc), emb(z).conjugate())
    # z * conj(z) is real: equals its own conjugate
    p = cmul(z, zc)
    assert p == cconj(p)


def test_as_fraction():
    # a rational product of roots of unity is demoted to a rational
    assert as_fraction(cmul(ex(Fraction(1, 3)), ex(Fraction(2, 3)))) == 1
    with pytest.raises(ValueError):
        as_fraction(ex(Fraction(1, 3)))


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
roots = st.fractions(min_value=0, max_value=1, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(roots, roots, rationals)
def test_ring_axioms_numeric(r1, r2, c):
    a = cadd(ex(r1), c)
    b = ex(r2)
    assert approx_eq(emb(cmul(a, b)), emb(a) * emb(b), tol=1e-7)
    assert approx_eq(emb(cadd(a, b)), emb(a) + emb(b), tol=1e-7)
    # distributivity, exactly
    lhs = cmul(a, cadd(b, c))
    rhs = cadd(cmul(a, b), cmul(a, c))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(roots)
def test_half_turn_pairs(r):
    # ex(r) * ex(-r) == 1 exactly, whatever the conductor
    assert cmul(ex(r), ex(-r)) == 1


# -- differential oracle: every operand through Fraction -------------------
#
# The helpers take the native operation when both operands are exactly int
# or Fraction.  The oracle is the rule they replace: wrap each rational
# operand in Fraction, and lift Cyc operands to the lcm conductor.

def _conductor(x):
    return x.n if isinstance(x, Cyc) else 1


def slow_add(a, b):
    if not isinstance(a, Cyc) and not isinstance(b, Cyc):
        return Fraction(a) + Fraction(b)
    n = lcm(_conductor(a), _conductor(b))
    return Cyc.make(n, [x + y for x, y in zip(_lift(a, n), _lift(b, n))])


def slow_mul(a, b):
    if not isinstance(a, Cyc) and not isinstance(b, Cyc):
        return Fraction(a) * Fraction(b)
    n = lcm(_conductor(a), _conductor(b))
    ca, cb = _lift(a, n), _lift(b, n)
    prod = [Fraction(0)] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        for j, y in enumerate(cb):
            prod[i + j] += x * y
    return Cyc.make(n, prod)


small_ints = st.integers(min_value=-10**6, max_value=10**6)
operands = st.one_of(
    st.integers(min_value=-3, max_value=3),
    small_ints,
    rationals,
    st.builds(lambda r, c: cadd(ex(r), c), roots, rationals),
)


def same_value(got, want):
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert isinstance(got, Cyc) == isinstance(want, Cyc)


@settings(max_examples=200, deadline=None)
@given(operands, operands)
def test_helpers_match_fraction_rule(a, b):
    same_value(cadd(a, b), slow_add(a, b))
    same_value(cmul(a, b), slow_mul(a, b))
    same_value(cmul(a, -1), slow_mul(a, -1))
    if a != 0:
        inv = cinv(a)
        assert cmul(a, inv) == 1
        if not isinstance(a, Cyc):
            same_value(inv, 1 / Fraction(a))


@settings(max_examples=100, deadline=None)
@given(small_ints, small_ints)
def test_int_arithmetic_stays_int(a, b):
    assert type(cadd(a, b)) is int and cadd(a, b) == a + b
    assert type(cmul(a, b)) is int and cmul(a, b) == a * b
    assert type(cmul(a, -1)) is int
    # int and Fraction of one value are interchangeable keys
    assert len({cmul(a, b), Fraction(a) * Fraction(b)}) == 1
    assert cadd(a, -a) == 0


# -- the normal form: every Cyc at its minimal conductor -------------------

def test_equal_values_hash_equal_across_conductors():
    # the product passes through conductor 120 and lands back in Q(i)
    a = cmul(cmul(ex(Fraction(1, 4)), ex(Fraction(1, 120))),
             ex(Fraction(-1, 120)))
    b = ex(Fraction(1, 4))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert (a.n, a.c) == (4, (0, 1))


def test_conductor_is_never_2_mod_4():
    assert ex(Fraction(1, 6)).n == 3
    assert ex(Fraction(1, 10)) == cmul(cmul(ex(Fraction(1, 5)),
                                            ex(Fraction(2, 5))), -1)
    assert ex(Fraction(1, 50)).n == 25


def test_eq_with_a_non_number_is_false():
    z = ex(Fraction(1, 4))
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
        ex(Fraction(1, 4)) + 1


# Oracle: the divisor-by-divisor linear solve that the prime-by-prime descent
# of Cyc.make replaced, with no cutoff on the size of the field.  The value
# with coordinates c at conductor n lies in Q(zeta_d) when c is a rational
# combination of the embedded powers zeta_d^i = zeta_n^{i n/d}; the least such
# divisor d > 1 is the minimal conductor.

def _solve_in_subfield(c, d, n):
    """y with sum_i y_i zeta_d^i == c at conductor n, or None."""
    emb = [_reduce_mod_phi([Fraction(0)] * (i * n // d) + [Fraction(1)], n)
           for i in range(len(cyclotomic_poly(d)) - 1)]
    rows = [[e[j] for e in emb] + [c[j]] for j in range(len(c))]
    piv, where = 0, []
    for col in range(len(emb)):
        sel = next((r for r in range(piv, len(rows)) if rows[r][col]), None)
        if sel is None:
            where.append(None)
            continue
        rows[piv], rows[sel] = rows[sel], rows[piv]
        rows[piv] = [x / rows[piv][col] for x in rows[piv]]
        for r in range(len(rows)):
            if r != piv and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv])]
        where.append(piv)
        piv += 1
    if any(rows[r][-1] for r in range(piv, len(rows))):
        return None
    return tuple(rows[w][-1] if w is not None else Fraction(0)
                 for w in where)


def oracle_make(n, coeffs):
    c = _reduce_mod_phi([Fraction(x) for x in coeffs], n)
    if not any(c[1:]):
        return c[0]
    for d in divisors(n)[1:]:
        y = _solve_in_subfield(c, d, n)
        if y is not None:
            return d, y


# phi(n) > 16, and n = 2 mod 4, where Q(zeta_n) = Q(zeta_{n/2})
CONDUCTORS = (38, 45, 50, 54, 56, 60, 66, 70, 72, 84, 90, 120)


@st.composite
def subfield_sums(draw):
    """(n, coefficients at n) of a sum of roots of unity drawn from one or
    two subfields Q(zeta_d), d | n, so that the minimal conductor varies."""
    n = draw(st.sampled_from(CONDUCTORS))
    coeffs = [0] * n
    for d in draw(st.lists(st.sampled_from(divisors(n)), min_size=1,
                           max_size=2)):
        for k, a in draw(st.lists(st.tuples(st.integers(0, d - 1),
                                            st.integers(-3, 3)),
                                  min_size=1, max_size=5)):
            coeffs[k * (n // d)] += a
    return n, coeffs


@settings(max_examples=150, deadline=None)
@given(subfield_sums())
def test_make_matches_the_subfield_solve(nc):
    n, coeffs = nc
    got, want = Cyc.make(n, coeffs), oracle_make(n, coeffs)
    if isinstance(want, tuple):
        assert isinstance(got, Cyc) and (got.n, got.c) == want
    else:
        assert got == want and not isinstance(got, Cyc)
    # the same value entered at twice the conductor has the same normal form
    twice = [0] * (2 * n)
    twice[::2] = coeffs
    same_value(Cyc.make(2 * n, twice), got)
