import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from mjtheta.arith import is_fundamental, kronecker
from mjtheta.borcherds import (
    QuadForm, automorphs, enumerate_heegner, fit_case, fit_rational,
    gamma0_equivalent, genus_char, heegner_divisor, psi_expand, reduce_form,
)
from mjtheta.catalog import get_lambency
from mjtheta.cyclo import cconj, ceq, ciszero, cmul, csub, ex
from mjtheta.errors import (
    BadDiscriminant, CongruenceViolation, ExcludedDiscriminant,
    InsufficientDepth, NoRepresentativeFound, NoSolutionWithinDegree,
    Underdetermined,
)
from mjtheta.eta import eta_expand
from mjtheta.jacobi import CoeffTable
from mjtheta.series import QSeries

rng = random.Random(20260824)


def class_number(D):
    """Independent level-1 oracle: count classically reduced forms
    |B| <= A <= C, B >= 0 when |B| = A or A = C."""
    count = 0
    for A in range(1, isqrt(abs(D) // 3) + 1):
        for B in range(-A, A + 1):
            if (B * B - D) % (4 * A):
                continue
            C = (B * B - D) // (4 * A)
            if C < A:
                continue
            if B < 0 and (A == C or A == -B):
                continue
            count += 1
    return count


# -- Kronecker symbol -----------------------------------------------------

def test_kronecker_basics():
    assert all(kronecker(1, b) == 1 for b in range(-20, 21) if b != 0)
    assert kronecker(-20, 3) == 1
    assert kronecker(-20, 5) == 0
    assert kronecker(-4, -1) == -1
    assert kronecker(5, -1) == 1


def test_kronecker_bad_discriminant():
    for D in (0, 2, 3, -1, -2, 7):
        with pytest.raises(BadDiscriminant):
            kronecker(D, 3)


def test_kronecker_multiplicative_and_periodic():
    for _ in range(200):
        D = rng.choice([d for d in range(-60, 61)
                        if d and d % 4 in (0, 1)])
        a, b = rng.randint(-50, 50), rng.randint(-50, 50)
        assert kronecker(D, a * b) == kronecker(D, a) * kronecker(D, b)
        if a > 0:
            assert kronecker(D, a) == kronecker(D, a + 10 * abs(D))


def test_kronecker_prime_rule():
    # (D/p) = 1 iff D is a nonzero square mod 4p, 0 iff p | D
    primes = [p for p in range(2, 100)
              if all(p % q for q in range(2, p))]
    for D in range(-99, 100):
        if D == 0 or D % 4 not in (0, 1):
            continue
        for p in primes:
            want = 0 if D % p == 0 else \
                (1 if any((x * x - D) % (4 * p) == 0
                          for x in range(4 * p)) else -1)
            assert kronecker(D, p) == want, (D, p)


# -- reduction and automorphs ---------------------------------------------

def test_reduce_form_tracks_matrix():
    for _ in range(50):
        A = rng.randint(1, 30)
        B = rng.randint(-40, 40)
        C = rng.randint(1, 40)
        Q = QuadForm(A, B, C)
        if Q.disc >= 0:
            continue
        R, g = reduce_form(Q)
        assert Q.transform(g) == R
        assert -R.A < R.B <= R.A <= R.C
        R2, g2 = reduce_form(R)
        assert R2 == R and g2 == (1, 0, 0, 1)


def test_automorph_orders():
    assert len(automorphs(QuadForm(1, 0, 1))) == 4
    assert len(automorphs(QuadForm(1, 1, 1))) == 6
    assert len(automorphs(QuadForm(1, 0, 2))) == 2


# -- Heegner enumeration --------------------------------------------------

def test_class_counts_level_one():
    for D, h in [(-4, 1), (-8, 1), (-15, 2), (-20, 2), (-23, 3)]:
        r = next(r for r in range(2) if (D - r * r) % 4 == 0)
        assert len(enumerate_heegner(1, D, r)) == h == class_number(D)


def test_class_counts_level_m_vs_one():
    # D fundamental, odd, coprime to 4m: level-m count equals h(D)
    pairs = []
    while len(pairs) < 10:
        m = rng.choice([2, 3, 5, 6, 7, 10, 12, 15])
        D = rng.choice([-3, -7, -11, -23, -31, -47, -59, -71])
        if gcd(D, 4 * m) != 1:
            continue
        rs = [r for r in range(2 * m) if (D - r * r) % (4 * m) == 0]
        if not rs:
            continue
        pairs.append((m, D, rs[0]))
    for m, D, r in pairs:
        assert len(enumerate_heegner(m, D, r)) == class_number(D), (m, D, r)


def test_class_count_invariant_under_group():
    m = 6
    for a in (1, 5, 7, 11):
        assert len(enumerate_heegner(m, -20, (2 * a) % 12)) == 2


def test_enumerate_congruence_violation():
    with pytest.raises(CongruenceViolation):
        enumerate_heegner(6, -8, 2)


def test_stabilizer_orders():
    assert [s for _q, s in enumerate_heegner(6, -20, 2)] == [2, 2]
    # D = -4 carries the order-4 automorph into Gamma_0(10)
    assert [s for _q, s in enumerate_heegner(10, -4, 6)] == [4]


# -- genus character ------------------------------------------------------

def test_genus_char_trivial_D():
    assert genus_char(QuadForm(6, 2, 1), 1, 6) == 1


def test_genus_char_orbit_invariance():
    Q = QuadForm(6, 2, 1)
    base = genus_char(Q, -20, 6)
    mats = [(1, 1, 0, 1), (1, 0, 6, 1), (5, 2, 12, 5), (1, -3, 0, 1)]
    for g in mats:
        a, b, c, d = g
        assert a * d - b * c == 1 and c % 6 == 0
        assert genus_char(Q.transform(g), -20, 6) == base


def test_genus_char_values_frozen():
    # derived by the definitional bounded search; both classes positive
    for Q, _s in enumerate_heegner(6, -20, 2):
        assert genus_char(Q, -20, 6) == 1


def test_genus_char_search_exhaustion():
    with pytest.raises(NoRepresentativeFound):
        genus_char(QuadForm(6, 2, 1), -20, 6, bound=0)


# -- psi expansion --------------------------------------------------------

def test_psi_first_coefficient_oracle():
    # q^1 coefficient of prod_b (1 - ex(b/D) q)^{(D/b) C} is
    # -C * sum_b (D/b) ex(b/D)
    D, r, C1 = -20, 2, 16
    psi = psi_expand("6+2", D, r)
    want = 0
    for b in range(1, abs(D)):
        k = kronecker(D, b)
        if k:
            want = csub(want, cmul(k * C1, ex(Fraction(b, D))))
    assert ceq(psi.coeff(1), want)


def test_psi_real_form():
    # conjugation composed with b -> -b inverts the product, so
    # psi * conj(psi) = 1 exactly (the "modulus one" real-form check)
    from mjtheta.series import series_mul
    for sym, D, r in [("6+2", -20, 2), ("10+2", -4, 6), ("12+3", -15, 9)]:
        psi = psi_expand(sym, D, r)
        conj = QSeries({k: cconj(v) for k, v in psi.coeffs.items()},
                       psi.order, psi.den)
        prod = series_mul(psi, conj)
        assert prod.items() == [(0, 1)]


def test_psi_zero_table_is_one():
    zero = CoeffTable(6, -1, {}, {r: (-10 ** 6, 10 ** 6)
                                  for r in range(7)})
    psi = psi_expand("6+2", -20, 2, order=10, table=zero)
    assert psi.items() == [(0, 1)]


def test_psi_window_records_depth():
    # 6+2 tables reach n <= 15, so C(-20 n^2, 2n) is known for n <= 4
    psi = psi_expand("6+2", -20, 2)
    assert psi.order == 5
    capped = psi_expand("6+2", -20, 2, order=3)
    assert capped.order == 3


def test_psi_excluded_discriminant():
    with pytest.raises(ExcludedDiscriminant):
        psi_expand("21+3", -3, 9)


def test_psi_bad_inputs():
    with pytest.raises(BadDiscriminant):
        psi_expand("6+2", -12, 2)
    with pytest.raises(CongruenceViolation):
        psi_expand("6+2", -8, 2)


def test_heegner_needs_negative_discriminant():
    with pytest.raises(BadDiscriminant):
        enumerate_heegner(6, 1, 1)


def test_psi_structural_zero_orbit_raises():
    # r n mod 12 runs through 3, 6, 9, 0: residue 3 vanishes under K of
    # 6+2 and 0, 6 by antisymmetry, so no read ever runs out of depth
    with pytest.raises(ExcludedDiscriminant, match=r"6\+2 D=-15 r=3"):
        psi_expand("6+2", -15, 3)
    # an explicit order still truncates the (trivial) product
    assert psi_expand("6+2", -15, 3, order=6).items() == [(0, 1)]


# -- rational fitting -----------------------------------------------------

def T_series(order=30):
    return eta_expand(get_lambency("6+2").eta, order)


def test_fit_identity():
    T = T_series()
    P, Q = fit_rational(T, T, 2)
    assert Q == [1] and P == [0, 1]


def test_fit_constant():
    c = QSeries({0: Fraction(7)}, 25)
    P, Q = fit_rational(c, T_series(), 2)
    assert Q == [1] and P == [Fraction(7)]


def test_fit_underdetermined():
    short = QSeries({0: 1, 1: 5}, 3)
    with pytest.raises(Underdetermined):
        fit_rational(short, T_series(), 4)


def test_fit_no_solution():
    # a series with pseudorandom coefficients is not low-degree rational in T
    f = QSeries({k: rng.randint(1, 9) for k in range(20)}, 20)
    with pytest.raises(NoSolutionWithinDegree):
        fit_rational(f, T_series(), 2)


FIT_CASES = [
    ("10+2", -4, 6, 1),
    ("6+2", -8, 4, 2),
    ("18+2", -8, 8, 2),
    ("33+11", -8, 28, 2),
    ("15+5", -11, 7, 2),
]


@pytest.mark.parametrize("sym,D,r,deg", FIT_CASES)
def test_fit_cases(sym, D, r, deg):
    rep = fit_case(sym, D, r)
    assert len(rep["P"]) - 1 == len(rep["Q"]) - 1 == deg
    assert rep["Q"][-1] == 1 and rep["P"][-1] == 1
    # real product: numerator and denominator are complex conjugates
    for p, q in zip(rep["P"], rep["Q"]):
        assert ciszero(csub(p, cconj(q))), (sym, p, q)


def test_fit_case_frozen_gaussian():
    rep = fit_case("10+2", -4, 6)
    i = ex(Fraction(1, 4))
    assert ceq(rep["P"][0], 3 + cmul(4, i))
    assert ceq(rep["Q"][0], csub(3, cmul(4, i)))


def test_fit_case_beyond_depth():
    # the 6+2 table reaches only n = 4 for D = -20, leaving a 5-coefficient
    # window; the divisor needs more degrees of freedom than that supports
    psi = psi_expand("6+2", -20, 2)
    T = eta_expand(get_lambency("6+2").eta, 10)
    with pytest.raises(NoSolutionWithinDegree):
        fit_rational(psi, T, 1)


def test_heegner_divisor_weights():
    div = heegner_divisor("6+2", -20, 2)
    assert [w for _q, w in div] == [Fraction(-4), Fraction(-4)]
