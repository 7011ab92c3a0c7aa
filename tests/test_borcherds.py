import os
import random
import runpy
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from math import gcd, inf, isqrt, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mjtheta import borcherds, cyclo, series
from mjtheta.arith import divisors, is_fundamental, kronecker
from mjtheta.borcherds import (
    QuadForm, enumerate_heegner, fit_case, genus_char, heegner_divisor,
    psi_expand,
)
from mjtheta.catalog import MULT_RELATIONS, get_lambency, load_catalog
from mjtheta.cyclo import Cyc
from mjtheta.errors import (
    BadDiscriminant, CongruenceViolation, ExcludedDiscriminant,
    InsufficientDepth, IrrationalPhase, MissingSource, MJTError,
    NoSolutionWithinDegree, Underdetermined,
)
from mjtheta.eta import eta_expand
from mjtheta.jacobi import CoeffTable, stream_combination
from mjtheta.mocktheta import row_names, verify_table14_15
from mjtheta.series import QSeries, series_mul

from jacobi_oracles import random_odd_table
from product_oracles import (
    Cyclotomic, add, cinv, gauss_sum, neg, pair_mul, power, root,
)
from series_terms import from_terms

rng = random.Random(20260824)


def as_fraction(a):
    """Oracle: a value of the oracle field as a Fraction, or ValueError if
    it is irrational."""
    x = a.rational()
    if x is None:
        raise ValueError(f"not rational: {a!r}")
    return x


def field(v, D):
    """A package value (int, Fraction or Cyc of Q(sqrt D)) in the oracle
    field Q(zeta_|D|)."""
    return Cyclotomic.of(v, -D)


def field_series(s, D):
    return QSeries({k: field(v, D) for k, v in s.coeffs.items()}, s.order,
                   s.den)


def mat_mul(g, h):
    a, b, c, d = g
    p, q, r, s = h
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def mat_inv(g):
    a, b, c, d = g
    return (d, -b, -c, a)


def reduce_form(Q):
    """Oracle: (reduced form R, g) with Q|g = R, for positive definite Q."""
    g = (1, 0, 0, 1)
    S = (0, -1, 1, 0)
    while True:
        k = (Q.A - Q.B) // (2 * Q.A)  # puts B in (-A, A]
        if k:
            t = (1, k, 0, 1)
            Q, g = Q.transform(t), mat_mul(g, t)
        if Q.A > Q.C or (Q.A == Q.C and Q.B < 0):
            Q, g = Q.transform(S), mat_mul(g, S)
            continue
        return Q, g


def gamma0_maps(Q1, Q2, m):
    """Oracle: all gamma in Gamma_0(m) with Q1|gamma = Q2.  With
    Q1|g1 = R = Q2|g2 for the reduced form R, every SL_2(Z) transform
    carrying Q1 onto Q2 is g1 u g2^-1 for an automorph u of R, a finite
    set, and membership in Gamma_0(m) is a congruence on the lower-left
    entry."""
    R1, g1 = reduce_form(Q1)
    R2, g2 = reduce_form(Q2)
    if R1 != R2:
        return []
    g2i = mat_inv(g2)
    maps = (mat_mul(mat_mul(g1, u), g2i)
            for u in borcherds._automorphs(R1.key()))
    return [g for g in maps if g[2] % m == 0]


def gamma0_equivalent(Q1, Q2, m):
    """Oracle: some gamma in Gamma_0(m) carries Q1 onto Q2."""
    return bool(gamma0_maps(Q1, Q2, m))


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
        if B * B >= 4 * A * C:
            continue
        R, g = reduce_form(Q)
        assert Q.transform(g) == R
        assert -R.A < R.B <= R.A <= R.C
        R2, g2 = reduce_form(R)
        assert R2 == R and g2 == (1, 0, 0, 1)


def test_automorph_orders():
    assert len(borcherds._automorphs((1, 0, 1))) == 4
    assert len(borcherds._automorphs((1, 1, 1))) == 6
    assert len(borcherds._automorphs((1, 0, 2))) == 2
    # off reduced forms: the reduced form's stabilizer, conjugated back
    for Q, order in [(QuadForm(1, 2, 2), 4), (QuadForm(1, 3, 3), 6),
                     (QuadForm(3, 7, 5), 2), (QuadForm(7, 13, 7), 2)]:
        stab = gamma0_maps(Q, Q, 1)
        assert len(set(stab)) == order
        assert all(Q.transform(g) == Q for g in stab)


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


def pairwise_heegner(m, D, r):
    """enumerate_heegner with every candidate tested against every
    representative by gamma0_equivalent: the oracle for the grouping by
    reduced form."""
    reps = []
    for A in range(m, m * m * abs(D) + 1, m):
        for B in range(-A + 1, A + 1):
            if (B - r) % (2 * m) or (B * B - D) % (4 * A):
                continue
            Q = QuadForm(A, B, (B * B - D) // (4 * A))
            if not any(gamma0_equivalent(Q, P, m) for P, _s in reps):
                reps.append((Q, len(gamma0_maps(Q, Q, m))))
    return sorted(reps, key=lambda qs: qs[0].key())


@pytest.mark.parametrize("m,D,r", [(2, -32, 0), (2, -28, 2), (3, -27, 3),
                                   (6, -32, 4), (10, -16, 8)])
def test_enumerate_matches_pairwise_equivalence(m, D, r):
    reps = enumerate_heegner(m, D, r)
    assert reps == pairwise_heegner(m, D, r)
    # several classes share one reduced form, so the grouping is exercised
    forms = [reduce_form(Q)[0] for Q, _s in reps]
    assert len(set(forms)) < len(forms)


def sweep_heegner(m, D, r):
    """The A-sweep enumerate_heegner replaced, as its oracle: A = m, 2m,
    ..., m^2 |D|, and for each A the A/m values B = r mod 2m in (-A, A];
    a candidate is a new representative unless gamma0_maps carries it onto
    an earlier one of the same reduced form."""
    r %= 2 * m
    reps = []
    by_form = {}
    for A in range(m, m * m * abs(D) + 1, m):
        b0 = ((r + A) % (2 * m)) - A
        if b0 <= -A:
            b0 += 2 * m
        for B in range(b0, A + 1, 2 * m):
            if (B * B - D) % (4 * A):
                continue
            Q = QuadForm(A, B, (B * B - D) // (4 * A))
            same = by_form.setdefault(reduce_form(Q)[0], [])
            if any(gamma0_maps(Q, P, m) for P in same):
                continue
            same.append(Q)
            reps.append((Q, len(gamma0_maps(Q, Q, m))))
    reps.sort(key=lambda qs: qs[0].key())
    return reps


def residues(m, D):
    return [r for r in range(2 * m) if (D - r * r) % (4 * m) == 0]


# every (m, D) with m <= 60 and -60 <= D <= -3, fundamental or not, that
# has a residue r and a sweep of at most 4 10^6 candidates over all of
# them: 498 pairs, 178 of them at levels with several prime factors
SWEEPABLE = [(m, D) for m in range(1, 61) for D in range(-60, -2)
             if residues(m, D)
             and m * m * D * D * len(residues(m, D)) <= 4 * 10 ** 6]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SWEEPABLE))
def test_enumerate_matches_the_sweep(case):
    m, D = case
    for r in residues(m, D):
        assert enumerate_heegner(m, D, r) == sweep_heegner(m, D, r), \
            (m, D, r)


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
    # derived by the residue computation and the bounded search alike;
    # both classes positive
    for Q, _s in enumerate_heegner(6, -20, 2):
        assert genus_char(Q, -20, 6) == 1


class BoxExhausted(Exception):
    """The bounded search found no represented value prime to D."""


def bounded_genus_char(Q, D, m, bound=10 ** 4):
    """Oracle: chi_D(Q) by the search genus_char replaced, over values
    0 < v <= bound in a box of side 2 isqrt(bound) + 3; raises
    BoxExhausted when the box runs out."""
    if gcd(gcd(Q.A // m, Q.B), gcd(Q.C, D)) != 1:
        return 0
    span = isqrt(bound) + 1
    for n in divisors(m):
        F = QuadForm(Q.A // n, Q.B, Q.C * n)
        for x in range(-span, span + 1):
            for y in range(-span, span + 1):
                v = F.value(x, y)
                if 0 < v <= bound and gcd(v, D) == 1:
                    return kronecker(D, v)
    raise BoxExhausted(f"chi_{D}({Q}) at level {m}, bound {bound}")


def assert_genus_char_matches_the_bounded_search(Q, D, m):
    got = genus_char(Q, D, m)
    try:
        want = bounded_genus_char(Q, D, m)
    except BoxExhausted:
        assert got in (-1, 0, 1)
        return got
    assert got == want, (Q, D, m)
    return got


def test_genus_char_of_a_box_the_search_misses():
    # the bounded search at bound 0 finds nothing; the residue box does
    Q = QuadForm(6, 2, 1)
    with pytest.raises(BoxExhausted):
        bounded_genus_char(Q, -20, 6, bound=0)
    assert genus_char(Q, -20, 6) == 1


def gkz_forms(count):
    """count seeded random forms Q = [A, B, C], m | A, of discriminant
    D0 D1 with B = r0 r1 mod 2m, D0 = r0^2 and D1 = r1^2 mod 4m: the
    setting in which chi_D0(Q) is independent of n and v (GKZ, I.2).
    D0 is fundamental, D1 any discriminant of the opposite sign, so the
    characters take the values -1, 0 and 1."""
    gen = random.Random(20261019)
    fund = [d for d in range(-40, 41) if d and is_fundamental(d)]
    discs = [d for d in range(-40, 41) if d and d % 4 in (0, 1)]
    out = []
    while len(out) < count:
        m, D0, D1 = gen.randint(1, 8), gen.choice(fund), gen.choice(discs)
        r0s, r1s = ([r for r in range(2 * m) if (d - r * r) % (4 * m) == 0]
                    for d in (D0, D1))
        if D0 * D1 > 0 or not r0s or not r1s:
            continue
        A = m * gen.randint(1, 12)
        B = gen.choice(r0s) * gen.choice(r1s) % (2 * m) \
            + 2 * m * gen.randint(-10, 9)
        if (B * B - D0 * D1) % (4 * A) == 0:
            out.append((QuadForm(A, B, (B * B - D0 * D1) // (4 * A)), D0, m))
    return out


def test_genus_char_matches_the_bounded_search_off_heegner_forms():
    values = {assert_genus_char_matches_the_bounded_search(Q, D, m)
              for Q, D, m in gkz_forms(400)}
    assert values == {-1, 0, 1}


# -- psi expansion --------------------------------------------------------

def test_psi_first_coefficient_oracle():
    # q^1 coefficient of prod_b (1 - e(b/D) q)^{(D/b) C} is
    # -C * sum_b (D/b) e(b/D)
    D, r, C1 = -20, 2, 16
    psi = psi_expand("6+2", D, r)
    want = sum(root(-D, Fraction(b, D)) * (-kronecker(D, b) * C1)
               for b in range(1, abs(D)))
    assert field(psi.coeff(1), D) == want


def test_psi_real_form():
    # conjugation composed with b -> -b inverts the product, so
    # psi * conj(psi) = 1 exactly (the "modulus one" real-form check)
    for sym, D, r in [("6+2", -20, 2), ("10+2", -4, 6), ("12+3", -15, 9)]:
        psi = field_series(psi_expand(sym, D, r), D)
        conj = QSeries({k: v.conj() for k, v in psi.coeffs.items()},
                       psi.order, psi.den)
        prod = pair_mul(psi, conj)
        assert prod.items() == [(0, 1)]


def test_psi_zero_table_is_one():
    zero = CoeffTable(6, {}, {r: (-10 ** 6, 10 ** 6)
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
    # -32 = 4^2 mod 24 and inside the table, but not fundamental
    with pytest.raises(BadDiscriminant):
        psi_expand("6+2", -32, 4)
    with pytest.raises(CongruenceViolation):
        psi_expand("6+2", -8, 2)
    # a D far beyond the table fails on depth before it is factored
    with pytest.raises(InsufficientDepth):
        psi_expand("6+2", 1 - 24 * 10 ** 40, 1)


def test_heegner_needs_negative_discriminant():
    with pytest.raises(BadDiscriminant):
        enumerate_heegner(6, 1, 1)


def test_psi_structural_zero_orbit_raises():
    # r n mod 12 runs through 3, 6, 9, 0: residue 3 vanishes under K of
    # 6+2 and 0, 6 by antisymmetry, so no read ever runs out of depth
    with pytest.raises(ExcludedDiscriminant, match=r"6\+2 D=-15 r=3"):
        psi_expand("6+2", -15, 3)
    # so does an explicit order
    with pytest.raises(ExcludedDiscriminant, match=r"6\+2 D=-15 r=3"):
        psi_expand("6+2", -15, 3, order=6)


# a D of 42 digits takes trial division forever, so each of these must
# fail before is_fundamental sees it: at the structural zeros of r = 3,
# and at the first read, which an order of 1 makes too
HUGE_D = {
    "ExcludedDiscriminant": "psi_expand('6+2', 9 - 24 * 10 ** 40, 3, order=6)",
    "InsufficientDepth": "psi_expand('6+2', 1 - 24 * 10 ** 40, 1, order=1)",
}


def raised_in_a_child(call):
    """The name of the error `call` raises, run in a child with a timeout,
    so that a regression fails and does not hang the suite."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("from math import inf\n"
             "from mjtheta.borcherds import psi_expand\n"
             "from mjtheta.jacobi import CoeffTable\n"
             f"try:\n    {call}\n"
             "except Exception as e:\n    print(type(e).__name__)\n")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("error", HUGE_D)
def test_psi_huge_discriminant_at_an_explicit_order_fails_fast(error):
    assert raised_in_a_child(HUGE_D[error]) == error


def test_psi_huge_discriminant_past_an_unbounded_row_fails_fast():
    # C(D, 1) = 0 comes from a row that never runs out, and C(4D, 2) is
    # past its row: the table reached only structural zeros
    assert raised_in_a_child(
        "psi_expand('6+2', 1 - 24 * 10 ** 40, 1, table=CoeffTable(6, {}, "
        "{1: (-inf, 1), 2: (-100, 4)}))") == "InsufficientDepth"


# -- rational fitting -----------------------------------------------------

def T_series(order=30):
    return eta_expand(get_lambency("6+2").eta, order)


def test_fit_no_solution():
    # R from pseudorandom c_N has norm 1, as every Psi^(1/k) has, but is
    # conj S(T) / S(T) for no monic S
    c = [0] + [rng.randint(-9, 9) for _ in range(19)]
    with pytest.raises(NoSolutionWithinDegree):
        borcherds._fit_coords(*borcherds._psi_coords(c, -4), -4,
                              T_series(), 2)


def test_fit_rejects_a_divisor_of_non_integral_degree(monkeypatch):
    # no catalog case has one; the divisor of (6+2, -8, 4), of degree 2,
    # with its weights divided by 3 has degree 2/3, which no S can have
    divisor = [(Q, w / 3) for Q, w in heegner_divisor("6+2", -8, 4)]
    monkeypatch.setattr(borcherds, "heegner_divisor",
                        lambda *_args: divisor)
    with pytest.raises(NoSolutionWithinDegree, match="degree 2/3"):
        fit_case("6+2", -8, 4)


def test_fit_underdetermined():
    # the 2-coefficient window of (20+4, -119, 11) cannot pin S of degree
    # 20, the degree of its divisor
    with pytest.raises(Underdetermined, match="window of 2 coefficients"):
        fit_case("20+4", -119, 11)


def test_fit_case_beyond_depth():
    # the 6+2 table reaches only n = 4 for D = -20, leaving a 5-coefficient
    # window: its 4 rows are square in the 4 unknowns of S of degree 2, so
    # the solve is unique but no row is left to check it
    for r in (2, 10):
        with pytest.raises(Underdetermined, match="4 rows of rank 4"):
            fit_case("6+2", -20, r)


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
        assert field(p, D) == field(q, D).conj(), (sym, p, q)


def test_fit_case_frozen_gaussian():
    rep = fit_case("10+2", -4, 6)
    i = root(4, Fraction(1, 4))
    assert field(rep["P"][0], -4) == 3 + 4 * i
    assert field(rep["Q"][0], -4) == 3 - 4 * i
    # G_-4 = zeta_4^-1 - zeta_4^-3 = -2i
    assert (rep["P"][0], rep["Q"][0]) == (Cyc.make(-4, 3, -2),
                                          Cyc.make(-4, 3, 2))


def test_heegner_divisor_weights():
    div = heegner_divisor("6+2", -20, 2)
    assert [w for _q, w in div] == [Fraction(-4), Fraction(-4)]


# -- the product and the fit over Q(zeta_|D|): oracles ---------------------

def cyc_product(lam, D, r, order=None):
    """Psi one factor (1 - e(b/D) q^n)^{(D/b) C(Dn^2, rn)} at a time, in
    Q(zeta_|D|): the construction psi_expand replaced, as its oracle."""
    table = get_lambency(lam).fixture
    order = inf if order is None else Fraction(order)
    exponents = []
    n = 1
    while n < order:
        try:
            e = table.get(D * n * n, r * n)
        except InsufficientDepth:
            break
        exponents.append(e)
        n += 1
    window = min(order, Fraction(len(exponents) + 1))
    out = QSeries({0: 1}, window)
    for n, e in enumerate(exponents, start=1):
        if e == 0 or n >= window:
            continue
        for b in range(1, abs(D)):
            k = kronecker(D, b)
            if k == 0:
                continue
            zeta = root(-D, Fraction(b, D))
            factor = from_terms([(0, 1), (n, -zeta)], window)
            out = pair_mul(out, power(factor, k * e))
    return out


def cyc_solve(rows, n_unknowns):
    """Gaussian elimination over Q(zeta_n), free variables set to 0: the
    solver _fit_coords replaced, as its oracle."""
    rows = [list(r) for r in rows]
    pivots = {}
    rank = 0
    for col in range(n_unknowns):
        piv = next((i for i in range(rank, len(rows))
                    if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = cinv(rows[rank][col])
        rows[rank] = [inv * v for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        pivots[col] = rank
        rank += 1
    for row in rows[rank:]:
        if row[-1] != 0:
            return None
    sol = [0] * n_unknowns
    for col, i in pivots.items():
        sol[col] = rows[i][-1]
    return sol, rank


def cyc_fit(psi, T, max_deg):
    """The fit as one linear system over Q(zeta_n) per degree pair:
    returns (P, Q, rank of the accepted system), or raises as the fit
    does."""
    avail = int(psi.order - min([0] + [x for x, _v in psi.items()]))
    if avail < 2 * max_deg + 2:
        raise Underdetermined(f"window of {avail} coefficients")
    Tpow = [QSeries({0: 1}, T.order)]
    for _ in range(max_deg):
        Tpow.append(series_mul(Tpow[-1], T))
    pairs = sorted(((dp, dq) for dp in range(max_deg + 1)
                    for dq in range(max_deg + 1)),
                   key=lambda p: (max(p), p[0] + p[1], p[1]))
    skipped_short = False
    for dp, dq in pairs:
        cols = [pair_mul(psi, Tpow[i]) for i in range(dq)]
        cols += [neg(Tpow[j]) for j in range(dp + 1)]
        rhs = neg(pair_mul(psi, Tpow[dq]))
        window = min(s.order for s in cols + [rhs])
        lo = min(min([0] + [x for x, _v in s.items()]) for s in cols + [rhs])
        xs = range(int(lo), int(window))
        if len(xs) < len(cols):
            skipped_short = True
            continue
        rows = [[s.coeff(x) for s in cols] + [rhs.coeff(x)] for x in xs]
        solved = cyc_solve(rows, len(cols))
        if solved is None:
            continue
        sol, rank = solved
        if all(row[-1] == sum(a * x for a, x in zip(row[:-1], sol))
               for row in rows):
            return list(sol[dq:]), list(sol[:dq]) + [1], rank
    if skipped_short:
        raise Underdetermined("every admissible degree pair lacked rows")
    raise NoSolutionWithinDegree(f"no fit with degrees <= {max_deg}")


def split(v, D):
    """(x, y) with v = x + y G, G the Gauss sum of D (G^2 = D, conj G =
    -G): x = (v + conj v) / 2, y = (v - conj v) / 2G, for a package value
    or one of the oracle field."""
    v = field(v, D)
    x = (v + v.conj()) * Fraction(1, 2)
    y = (v - v.conj()) * Fraction(1, 2) * gauss_sum(D).inverse()
    return as_fraction(x), as_fraction(y)


SWEEP = [(lam.symbol, D, r) for lam in load_catalog()
         if lam.fixture is not None
         for D in range(-24, -2) if is_fundamental(D)
         for r in range(2 * lam.m) if (D - r * r) % (4 * lam.m) == 0]


def test_gauss_sum_squares_to_D():
    for D in sorted({D for _s, D, _r in SWEEP}):
        # G's coordinates are the oracle's reduction of
        # sum_b (D/b) zeta^(-b) modulo Phi_|D|
        G = Cyc.make(D, 0, 1)
        assert G.n == -D and field(G, D) == gauss_sum(D)
        assert gauss_sum(D) * gauss_sum(D) == D


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SWEEP), st.integers(min_value=1, max_value=8))
def test_psi_matches_the_cyclotomic_product(case, order):
    sym, D, r = case
    try:
        psi = psi_expand(sym, D, r, order=order)
    except ExcludedDiscriminant:
        return
    want = cyc_product(sym, D, r, order)
    assert psi.order == want.order
    assert field_series(psi, D).coeffs == want.coeffs
    for v in psi.coeffs.values():
        x, y = split(v, D)
        assert (2 * x).denominator == (2 * y).denominator == 1
        if D % 4 == 0:
            assert x.denominator == y.denominator == 1


def test_psi_fractional_order_keeps_its_window():
    # every coefficient below q^(7/2) is justified, q^3 included
    psi = psi_expand("10+2", -4, 6, order=Fraction(7, 2))
    assert psi.order == Fraction(7, 2)
    assert psi.coeffs == cyc_product("10+2", -4, 6, 4).coeffs


def test_psi_coordinates_are_half_integers():
    # the whole window of every sweep case: 2x, 2y are ints, so L is 1
    # or 2, and x, y are ints when 4 | D
    for sym, D, r in SWEEP:
        try:
            c, window = borcherds._psi_log(sym, D, r)
        except (ExcludedDiscriminant, InsufficientDepth):
            continue
        X, Y, L = borcherds._psi_coords(c, D)
        assert len(X) == len(Y) == int(window) and X[0] == L
        assert L in (1, 2)
        if D % 4 == 0:
            assert L == 1, (sym, D, r)
        psi = psi_expand(sym, D, r)
        assert all(psi.coeff(N) == Cyc.make(D, Fraction(X[N], L),
                                            Fraction(Y[N], L))
                   for N in range(len(X)))


def psi_coords_by_fractions(c, D, k=1):
    """Oracle: the coordinates x_N, y_N of Psi^(1/k) for the c_N of
    _psi_log, as lists of Fractions, from x_0 = 1, y_0 = 0 and
    N k x_N = -D sum_j c_j y_{N-j}, N k y_N = -sum_j c_j x_{N-j}: the
    recurrence _psi_coords runs in integers over one denominator."""
    X, Y = [Fraction(1)], [Fraction(0)]
    for N in range(1, len(c)):
        cs = c[N:0:-1]
        xN = Fraction(-D * sum(a * y for a, y in zip(cs, Y)), N * k)
        Y.append(Fraction(-sum(a * x for a, x in zip(cs, X)), N * k))
        X.append(xN)
    return X, Y


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=25),
       st.integers(max_value=-1, min_value=-200),
       st.integers(min_value=1, max_value=4))
def test_psi_coords_match_the_fraction_recurrence(c, D, k):
    c = [0] + c[1:]  # c_0 = 0, as _psi_log gives it
    X, Y, L = borcherds._psi_coords(c, D, k)
    want_X, want_Y = psi_coords_by_fractions(c, D, k)
    assert all(type(v) is int for v in X + Y + [L])
    assert [Fraction(v, L) for v in X] == want_X
    assert [Fraction(v, L) for v in Y] == want_Y
    assert L == lcm(*(v.denominator for v in want_X + want_Y))


@pytest.mark.parametrize("sym,D,r,k", [("6+2", -8, 4, 2), ("6+2", -20, 2, 2),
                                       ("10+2", -4, 6, 3)])
def test_psi_coords_take_the_kth_root(sym, D, r, k):
    # the coordinates from c_N / k are those of a k-th root of Psi
    c, window = borcherds._psi_log(sym, D, r)
    G = gauss_sum(D)
    X, Y, L = borcherds._psi_coords(c, D, k)
    R = QSeries({N: Fraction(x, L) + Fraction(y, L) * G
                 for N, (x, y) in enumerate(zip(X, Y))}, window)
    assert power(R, k).coeffs == \
        field_series(psi_expand(sym, D, r), D).coeffs


BENCH_FITS = [("10+2", -4, 6), ("6+2", -8, 4), ("18+2", -8, 8),
              ("33+11", -8, 28), ("15+5", -11, 7), ("15+5", -11, 13),
              ("28+7", -7, 21), ("33+11", -8, 16), ("33+11", -11, 11)]


@pytest.mark.parametrize("sym,D,r", BENCH_FITS)
def test_fit_case_matches_the_cyclotomic_fit(sym, D, r):
    rep = fit_case(sym, D, r)
    psi = psi_expand(sym, D, r)
    T = eta_expand(get_lambency(sym).eta, psi.order + rep["max_deg"] + 1)
    P, Q, _rank = cyc_fit(field_series(psi, D), T, rep["max_deg"])
    assert ([field(v, D) for v in rep["P"]], [field(v, D) for v in rep["Q"]],
            rep["window"]) == (P, Q, psi.order)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_root(Q, k):
    """Oracle: the monic S with S^k = Q, one coefficient at a time from
    the top (S^k has k s_(e-i) + terms in s_(e-1) .. s_(e-i+1) at
    T^(ke-i)); None if Q is no k-th power."""
    e = (len(Q) - 1) // k
    S = [0] * e + [1]
    for i in range(1, e + 1):
        Sk = reduce(poly_mul, [S] * k)
        S[e - i] = (Q[k * e - i] - Sk[k * e - i]) * Fraction(1, k)
    Sk = reduce(poly_mul, [S] * k)
    return S if all(a == b for a, b in zip(Sk, Q)) else None


# the fits the 7-coefficient windows of the shipped 12+3 table decide at
# the divisor's degree 4: Psi = conj S(T)^2 / S(T)^2, deg S = 2, with 6
# rows for 4 unknowns
@pytest.mark.parametrize("sym,D,r", [("12+3", -15, 9), ("12+3", -15, 15)])
def test_fit_case_decides_the_divisor_shape(sym, D, r):
    rep = fit_case(sym, D, r)
    P, Q = ([field(v, D) for v in rep[s]] for s in ("P", "Q"))
    assert rep["max_deg"] == len(P) - 1 == len(Q) - 1 == 4
    # Q(T) Psi - P(T) = 0 on its whole window, Psi from the oracle product
    psi = cyc_product(sym, D, r)
    assert psi.order == rep["window"]
    T = eta_expand(get_lambency(sym).eta, psi.order + 4)
    Tpow = [QSeries({0: 1}, T.order)]
    for _ in range(4):
        Tpow.append(series_mul(Tpow[-1], T))
    resid = add(pair_mul(poly_in_T(Q, Tpow), psi), neg(poly_in_T(P, Tpow)))
    assert resid.coeffs == {} and resid.order == psi.order - 4
    # the surplus rows check every coefficient of the window: changing one
    # c_N of q d/dq log Psi keeps R = Psi^(1/2) of norm 1, and leaves it
    # conj S(T) / S(T) for no monic S of degree 2
    c, _window = borcherds._psi_log(sym, D, r)
    for N in range(1, len(c)):
        bent = c[:N] + [c[N] + 1] + c[N + 1:]
        with pytest.raises(NoSolutionWithinDegree):
            borcherds._fit_coords(*borcherds._psi_coords(bent, D, 2), D, T, 2)
    # S = sqrt Q lies in O_{Q(sqrt D)}[T]: its roots, the values of T at
    # the Heegner points, are algebraic integers (trace and norm in Z)
    S = poly_root(Q, 2)
    assert S is not None and all(p == q.conj() for p, q in zip(P, Q))
    for v in S:
        x, y = split(v, D)
        assert (2 * x).denominator == (x * x - D * y * y).denominator == 1


def translates(cases):
    """The (m, D, r a mod 2m) that heegner_divisor enumerates for the
    (symbol, D, r) in cases, a running over the lambency's group K."""
    out = set()
    for sym, D, r in cases:
        lam = get_lambency(sym)
        out.update((lam.m, D, r * a % (2 * lam.m)) for a in lam.K)
    return sorted(out)


# the pool criterion 9 draws its ten (m, D, r) from
CRITERION_9 = [(m, D, residues(m, D)[0])
               for m in (2, 3, 5, 6, 7, 10, 12, 15)
               for D in (-3, -7, -11, -23, -31, -47, -59, -71)
               if gcd(D, 4 * m) == 1 and residues(m, D)]


# (7, -196, 0): the representative [49, -14, 2] comes from a minimising
# (x, y) on the search's stopping bound |D| y^2 = 4 A best
@pytest.mark.parametrize("cases", [
    translates(SWEEP), translates(BENCH_FITS), [(60, -71, 13)], CRITERION_9,
    [(7, -196, 0)],
], ids=["sweep", "bench-fits", "60,-71,13", "criterion-9", "7,-196,0"])
def test_enumerate_matches_the_sweep_on_named_cases(cases):
    for m, D, r in cases:
        assert enumerate_heegner(m, D, r) == sweep_heegner(m, D, r), \
            (m, D, r)


def test_genus_char_matches_the_bounded_search_on_heegner_forms():
    # every Heegner form of the benchmark fits and of the sweep, with the
    # group translates r a of heegner_divisor
    forms = {(Q, D, m) for m, D, r in translates(BENCH_FITS + SWEEP)
             for Q, _s in enumerate_heegner(m, D, r)}
    assert len(forms) > 150
    for Q, D, m in forms:
        assert_genus_char_matches_the_bounded_search(Q, D, m)


# -- the Heegner divisor: one walk for every translate --------------------

def divisor_by_translates(symbol, D, r):
    """Oracle: the Heegner divisor as the loop heegner_divisor replaced,
    one single-residue enumerate_heegner call per a in K on r a mod 2m."""
    lam = get_lambency(symbol)
    m = lam.m
    out = {}
    for a in lam.K:
        for Q, stab in enumerate_heegner(m, D, (r * a) % (2 * m)):
            w = Fraction(-4 * genus_char(Q, D, m), stab)
            if w:
                out[Q] = out.get(Q, 0) + w
    return sorted(out.items(), key=lambda qw: qw[0].key())


def outcome(fn, *args):
    """fn(*args), or the class of the MJTError it raises."""
    try:
        return fn(*args)
    except MJTError as e:
        return type(e)


def census_cases():
    root = Path(__file__).parent.parent
    return runpy.run_path(str(root / "tools" / "fit_census.py"))["cases"]()


@pytest.mark.parametrize("cases", [census_cases(), BENCH_FITS + SWEEP],
                         ids=["census", "bench-fits+sweep"])
def test_heegner_divisor_matches_the_translate_loop(cases):
    assert len(cases) > 100
    for case in cases:
        assert outcome(heegner_divisor, *case) == \
            outcome(divisor_by_translates, *case), case


def test_one_walk_lists_each_translate():
    # the walk over K lists what the single-residue walks list together
    for sym, D, r in BENCH_FITS + SWEEP:
        lam = get_lambency(sym)
        m = lam.m
        joined = [qs for a in lam.K
                  for qs in enumerate_heegner(m, D, r * a % (2 * m))]
        joined.sort(key=lambda qs: qs[0].key())
        assert enumerate_heegner(m, D, r, lam.K) == joined, (sym, D, r)


def test_coinciding_translates_count_twice():
    # (6+2, -8, 4): K = {1, 7} and 4 * 7 = 4 mod 12, so both translates
    # are Q(6, -8, 4) and each class counts once for each
    lam = get_lambency("6+2")
    assert lam.K == (1, 7) and 4 * 7 % 12 == 4
    single = enumerate_heegner(6, -8, 4)
    assert single
    assert enumerate_heegner(6, -8, 4, lam.K) == \
        sorted(single * 2, key=lambda qs: qs[0].key())
    once = [(Q, Fraction(-4 * genus_char(Q, -8, 6), s)) for Q, s in single]
    assert all(w for _q, w in once)
    div = heegner_divisor("6+2", -8, 4)
    assert div == divisor_by_translates("6+2", -8, 4)
    assert div == [(Q, 2 * w) for Q, w in once]


def test_heegner_divisor_walks_once(monkeypatch):
    calls = {"enumerate_heegner": 0, "_p1": 0}
    for name in calls:
        fn = getattr(borcherds, name)

        def counted(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(borcherds, name, counted)
    assert len(get_lambency("33+11").K) == 2
    borcherds.heegner_divisor("33+11", -8, 28)
    assert calls == {"enumerate_heegner": 1, "_p1": 1}


def test_a_bad_translate_is_a_congruence_violation(monkeypatch):
    # -20 = 2^2 mod 24 but not 4^2: the translate 2 * 2 fails, and the
    # walk raises rather than list no class for it
    with pytest.raises(CongruenceViolation, match="not 4\\^2 mod 24"):
        enumerate_heegner(6, -20, 2, (1, 2))
    monkeypatch.setattr(borcherds, "get_lambency",
                        lambda _s: SimpleNamespace(m=6, K=(1, 2)))
    with pytest.raises(CongruenceViolation):
        borcherds.heegner_divisor("6+2", -20, 2)


def poly_in_T(coeffs, Tpow):
    """sum_j c_j T^j, for coefficients of any type."""
    out = QSeries({}, Tpow[0].order)
    for c, t in zip(coeffs, Tpow):
        out = add(out, QSeries({k: c * v for k, v in t.coeffs.items()},
                               t.order, t.den))
    return out


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([-3, -4, -7, -8, -11]),
       st.lists(st.integers(-4, 4), min_size=4, max_size=4),
       st.integers(min_value=1, max_value=2),
       st.integers(min_value=1, max_value=2))
def test_fit_coords_matches_the_cyclotomic_fit(D, coords, e, k):
    # R = conj S(T) / S(T) for a random monic S of degree e over
    # Q(sqrt D), and psi = R^k: the solve returns S, and conj S^k and S^k
    # are the P and Q of the cyclotomic fit at degree e k
    G = gauss_sum(D)
    S = [(Fraction(a, 2), Fraction(b, 2))
         for a, b in zip(coords[::2], coords[1::2])][:e] + [(1, 0)]
    T = eta_expand(get_lambency("6+2").eta, 16)
    Tpow = [QSeries({0: 1}, T.order)]
    for _ in range(e * k):
        Tpow.append(series_mul(Tpow[-1], T))
    S_T, conj_T = (poly_in_T([a + sign * b * G for a, b in S], Tpow)
                   for sign in (1, -1))
    R = pair_mul(conj_T, power(S_T, -1))
    X, Y = (list(c) for c in zip(*(split(R.coeff(N), D)
                                   for N in range(int(R.order)))))
    L = lcm(*(v.denominator for v in X + Y))
    X, Y = ([int(v * L) for v in s] for s in (X, Y))
    P, Q, _rank = cyc_fit(power(R, k), T, e * k)
    if len(Q) - 1 < e * k:
        # S and conj S share a factor H over Q, so S H'/H solves for any
        # monic H' over Q of H's degree: a kernel
        with pytest.raises(Underdetermined):
            borcherds._fit_coords(X, Y, L, D, T, e)
        return
    assert borcherds._fit_coords(X, Y, L, D, T, e) == S
    Sk = borcherds._pair_pow(S, k, D)
    assert [a - b * G for a, b in Sk] == P
    assert [a + b * G for a, b in Sk] == Q


def test_product_and_fit_do_no_cyclotomic_arithmetic(monkeypatch):
    def rational_only(real):
        def wrapped(*args):
            assert all(type(a) in (int, Fraction) for a in args), \
                real.__name__
            return real(*args)
        return wrapped

    # the package has no field inverse, negation, power or root of unity
    assert not any(hasattr(mod, name) for mod in (cyclo, series)
                   for name in ("cinv", "cneg", "series_pow", "ex"))
    for mod in (cyclo, series):
        for name in ("cadd", "cmul"):
            monkeypatch.setattr(mod, name,
                                rational_only(getattr(cyclo, name)))
    # a value x + y G is formed from rational coordinates, and nothing
    # computes with it
    monkeypatch.setattr(Cyc, "make",
                        staticmethod(rational_only(Cyc.make)))
    rep = fit_case("15+5", -11, 7)
    psi_expand("15+5", -11, 7)
    assert len(rep["P"]) == 3

    def banned(*args):
        raise AssertionError("Cyc.make called")

    # the mock theta rows and the relations form no irrational value: a
    # phase other than +-1 raises before any value is formed
    monkeypatch.setattr(Cyc, "make", banned)
    checked = 0
    for name in row_names():
        try:
            verify_table14_15(name, order=6)
            checked += 1
        except MissingSource:
            pass
    assert checked == 12
    gen = random.Random(5)
    for _row, (_cls, pairs) in MULT_RELATIONS.items():
        for spec in (s for pair in pairs for s in pair):
            table = random_odd_table(get_lambency(spec.lambency).m, gen,
                                     [8], range(1, 4))
            try:
                stream_combination(table, spec, 3)
            except IrrationalPhase:
                checked += 1
    assert checked == 12 + 5
