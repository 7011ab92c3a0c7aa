import random
from fractions import Fraction
from functools import reduce
from math import gcd, inf, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from mjtheta import borcherds, cyclo, series
from mjtheta.arith import divisors, is_fundamental, kronecker
from mjtheta.borcherds import (
    QuadForm, enumerate_heegner, fit_case, genus_char, heegner_divisor,
    psi_expand,
)
from mjtheta.catalog import get_lambency, load_catalog
from mjtheta.cyclo import (
    Cyc, cadd, cinv, ciszero, cmul, cneg, csub, ex,
)
from mjtheta.errors import (
    BadDiscriminant, CongruenceViolation, ExcludedDiscriminant,
    InsufficientDepth, NoSolutionWithinDegree, Underdetermined,
)
from mjtheta.eta import eta_expand
from mjtheta.jacobi import CoeffTable
from mjtheta.series import QSeries, series_mul, series_pow

rng = random.Random(20260824)


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
    # q^1 coefficient of prod_b (1 - ex(b/D) q)^{(D/b) C} is
    # -C * sum_b (D/b) ex(b/D)
    D, r, C1 = -20, 2, 16
    psi = psi_expand("6+2", D, r)
    want = 0
    for b in range(1, abs(D)):
        k = kronecker(D, b)
        if k:
            want = csub(want, cmul(k * C1, ex(Fraction(b, D))))
    assert psi.coeff(1) == want


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


def test_fit_no_solution():
    # R from pseudorandom c_N has norm 1, as every Psi^(1/k) has, but is
    # conj S(T) / S(T) for no monic S
    c = [0] + [rng.randint(-9, 9) for _ in range(19)]
    with pytest.raises(NoSolutionWithinDegree):
        borcherds._fit_coords(*borcherds._psi_coords(c, -4), -4,
                              T_series(), 2)


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
        assert ciszero(csub(p, cconj(q))), (sym, p, q)


def test_fit_case_frozen_gaussian():
    rep = fit_case("10+2", -4, 6)
    i = ex(Fraction(1, 4))
    assert rep["P"][0] == 3 + cmul(4, i)
    assert rep["Q"][0] == csub(3, cmul(4, i))


def test_heegner_divisor_weights():
    div = heegner_divisor("6+2", -20, 2)
    assert [w for _q, w in div] == [Fraction(-4), Fraction(-4)]


# -- the product and the fit over Q(zeta_|D|): oracles ---------------------

def cyc_product(lam, D, r, order=None):
    """Psi one factor (1 - ex(b/D) q^n)^{(D/b) C(Dn^2, rn)} at a time, in
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
        exponents.append(int(as_fraction(e)))
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
            zeta = ex(Fraction(b, D))
            factor = QSeries.from_terms([(0, 1), (n, -1 * zeta)], window)
            out = series_mul(out, series_pow(factor, k * e))
    return out


def cyc_solve(rows, n_unknowns):
    """Gaussian elimination over Q(zeta_n), free variables set to 0: the
    solver _fit_coords replaced, as its oracle."""
    rows = [list(r) for r in rows]
    pivots = {}
    rank = 0
    for col in range(n_unknowns):
        piv = next((i for i in range(rank, len(rows))
                    if not ciszero(rows[i][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = cinv(rows[rank][col])
        rows[rank] = [cmul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and not ciszero(rows[i][col]):
                f = cneg(rows[i][col])
                rows[i] = [cadd(v, cmul(f, w))
                           for v, w in zip(rows[i], rows[rank])]
        pivots[col] = rank
        rank += 1
    for row in rows[rank:]:
        if not ciszero(row[-1]):
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
        cols = [series_mul(psi, Tpow[i]) for i in range(dq)]
        cols += [-1 * Tpow[j] for j in range(dp + 1)]
        rhs = -1 * series_mul(psi, Tpow[dq])
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
        if all(ciszero(cadd(row[-1], cneg(sum(
                (cmul(v, u) for v, u in zip(row[:-1], sol)), start=0))))
               for row in rows):
            return list(sol[dq:]), list(sol[:dq]) + [1], rank
    if skipped_short:
        raise Underdetermined("every admissible degree pair lacked rows")
    raise NoSolutionWithinDegree(f"no fit with degrees <= {max_deg}")


def split(v, D):
    """(x, y) with v = x + y G, G the Gauss sum of D (G^2 = D, conj G =
    -G): x = (v + conj v) / 2, y = (v - conj v) / 2G."""
    G = borcherds._gauss_sum(D)
    x = cmul(Fraction(1, 2), cadd(v, cconj(v)))
    y = cmul(cmul(Fraction(1, 2), csub(v, cconj(v))), cinv(G))
    return as_fraction(x), as_fraction(y)


SWEEP = [(lam.symbol, D, r) for lam in load_catalog()
         if lam.fixture is not None
         for D in range(-24, -2) if is_fundamental(D)
         for r in range(2 * lam.m) if (D - r * r) % (4 * lam.m) == 0]


def test_gauss_sum_squares_to_D():
    for D in sorted({D for _s, D, _r in SWEEP}):
        G = borcherds._gauss_sum(D)
        assert cmul(G, G) == D and G.n == -D
        assert G == sum((cmul(kronecker(D, b), ex(Fraction(b, D)))
                         for b in range(1, -D)), start=0)


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
    assert psi.coeffs == want.coeffs
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
    # the whole window of every sweep case: 2x, 2y are ints, and x, y
    # are ints when 4 | D
    for sym, D, r in SWEEP:
        try:
            c, window = borcherds._psi_log(sym, D, r)
        except (ExcludedDiscriminant, InsufficientDepth):
            continue
        X, Y = borcherds._psi_coords(c, D)
        assert len(X) == len(Y) == int(window) and X[0] == 1
        assert all((2 * v).denominator == 1 for v in X + Y)
        if D % 4 == 0:
            assert all(v.denominator == 1 for v in X + Y), (sym, D, r)
        psi = psi_expand(sym, D, r)
        G = borcherds._gauss_sum(D)
        assert all(psi.coeff(N) == cadd(X[N], cmul(Y[N], G))
                   for N in range(len(X)))


@pytest.mark.parametrize("sym,D,r,k", [("6+2", -8, 4, 2), ("6+2", -20, 2, 2),
                                       ("10+2", -4, 6, 3)])
def test_psi_coords_take_the_kth_root(sym, D, r, k):
    # the coordinates from c_N / k are those of a k-th root of Psi
    c, window = borcherds._psi_log(sym, D, r)
    G = borcherds._gauss_sum(D)
    root = QSeries({N: cadd(x, cmul(y, G)) for N, (x, y)
                    in enumerate(zip(*borcherds._psi_coords(c, D, k)))},
                   window)
    assert series_pow(root, k).coeffs == psi_expand(sym, D, r).coeffs


BENCH_FITS = [("10+2", -4, 6), ("6+2", -8, 4), ("18+2", -8, 8),
              ("33+11", -8, 28), ("15+5", -11, 7), ("15+5", -11, 13),
              ("28+7", -7, 21), ("33+11", -8, 16), ("33+11", -11, 11)]


@pytest.mark.parametrize("sym,D,r", BENCH_FITS)
def test_fit_case_matches_the_cyclotomic_fit(sym, D, r):
    rep = fit_case(sym, D, r)
    psi = psi_expand(sym, D, r)
    T = eta_expand(get_lambency(sym).eta, psi.order + rep["max_deg"] + 1)
    P, Q, _rank = cyc_fit(psi, T, rep["max_deg"])
    assert (rep["P"], rep["Q"], rep["window"]) == (P, Q, psi.order)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = cadd(out[i + j], cmul(x, y))
    return out


def poly_root(Q, k):
    """Oracle: the monic S with S^k = Q, one coefficient at a time from
    the top (S^k has k s_(e-i) + terms in s_(e-1) .. s_(e-i+1) at
    T^(ke-i)); None if Q is no k-th power."""
    e = (len(Q) - 1) // k
    S = [0] * e + [1]
    for i in range(1, e + 1):
        Sk = reduce(poly_mul, [S] * k)
        S[e - i] = cmul(Fraction(1, k), csub(Q[k * e - i], Sk[k * e - i]))
    Sk = reduce(poly_mul, [S] * k)
    return S if all(ciszero(csub(a, b)) for a, b in zip(Sk, Q)) else None


# the fits the 7-coefficient windows of the shipped 12+3 table decide at
# the divisor's degree 4: Psi = conj S(T)^2 / S(T)^2, deg S = 2, with 6
# rows for 4 unknowns
@pytest.mark.parametrize("sym,D,r", [("12+3", -15, 9), ("12+3", -15, 15)])
def test_fit_case_decides_the_divisor_shape(sym, D, r):
    rep = fit_case(sym, D, r)
    P, Q = rep["P"], rep["Q"]
    assert rep["max_deg"] == len(P) - 1 == len(Q) - 1 == 4
    # Q(T) Psi - P(T) = 0 on its whole window, Psi from the oracle product
    psi = cyc_product(sym, D, r)
    assert psi.order == rep["window"]
    T = eta_expand(get_lambency(sym).eta, psi.order + 4)
    Tpow = [QSeries({0: 1}, T.order)]
    for _ in range(4):
        Tpow.append(series_mul(Tpow[-1], T))
    resid = series_mul(poly_in_T(Q, Tpow), psi) - poly_in_T(P, Tpow)
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
    assert S is not None and all(ciszero(csub(p, cconj(q)))
                                 for p, q in zip(P, Q))
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


def poly_in_T(coeffs, Tpow):
    out = QSeries.zero(Tpow[0].order)
    for c, t in zip(coeffs, Tpow):
        out = out + t * c
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
    G = borcherds._gauss_sum(D)
    S = [(Fraction(a, 2), Fraction(b, 2))
         for a, b in zip(coords[::2], coords[1::2])][:e] + [(1, 0)]
    T = eta_expand(get_lambency("6+2").eta, 16)
    Tpow = [QSeries({0: 1}, T.order)]
    for _ in range(e * k):
        Tpow.append(series_mul(Tpow[-1], T))
    S_T, conj_T = (poly_in_T([cadd(a, cmul(sign * b, G)) for a, b in S],
                             Tpow) for sign in (1, -1))
    R = series_mul(conj_T, series_pow(S_T, -1))
    X, Y = (list(c) for c in zip(*(split(R.coeff(N), D)
                                   for N in range(int(R.order)))))
    P, Q, _rank = cyc_fit(series_pow(R, k), T, e * k)
    if len(Q) - 1 < e * k:
        # S and conj S share a factor H over Q, so S H'/H solves for any
        # monic H' over Q of H's degree: a kernel
        with pytest.raises(Underdetermined):
            borcherds._fit_coords(X, Y, D, T, e)
        return
    assert borcherds._fit_coords(X, Y, D, T, e) == S
    Sk = borcherds._pair_pow(S, k, D)
    assert [cadd(a, cmul(-b, G)) for a, b in Sk] == P
    assert [cadd(a, cmul(b, G)) for a, b in Sk] == Q


def test_product_and_fit_do_no_cyclotomic_arithmetic(monkeypatch):
    fit_case("15+5", -11, 7)  # caches the Gauss sum

    def rational_only(real):
        def wrapped(*args):
            assert not any(isinstance(a, Cyc) for a in args), real.__name__
            return real(*args)
        return wrapped

    def banned(*args):
        raise AssertionError("Cyc.make or series_pow called")

    for mod in (cyclo, series):
        for name in ("cadd", "cmul", "cinv", "cneg"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name,
                                    rational_only(getattr(cyclo, name)))
    monkeypatch.setattr(series, "series_pow", banned)
    monkeypatch.setattr(Cyc, "make", banned)
    rep = fit_case("15+5", -11, 7)
    psi_expand("15+5", -11, 7)
    assert len(rep["P"]) == 3
