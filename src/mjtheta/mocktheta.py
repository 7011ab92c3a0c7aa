"""Eulerian series for the classical mock theta functions, and the verifier
tying each of them to a theta-coefficient stream of an optimal form.

Names are "order:name" ("3:psi", "5:F0", "8:U0", "2:mu", ...).  Summation
over n >= 0 is implicit in the registry entries, matching the usual table
conventions.  Two rows carry their customary constant inside the name:
"8:V0" denotes 1+V0 and "6:2mu" denotes 2mu = 1 + sum(...), keeping every
registered series integral.

Each table row states an identity

    eulerian(name)  =  pre * (sum_i c_i H_{r_i}) | [s; b] (A tau + B) + const

where H_r is the r-th theta-coefficient stream of the named lambency's
distinguished form (jacobi.stream_combination builds the right side).
H_r lives on the exponents -r^2/4m + Z, so the slice meets its support
only if s = -r^2/4m (mod b) for every term r.  The source prints some
shifts only up to sign; the rows store them resolved, and that congruence
fixes the sign for all of them but 2:B (s = 1/2, where both signs qualify
and +1/2 puts the lead 1 at q^0).  6:psi and 8:S1 store the congruent
shift that lines the stream's lead up with the Eulerian lead.
"""

import math
from fractions import Fraction

from .cyclo import cmul, ex
from .errors import (
    BadPochhammer, Divergent, InsufficientDepth, MissingSource, UnknownName,
)
from .jacobi import stream_combination
from .series import (
    QSeries, series_binomial, series_half_shift, series_rescale,
    series_shift, series_verdict,
)

__all__ = [
    "pochhammer", "eulerian", "EULERIAN_NAMES", "ROWS", "row_names",
    "verify_table14_15", "verify_watson", "verify_andrews_hickerson",
]


# -- q-Pochhammer ---------------------------------------------------------

def _as_monomial(f):
    """(coefficient, exponent) of a single-term QSeries or a pair."""
    if isinstance(f, QSeries) and len(f.coeffs) == 1:
        return f.items()[0][::-1]
    if isinstance(f, tuple) and len(f) == 2:
        return f[0], Fraction(f[1])
    raise BadPochhammer(f"{f!r} is not a single-term monomial")


def pochhammer(a, x, n, order):
    """(a; x)_n = prod_{k=0}^{n-1} (1 - a x^k), truncated below `order`.

    a, x are monomials (QSeries with a single term, or (coeff, exponent)
    pairs); n is a nonnegative integer or math.inf (else BadPochhammer).
    """
    if not (n == math.inf or isinstance(n, int) and n >= 0):
        raise BadPochhammer(f"n = {n!r} is not a nonnegative int or math.inf")
    (ca, ea), (cx, ex_) = _as_monomial(a), _as_monomial(x)
    w = Fraction(order)
    return _step(QSeries({0: 1}, w), {}, _powers([(ca, ea, ex_, n, 1)], w, cx),
                 w)


def _powers(factors, w, x=1):
    """{(c x^i, j + i k): total power} over the factors (1 - c x^i q^(j+ik)),
    i < count, of each (c, j, k, count, power) with j + i k below the window
    w; count is a nonnegative int, or math.inf when k > 0."""
    out = {}
    for c, j, k, count, power in factors:
        if k > 0:
            count = min(count, max(math.ceil((w - j) / k), 0))
        elif count == math.inf:
            raise Divergent("infinite product with non-increasing exponents")
        for i in range(count):
            e = j + i * k
            if e < w:
                key = (cmul(c, x ** i), e)
                out[key] = out.get(key, 0) + power
    return out


def _step(f, have, want, w):
    """f times the binomial factors of `want` over those of `have`, maps
    {(c, e): power} from _powers, below the window w: one series_binomial
    step per factor gained and one inverse step per factor dropped, by
    rising exponent.  Factors at or above w are 1 inside it and take no
    step; with none to take, f is cut to w."""
    stepped = False
    for c, e in sorted({**have, **want}, key=lambda ce: ce[1]):
        d = want.get((c, e), 0) - have.get((c, e), 0)
        for _ in range(abs(d) if e < w else 0):
            f, stepped = series_binomial(f, c, e, w, d < 0), True
    return f if stepped else QSeries(f.coeffs, min(f.order, w), f.den)


# -- Eulerian series ------------------------------------------------------
#
# Each entry: (leading exponent of the n-th summand,
#              [(c, j, k, count, power)] meaning (c q^j; q^k)_count ^ power,
#              overall sign of the n-th summand, constant term added)

def _E(lead, factors, sign=None, const=0):
    return (lead, factors, sign or (lambda n: 1), const)

_alt = lambda n: (-1) ** n

EULERIAN_DEFS = {
    "3:psi": _E(lambda n: (n + 1) ** 2, lambda n: [(1, 1, 2, n + 1, -1)]),
    "3:nu": _E(lambda n: n * (n + 1), lambda n: [(-1, 1, 2, n + 1, -1)]),
    "3:f": _E(lambda n: n * n, lambda n: [(-1, 1, 1, n, -2)]),
    "3:phi": _E(lambda n: n * n, lambda n: [(-1, 2, 2, n, -1)]),
    "3:chi": _E(lambda n: n * n,
                lambda n: [(-1, 1, 1, n, 1), (-1, 3, 3, n, -1)]),
    "3:omega": _E(lambda n: 2 * n * (n + 1),
                  lambda n: [(1, 1, 2, n + 1, -2)]),
    "3:rho": _E(lambda n: 2 * n * (n + 1),
                lambda n: [(1, 1, 2, n + 1, 1), (1, 3, 6, n + 1, -1)]),
    "5:psi0": _E(lambda n: (n + 1) * (n + 2) // 2,
                 lambda n: [(-1, 1, 1, n, 1)]),
    "5:psi1": _E(lambda n: n * (n + 1) // 2, lambda n: [(-1, 1, 1, n, 1)]),
    "5:chi0": _E(lambda n: n, lambda n: [(1, n + 1, 1, n, -1)]),
    "5:chi1": _E(lambda n: n, lambda n: [(1, n + 1, 1, n + 1, -1)]),
    "5:phi0": _E(lambda n: n * n, lambda n: [(-1, 1, 2, n, 1)]),
    "5:phi1": _E(lambda n: (n + 1) ** 2, lambda n: [(-1, 1, 2, n, 1)]),
    "5:F0": _E(lambda n: 2 * n * n, lambda n: [(1, 1, 2, n, -1)]),
    "5:F1": _E(lambda n: 2 * n * n + 2 * n,
               lambda n: [(1, 1, 2, n + 1, -1)]),
    "5:f0": _E(lambda n: n * n, lambda n: [(-1, 1, 1, n, -1)]),
    "5:f1": _E(lambda n: n * (n + 1), lambda n: [(-1, 1, 1, n, -1)]),
    "6:sigma": _E(lambda n: (n + 1) * (n + 2) // 2,
                  lambda n: [(-1, 1, 1, n, 1), (1, 1, 2, n + 1, -1)]),
    "6:psi": _E(lambda n: (n + 1) ** 2,
                lambda n: [(1, 1, 2, n, 1), (-1, 1, 1, 2 * n + 1, -1)],
                _alt),
    "6:phi": _E(lambda n: n * n,
                lambda n: [(1, 1, 2, n, 1), (-1, 1, 1, 2 * n, -1)], _alt),
    "6:gamma": _E(lambda n: n * n,
                  lambda n: [(1, 1, 1, n, 1), (1, 3, 3, n, -1)]),
    "6:rho": _E(lambda n: n * (n + 1) // 2,
                lambda n: [(-1, 1, 1, n, 1), (1, 1, 2, n + 1, -1)]),
    "6:lambda": _E(lambda n: n,
                   lambda n: [(1, 1, 2, n, 1), (-1, 1, 1, n, -1)], _alt),
    "7:F0": _E(lambda n: n * n, lambda n: [(1, n + 1, 1, n, -1)]),
    "7:F1": _E(lambda n: (n + 1) ** 2, lambda n: [(1, n + 1, 1, n + 1, -1)]),
    "7:F2": _E(lambda n: n * n + n, lambda n: [(1, n + 1, 1, n + 1, -1)]),
    "10:phi": _E(lambda n: n * (n + 1) // 2,
                 lambda n: [(1, 1, 2, n + 1, -1)]),
    "10:psi": _E(lambda n: (n + 1) * (n + 2) // 2,
                 lambda n: [(1, 1, 2, n + 1, -1)]),
    "10:X": _E(lambda n: n * n, lambda n: [(-1, 1, 1, 2 * n, -1)], _alt),
    "10:chi": _E(lambda n: (n + 1) ** 2,
                 lambda n: [(-1, 1, 1, 2 * n + 1, -1)], _alt),
    "2:mu": _E(lambda n: n * n,
               lambda n: [(1, 1, 2, n, 1), (-1, 2, 2, n, -2)], _alt),
    "2:A": _E(lambda n: n + 1,
              lambda n: [(-1, 2, 2, n, 1), (1, 1, 2, n + 1, -1)]),
    "2:B": _E(lambda n: n,
              lambda n: [(-1, 1, 2, n, 1), (1, 1, 2, n + 1, -1)]),
    "8:S0": _E(lambda n: n * n,
               lambda n: [(-1, 1, 2, n, 1), (-1, 2, 2, n, -1)]),
    "8:S1": _E(lambda n: n * (n + 2),
               lambda n: [(-1, 1, 2, n, 1), (-1, 2, 2, n, -1)]),
    "8:T0": _E(lambda n: (n + 1) * (n + 2),
               lambda n: [(-1, 2, 2, n, 1), (-1, 1, 2, n + 1, -1)]),
    "8:T1": _E(lambda n: n * (n + 1),
               lambda n: [(-1, 2, 2, n, 1), (-1, 1, 2, n + 1, -1)]),
    "8:U0": _E(lambda n: n * n,
               lambda n: [(-1, 1, 2, n, 1), (-1, 4, 4, n, -1)]),
    "8:U1": _E(lambda n: (n + 1) ** 2,
               lambda n: [(-1, 1, 2, n, 1), (-1, 2, 4, n + 1, -1)]),
    "8:V1": _E(lambda n: (n + 1) ** 2,
               lambda n: [(-1, 1, 2, n, 1), (1, 1, 2, n + 1, -1)]),
    # 1 + V0 in full: the n-th summand carries an overall 2
    "8:V0": _E(lambda n: n * n,
               lambda n: [(-1, 1, 2, n, 1), (1, 1, 2, n, -1)],
               lambda n: 2),
    # 2 mu = 1 + sum (-1)^n q^(n+1) (1 + q^n) (q;q^2)_n / (-q;q)_(n+1),
    # with 1 + q^n = (-q^n; q)_1 for n >= 1; at n = 0 it is the constant 2,
    # carried in the sign (a factor at q^0 cannot be divided back out)
    "6:2mu": _E(lambda n: n + 1,
                lambda n: [(1, 1, 2, n, 1), (-1, 1, 1, n + 1, -1),
                           (-1, n, 1, min(n, 1), 1)],
                lambda n: (-1) ** n if n else 2, 1),
}

EULERIAN_NAMES = sorted(EULERIAN_DEFS)


def eulerian(name, order):
    """The named series, truncated below `order`.  The n-th summand starts
    at q^lead(n), so its product is needed only below order - lead(n); it
    is the (n-1)-th summand's product stepped by the factors gained and
    dropped (_step), at a window that only shrinks as lead(n) rises."""
    if name not in EULERIAN_DEFS:
        raise UnknownName(name)
    order = Fraction(order)
    lead, factors, sign, const = EULERIAN_DEFS[name]
    out, unit, have = QSeries({0: const}, order), QSeries({0: 1}, order), {}
    n = 0
    while lead(n) < order:
        w = order - lead(n)
        want = _powers(factors(n), w)
        unit, have = _step(unit, have, want, w), want
        s = sign(n)
        out = out + series_shift(unit if s == 1 else s * unit, lead(n))
        n += 1
    return out


# -- table rows -----------------------------------------------------------

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class Row:
    """One table row: eulerian(name) = pre*(sum c_i H_{r_i})|[s;b](A t+B)
    + const, with s and b given as Fractions or strings such as "-1/24"."""

    def __init__(self, lambency, terms, s=0, b=1, arg=(1, 0), pre=HALF,
                 const=0):
        self.lambency = lambency
        self.terms = terms
        self.s = Fraction(s)
        self.b = Fraction(b)
        self.arg = (Fraction(arg[0]), Fraction(arg[1]))
        self.pre = pre
        self.const = const


ROWS = {
    "3:psi": Row("24+8", [(1, 2)], "-1/24"),
    "3:nu": Row("24+8", [(1, 8)], "1/3", arg=(1, -HALF)),
    "3:f": Row("6", [(1, 5), (-1, 1)], "-1/24"),
    "3:phi": Row("24+8", [(-1, 1), (1, 13), (-1, 25), (1, 37)],
                 "-1/96", "1/4", arg=(4, 0)),
    "3:chi": Row("18", [(1, r) for r in (1, 7, 13, 19, 25, 31)],
                 "-1/72", "1/3", arg=(3, 0), pre=-HALF),
    "3:omega": Row("6", [(1, 2), (1, 4)], "1/3", "1/2", arg=(2, 0),
                   pre=QUARTER),
    "3:rho": Row("18", [(1, r) for r in (2, 4, 14, 16, 26, 28)],
                 "1/9", "1/6", arg=(6, 0), pre=-HALF),
    "5:psi0": Row("60+12,15,20", [(1, 2)], "-1/60"),
    "5:psi1": Row("60+12,15,20", [(1, 14)], "11/60"),
    "5:chi0": Row("30+6,10,15", [(1, 1)], "-1/120", const=2),
    "5:chi1": Row("30+6,10,15", [(1, 7)], "71/120"),
    "5:phi0": Row("60+12,15,20", [(1, 1), (-1, 11)], "-1/240", "1/2",
                  arg=(2, 0), pre=-HALF),
    "5:phi1": Row("60+12,15,20", [(1, 7), (-1, 13)], "-49/240", "1/2",
                  arg=(2, 0)),
    "5:F0": Row("60+12,15,20", [(1, 2)], "-1/60", 2, arg=(HALF, 0),
                const=1),
    "5:F1": Row("60+12,15,20", [(1, 14)], "71/60", 2, arg=(HALF, 0)),
    "6:sigma": Row("12", [(1, 2)], "-1/12"),
    "6:psi": Row("12", [(1, 3), (-1, 9)], "-3/16", "1/2", arg=(2, 0),
                 pre=-HALF),
    "6:phi": Row("12", [(1, r) for r in (1, 5, 13, 17)],
                 "-1/48", "1/2", arg=(2, 0), pre=-HALF),
    "6:gamma": Row("18", [(1, r) for r in (1, 5, 13, 17, 25, 29)],
                   "-1/72", "1/3", arg=(3, 0), pre=-HALF),
    "7:F0": Row("42+6,14,21", [(1, 1)], "-1/168", pre=-HALF),
    "7:F1": Row("42+6,14,21", [(1, 5)], "-25/168"),
    "7:F2": Row("42+6,14,21", [(1, 11)], "47/168"),
    "10:phi": Row("10", [(1, 4), (-1, 14)], "1/10", "1/2", arg=(2, 0)),
    "10:psi": Row("10", [(1, 2), (-1, 12)], "-1/10", "1/2", arg=(2, 0)),
    "10:X": Row("10", [(1, 1), (1, 11)], "-1/40", pre=-HALF),
    "10:chi": Row("10", [(1, 3), (1, 13)], "-9/40", pre=-HALF),
    "2:mu": Row("8", [(1, r) for r in (1, 5, 9, 13)], "-1/32", "1/4",
                arg=(4, 0), pre=-HALF),
    "2:A": Row("8", [(1, 2)], "-1/8", pre=QUARTER),
    # the congruence allows -1/2 too; +1/2 keeps the lead 1 at q^0
    "2:B": Row("8", [(1, 4)], "1/2", pre=QUARTER),
    "8:S0": Row("16", [(1, r) for r in (1, 9, 17, 25)], "-1/64", "1/4",
                arg=(4, 0), pre=-HALF),
    "8:S1": Row("16", [(1, r) for r in (3, 11, 19, 27)], "7/64", "1/4",
                arg=(4, 0)),
    "8:T0": Row("16", [(1, 2)], "-1/16", arg=(1, HALF)),
    "8:T1": Row("16", [(1, 10)], "7/16", arg=(1, HALF)),
    "8:U0": Row("16", [(1, 1 + 4 * k) for k in range(8)],
                "-1/64", "1/8", arg=(8, 0), pre=-HALF),
    "8:U1": Row("16", [(1, 2), (ex(Fraction(-1, 4)), 10)],
                "-1/16", "1/2", arg=(2, HALF)),
    "8:V0": Row("16", [(1, 8)], pre=1, const=1),
    "8:V1": Row("16", [(1, 4)], "-1/4"),
}


def row_names():
    return sorted(ROWS)


def verify_table14_15(name, source=None, order=None):
    """Check one row against its Eulerian series, to min(order, the window
    the source justifies); order defaults to 15.

    source: CoeffTable for the row's lambency (defaults to the catalog
    fixture; MissingSource when there is none).  Returns the series_verdict
    with the row's name; InsufficientDepth when the source reaches no
    coefficient.
    """
    from .catalog import get_lambency
    if name not in ROWS:
        raise UnknownName(name)
    row = ROWS[name]
    if source is None:
        source = get_lambency(row.lambency).fixture
        if source is None:
            raise MissingSource(
                f"{row.lambency} needs ingested data for row {name}")
    rhs = stream_combination(source, row.terms,
                             15 if order is None else order, row.s, row.b,
                             row.arg, row.pre, row.const)
    return {"row": name, **series_verdict(eulerian(name, rhs.order), rhs)}


# -- self-contained identities -------------------------------------------

def _alt_q(f):
    """f(-q)."""
    return series_half_shift(f, HALF)


def verify_watson(order=100):
    """f0(q) = -psi0(-q) + phi0(-q^2); f1(q) = psi1(-q) - q^-1 phi1(-q^2)."""
    order = Fraction(order)
    if order <= 0:
        raise InsufficientDepth(f"order {order} reaches no coefficient")
    half_order = order / 2 + 1
    f0 = eulerian("5:f0", order)
    f1 = eulerian("5:f1", order)
    rhs0 = -1 * _alt_q(eulerian("5:psi0", order)) + \
        series_rescale(_alt_q(eulerian("5:phi0", half_order)), 2)
    rhs1 = _alt_q(eulerian("5:psi1", order)) + \
        -1 * series_shift(
            series_rescale(_alt_q(eulerian("5:phi1", half_order)), 2), -1)
    return [{"identity": f"watson:{tag}", **series_verdict(a, b)}
            for tag, a, b in [("f0", f0, rhs0), ("f1", f1, rhs1)]]


def verify_andrews_hickerson(order=100):
    """The order-6 identities: both LHS variants against each product."""
    order = Fraction(order)
    if order <= 0:
        raise InsufficientDepth(f"order {order} reaches no coefficient")
    psi2 = series_shift(series_rescale(eulerian("6:psi", order / 2 + 1), 2),
                        -1)
    phi2 = series_rescale(eulerian("6:phi", order / 2 + 1), 2)
    a = _powers([(c, j, k, math.inf, p) for c, j, k, p in [
        (-1, 1, 2, 2), (-1, 1, 6, 1), (-1, 5, 6, 1), (1, 6, 6, 1)]], order)
    b = _powers([(c, j, k, math.inf, p) for c, j, k, p in [
        (-1, 1, 2, 2), (-1, 3, 6, 2), (1, 6, 6, 1)]], order)
    prod_a = _step(QSeries({0: 1}, order), {}, a, order)
    prod_b = _step(prod_a, a, b, order)  # by the factors that differ
    cases = [
        ("rho", psi2 + eulerian("6:rho", order), prod_a),
        ("lambda", 2 * psi2 + _alt_q(eulerian("6:lambda", order)), prod_a),
        ("sigma", phi2 + 2 * eulerian("6:sigma", order), prod_b),
        ("mu", 2 * phi2 + -1 * _alt_q(eulerian("6:2mu", order)), prod_b),
    ]
    return [{"identity": f"andrews-hickerson:{tag}",
             **series_verdict(lhs, rhs)} for tag, lhs, rhs in cases]
