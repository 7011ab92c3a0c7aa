"""Test helper: a QSeries from (exponent, coefficient) pairs.  Only the
test oracles build series this way; the package builds its series from
key dicts."""

from fractions import Fraction
from math import lcm

from mjtheta.series import QSeries


def from_terms(terms, order):
    """terms: iterable of (exponent: Fraction-like, coeff); coefficients at
    one exponent are added."""
    terms = [(Fraction(x), c) for x, c in terms]
    den = lcm(1, *(x.denominator for x, _ in terms)) if terms else 1
    coeffs = {}
    for x, c in terms:
        k = x.numerator * (den // x.denominator)
        coeffs[k] = coeffs.get(k, 0) + c
    return QSeries(coeffs, order, den)
