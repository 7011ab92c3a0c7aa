"""Borcherds products as rational functions of the principal modulus.

For a negative fundamental discriminant within table depth, the formal
product built from the table's coefficients is conj S(T)^k / S(T)^k for a
monic S over Q(sqrt D) whose roots are the values of T at the Heegner
points.  The Heegner divisor fixes the degree of P = conj S^k and
Q = S^k and the power k; one exact linear solve finds S, verified on
every surplus coefficient.
"""

from mjtheta.borcherds import fit_case, heegner_divisor, psi_expand
from mjtheta.cyclo import cformat

for sym, D, r in [("10+2", -4, 6), ("6+2", -8, 4), ("15+5", -11, 7)]:
    psi = psi_expand(sym, D, r)
    div = heegner_divisor(sym, D, r)
    rep = fit_case(sym, D, r)
    print(f"{sym}  D={D} r={r}")
    print(f"  psi = {psi}")
    print(f"  divisor: {div}")
    print(f"  P = [{', '.join(cformat(c) for c in rep['P'])}]")
    print(f"  Q = [{', '.join(cformat(c) for c in rep['Q'])}]")
    print()
