"""Reference computations that the benchmark checks the program against.

Everything here is written apart from the package: plain integer lists for
q-series, the pentagonal number theorem for eta products, the defining sums
of the mock theta functions as printed in the literature, and a small group
ring Q[x]/(x^N - 1) for cyclotomic values.  Only the catalog's data (eta
factors, coefficient tables) and the values the program returns are read
from the package.
"""

from fractions import Fraction
from math import isqrt, lcm

# -- dense integer q-series: a list a[0..L-1] stands for sum a[i] q^i -------


def pentagonal(length):
    """(q; q)_inf = sum_k (-1)^k q^(k(3k-1)/2), truncated to `length`."""
    out = [0] * length
    k = 0
    while True:
        hit = False
        for kk in ((k, -k) if k else (0,)):
            e = kk * (3 * kk - 1) // 2
            if e < length:
                out[e] += -1 if kk % 2 else 1
                hit = True
        if not hit:
            return out
        k += 1


def _mul_sparse(a, terms):
    """a * sum c q^e for a sparse list of (e, c) terms, truncated to len(a)."""
    out = [0] * len(a)
    for e, c in terms:
        for i in range(e, len(a)):
            out[i] += c * a[i - e]
    return out


def _div_sparse(a, terms):
    """a / sum c q^e, for terms whose constant coefficient is 1."""
    tail = [(e, c) for e, c in terms if e]
    out = list(a)
    for i in range(len(out)):
        acc = out[i]
        for e, c in tail:
            if e > i:
                break
            acc -= c * out[i - e]
        out[i] = acc
    return out


def eta_unit_part(factors, length):
    """prod_i (q^n_i; q^n_i)_inf^d_i to `length` terms, by multiplying and
    dividing by the sparse pentagonal series."""
    base = pentagonal(length)
    out = [1] + [0] * (length - 1)
    for n, d in factors:
        terms = [(i * n, c) for i, c in enumerate(base)
                 if c and i * n < length]
        for _ in range(abs(d)):
            out = _mul_sparse(out, terms) if d > 0 else _div_sparse(out, terms)
    return out


def fricke_constant(factors, m):
    """sqrt(prod (m/n_i)^d_i), exactly; None when it is irrational."""
    x = Fraction(1)
    for n, d in factors:
        x *= Fraction(m, n) ** d
    a, b = isqrt(x.numerator), isqrt(x.denominator)
    if a * a != x.numerator or b * b != x.denominator:
        return None
    return Fraction(a, b)


# -- mock theta functions by their defining sums ---------------------------
#
# Each entry maps n to (sign, exponent of the leading q-power, factors),
# where a factor (c, j, k, count, power) stands for (c q^j; q^k)_count^power
# and (a; q^k)_count = prod_{i<count} (1 - a q^(ik)).  Sources: Watson (third
# order), Ramanujan's lost notebook (fifth), Andrews-Hickerson (sixth),
# Selberg (seventh), Choi (tenth), McIntosh (second), Gordon-McIntosh
# (eighth).  "8:V0" is 1 + V0 and "6:2mu" is 2 mu, integral as written.

def _alt(n):
    return (-1) ** n


MOCK_THETA = {
    # third order
    "3:f": lambda n: (1, n * n, [(-1, 1, 1, n, -2)]),
    "3:phi": lambda n: (1, n * n, [(-1, 2, 2, n, -1)]),
    "3:psi": lambda n: (1, (n + 1) ** 2, [(1, 1, 2, n + 1, -1)]),
    "3:chi": lambda n: (1, n * n, [(-1, 1, 1, n, 1), (-1, 3, 3, n, -1)]),
    "3:omega": lambda n: (1, 2 * n * (n + 1), [(1, 1, 2, n + 1, -2)]),
    "3:nu": lambda n: (1, n * (n + 1), [(-1, 1, 2, n + 1, -1)]),
    "3:rho": lambda n: (1, 2 * n * (n + 1),
                        [(1, 1, 2, n + 1, 1), (1, 3, 6, n + 1, -1)]),
    # fifth order
    "5:f0": lambda n: (1, n * n, [(-1, 1, 1, n, -1)]),
    "5:f1": lambda n: (1, n * (n + 1), [(-1, 1, 1, n, -1)]),
    "5:F0": lambda n: (1, 2 * n * n, [(1, 1, 2, n, -1)]),
    "5:F1": lambda n: (1, 2 * n * (n + 1), [(1, 1, 2, n + 1, -1)]),
    "5:phi0": lambda n: (1, n * n, [(-1, 1, 2, n, 1)]),
    "5:phi1": lambda n: (1, (n + 1) ** 2, [(-1, 1, 2, n, 1)]),
    "5:psi0": lambda n: (1, (n + 1) * (n + 2) // 2, [(-1, 1, 1, n, 1)]),
    "5:psi1": lambda n: (1, n * (n + 1) // 2, [(-1, 1, 1, n, 1)]),
    "5:chi0": lambda n: (1, n, [(1, n + 1, 1, n, -1)]),
    "5:chi1": lambda n: (1, n, [(1, n + 1, 1, n + 1, -1)]),
    # sixth order
    "6:phi": lambda n: (_alt(n), n * n,
                        [(1, 1, 2, n, 1), (-1, 1, 1, 2 * n, -1)]),
    "6:psi": lambda n: (_alt(n), (n + 1) ** 2,
                        [(1, 1, 2, n, 1), (-1, 1, 1, 2 * n + 1, -1)]),
    "6:rho": lambda n: (1, n * (n + 1) // 2,
                        [(-1, 1, 1, n, 1), (1, 1, 2, n + 1, -1)]),
    "6:sigma": lambda n: (1, (n + 1) * (n + 2) // 2,
                          [(-1, 1, 1, n, 1), (1, 1, 2, n + 1, -1)]),
    "6:lambda": lambda n: (_alt(n), n,
                           [(1, 1, 2, n, 1), (-1, 1, 1, n, -1)]),
    "6:gamma": lambda n: (1, n * n, [(1, 1, 1, n, 1), (1, 3, 3, n, -1)]),
    # seventh order
    "7:F0": lambda n: (1, n * n, [(1, n + 1, 1, n, -1)]),
    "7:F1": lambda n: (1, (n + 1) ** 2, [(1, n + 1, 1, n + 1, -1)]),
    "7:F2": lambda n: (1, n * (n + 1), [(1, n + 1, 1, n + 1, -1)]),
    # tenth order
    "10:phi": lambda n: (1, n * (n + 1) // 2, [(1, 1, 2, n + 1, -1)]),
    "10:psi": lambda n: (1, (n + 1) * (n + 2) // 2, [(1, 1, 2, n + 1, -1)]),
    "10:X": lambda n: (_alt(n), n * n, [(-1, 1, 1, 2 * n, -1)]),
    "10:chi": lambda n: (_alt(n), (n + 1) ** 2, [(-1, 1, 1, 2 * n + 1, -1)]),
    # second order
    "2:A": lambda n: (1, n + 1, [(-1, 2, 2, n, 1), (1, 1, 2, n + 1, -1)]),
    "2:B": lambda n: (1, n, [(-1, 1, 2, n, 1), (1, 1, 2, n + 1, -1)]),
    "2:mu": lambda n: (_alt(n), n * n,
                       [(1, 1, 2, n, 1), (-1, 2, 2, n, -2)]),
    # eighth order
    "8:S0": lambda n: (1, n * n, [(-1, 1, 2, n, 1), (-1, 2, 2, n, -1)]),
    "8:S1": lambda n: (1, n * (n + 2), [(-1, 1, 2, n, 1), (-1, 2, 2, n, -1)]),
    "8:T0": lambda n: (1, (n + 1) * (n + 2),
                       [(-1, 2, 2, n, 1), (-1, 1, 2, n + 1, -1)]),
    "8:T1": lambda n: (1, n * (n + 1),
                       [(-1, 2, 2, n, 1), (-1, 1, 2, n + 1, -1)]),
    "8:U0": lambda n: (1, n * n, [(-1, 1, 2, n, 1), (-1, 4, 4, n, -1)]),
    "8:U1": lambda n: (1, (n + 1) ** 2,
                       [(-1, 1, 2, n, 1), (-1, 2, 4, n + 1, -1)]),
    "8:V0": lambda n: (2, n * n, [(-1, 1, 2, n, 1), (1, 1, 2, n, -1)]),
    "8:V1": lambda n: (1, (n + 1) ** 2,
                       [(-1, 1, 2, n, 1), (1, 1, 2, n + 1, -1)]),
}

# OEIS A000025: the third-order f(q)
THIRD_ORDER_F = [1, 1, -2, 3, -3, 3, -5, 7, -6, 6, -10, 12]


def _summand(factors, length):
    """prod of (c q^j; q^k)_count^power to `length` terms."""
    out = [1] + [0] * (length - 1)
    for c, j, k, count, power in factors:
        for i in range(count):
            e = j + i * k
            if e >= length:
                break
            for _ in range(abs(power)):
                if power > 0:  # times (1 - c q^e), in place from the top
                    for t in range(length - 1, e - 1, -1):
                        out[t] -= c * out[t - e]
                else:  # divided by (1 - c q^e), in place from the bottom
                    for t in range(e, length):
                        out[t] += c * out[t - e]
    return out


def mock_theta(name, length):
    """Coefficients of q^0 .. q^(length-1) of the named series."""
    out = [0] * length
    if name == "6:2mu":
        # 2 mu = 1 + sum (-1)^n q^(n+1) (1 + q^n) (q; q^2)_n / (-q; q)_(n+1)
        out[0] = 1
        n = 0
        while n + 1 < length:
            rel = length - (n + 1)
            s = _summand([(1, 1, 2, n, 1), (-1, 1, 1, n + 1, -1)], rel)
            s = _mul_sparse(s, [(0, 1), (n, 1)]) if n else [2 * x for x in s]
            for i, x in enumerate(s):
                out[n + 1 + i] += _alt(n) * x
            n += 1
        return out
    defn = MOCK_THETA[name]
    n = 0
    while True:
        sign, lead, factors = defn(n)
        if lead >= length:
            return out
        for i, x in enumerate(_summand(factors, length - lead)):
            out[lead + i] += sign * x
        n += 1


# -- cyclotomic values in the group ring Q[x]/(x^N - 1) --------------------


def cyclotomic_poly(n):
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, cyclotomic_poly(d))
    return num


def _exact_div(a, b):
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        q[i] = a[i + len(b) - 1] // b[-1]
        for j, bj in enumerate(b):
            a[i + j] -= q[i] * bj
    if any(a):
        raise ArithmeticError("inexact cyclotomic division")
    return q


def conductor(value):
    return getattr(value, "n", 1)


def to_ring(value, N):
    """A program coefficient (int, Fraction or Cyc with attributes n and c,
    the coordinates on zeta_n^i) as a length-N vector of Fractions."""
    out = [Fraction(0)] * N
    if hasattr(value, "c"):
        step = N // value.n
        for i, x in enumerate(value.c):
            out[i * step] += x
    else:
        out[0] = Fraction(value)
    return out


def ring_mul(a, b):
    N = len(a)
    out = [Fraction(0)] * N
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % N] += x * y
    return out


def ring_is_zero(a, phi):
    """True when the polynomial a vanishes modulo the cyclotomic phi."""
    a = list(a)
    deg = len(phi) - 1
    for i in range(len(a) - 1, deg - 1, -1):
        if a[i]:
            f = a[i]
            for j, pj in enumerate(phi):
                a[i - deg + j] -= f * pj
    return not any(a[:deg])


def kronecker(D, b):
    """(D/b) for a fundamental discriminant D and b >= 1."""
    out = 1
    p = 2
    while b > 1:
        if p * p > b:
            p = b
        while b % p == 0:
            b //= p
            if D % p == 0:
                return 0
            if p == 2:
                out *= 1 if D % 8 == 1 else -1
            else:
                out *= 1 if pow(D % p, (p - 1) // 2, p) == 1 else -1
        p += 1
    return out


def _binomial(E, j):
    """Generalized binomial coefficient E choose j for any integer E."""
    num = 1
    for i in range(j):
        num *= E - i
    den = 1
    for i in range(2, j + 1):
        den *= i
    return num // den


def borcherds_psi(D, r, table_get, N):
    """Psi_{D,r} = prod_n prod_b (1 - zeta_|D|^-b q^n)^((D/b) C(Dn^2, rn)),
    as a list of group-ring vectors (ints), together with its window: the
    product runs while the table can give C(Dn^2, rn).  table_get returns
    the coefficient or raises LookupError beyond the table's depth."""
    exps = []
    while True:
        n = len(exps) + 1
        try:
            exps.append(int(table_get(D * n * n, r * n)))
        except LookupError:
            break
    window = len(exps) + 1
    step = N // abs(D)
    psi = [[0] * N for _ in range(window)]
    psi[0][0] = 1
    for n, e in enumerate(exps, start=1):
        if e == 0 or n >= window:
            continue
        for b in range(1, abs(D)):
            k = kronecker(D, b)
            if k == 0:
                continue
            s = ((-b) % abs(D)) * step
            # (1 - x^s q^n)^E = sum_j binom(E, j) (-1)^j x^(sj) q^(nj)
            E = k * e
            terms = [(j, _binomial(E, j) * (-1) ** j)
                     for j in range((window - 1) // n + 1)]
            new = [[0] * N for _ in range(window)]
            for i in range(window):
                for j, c in terms:
                    if n * j > i or not c:
                        continue
                    src = psi[i - n * j]
                    rot = (s * j) % N
                    row = new[i]
                    for t, v in enumerate(src):
                        if v:
                            row[(t + rot) % N] += c * v
            psi = new
    return psi, window


def fit_residual(P, Q, psi, window, unit_T):
    """First exponent x at which Q(T) Psi - P(T) fails to vanish, or None.

    T = q^-1 * unit_T; Psi is known below `window` and T to len(unit_T) - 1.
    The residual is checked for every x from -max(deg P, deg Q) up to
    window - deg Q - 1, where Q(T) Psi is still justified."""
    dq, dp = len(Q) - 1, len(P) - 1
    d = max(dp, dq)
    N = len(psi[0])
    phi = cyclotomic_poly(N)
    lo, hi = -d, window - dq  # check lo <= x < hi
    # T^j as dense lists starting at exponent -j, long enough for x < hi
    length = hi + d + 1
    if len(unit_T) < length:
        raise ValueError("T is too short for the window")
    Tpow = [[1] + [0] * (length - 1)]
    for _ in range(d):
        prev = Tpow[-1]
        Tpow.append([sum(prev[i - k] * unit_T[k] for k in range(i + 1))
                     for i in range(length)])
    Pr = [to_ring(c, N) for c in P]
    Qr = [to_ring(c, N) for c in Q]
    for x in range(lo, hi):
        acc = [Fraction(0)] * N
        for j, qj in enumerate(Qr):
            # (T^j Psi)[x] = sum_{a+b=x} T^j[a] Psi[b], T^j[a] at a >= -j
            conv = [0] * N
            for b in range(0, x + j + 1):
                if b >= window:
                    break
                t = Tpow[j][x - b + j]
                if t:
                    conv = [u + t * v for u, v in zip(conv, psi[b])]
            acc = [u + v for u, v in zip(acc, ring_mul(qj, conv))]
        for j, pj in enumerate(Pr):
            if x + j >= 0:
                t = Tpow[j][x + j]
                if t:
                    acc = [u - t * v for u, v in zip(acc, pj)]
        if not ring_is_zero(acc, phi):
            return x
    return None


def ring_size(D, values):
    return lcm(abs(D), *(conductor(v) for v in values))
