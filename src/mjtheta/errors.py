"""Exception types shared across the package."""


class MJTError(Exception):
    """Base class for all package-specific errors."""


class LevelMismatch(MJTError):
    """An eta factor n_i is not a positive divisor of the ambient level m,
    or the quotient's Fricke multiplier at level m is irrational; also a
    level m < 1 (enumerate_heegner, genus_char), a form whose
    A the level m does not divide (genus_char), a sum of no tables or of
    tables of different index (table_sum), and a caller's table whose
    index is not the lambency's (catalog.table_for, so psi_expand,
    fit_case, verify_table14_15, check_positivity_phi)."""


class NotConstant(MJTError):
    """A product expected to be constant has a nonconstant term.

    Carries the first offending exponent in ``args[0]``.
    """


class InsufficientDepth(MJTError):
    """A coefficient table was read, or given an entry, outside its justified
    range, or for a residue with no range; or a jacobi.Stream (a table row,
    or a side of a relation) reaches no coefficient, or the series of a
    Watson or Andrews-Hickerson identity at an order <= 0."""


class ParseError(MJTError):
    """Malformed input text, or coefficient records that disagree on one
    C(D, r) or give C(1, 1) != -2; carries a line number when applicable."""


class CongruenceViolation(MJTError):
    """A record violates D = r^2 mod 4m or has a residue r outside 0..m, or
    gives a table a nonzero entry at r = 0 or r = m, where the residue
    rule forces zero; or a multiplier a for ez_apply is not in O_m
    (a^2 = 1 mod 4m)."""


class UnknownLambency(MJTError):
    """A symbol not present in the catalog."""


class MissingSource(MJTError):
    """A check needs a table that no caller, shipped fixture or ingested
    data gives (catalog.table_for, so psi_expand, fit_case,
    verify_table14_15, check_positivity_phi, construct_averaged and
    verify_mult_relation), or a fixture row that the catalog does not
    carry (verify_mult_relation)."""


class UnreadableSource(MJTError):
    """A coefficient data file could not be opened or decoded."""


class UnknownName(MJTError):
    """No Eulerian series, table row or relation row of the given name."""


class Divergent(MJTError):
    """An expansion with no justified window: the substitution q -> q^t,
    t <= 0, or a slice modulo b <= 0."""


class BadDiscriminant(MJTError):
    """Kronecker symbol requires D nonzero and congruent to 0 or 1 mod 4;
    Heegner forms need D < 0 (enumerate_heegner), a genus character a
    fundamental D (genus_char), and a Borcherds product and a value
    x + y G_D a negative fundamental D (psi_expand, fit_case,
    cyclo.Cyc.make)."""


class NonIntegralCoefficient(MJTError):
    """A coefficient table is given a value that is not an int, or
    series_mul an operand with one.  Table values are ints, so every
    Borcherds exponent C(D n^2, r n) is one; every product the package
    forms is a product of int series."""


class IrrationalPhase(MJTError):
    """A half-shift whose phase e(turn + s x) at an exponent x with a
    nonzero coefficient is not +-1, so the coefficient would be irrational
    (series_half_shift, and a jacobi.Stream term c e(t) under
    tau -> A tau + B, whose phase is e(t + B x); stream_combination)."""


class ExcludedDiscriminant(MJTError):
    """(m, D) combination excluded by the rationality theorem's hypothesis,
    or (D, r) whose Borcherds product is identically 1 because every
    exponent C(D n^2, r n) is a structural zero of the table."""


class NoSolutionWithinDegree(MJTError):
    """No conj S(T)^k / S(T)^k of the degree the Heegner divisor fixes
    matches the Borcherds product on its window (fit_case)."""


class Underdetermined(MJTError):
    """The window of the Borcherds product leaves S undetermined or
    unchecked: the solve has a kernel or no surplus row (fit_case)."""
