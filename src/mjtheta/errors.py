"""Exception types shared across the package."""


class MJTError(Exception):
    """Base class for all package-specific errors."""


class NonInvertibleLeadingTerm(MJTError):
    """Raised when a series reciprocal is requested but no leading term exists."""


class LevelMismatch(MJTError):
    """An eta factor n_i is not a positive divisor of the ambient level m,
    or the quotient's Fricke multiplier at level m is irrational; also a
    level m < 1 (enumerate_heegner, genus_char), a form whose
    A the level m does not divide (genus_char), and a linear combination
    of no tables or of tables of different index or parity
    (table_lin_comb)."""


class NotConstant(MJTError):
    """A product expected to be constant has a nonconstant term.

    Carries the first offending exponent in ``args[0]``.
    """


class InsufficientDepth(MJTError):
    """A coefficient table was read, or given an entry, outside its justified
    range, or for a residue with no range; or the streams of a table row or
    relation reach no coefficient (jacobi.stream_combination), or those of
    a Watson or Andrews-Hickerson identity at an order <= 0."""


class NotFundamental(MJTError):
    """The discriminant passed to a lift is not fundamental."""


class ParseError(MJTError):
    """Malformed input text; carries a line number when applicable."""


class CongruenceViolation(MJTError):
    """A record violates D = r^2 mod 4m or has a residue r outside 0..m, or
    gives an odd table a nonzero entry at r = 0 or r = m, where the residue
    rule forces zero; or a multiplier a for ez_apply is not in O_m
    (a^2 = 1 mod 4m)."""


class BadParity(MJTError):
    """A coefficient table's parity is neither +1 nor -1."""


class UnknownLambency(MJTError):
    """A symbol not present in the catalog."""


class MissingSource(MJTError):
    """A construction needs data that has not been ingested."""


class UnreadableSource(MJTError):
    """A coefficient data file could not be opened or decoded."""


class UnknownName(MJTError):
    """No Eulerian series registered under the requested name."""


class Divergent(MJTError):
    """An expansion with no justified window: the substitution q -> q^t,
    t <= 0, or a slice modulo b <= 0."""


class BadDiscriminant(MJTError):
    """Kronecker symbol requires D nonzero and congruent to 0 or 1 mod 4;
    Heegner forms need D < 0 (enumerate_heegner), a genus character a
    fundamental D (genus_char), and a Borcherds product a negative
    fundamental D (psi_expand, fit_case)."""


class NonIntegralExponent(MJTError):
    """A Borcherds product exponent C(D n^2, r n) is not an integer."""


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
