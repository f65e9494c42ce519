"""Exception hierarchy shared across the package."""


class E6CSError(Exception):
    """Base class for all package-specific errors."""


class NonIntegralError(E6CSError):
    """A weight-basis vector does not lie in the root lattice."""


class InternalInconsistencyError(E6CSError):
    """An exactness self-check failed, signalling corrupted static data."""


class ZeroDenominatorError(E6CSError):
    """Two distinct admissible weights share an operator eigenvalue."""


class DegenerateScaleError(E6CSError):
    """The annihilator product wiped out the leading monomial."""


class NegativeMultiplicityError(E6CSError):
    """Coefficient peeling produced a negative multiplicity."""


class NonzeroResidualError(E6CSError):
    """Coefficient peeling left a nonzero residual after all candidates."""


class CacheCorruptError(E6CSError):
    """A cached character failed its invariants on reload."""


class CacheDirectoryError(E6CSError):
    """The cache directory cannot be read or written."""


class BudgetExceededError(E6CSError):
    """An input asks for more work than a fixed limit allows."""
