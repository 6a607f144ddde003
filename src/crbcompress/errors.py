"""Exception taxonomy shared by every module in the package.

The bad-input classes (``BadShape``, ``BadSpec``, ``DomainError`` and
``TooFewSamples``) are also ``ValueError``s; the others report a
numerical failure on valid input.  The command line exits 1 for a
``ValueError`` and 2 for any other error of this package.
"""


def is_int(value) -> bool:
    """Whether ``value`` is an int that is not a bool: the rule for counts, indices, dimensions and seeds."""
    # bool is an int to Python, but no count, index or seed takes one
    return isinstance(value, int) and not isinstance(value, bool)


class CrbCompressError(Exception):
    """Base class for all errors raised by this package."""


class BadShape(CrbCompressError, ValueError):
    """An array argument has the wrong shape, dtype, or non-finite entries."""


class BadSpec(CrbCompressError, ValueError):
    """A configuration object is internally inconsistent."""


class DomainError(CrbCompressError, ValueError):
    """An argument lies outside the domain of the requested quantity.

    For the three matrix beta densities, which share one spectrum density
    and one boundary rule, that is a point whose W or I - W has an
    eigenvalue below -SUPPORT_TOL; a point on the boundary is in the
    domain and gets a log density of -inf.
    """


class RankDeficient(CrbCompressError):
    """A matrix required to have full rank does not."""


class NotPositiveDefinite(CrbCompressError):
    """A matrix required to be Hermitian positive definite is not."""


class SingularFim(CrbCompressError):
    """Fisher information is singular for the requested parameter."""


class NoConvergence(CrbCompressError):
    """An iterative numerical routine exhausted its iteration budget."""


class Infeasible(CrbCompressError):
    """No admissible design satisfies the requested constraint.

    ``max_confidence`` carries the best achievable value so callers can
    report how far away the target is.
    """

    def __init__(self, message: str, max_confidence: float | None = None):
        super().__init__(message)
        self.max_confidence = max_confidence


class TooFewSamples(CrbCompressError, ValueError):
    """A statistical routine was handed fewer samples than it supports."""
