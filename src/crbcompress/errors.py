"""Exception taxonomy shared by every module in the package.

The bad-input classes (``BadShape``, ``BadSpec``, ``DomainError`` and
``TooFewSamples``) are also ``ValueError``s; the others report a
numerical failure on valid input.  The command line exits 1 for a
``ValueError`` and 2 for any other error of this package.  The input
rules every module shares live here too: ``is_int`` for counts and
indices, ``is_real`` for real parameters, ``is_real_array`` for points
and samples and ``is_complex_array`` for complex array arguments.
"""

import numbers

import numpy as np


def is_int(value) -> bool:
    """Whether ``value`` is an int that is not a bool: the rule for counts, indices, dimensions and seeds."""
    # bool is an int to Python, but no count, index or seed takes one
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number that is not a bool: the rule for real parameters.

    Python and numpy ints and floats pass; a bool, a complex number, a
    string or an array does not.
    """
    # float first: the common case, and cheaper than the ABC check
    return isinstance(value, float) or (isinstance(value, numbers.Real) and not isinstance(value, bool))


def is_real_array(value) -> bool:
    """Whether ``value`` holds real numbers: ints or floats, not bools, complex numbers, strings or objects.

    The rule for points and samples.  ``value`` is an array (0-d
    included), a number, or a list or tuple of them, nested.  A list or
    tuple is checked entry by entry before numpy promotes it, so the True
    in [True, 0.3] is refused, not read as 1.0.
    """
    return _holds(value, is_real, "iuf")


def is_complex_array(value) -> bool:
    """Whether ``value`` holds numbers: ints, floats or complex numbers, not bools, strings or objects.

    The rule for complex array arguments (Jacobians, compressors, means,
    information matrices), read as ``is_real_array`` reads its values.
    """
    return _holds(value, _is_number, "iufc")


def _is_number(value) -> bool:
    return isinstance(value, numbers.Complex) and not isinstance(value, bool)


def _holds(value, is_entry, kinds: str) -> bool:
    """Whether every entry of ``value`` passes ``is_entry`` (lists and tuples) or its dtype kind is in ``kinds``."""
    # an ndarray, the common case, pays for its dtype alone
    if isinstance(value, np.ndarray):
        return value.dtype.kind in kinds
    if isinstance(value, (list, tuple)):
        return all(is_entry(v) or _holds(v, is_entry, kinds) for v in value)
    return np.asarray(value).dtype.kind in kinds


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
    """Fisher information is singular for the requested parameter.

    ``fisher.crb`` raises it when the smallest eigenvalue of J is at or
    below ``cxla.PD_TOL`` times the largest: J has no inverse, so there
    is no bound.
    """


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
