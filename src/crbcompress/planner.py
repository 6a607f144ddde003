"""Design guidance from the compression loss laws.

Answers the forward question (given m, how confident are we that the
per-parameter CRB inflation stays below a factor kappa?) and the
inverse one (how many compressed measurements buy a target confidence?),
plus ratio tables over grids and concentration-ellipse loci for
two-parameter problems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from . import betalaw, cxla
from .errors import BadShape, DomainError, Infeasible, NoConvergence, is_int, is_real

DEFAULT_CONFIDENCES = (0.90, 0.99)

# Rounds of exact confirmation min_measurements makes before giving up;
# each failed confirmation re-anchors the binomial walk at an exact value.
_MAX_CONFIRMATIONS = 4
# confidence_at(m) minus the pmf term stands for confidence_at(m - 1) only
# when it misses the target by more than this much relative to
# confidence_at(m), which bounds the rounding error of the difference.
_DIFFERENCE_RTOL = 1e-12


@dataclass(frozen=True)
class PlanQuery:
    """Target for the inverse design problem."""

    n: int
    p: int
    kappa: float
    confidence: float

    def __post_init__(self):
        if not (is_int(self.n) and is_int(self.p)):
            raise DomainError("n and p must be ints")
        if self.p < 1:
            raise DomainError(f"need p >= 1, got p={self.p}")
        if self.n <= self.p + 1:
            raise DomainError(f"need n > p + 1, got n={self.n}, p={self.p}")
        if not (is_real(self.kappa) and self.kappa > 1.0 and math.isfinite(self.kappa)):
            raise DomainError(f"need a real kappa > 1, got {self.kappa!r}")
        if not (is_real(self.confidence) and 0.0 < self.confidence < 1.0):
            raise DomainError(f"confidence must be a real number in (0, 1), got {self.confidence!r}")


@dataclass(frozen=True)
class PlanRow:
    """One grid point of a planning table."""

    kappa: float
    confidence: float
    m: int | None
    ratio: float | None
    feasible: bool


def confidence_at(n: int, m: int, p: int, kappa: float) -> float:
    """P[CRB after <= kappa * CRB before] under random compression.

    The before/after ratio follows Beta(m - p + 1, n - m), so the value
    is its upper tail at 1/kappa, computed directly rather than as one
    minus the cdf, so small confidences keep their relative precision.
    By the binomial identity I_x(a, b) = P[Binomial(a + b - 1, x) >= a]
    it equals P[Binomial(n - p, 1/kappa) <= m - p].  Takes the law's
    domain p < m < n, which ``betalaw.crb_ratio_law`` checks.
    """
    law = betalaw.crb_ratio_law(n, m, p)
    if not (is_real(kappa) and kappa > 0.0 and math.isfinite(kappa)):
        raise DomainError(f"kappa must be a positive finite real number, got {kappa!r}")
    if kappa <= 1.0:
        return 0.0
    return betalaw.beta_sf(law, 1.0 / kappa)


def _exact(n: int, m: int, p: int, x: float) -> tuple[float, float]:
    """confidence_at(n, m, p, 1 / x) and the density of its law at x, from one kernel evaluation."""
    _, upper, pdf = betalaw.beta_tails_pdf(betalaw.crb_ratio_law(n, m, p), x)
    return upper, pdf


def _walk(trials: int, x: float, k: int, c: float, confidence: float, lo: int, hi: int) -> int:
    """Binomial-tail walk from an exact anchor to the confidence crossing.

    ``c`` is P[Binomial(trials, x) <= k].  Each step adds (upward) or
    removes (downward) one pmf term, carried by its log-space recurrence.
    Returns the smallest k in [lo, hi] whose walked cdf reaches
    ``confidence``, or hi when none does.
    """
    log_odds = math.log(x) - math.log1p(-x)
    lp = (
        math.lgamma(trials + 1)
        - math.lgamma(k + 1)
        - math.lgamma(trials - k + 1)
        + k * math.log(x)
        + (trials - k) * math.log1p(-x)
    )
    if c >= confidence:
        while k > lo:
            c -= math.exp(lp)
            if c < confidence:
                break
            lp += math.log(k / (trials - k + 1)) - log_odds
            k -= 1
        return k
    while k < hi and c < confidence:
        lp += math.log((trials - k) / (k + 1)) + log_odds
        k += 1
        c += math.exp(lp)
    return k


def min_measurements(query: PlanQuery) -> int:
    """Smallest m in p + 1 <= m <= n - 1 with confidence_at(n, m, p, kappa) >= confidence.

    The confidence is P[Binomial(n - p, 1/kappa) <= m - p], nondecreasing
    in m, so the search starts at the Cornish-Fisher quantile of that
    binomial (the normal quantile plus its skewness term), walks its pmf
    to the crossing, and confirms the boundary with one exact
    confidence_at value at m.  The value at m - 1 is that one minus the
    pmf term P[Binomial = m - p], a multiple of the law's density at
    1/kappa, which the kernel evaluation of the exact value returns with
    it; only when the difference lies within its rounding error of the
    target is confidence_at(m - 1) evaluated exactly.  On the floor
    m = p + 1, the smallest m of the law, nothing below is checked.  A
    confirmation that fails re-anchors the walk at the exact value; after
    _MAX_CONFIRMATIONS of them the search raises NoConvergence.  Raises
    Infeasible (carrying the best achievable confidence, an exact value)
    when even m = n - 1 falls short.
    """
    n, p, kappa, confidence = query.n, query.p, query.kappa, query.confidence
    # PlanQuery's n > p + 1 leaves at least one m to search
    lo = p + 1
    hi = n - 1
    # m -> (confidence_at(m), density of its law at x)
    exact: dict[int, tuple[float, float]] = {}

    def exact_at(m: int) -> float:
        if m not in exact:
            exact[m] = _exact(n, m, p, x)
        return exact[m][0]

    def below(m: int) -> float:
        """confidence_at(m - 1), from the exact value at m."""
        if m - 1 in exact:
            return exact[m - 1][0]
        c, pdf = exact[m]
        # P[Binomial(trials, x) = m - p] from the density of the law at m
        value = c - pdf * (1.0 - x) / (n - m)
        if abs(value - confidence) > _DIFFERENCE_RTOL * c:
            return value
        return exact_at(m - 1)

    x = 1.0 / kappa
    trials = n - p
    z = NormalDist().inv_cdf(confidence)
    start = (
        trials * x
        + z * math.sqrt(trials * x * (1.0 - x))
        + (z * z - 1.0) * (1.0 - 2.0 * x) / 6.0
        - 0.5
    )
    m = min(max(p + math.ceil(start), lo), hi)
    for _ in range(_MAX_CONFIRMATIONS):
        m = p + _walk(trials, x, m - p, exact_at(m), confidence, lo - p, hi - p)
        c = exact_at(m)
        if c < confidence:
            if m == hi:
                raise Infeasible(
                    f"confidence {confidence} at kappa={kappa} is unreachable for n={n}, p={p}; "
                    f"the best achievable is {c:.6f} at m={hi}",
                    max_confidence=c,
                )
            continue
        if m == lo or below(m) < confidence:
            return m
        m -= 1
    raise NoConvergence(
        f"binomial-tail walk did not confirm a boundary in {_MAX_CONFIRMATIONS} rounds "
        f"for n={n}, p={p}, kappa={kappa}, confidence={confidence}"
    )


def _grid(values, what: str) -> list[float]:
    """A grid's entries as floats, or DomainError unless it is a nonempty 1-D sequence of real numbers (``is_real``)."""
    entries = values.tolist() if isinstance(values, np.ndarray) else values
    if not isinstance(entries, (list, tuple)) or not all(is_real(v) for v in entries):
        raise DomainError(f"{what} grid must be a one-dimensional list of real numbers, got {values!r}")
    if len(entries) == 0:
        raise DomainError(f"{what} grid is empty")
    return [float(v) for v in entries]


def curve(
    n: int,
    p: int,
    kappas: Sequence[float],
    confidences: Sequence[float] = DEFAULT_CONFIDENCES,
) -> list[PlanRow]:
    """Planning table over a grid of inflation factors and confidences.

    Infeasible grid points come back as rows with ``feasible=False``
    instead of raising.
    """
    kappas, confidences = _grid(kappas, "kappa"), _grid(confidences, "confidence")
    rows: list[PlanRow] = []
    for confidence in confidences:
        for kappa in kappas:
            query = PlanQuery(n=n, p=p, kappa=kappa, confidence=confidence)
            try:
                m = min_measurements(query)
            except Infeasible:
                m = None
            rows.append(PlanRow(kappa=query.kappa, confidence=query.confidence, m=m,
                                ratio=None if m is None else m / n, feasible=m is not None))
    return rows


def ellipse_locus(J, r2: float, points: int = 256) -> np.ndarray:
    """Locus {e in R^2 : e^T Re(J) e = r2}, the image of a circle under Re(J)^{-1/2}.

    ``J`` is a 2x2 Hermitian information matrix; the real part governs
    real-valued error vectors.  The points are sqrt(r2) S c for c on the
    unit circle, uniform in angle, and S the symmetric root
    ``cxla.hermitian_inv_sqrt(Re(J))``, whose PD_TOL verdict raises
    NotPositiveDefinite unless the smallest eigenvalue of Re(J) exceeds
    PD_TOL times the largest.  Returns an array of shape (points, 2);
    the curve is closed but the first point is not repeated.
    """
    J = cxla.as_hermitian(J, "J")
    if J.shape != (2, 2):
        raise BadShape(f"ellipse loci are defined for 2x2 matrices, got {J.shape}")
    if not (is_real(r2) and r2 > 0.0 and math.isfinite(r2)):
        raise DomainError(f"level r2 must be a positive finite real number, got {r2!r}")
    if not (is_int(points) and points >= 3):
        raise DomainError(f"need at least 3 points, got {points!r}")
    s = np.real(cxla.hermitian_inv_sqrt(np.real(J)))
    angles = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    circle = np.vstack([np.cos(angles), np.sin(angles)])
    return (math.sqrt(r2) * (s @ circle)).T
