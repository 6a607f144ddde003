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
from .errors import BadShape, DomainError, Infeasible, NoConvergence, NotPositiveDefinite

DEFAULT_CONFIDENCES = (0.90, 0.99)

# Rounds of exact confirmation min_measurements makes before giving up;
# each failed confirmation re-anchors the binomial walk at an exact value.
_MAX_CONFIRMATIONS = 4


@dataclass(frozen=True)
class PlanQuery:
    """Target for the inverse design problem."""

    n: int
    p: int
    kappa: float
    confidence: float

    def __post_init__(self):
        if not (isinstance(self.n, int) and isinstance(self.p, int)):
            raise DomainError("n and p must be ints")
        if self.p < 1:
            raise DomainError(f"need p >= 1, got p={self.p}")
        if self.n <= self.p + 1:
            raise DomainError(f"need n > p + 1, got n={self.n}, p={self.p}")
        if not (self.kappa > 1.0 and math.isfinite(self.kappa)):
            raise DomainError(f"need kappa > 1, got {self.kappa}")
        if not 0.0 < self.confidence < 1.0:
            raise DomainError(f"confidence must lie in (0, 1), got {self.confidence}")


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
    is one minus its cdf at 1/kappa.  By the binomial identity
    I_x(a, b) = P[Binomial(a + b - 1, x) >= a] it equals
    P[Binomial(n - p, 1/kappa) <= m - p].  Requires p < m <= n - p.
    """
    if not (isinstance(n, int) and isinstance(m, int) and isinstance(p, int)):
        raise DomainError("n, m, p must be ints")
    if p < 1:
        raise DomainError(f"need p >= 1, got p={p}")
    if not p < m <= n - p:
        raise DomainError(f"need p < m <= n - p, got p={p}, m={m}, n={n}")
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise DomainError(f"kappa must be positive and finite, got {kappa}")
    if kappa <= 1.0:
        return 0.0
    law = betalaw.crb_ratio_law(n, m, p)
    return 1.0 - float(betalaw.beta_cdf(law, 1.0 / kappa))


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
    """Smallest m with confidence_at(n, m, p, kappa) >= confidence.

    The confidence is P[Binomial(n - p, 1/kappa) <= m - p], nondecreasing
    in m, so the search starts at the normal-approximation quantile of
    that binomial, walks its pmf to the crossing, and confirms the
    boundary with exact confidence_at values at m and m - 1 (at m alone
    on the floor m = p + 2).  A confirmation that fails re-anchors the
    walk at the exact value; after _MAX_CONFIRMATIONS of them the search
    raises NoConvergence.  Raises Infeasible (carrying the best
    achievable confidence) when even m = n - p falls short.
    """
    n, p, kappa, confidence = query.n, query.p, query.kappa, query.confidence
    lo = p + 2
    hi = n - p
    if hi < lo:
        raise Infeasible(
            f"no admissible m exists for n={n}, p={p} (need p + 2 <= m <= n - p)",
            max_confidence=0.0,
        )
    exact: dict[int, float] = {}

    def exact_at(m: int) -> float:
        if m not in exact:
            exact[m] = confidence_at(n, m, p, kappa)
        return exact[m]

    x = 1.0 / kappa
    trials = n - p
    z = NormalDist().inv_cdf(confidence)
    start = trials * x + z * math.sqrt(trials * x * (1.0 - x)) - 0.5
    m = min(max(p + math.ceil(start), lo), hi)
    for _ in range(_MAX_CONFIRMATIONS):
        m = p + _walk(trials, x, m - p, exact_at(m), confidence, lo - p, hi - p)
        if exact_at(m) < confidence:
            if m == hi:
                raise Infeasible(
                    f"confidence {confidence} at kappa={kappa} is unreachable for n={n}, p={p}; "
                    f"the best achievable is {exact[m]:.6f} at m={hi}",
                    max_confidence=exact[m],
                )
            continue
        if m == lo or exact_at(m - 1) < confidence:
            return m
        m -= 1
    raise NoConvergence(
        f"binomial-tail walk did not confirm a boundary in {_MAX_CONFIRMATIONS} rounds "
        f"for n={n}, p={p}, kappa={kappa}, confidence={confidence}"
    )


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
    if len(kappas) == 0:
        raise DomainError("kappa grid is empty")
    if len(confidences) == 0:
        raise DomainError("confidence grid is empty")
    rows: list[PlanRow] = []
    for confidence in confidences:
        for kappa in kappas:
            query = PlanQuery(n=n, p=p, kappa=float(kappa), confidence=float(confidence))
            try:
                m = min_measurements(query)
                rows.append(
                    PlanRow(
                        kappa=float(kappa),
                        confidence=float(confidence),
                        m=m,
                        ratio=m / n,
                        feasible=True,
                    )
                )
            except Infeasible:
                rows.append(
                    PlanRow(
                        kappa=float(kappa),
                        confidence=float(confidence),
                        m=None,
                        ratio=None,
                        feasible=False,
                    )
                )
    return rows


def ellipse_locus(J, r2: float, points: int = 256) -> np.ndarray:
    """Locus {e in R^2 : e^T Re(J) e = r2}, sampled uniformly in angle.

    ``J`` is a 2x2 Hermitian positive definite information matrix; the
    real part governs real-valued error vectors.  Returns an array of
    shape (points, 2); the curve is closed but the first point is not
    repeated.
    """
    J = cxla.as_hermitian(J, "J")
    if J.shape != (2, 2):
        raise BadShape(f"ellipse loci are defined for 2x2 matrices, got {J.shape}")
    if not (r2 > 0.0 and math.isfinite(r2)):
        raise DomainError(f"level r2 must be positive and finite, got {r2}")
    if not (isinstance(points, int) and points >= 3):
        raise DomainError(f"need at least 3 points, got {points!r}")
    a = np.real(J)
    a = 0.5 * (a + a.T)
    w = np.linalg.eigvalsh(a)
    if w[0] <= 0.0:
        raise NotPositiveDefinite(
            f"Re(J) must be positive definite (eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    L = np.linalg.cholesky(a)
    angles = np.linspace(0.0, 2.0 * math.pi, points, endpoint=False)
    circle = np.vstack([np.cos(angles), np.sin(angles)])
    locus = math.sqrt(r2) * np.linalg.solve(L.T, circle)
    return locus.T
