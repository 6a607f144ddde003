"""Closed-form laws for information loss under random compression.

When an n-dimensional complex Gaussian mean model with p parameters is
compressed by a right-orthogonally invariant random m-by-n matrix, the
whitened compressed information matrix follows a type-I complex matrix
beta distribution, and scalar summaries of it follow ordinary beta
laws:

* per-parameter CRB before/after ratio: Beta(m - p + 1, n - m),
* KL divergence after/before ratio (scalar covariance): Beta(m, n - m).

Densities are exposed in the log domain; at realistic dimensions they
underflow doubles.  The univariate cdf is a regularized incomplete beta
evaluated with a modified Lentz continued fraction.  For integer shapes
it is a binomial tail, I_x(a, b) = P[Binomial(a + b - 1, x) >= a], which
the planner uses to search measurement counts.  The quantile is a
bracketed Newton iteration on the log of the tail holding q (the cdf
below the median, the mirrored upper tail above it).  It starts at the
normal approximation mean + z * sd, or at the mean when that point lies
outside (0, 1), and stops when a Newton step moves x by at most 1e-15
relative to x or the bracket collapses to adjacent doubles.

Convention for eigenvalue densities: symmetric in the arguments, so the
value integrates to p! over the unit cube, or equivalently to 1 over
the ordered sector.  Multiply by nothing for ordered points; divide by
p! to renormalize to the symmetric (unordered) probability density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import cxla
from .errors import BadShape, DomainError, NoConvergence, NotPositiveDefinite, SingularMatrix

# Relative slack allowed outside [0, 1] (or outside the Loewner interval)
# before a point is rejected as off-support.
SUPPORT_TOL = 1e-10

_CF_MAX_ITER = 200
_CF_EPS = 3e-16
_CF_FPMIN = 1e-300

_QUANTILE_MAX_ITER = 200
# Newton steps this small relative to x end the quantile iteration.
_QUANTILE_XTOL = 1e-15


@dataclass(frozen=True)
class BetaLaw:
    """Univariate type-I beta distribution on [0, 1]."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise DomainError(f"shape a must be positive and finite, got {self.a}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise DomainError(f"shape b must be positive and finite, got {self.b}")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        s = self.a + self.b
        return self.a * self.b / (s * s * (s + 1.0))


@dataclass(frozen=True)
class MatrixBetaLaw:
    """Type-I complex matrix beta law CB_p(m, n - m) on 0 <= V <= I_p."""

    p: int
    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.m, int) and isinstance(self.n, int)):
            raise DomainError("p, m, n must be ints")
        if self.p < 1:
            raise DomainError(f"need p >= 1, got p={self.p}")
        if self.m < self.p:
            raise DomainError(f"need m >= p, got m={self.m}, p={self.p}")
        if self.n - self.m < self.p:
            raise DomainError(f"need n - m >= p, got n-m={self.n - self.m}, p={self.p}")

    def log_norm(self) -> float:
        """Log of the density normalizer."""
        return (
            ln_cmv_gamma(self.p, self.n)
            - ln_cmv_gamma(self.p, self.m)
            - ln_cmv_gamma(self.p, self.n - self.m)
        )


def ln_cmv_gamma(p: int, a: float) -> float:
    """Log of the complex multivariate gamma function.

    ln of pi^{p(p-1)/2} * prod_{i=1..p} Gamma(a - i + 1); requires
    a > p - 1 so every gamma argument is positive.
    """
    if not (isinstance(p, int) and p >= 1):
        raise DomainError(f"need integer p >= 1, got {p!r}")
    if not (a > p - 1):
        raise DomainError(f"need a > p - 1, got a={a}, p={p}")
    out = 0.5 * p * (p - 1) * math.log(math.pi)
    for i in range(1, p + 1):
        out += math.lgamma(a - i + 1)
    return out


def _ln_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for it in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * it
        aa = it * (b - it) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + it) * (qab + it) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise NoConvergence(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _pdf_scalar(law: BetaLaw, x: float) -> float:
    a, b = law.a, law.b
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"pdf argument must lie in [0, 1], got {x}")
    if x == 0.0:
        if a > 1.0:
            return 0.0
        return b if a == 1.0 else math.inf
    if x == 1.0:
        if b > 1.0:
            return 0.0
        return a if b == 1.0 else math.inf
    return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - _ln_beta(a, b))


def _cdf_scalar(law: BetaLaw, x: float) -> float:
    a, b = law.a, law.b
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"cdf argument must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = a * math.log(x) + b * math.log1p(-x) - _ln_beta(a, b)
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _beta_cont_frac(a, b, x) / a
    return 1.0 - bt * _beta_cont_frac(b, a, 1.0 - x) / b


def _quantile_scalar(law: BetaLaw, q: float) -> float:
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {q}")
    # Iterate on the tail holding q: the cdf below the median, the upper
    # tail 1 - F(x) = I_{1-x}(b, a) of the mirrored law above it, so both
    # the tail mass and the target 1 - q (exact for q > 1/2) keep their
    # relative precision.
    upper = q > 0.5
    mirror = BetaLaw(law.b, law.a) if upper else law
    target = math.log1p(-q) if upper else math.log(q)
    x = law.mean + NormalDist().inv_cdf(q) * math.sqrt(law.variance)
    if not 0.0 < x < 1.0:
        x = law.mean
    lo, hi = 0.0, 1.0
    for _ in range(_QUANTILE_MAX_ITER):
        tail = _cdf_scalar(mirror, 1.0 - x) if upper else _cdf_scalar(law, x)
        # an underflowed tail puts x further out than the quantile
        excess = math.log(tail) - target if tail > 0.0 else -math.inf
        if excess == 0.0:
            return x
        # the tail exceeds its target when x lies above the quantile for
        # the cdf, below it for the upper tail
        if (excess > 0.0) != upper:
            hi = x
        else:
            lo = x
        # bracket collapsed to adjacent doubles: no better x exists
        if hi - lo <= np.spacing(lo):
            return x
        d = _pdf_scalar(law, x)
        if d > 0.0 and math.isfinite(d) and math.isfinite(excess):
            # Newton step on log(tail) - target; the tail's slope in x is
            # pdf for the cdf and -pdf for the upper tail
            step = (excess if upper else -excess) * tail / d
            if abs(step) <= _QUANTILE_XTOL * x:
                return x + step
            x += step
        # x sits on the bracket unless a Newton step moved it inside
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    raise NoConvergence(f"beta quantile iteration stalled for a={law.a}, b={law.b}, q={q}")


def _elementwise(fn, law, x):
    if np.ndim(x) == 0:
        return fn(law, float(x))
    arr = np.asarray(x, dtype=np.float64)
    out = np.array([fn(law, float(v)) for v in arr.ravel()])
    return out.reshape(arr.shape)


def beta_pdf(law: BetaLaw, x):
    """Density of ``law`` at ``x`` (scalar or array)."""
    return _elementwise(_pdf_scalar, law, x)


def beta_cdf(law: BetaLaw, x):
    """Regularized incomplete beta I_x(a, b) at ``x`` (scalar or array)."""
    return _elementwise(_cdf_scalar, law, x)


def beta_quantile(law: BetaLaw, q):
    """Inverse cdf at probability ``q`` (scalar or array)."""
    return _elementwise(_quantile_scalar, law, q)


def _log_power_terms(values: np.ndarray, exponent: int) -> float:
    """exponent * sum(log(values)) with the boundary convention.

    Zero exponent skips the factor entirely; a positive exponent sends
    boundary points to -inf.
    """
    if exponent == 0:
        return 0.0
    if np.any(values <= 0.0):
        return -math.inf
    return float(exponent * np.sum(np.log(values)))


def matrix_beta_logpdf(W, law: MatrixBetaLaw) -> float:
    """Log density of the matrix beta law at the Hermitian point ``W``.

    Support is 0 <= W <= I in the Loewner order, with SUPPORT_TOL slack;
    points outside raise DomainError, boundary points yield -inf when
    the corresponding exponent is positive.
    """
    W = cxla.as_hermitian(W, "W")
    if W.shape[0] != law.p:
        raise BadShape(f"W is {W.shape[0]}x{W.shape[0]}, law has p={law.p}")
    lam = np.linalg.eigvalsh(W)
    if lam[0] < -SUPPORT_TOL or lam[-1] > 1.0 + SUPPORT_TOL:
        raise DomainError(
            f"matrix is outside [0, I] (eigenvalue range [{lam[0]:.3e}, {lam[-1]:.3e}])"
        )
    lam = np.clip(lam, 0.0, 1.0)
    out = law.log_norm()
    out += _log_power_terms(lam, law.m - law.p)
    out += _log_power_terms(1.0 - lam, law.n - law.m - law.p)
    return float(out)


def eig_joint_logpdf(lams, law: MatrixBetaLaw) -> float:
    """Log joint density of the eigenvalues of a matrix beta draw.

    Symmetric in the entries of ``lams``; integrates to p! over the
    unit cube (to 1 over the ordered sector).  Coincident eigenvalues
    give -inf through the squared Vandermonde factor.
    """
    lam = np.asarray(lams, dtype=np.float64).reshape(-1)
    if lam.shape[0] != law.p:
        raise BadShape(f"expected {law.p} eigenvalues, got {lam.shape[0]}")
    if not np.all(np.isfinite(lam)):
        raise BadShape("eigenvalues contain non-finite entries")
    if lam.min() < -SUPPORT_TOL or lam.max() > 1.0 + SUPPORT_TOL:
        raise DomainError(
            f"eigenvalues outside [0, 1] (range [{lam.min():.3e}, {lam.max():.3e}])"
        )
    lam = np.clip(lam, 0.0, 1.0)
    p = law.p
    out = p * (p - 1) * math.log(math.pi)
    out += ln_cmv_gamma(p, law.n)
    out -= ln_cmv_gamma(p, p) + ln_cmv_gamma(p, law.m) + ln_cmv_gamma(p, law.n - law.m)
    for i in range(p):
        for j in range(i + 1, p):
            diff = abs(lam[i] - lam[j])
            if diff == 0.0:
                return -math.inf
            out += 2.0 * math.log(diff)
    out += _log_power_terms(lam, law.m - law.p)
    out += _log_power_terms(1.0 - lam, law.n - law.m - law.p)
    return float(out)


def fim_after_logpdf(J_hat, J, law: MatrixBetaLaw) -> float:
    """Log density of the compressed information matrix given ``J``.

    Change of variables of the matrix beta law through
    Jhat = J^{1/2} W J^{H/2}: the value is
    log_norm + (p - n) log|J| + (m - p) log|Jhat| + (n - m - p) log|J - Jhat|
    on the support 0 <= Jhat <= J.
    """
    J = cxla.as_hermitian(J, "J")
    J_hat = cxla.as_hermitian(J_hat, "J_hat")
    if J.shape != J_hat.shape or J.shape[0] != law.p:
        raise BadShape(
            f"J and J_hat must both be {law.p}x{law.p}, got {J.shape} and {J_hat.shape}"
        )
    wj = np.linalg.eigvalsh(J)
    if wj[-1] <= 0.0 or wj[0] <= cxla.PD_TOL * wj[-1]:
        raise DomainError("uncompressed information matrix must be positive definite")
    scale = wj[-1]
    w_hat = np.linalg.eigvalsh(J_hat)
    w_gap = np.linalg.eigvalsh(J - J_hat)
    if w_hat[0] < -SUPPORT_TOL * scale or w_gap[0] < -SUPPORT_TOL * scale:
        raise DomainError(
            "J_hat is outside the support 0 <= J_hat <= J "
            f"(min eig J_hat = {w_hat[0]:.3e}, min eig J - J_hat = {w_gap[0]:.3e})"
        )
    out = law.log_norm() + (law.p - law.n) * float(np.sum(np.log(wj)))
    for matrix, exponent in ((J_hat, law.m - law.p), (J - J_hat, law.n - law.m - law.p)):
        if exponent == 0:
            continue
        try:
            out += exponent * cxla.logdet_hpd(matrix)
        except SingularMatrix:
            return -math.inf
    return float(out)


def crb_ratio_law(n: int, m: int, p: int) -> BetaLaw:
    """Law of (CRB before) / (CRB after) for any parameter index.

    Beta(m - p + 1, n - m); valid for p < m < n with n - p >= m.
    """
    _check_dims(n, m, p)
    if not p < m:
        raise DomainError(f"need m > p, got m={m}, p={p}")
    if not m < n:
        raise DomainError(f"need m < n, got m={m}, n={n}")
    return BetaLaw(float(m - p + 1), float(n - m))


def kl_ratio_law(n: int, m: int) -> BetaLaw:
    """Law of (KL after) / (KL before) for scalar noise covariance.

    Beta(m, n - m); valid for 1 <= m < n.
    """
    if not (isinstance(n, int) and isinstance(m, int)):
        raise DomainError("n and m must be ints")
    if not 1 <= m < n:
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    return BetaLaw(float(m), float(n - m))


@dataclass(frozen=True)
class CompressionMoments:
    """Closed-form moments of the compressed information quantities."""

    mean_fim_scale: float
    mean_crb: float
    var_crb: float


def _check_dims(n: int, m: int, p: int) -> None:
    if not (isinstance(n, int) and isinstance(m, int) and isinstance(p, int)):
        raise DomainError("n, m, p must be ints")
    if p < 1:
        raise DomainError(f"need p >= 1, got p={p}")


def moments(n: int, m: int, p: int, J, i: int) -> CompressionMoments:
    """Mean and variance of the compressed information and CRB.

    E[Jhat] = (m/n) J entrywise, so mean_fim_scale = m/n.
    E[(Jhat^{-1})_{ii}] = (n-p)/(m-p) times the uncompressed bound.
    var[(Jhat^{-1})_{ii}] = (n-m)(n-p)/((m-p-1)(m-p)^2) times its square.
    Requires m > p + 1 so the variance exists.
    """
    _check_dims(n, m, p)
    if not m > p + 1:
        raise DomainError(f"moments need m > p + 1, got m={m}, p={p}")
    if not n >= m:
        raise DomainError(f"need n >= m, got n={n}, m={m}")
    J = cxla.as_hermitian(J, "J")
    if J.shape[0] != p:
        raise BadShape(f"J must be {p}x{p}, got {J.shape}")
    if not 0 <= i < p:
        raise BadShape(f"parameter index {i} out of range for p={p}")
    w = np.linalg.eigvalsh(J)
    if w[-1] <= 0.0 or w[0] <= cxla.PD_TOL * w[-1]:
        raise NotPositiveDefinite("information matrix must be positive definite")
    crb_before = float(np.real(np.linalg.inv(J)[i, i]))
    mean_crb = (n - p) / (m - p) * crb_before
    var_crb = (n - m) * (n - p) / ((m - p - 1) * (m - p) ** 2) * crb_before**2
    return CompressionMoments(
        mean_fim_scale=m / n,
        mean_crb=mean_crb,
        var_crb=var_crb,
    )
