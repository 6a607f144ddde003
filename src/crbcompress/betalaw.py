"""Closed-form laws for information loss under random compression.

When an n-dimensional complex Gaussian mean model with p parameters is
compressed by a right-orthogonally invariant random m-by-n matrix, the
whitened compressed information matrix follows a type-I complex matrix
beta distribution, and scalar summaries of it follow ordinary beta
laws:

* per-parameter CRB before/after ratio: Beta(m - p + 1, n - m),
* KL divergence after/before ratio (scalar covariance): Beta(m, n - m).

Densities are exposed in the log domain; at realistic dimensions they
underflow doubles.  The univariate cdf is the regularized incomplete
beta I_x(a, b), computed after DiDonato & Morris, Algorithm 708, ACM
TOMS 18 (1992), in three regions of lambda = a - (a + b) x (formed
exactly):

* a, b > 100 and |lambda| <= 0.03 min(a, b): Temme's uniform asymptotic
  expansion (TOMS 708 basym), an erfc leading term plus a series in
  1/sqrt(min(a, b)), for the tail below the mean (the mirrored law
  Beta(b, a) at 1 - x when lambda < 0);
* elsewhere, x < (a + 1) / (a + b + 2): the prefactor
  x^a (1 - x)^b / B(a, b) times the TOMS 708 continued fraction bfrac;
* elsewhere, x above that point: the same for the upper tail, as
  Beta(b, a) at 1 - x.

The prefactor, shared with the density, never subtracts lgamma values:
for a, b >= 8 it is built from rlog1(t) = t - ln(1 + t) and the
Stirling remainder (TOMS 708 brcomp, bcorr), and when only the larger
shape is >= 8, ln B(a, b) takes ln Gamma(a + b) - ln Gamma(max) from
the remainder too (algdiv).  Each region computes its tail directly, so
both tails keep their relative precision: beta_cdf is the lower one,
beta_sf the upper.  For integer shapes I_x(a, b) is a binomial tail,
P[Binomial(a + b - 1, x) >= a], which the planner uses to search
measurement counts; beta_tails_pdf gives both tails and the density at
one point from one evaluation, the density from the tail's prefactor
(in Temme's region the prefactor alone is formed), which is what each
exact planning value needs.  The quantile is a bracketed Halley
iteration on the log of the tail holding q (the cdf below the median,
the upper tail above it).  Each step makes that one evaluation, and the
density's log slope (a - 1) / x - (b - 1) / (1 - x) gives Halley's
correction, dropped for a plain Newton step when it would scale the
step by less than 1/2 or more than 2; a density past the range of
doubles (near 0 for a first shape below 1) is inf and takes no step.
It starts at the normal approximation mean + z * sd, with the
Cornish-Fisher skewness and kurtosis terms added to z when both shapes
are at least 50, or where the tail's leading term, x^a / (a B(a, b))
for the cdf or (1 - x)^b / (b B(a, b)) for the upper tail, equals the
target: when the normal start lies outside (0, 1), or when the other
shape is below 1 and the normal start lies further from the tail's edge
than that point, which then lies between it and the quantile.  For a
first shape below 1 the lower tail's point (q a B(a, b))^(1/a) replaces
a start above it, on either side of the median, unless b > 1 and the
factor (1 - x)^(b - 1) the term omits puts it too far below the
quantile.  It starts at the mean if the chosen point lies outside
(0, 1) too.  A step that leaves the bracket halves it, geometrically
when it spans more than a decade.  It stops when a step moves x by at
most 1e-15 relative to x or the bracket collapses to adjacent doubles.

beta_cdf, beta_sf and beta_pdf run a Python float (or a 0-d array) on
the scalar kernel above and any other array on an array kernel: the
same regions for all points at once in numpy.  Temme's points on both
sides of the mean share one lockstep loop over the series terms, with
per-point convergence masks.  The fraction's points on both sides of
(a + 1) / (a + b + 2) share one loop that advances in blocks of steps:
a block forms the coefficients of all its steps at all its points as
(steps x points) arrays, loops over its steps only for the rescaled
state update, and then finds each point's convergence step with the
scalar loop's test, so each point gets the scalar kernel's value bit
for bit.  The first block runs as many steps as the point nearest
(a + 1) / (a + b + 2) needs, found by one scalar probe, and later blocks
_CF_BLOCK_STEPS; a block holds at most _CF_BLOCK_CELLS steps x points,
so a large array runs one step per block in memory linear in its
points.  Each step still costs a few numpy calls, so a one-point array
costs 5 to 30 times a call on the scalar kernel; that is why 0-d input
stays scalar, and with it every planner and quantile call.  What
depends only on the law (ln B(a, b) or bcorr, the x0/y0 term of the
prefactor, Temme's coefficients) is computed once per call and shared by
every point of it.  The one thing kept across calls is the table those
coefficients come from: Temme's d_i are polynomials in the shape ratio
h, built once per process on first use and evaluated for a law, all
d_1..d_21 at once, by one matrix product; it depends on no law.

The three matrix densities (of W, of its eigenvalues and of Jhat) are
one law in three coordinates, so they share one private spectrum
density: it takes the spectra of W and of I - W and holds the only
support check (SUPPORT_TOL slack in those spectra, whatever the scale
of J), the clipping and the boundary rule (an eigenvalue at 0 gives
-inf when its determinant's exponent is positive).

Convention for eigenvalue densities: symmetric in the arguments, so the
value integrates to p! over the unit cube, or equivalently to 1 over
the ordered sector.  Multiply by nothing for ordered points; divide by
p! to renormalize to the symmetric (unordered) probability density.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import cxla
from .errors import BadShape, DomainError, NoConvergence, NotPositiveDefinite, is_int, is_real, is_real_array

# Slack allowed below 0 in the spectrum of W or of I - W before a matrix
# point is rejected as off-support; also the [0, 1] slack of sampled ratios.
SUPPORT_TOL = 1e-10

_CF_MAX_ITER = 200
_CF_EPS = 1e-15
# The array fraction's blocks: steps after the first block, and the most
# steps x points one block may hold
_CF_BLOCK_STEPS = 8
_CF_BLOCK_CELLS = 1 << 14

# Temme's expansion (TOMS 708 basym) replaces the fraction when both
# shapes exceed _BASYM_MIN_SHAPE and |lambda| <= _BASYM_LAMBDA_FRAC * min(a, b).
_BASYM_MIN_SHAPE = 100.0
_BASYM_LAMBDA_FRAC = 0.03
_BASYM_MAX_TERMS = 20
_BASYM_EPS = 1e-15
_E0 = 2.0 / math.sqrt(math.pi)
_E1 = 2.0**-1.5
# Veltkamp splitter 2^27 + 1 for exact products
_SPLIT = 134217729.0

_QUANTILE_MAX_ITER = 200
# Both shapes at least this large add the Cornish-Fisher skewness and
# kurtosis terms to the quantile's normal start.
_CORNISH_FISHER_MIN_SHAPE = 50.0
# A quantile bracket with hi > _DECADE * lo > 0 is halved in log x.
_DECADE = 10.0
# Newton steps this small relative to x end the quantile iteration.
_QUANTILE_XTOL = 1e-15


@dataclass(frozen=True)
class BetaLaw:
    """Univariate type-I beta distribution on [0, 1]."""

    a: float
    b: float

    def __post_init__(self):
        if not (is_real(self.a) and self.a > 0.0 and math.isfinite(self.a)):
            raise DomainError(f"shape a must be a positive finite real number, got {self.a!r}")
        if not (is_real(self.b) and self.b > 0.0 and math.isfinite(self.b)):
            raise DomainError(f"shape b must be a positive finite real number, got {self.b!r}")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        s = self.a + self.b
        return self.a * self.b / (s * s * (s + 1.0))


def _check_dims(n: int, m: int, p: int = 1) -> None:
    """The rule every law's dimensions share: ints (not bools), with p >= 1."""
    if not (is_int(n) and is_int(m) and is_int(p)):
        raise DomainError(f"dimensions must be ints, got n={n!r}, m={m!r}, p={p!r}")
    if p < 1:
        raise DomainError(f"need p >= 1, got p={p}")


@dataclass(frozen=True)
class MatrixBetaLaw:
    """Type-I complex matrix beta law CB_p(m, n - m) on 0 <= V <= I_p.

    The law of the complex-form W = J^{-1/2} Jhat J^{-1/2} when the
    m-by-n compressor Phi has a law invariant under right multiplication
    by a unitary matrix, as both ``randcomp.FAMILIES`` do, and the noise
    enters before compression.  Real gaussian or +-1 entries, random
    sensor subsets and partial DFTs are outside that class; no law is
    claimed for them.  The density exists for m >= p and n - m >= p,
    which the constructor checks.
    """

    p: int
    m: int
    n: int

    def __post_init__(self):
        _check_dims(self.n, self.m, self.p)
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
    if not (is_int(p) and p >= 1):
        raise DomainError(f"need integer p >= 1, got {p!r}")
    if not (a > p - 1):
        raise DomainError(f"need a > p - 1, got a={a}, p={p}")
    out = 0.5 * p * (p - 1) * math.log(math.pi)
    for i in range(1, p + 1):
        out += math.lgamma(a - i + 1)
    return out


def _rlog1(x: float) -> float:
    """x - ln(1 + x) without cancellation (TOMS 708 rlog1)."""
    if x < -0.39 or x > 0.57:
        return x - math.log1p(x)
    if x < -0.18:
        h = (x + 0.3) / 0.7
        w1 = 0.0566749439387324 - 0.3 * h
    elif x > 0.18:
        h = 0.75 * x - 0.25
        w1 = 0.0456512608815524 + h / 3.0
    else:
        h = x
        w1 = 0.0
    r = h / (h + 2.0)
    t = r * r
    w = ((0.00620886815375787 * t - 0.224696413112536) * t + 0.333333333333333) / (
        (0.354508718369557 * t - 1.27408923933623) * t + 1.0
    )
    return 2.0 * t * (1.0 / (1.0 - r) - r * w) + w1


def _rlog1_array(x: np.ndarray) -> np.ndarray:
    """_rlog1 at every point of x > -1.

    Where every point lies in the middle branch, |x| <= 0.18, only that
    branch is evaluated; Temme's f always takes it, since |x| <= 0.03.
    """
    left = x < -0.18
    right = x > 0.18
    middle = not (left.any() or right.any())
    if middle:
        h, w1 = x, 0.0
    else:
        h = np.where(left, (x + 0.3) / 0.7, np.where(right, 0.75 * x - 0.25, x))
        w1 = np.where(left, 0.0566749439387324 - 0.3 * h, np.where(right, 0.0456512608815524 + h / 3.0, 0.0))
    r = h / (h + 2.0)
    t = r * r
    w = ((0.00620886815375787 * t - 0.224696413112536) * t + 0.333333333333333) / (
        (0.354508718369557 * t - 1.27408923933623) * t + 1.0
    )
    near = 2.0 * t * (1.0 / (1.0 - r) - r * w) + w1
    if middle:
        return near
    return np.where((x < -0.39) | (x > 0.57), x - np.log1p(x), near)


# Minimax coefficients of the Stirling remainder del(s) for s >= 8 (TOMS 708).
_C0 = 0.0833333333333333
_C1 = -0.00277777777760991
_C2 = 7.9365066682539e-4
_C3 = -5.9520293135187e-4
_C4 = 8.37308034031215e-4
_C5 = -0.00165322962780713


def _stirling_series(a: float, b: float) -> float:
    """del(b) - del(a + b) for b >= 8, shared by _bcorr and _algdiv.

    del(s) is the Stirling remainder,
    ln Gamma(s) = (s - 1/2) ln s - s + ln(2 pi) / 2 + del(s).
    """
    if a > b:
        h = b / a
        c = 1.0 / (h + 1.0)
        x = h / (h + 1.0)
    else:
        h = a / b
        c = h / (h + 1.0)
        x = 1.0 / (h + 1.0)
    x2 = x * x
    s3 = x + x2 + 1.0
    s5 = x + x2 * s3 + 1.0
    s7 = x + x2 * s5 + 1.0
    s9 = x + x2 * s7 + 1.0
    s11 = x + x2 * s9 + 1.0
    t = (1.0 / b) ** 2
    w = (
        (((_C5 * s11 * t + _C4 * s9) * t + _C3 * s7) * t + _C2 * s5) * t + _C1 * s3
    ) * t + _C0
    return w * c / b


def _bcorr(a: float, b: float) -> float:
    """del(a) + del(b) - del(a + b) for a, b >= 8 (TOMS 708 bcorr)."""
    a, b = min(a, b), max(a, b)
    t = (1.0 / a) ** 2
    return (((((_C5 * t + _C4) * t + _C3) * t + _C2) * t + _C1) * t + _C0) / a + _stirling_series(a, b)


def _algdiv(a: float, b: float) -> float:
    """ln(Gamma(b) / Gamma(a + b)) for b >= 8 (TOMS 708 algdiv)."""
    d = a + (b - 0.5) if a > b else b + (a - 0.5)
    u = d * math.log1p(a / b)
    v = a * (math.log(b) - 1.0)
    return _stirling_series(a, b) - (u + v)


def _ln_beta(a: float, b: float) -> float:
    """ln B(a, b) for min(a, b) < 8; larger shapes go through _bcorr."""
    lo, hi = min(a, b), max(a, b)
    if hi < 8.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return math.lgamma(lo) + _algdiv(lo, hi)


def _two_product(s, t):
    """(hi, lo) with hi + lo = s * t exactly (Dekker's product); floats or arrays."""
    hi = s * t
    s1 = _SPLIT * s
    s_hi = s1 - (s1 - s)
    s_lo = s - s_hi
    t1 = _SPLIT * t
    t_hi = t1 - (t1 - t)
    t_lo = t - t_hi
    return hi, ((s_hi * t_hi - hi) + s_hi * t_lo + s_lo * t_hi) + s_lo * t_lo


def _lambda(a: float, b: float, x):
    """lambda = a - (a + b) x, the signed distance of x below the mean.

    The sum and the product are taken exactly, so the only error left is
    the rounding of the result.  A rounded (a + b) x would move I_x by
    about lambda (1/a + 1/b) ulp(a + b) relative: 3e-12 at 30 sd for
    Beta(5e5, 5e5).  Plain arithmetic, so x may be a float or an array.
    """
    s = a + b
    # rounding error of the sum (Knuth's two-sum); zero for integer shapes
    bv = s - a
    s_err = (a - (s - bv)) + (b - bv)
    hi, lo = _two_product(s, x)
    return a - hi - (lo + s_err * x)


# Temme's series carries d_1.._BASYM_TERMS; _basym adds them in pairs.
_BASYM_TERMS = _BASYM_MAX_TERMS + 1
_TEMME_POWERS = np.arange(_BASYM_TERMS + 1, dtype=np.float64)


@functools.cache
def _temme_table() -> np.ndarray:
    """Coefficients of Temme's d_i as polynomials in the shape ratio h.

    TOMS 708 basym gets d_i for Beta(a, b) from the power series
    A(t) = 1 + sum a0_j t^j, where (1 + h) t^2 A(t) / 2 =
    -ln(1 - t) - ln(1 + h t) / h and h is the shape ratio min / max
    (t -> -t when a > b): c_i = [t^i] A^(-(i+1)/2) / (i + 1) and
    1 + sum d_i w^i = 1 / (1 + sum c_i w^i).  By Lagrange inversion c_i
    is the coefficient of w^(i+1) in the inverse T(w) of t sqrt(A(t)),
    which solves T T' = w (1 - r1 T - h T^2) with r1 = 1 - h for a < b.
    Run on coefficient arrays in h, that recurrence gives each d_i as a
    polynomial of degree i.  For a >= b, r1 = -(1 - h), and -T(-w)
    solves the equation with -r1, so d_i takes the factor (-1)^i.
    Returns the (2, _BASYM_TERMS, _BASYM_TERMS + 1) array: row [0, i - 1]
    holds the power coefficients of d_i for a < b, row [1, i - 1] for
    a >= b.  It depends on no law, so it is built once.
    """
    size = _BASYM_TERMS + 1
    # the polynomials 1 and h
    one, h = np.eye(size)[:2]
    r1 = one - h

    def mul(u, v):
        return np.convolve(u, v)[:size]

    def dot(us, vs):
        return sum((mul(u, v) for u, v in zip(us, vs)), np.zeros(size))

    # t[k - 1] = [w^k] T(w); d[i - 1] = d_i
    t = [one]
    d: list[np.ndarray] = []
    for n in range(1, _BASYM_TERMS + 1):
        # [w^(n+1)] of T T' = w (1 - r1 T - h T^2), solved for t_{n+1}
        tt = dot(t, t[-2::-1])
        inner = dot(t[1:], t[:0:-1])
        t.append((-mul(r1, t[-1]) - mul(h, tt)) / (n + 2.0) - 0.5 * inner)
        # [w^n] of (w / T) (T / w) = 1
        d.append(-(t[n] + dot(d, t[n - 1 : 0 : -1])))
    table = np.array(d)
    signs = (-1.0) ** np.arange(1, _BASYM_TERMS + 1)
    return np.stack([table, signs[:, None] * table])


class _Shapes:
    """What the kernels need of Beta(a, b) that does not depend on x.

    One instance serves every point of one beta_cdf, beta_sf, beta_pdf,
    beta_tails_pdf or beta_quantile call, on the scalar and the array
    kernel alike, and goes with the call.  It holds ln B(a, b) when
    min(a, b) < 8; otherwise the Stirling remainder bcorr(a, b), the mean
    x0 = a / (a + b), its complement y0 and the term ln sqrt(b x0 / 2 pi)
    of the prefactor; and in Temme's region the shape ratio h, the
    series variable w0 and, once a point needs them, the coefficients
    d_i of both orientations.
    """

    __slots__ = ("a", "b", "split", "lam_max", "ln_beta", "bcorr", "x0", "y0", "ln_root", "h", "w0", "_temme")

    def __init__(self, law: BetaLaw):
        a, b = law.a, law.b
        self.a, self.b = a, b
        # the fraction converges fast for the lower tail below this point
        self.split = (a + 1.0) / (a + b + 2.0)
        # |lambda| <= lam_max selects Temme's expansion; -1 selects nothing
        big = a > _BASYM_MIN_SHAPE and b > _BASYM_MIN_SHAPE
        self.lam_max = _BASYM_LAMBDA_FRAC * min(a, b) if big else -1.0
        self.ln_beta = self.bcorr = self.x0 = self.y0 = self.ln_root = self.h = self.w0 = self._temme = None
        if min(a, b) < 8.0:
            self.ln_beta = _ln_beta(a, b)
            return
        if a > b:
            h = b / a
            self.x0 = 1.0 / (h + 1.0)
            self.y0 = h / (h + 1.0)
        else:
            h = a / b
            self.x0 = h / (h + 1.0)
            self.y0 = 1.0 / (h + 1.0)
        self.ln_root = 0.5 * math.log(b * self.x0 / (2.0 * math.pi))
        self.bcorr = _bcorr(a, b)
        if big:
            self.h = h
            self.w0 = 1.0 / math.sqrt(min(a, b) * (h + 1.0))

    def temme(self) -> np.ndarray:
        """d_1.._BASYM_TERMS of Temme's series: row 0 for Beta(a, b), row 1 for Beta(b, a)."""
        if self._temme is None:
            d = _temme_table() @ self.h**_TEMME_POWERS
            self._temme = d if self.a < self.b else d[::-1]
        return self._temme


def _ln_prefactor(k: _Shapes, x: float, y: float, lam: float) -> float:
    """ln of x^a y^b / B(a, b) (TOMS 708 brcomp).

    For a, b >= 8 the large parts of a ln x, b ln y and ln B(a, b) are
    cancelled analytically: the value is
    ln sqrt(b x0 / 2 pi) - a rlog1(-lam / a) - b rlog1(lam / b) - bcorr(a, b)
    with x0 = a / (a + b), so no term larger than the result is formed.
    """
    a, b = k.a, k.b
    if k.ln_beta is not None:
        return a * math.log(x) + b * math.log1p(-x) - k.ln_beta
    e = -lam / a
    # far from the mean x / x0 and y / y0 carry more precision than 1 + e
    u = _rlog1(e) if abs(e) <= 0.6 else e - math.log(x / k.x0)
    e = lam / b
    v = _rlog1(e) if abs(e) <= 0.6 else e - math.log(y / k.y0)
    return k.ln_root - (a * u + b * v) - k.bcorr


def _ln_prefactor_array(k: _Shapes, x: np.ndarray, y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """_ln_prefactor at every point of x in (0, 1)."""
    a, b = k.a, k.b
    if k.ln_beta is not None:
        return a * np.log(x) + b * np.log1p(-x) - k.ln_beta
    e = -lam / a
    # clipped: e = -1, where x is too small to move lam, must not reach log1p
    u = np.where(np.abs(e) <= 0.6, _rlog1_array(np.clip(e, -0.6, 0.6)), e - np.log(x / k.x0))
    e = lam / b
    v = np.where(np.abs(e) <= 0.6, _rlog1_array(np.clip(e, -0.6, 0.6)), e - np.log(y / k.y0))
    return k.ln_root - (a * u + b * v) - k.bcorr


def _basym(k: _Shapes, lam: float) -> float:
    """The tail below the mean for large a, b (TOMS 708 basym).

    I_x(a, b) when lam = a - (a + b) x >= 0, else the upper tail, which
    is the lower tail of Beta(b, a) at 1 - x.  Temme's uniform expansion:
    exp(-f) times an erfc leading term and a series in powers of
    w0 = 1/sqrt(min(a, b) (1 + h)) with the coefficients ``k.temme()``
    of the orientation, where f = a rlog1(-lam / a) + b rlog1(lam / b) is
    the same in both.  Each pass adds two terms and the loop stops once
    they fall below _BASYM_EPS of the sum.
    """
    a, b = k.a, k.b
    d = k.temme()[int(lam < 0.0)].tolist()
    f = a * _rlog1(-lam / a) + b * _rlog1(lam / b)
    t = math.exp(-f)
    z0 = math.sqrt(f)
    z2 = f + f
    w0 = k.w0
    # j0 = exp(z0^2) erfc(z0) / (2 e0) and the other terms carry the
    # factor t = exp(-f); with z0^2 - f formed exactly, t j0 keeps full
    # precision even where erfc(z0) is far below exp(-f) alone
    hi, lo = _two_product(z0, z0)
    j0 = 0.5 / _E0 * math.erfc(z0) * math.exp((hi - f) + lo)
    j1 = _E1 * t
    total = j0 + d[0] * w0 * j1
    w = w0
    znm1 = z0 * math.sqrt(2.0) * t
    zn = z2 * t
    for n in range(2, _BASYM_MAX_TERMS + 1, 2):
        j0 = _E1 * znm1 + (n - 1.0) * j0
        j1 = _E1 * zn + n * j1
        znm1 *= z2
        zn *= z2
        w *= w0
        t0 = d[n - 1] * w * j0
        w *= w0
        t1 = d[n] * w * j1
        total += t0 + t1
        if abs(t0) + abs(t1) <= _BASYM_EPS * total:
            break
    return _E0 * math.exp(-k.bcorr) * total


def _basym_array(k: _Shapes, lam: np.ndarray) -> np.ndarray:
    """_basym at every point of lam: both orientations in one loop.

    Only the coefficients d_i differ between the orientations, so each
    point takes the column of its side; a point's sum stops growing once
    its terms fall below _BASYM_EPS of it.
    """
    a, b = k.a, k.b
    # d[i - 1] holds d_i at every point
    d = k.temme()[(lam < 0.0).astype(np.intp)].T
    f = a * _rlog1_array(-lam / a) + b * _rlog1_array(lam / b)
    t = np.exp(-f)
    z0 = np.sqrt(f)
    z2 = f + f
    w0 = k.w0
    hi, lo = _two_product(z0, z0)
    erfc = np.fromiter(map(math.erfc, z0.tolist()), np.float64, z0.size)
    j0 = 0.5 / _E0 * erfc * np.exp((hi - f) + lo)
    j1 = _E1 * t
    total = j0 + d[0] * w0 * j1
    w = w0
    znm1 = z0 * math.sqrt(2.0) * t
    zn = z2 * t
    live = np.ones(lam.shape, dtype=bool)
    for n in range(2, _BASYM_MAX_TERMS + 1, 2):
        j0 = _E1 * znm1 + (n - 1.0) * j0
        j1 = _E1 * zn + n * j1
        znm1 = znm1 * z2
        zn = zn * z2
        w *= w0
        t0 = d[n - 1] * w * j0
        w *= w0
        t1 = d[n] * w * j1
        total = np.where(live, total + (t0 + t1), total)
        live &= np.abs(t0) + np.abs(t1) > _BASYM_EPS * total
        if not live.any():
            break
    return _E0 * math.exp(-k.bcorr) * total


def _bfrac(a: float, b: float, x: float, y: float, lam: float) -> tuple[float, int]:
    """Continued fraction for I_x(a, b) / (x^a y^b / B(a, b)) (TOMS 708 bfrac).

    The even part of the classical fraction, with its partial
    denominators written through the exactly formed lam = a - (a + b) x,
    so none of them cancels; the classical form loses digits when
    a >> b and x is near 1.  Converges fast for x < (a + 1) / (a + b + 2),
    where lam > -1.  Returns the value and the step it converged at.
    """
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    p = 1.0
    s = a + 1.0
    an, bn = 0.0, 1.0
    anp1, bnp1 = 1.0, c / c1
    r = c1 / c
    for n in range(1, _CF_MAX_ITER + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0 = r
        r = anp1 / bnp1
        if abs(r - r0) <= _CF_EPS * r:
            return r, n
        # rescale so the recurrences stay in range
        an /= bnp1
        bn /= bnp1
        anp1 = r
        bnp1 = 1.0
    raise NoConvergence(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _bfrac_array(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """_bfrac at every point, with the shapes a, b given per point.

    The steps run in blocks.  A block forms the coefficients alpha_n and
    beta_n of all its steps at all live points as (steps x points)
    arrays, so that only the rescaled update of an, bn and r loops over
    the steps.  After the block each point's convergence step is the
    first of the block's convergents that passes the scalar loop's test,
    and every sum and product is the scalar loop's, so every point gets
    the value _bfrac returns; converged points leave before the next
    block.  The first block runs as many steps as _bfrac takes at the
    point with the smallest lam, the one nearest (a + 1) / (a + b + 2)
    and so the slowest to converge; later blocks run _CF_BLOCK_STEPS.  No
    block holds more than _CF_BLOCK_CELLS steps x points, so a large
    array runs one step per block, in memory linear in its points.
    """
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    out = np.empty(x.shape)
    index = np.arange(x.size)
    # the state before step 1: an, bn, the convergent r, and s less the 1
    # that step 1 adds (later steps add 2); step 1 alone reads anp1 = 1
    # and bnp1 = c / c1, the others anp1 = r and bnp1 = 1
    an, bn, r, s = 0.0, 1.0, c1 / c, a
    i = int(np.argmin(lam))
    steps = _bfrac(float(a[i]), float(b[i]), float(x[i]), float(y[i]), float(lam[i]))[1]
    start = 1
    while True:
        size = index.size
        steps = max(1, min(steps, _CF_MAX_ITER + 1 - start, _CF_BLOCK_CELLS // size))
        n = np.arange(start, start + steps, dtype=np.float64)[:, None]
        sn = np.empty((steps, size))
        for j in range(steps):
            s = np.add(s, 1.0 if start + j == 1 else 2.0, out=sn[j])
        t = n / a
        p = (n - 1.0) / a + 1.0
        w = n * (b - n) * x
        e = a / sn
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / sn + e * (c + n * yp1)
        # rn[j] is the convergent of step start + j
        rn = np.empty((steps, size))
        r0 = r
        for j in range(steps):
            al, be = alpha[j], beta[j]
            if start + j == 1:
                bnp1 = al * bn + be * (c / c1)
                anp1 = al * an + be
                an = 1.0 / bnp1
                bn = (c / c1) / bnp1
            else:
                bnp1 = al * bn + be
                anp1 = al * an + be * r
                an = r / bnp1
                bn = 1.0 / bnp1
            r = np.divide(anp1, bnp1, out=rn[j])
        start += steps
        diff = np.empty((steps, size))
        np.subtract(rn[0], r0, out=diff[0])
        np.subtract(rn[1:], rn[:-1], out=diff[1:])
        done = np.abs(diff) <= _CF_EPS * rn
        hit = done.any(axis=0)
        if hit.any():
            cols = np.flatnonzero(hit)
            out[index[cols]] = rn[done[:, cols].argmax(axis=0), cols]
            live = np.flatnonzero(~hit)
            if not live.size:
                return out
            index, a, b, x, c, c0, c1, yp1, s, an, bn, r = (
                v[live] for v in (index, a, b, x, c, c0, c1, yp1, s, an, bn, r)
            )
        if start > _CF_MAX_ITER:
            break
        steps = _CF_BLOCK_STEPS
    raise NoConvergence(
        f"incomplete beta continued fraction did not converge for a={a[0]}, b={b[0]}, x={x[0]}"
    )


def _pdf_at_zero(a: float, b: float) -> float:
    """Density of Beta(a, b) at x = 0; at x = 1 it is that of Beta(b, a)."""
    if a > 1.0:
        return 0.0
    return b if a == 1.0 else math.inf


def _pdf_scalar(k: _Shapes, x: float, ln_bt: float | None = None) -> float:
    """The density at x in [0, 1]; ``ln_bt`` is the log prefactor at x when a tail formed it.

    Past the range of exp, as near 0 for a first shape below 1, it is inf.
    """
    a, b = k.a, k.b
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"pdf argument must lie in [0, 1], got {x}")
    if x == 0.0:
        return _pdf_at_zero(a, b)
    if x == 1.0:
        return _pdf_at_zero(b, a)
    if ln_bt is None:
        ln_bt = _ln_prefactor(k, x, 1.0 - x, _lambda(a, b, x))
    try:
        return math.exp(ln_bt - math.log(x) - math.log1p(-x))
    except OverflowError:
        return math.inf


def _pdf_array(k: _Shapes, x: np.ndarray) -> np.ndarray:
    """_pdf_scalar at every point of the 1-d array x in [0, 1]."""
    a, b = k.a, k.b
    out = np.where(x == 0.0, _pdf_at_zero(a, b), _pdf_at_zero(b, a))
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    xi = x[inner]
    ln_p = _ln_prefactor_array(k, xi, 1.0 - xi, _lambda(a, b, xi))
    out[inner] = np.exp(ln_p - np.log(xi) - np.log1p(-xi))
    return out


def _tails(k: _Shapes, x: float) -> tuple[float, float, float | None]:
    """Both tails (I_x(a, b), 1 - I_x(a, b)), the smaller computed directly.

    With lambda = a - (a + b) x, shapes above _BASYM_MIN_SHAPE with
    |lambda| <= _BASYM_LAMBDA_FRAC * min(a, b) use Temme's expansion for
    the tail below the mean, on the mirrored law Beta(b, a) at 1 - x
    when lambda < 0.  Everywhere else the prefactor
    x^a (1 - x)^b / B(a, b) times the continued fraction gives the tail
    on the side of (a + 1) / (a + b + 2) where the fraction converges
    fast: the smaller one, or at most ~0.9 for shapes below 1.  The
    third value is the log of that prefactor, which _point reuses for
    the density; it is None where the prefactor was not formed (x at 0
    or 1, and Temme's region).
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"cdf argument must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0, 1.0, None
    if x == 1.0:
        return 1.0, 0.0, None
    a, b = k.a, k.b
    y = 1.0 - x
    lam = _lambda(a, b, x)
    if abs(lam) <= k.lam_max:
        w = _basym(k, lam)
        return (w, 1.0 - w, None) if lam >= 0.0 else (1.0 - w, w, None)
    ln_bt = _ln_prefactor(k, x, y, lam)
    bt = math.exp(ln_bt)
    lower = x < k.split
    if bt == 0.0:
        w = 0.0
    elif lower:
        w = bt * _bfrac(a, b, x, y, lam)[0]
    else:
        w = bt * _bfrac(b, a, y, x, -lam)[0]
    return (w, 1.0 - w, ln_bt) if lower else (1.0 - w, w, ln_bt)


def _tails_array(k: _Shapes, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_tails at every point of the 1-d array x in [0, 1], in numpy lockstep.

    Each region runs one loop over all of its points: Temme's points on
    both sides of the mean share one, and the fraction's points on both
    sides of (a + 1) / (a + b + 2) share another, with the shapes
    swapped per point.
    """
    a, b = k.a, k.b
    lower = np.where(x == 1.0, 1.0, 0.0)
    upper = 1.0 - lower
    inner = np.flatnonzero((x > 0.0) & (x < 1.0))
    xi = x[inner]
    yi = 1.0 - xi
    lam = _lambda(a, b, xi)
    # w is the tail each point computes directly; below says it is the lower one
    w = np.zeros(xi.shape)
    below = lam >= 0.0
    temme = np.abs(lam) <= k.lam_max
    if temme.any():
        w[temme] = _basym_array(k, lam[temme])
    frac = np.flatnonzero(~temme)
    if frac.size:
        xf, yf, lf = xi[frac], yi[frac], lam[frac]
        bt = np.exp(_ln_prefactor_array(k, xf, yf, lf))
        side = xf < k.split
        below[frac] = side
        live = np.flatnonzero(bt > 0.0)
        if live.size:
            xf, yf, lf, side = xf[live], yf[live], lf[live], side[live]
            w[frac[live]] = bt[live] * _bfrac_array(
                np.where(side, a, b),
                np.where(side, b, a),
                np.where(side, xf, yf),
                np.where(side, yf, xf),
                np.where(side, lf, -lf),
            )
    lower[inner] = np.where(below, w, 1.0 - w)
    upper[inner] = np.where(below, 1.0 - w, w)
    return lower, upper


def _point(k: _Shapes, x: float) -> tuple[float, float, float]:
    """(I_x(a, b), 1 - I_x(a, b), density) at x in [0, 1], sharing one prefactor.

    The density takes the prefactor the tail formed; in Temme's region
    it forms the prefactor alone.
    """
    lower, upper, ln_bt = _tails(k, x)
    return lower, upper, _pdf_scalar(k, x, ln_bt)


def _quantile_scalar(law: BetaLaw, k: _Shapes, q: float) -> float:
    if not 0.0 < q < 1.0:
        raise DomainError(f"quantile argument must lie in (0, 1), got {q}")
    # Iterate on the tail holding q: the cdf below the median, the upper
    # tail 1 - F(x) above it, so both the tail mass and the target 1 - q
    # (exact for q > 1/2) keep their relative precision.
    upper = q > 0.5
    target = math.log1p(-q) if upper else math.log(q)
    a, b = law.a, law.b
    z = NormalDist().inv_cdf(q)
    if min(a, b) >= _CORNISH_FISHER_MIN_SHAPE:
        # Cornish-Fisher: the skewness and excess kurtosis terms, small
        # corrections only where both shapes are large
        s = a + b
        skew = 2.0 * (b - a) * math.sqrt(s + 1.0) / ((s + 2.0) * math.sqrt(a * b))
        kurt = 6.0 * ((a - b) ** 2 * (s + 1.0) - a * b * (s + 2.0)) / (a * b * (s + 2.0) * (s + 3.0))
        z2 = z * z
        z += (
            skew * (z2 - 1.0) / 6.0
            + kurt * z * (z2 - 3.0) / 24.0
            - skew * skew * z * (2.0 * z2 - 5.0) / 36.0
        )
    x = law.mean + z * math.sqrt(law.variance)
    # the tail's leading term, I_x ~ x^a / (a B(a, b)) near 0 and
    # 1 - I_x ~ (1 - x)^b / (b B(a, b)) near 1: the mean is a start
    # hundreds of halvings above a quantile like 1e-137
    shape, other = (b, a) if upper else (a, b)
    edge_dist = 1.0 - x if upper else x
    # only a normal start outside (0, 1) or a shape below 1 picks a tail-term start
    if edge_dist <= 0.0 or min(a, b) < 1.0:
        ln_beta = _ln_beta(a, b)
        # capped at 0: a point past the support edge cannot overflow
        ln_end = min(0.0, (target + math.log(shape) + ln_beta) / shape)
        tail_dist = math.exp(ln_end)
        # With the other shape below 1 the leading term bounds the tail
        # from below (its factor (1 - t)^(b - 1), or t^(a - 1), exceeds 1),
        # so its point lies past the quantile, seen from the tail's edge,
        # and a normal start further out moves to it.  Otherwise the
        # normal start stays unless it lies outside (0, 1)
        if edge_dist <= 0.0 or (other < 1.0 and tail_dist < edge_dist):
            x = -math.expm1(ln_end) if upper else tail_dist
        elif a < 1.0:
            # The lower tail's point (q a B(a, b))^(1/a), on either side of
            # the median, where a normal start can lie decades above a
            # quantile like 1e-100.  For b >= 1 it lies below the quantile
            # by the factor F^(1/a) the leading term omits, with
            # F >= (1 - x)^(b - 1), so it replaces the start only where
            # that bound, taken at the point, is at least 1/e
            lead = math.exp(min(0.0, (math.log(q) + math.log(a) + ln_beta) / a))
            if lead < x and (b <= 1.0 or (1.0 - b) * math.log1p(-lead) <= a):
                x = lead
    if not 0.0 < x < 1.0:
        x = law.mean
    lo, hi = 0.0, 1.0
    for _ in range(_QUANTILE_MAX_ITER):
        lower_tail, upper_tail, d = _point(k, x)
        tail = upper_tail if upper else lower_tail
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
        if hi - lo <= math.ulp(lo):
            return x
        # no step where the density is 0 or past the range of doubles
        if d > 0.0 and math.isfinite(d) and math.isfinite(excess):
            # Newton step on g = log(tail) - target; the tail's slope in x
            # is pdf for the cdf and -pdf for the upper tail
            step = (excess if upper else -excess) * tail / d
            # Halley's correction: g''/g' = (ln pdf)' - g', and step * g' = -excess
            halley = 1.0 + 0.5 * (step * ((a - 1.0) / x - (b - 1.0) / (1.0 - x)) + excess)
            if 0.5 < halley < 2.0:
                step /= halley
            if abs(step) <= _QUANTILE_XTOL * x:
                return x + step
            x += step
        # x sits on the bracket unless a Newton step moved it inside;
        # halve the bracket, in log x when it spans decades
        if not lo < x < hi:
            x = math.sqrt(lo) * math.sqrt(hi) if 0.0 < lo and hi > _DECADE * lo else 0.5 * (lo + hi)
    # a quantile below the smallest positive double is out of reach; 0 is the nearest double
    if not upper and _tails(k, math.ulp(0.0))[0] > q:
        return 0.0
    raise NoConvergence(f"beta quantile iteration stalled for a={law.a}, b={law.b}, q={q}")


def _real_points(x, what: str) -> np.ndarray:
    """x as a float64 array, or DomainError unless it holds real numbers (a complex x is not made real)."""
    arr = np.asarray(x)
    if not is_real_array(arr):
        raise DomainError(f"{what} argument must be real, got {arr.dtype} values")
    return arr.astype(np.float64, copy=False)


def _real_point(x, what: str) -> float:
    """``x`` as a float, checked as ``_real_points`` checks arrays unless it is a float; DomainError unless 0-d."""
    if isinstance(x, float):
        return float(x)
    arr = _real_points(x, what)
    if arr.ndim:
        raise DomainError(f"{what} argument must be a scalar, got shape {arr.shape}")
    return float(arr)


def _unit_points(x, what: str) -> np.ndarray:
    """x as a float64 array, every point checked to be real and to lie in [0, 1]."""
    arr = _real_points(x, what)
    bad = ~((arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        raise DomainError(f"{what} argument must lie in [0, 1], got {arr[bad][0]}")
    return arr


def _is_scalar(x) -> bool:
    # isinstance first: np.ndim converts a float to an array, which costs
    # up to a tenth of a scalar incomplete beta
    return isinstance(x, float) or np.ndim(x) == 0


def _tail(law: BetaLaw, x, upper: bool):
    """One tail of ``law`` at ``x``: the scalar kernel for 0-d input, else the array kernel."""
    k = _Shapes(law)
    if _is_scalar(x):
        return _tails(k, _real_point(x, "cdf"))[upper]
    arr = _unit_points(x, "cdf")
    return _tails_array(k, arr.ravel())[upper].reshape(arr.shape)


def beta_pdf(law: BetaLaw, x):
    """Density of ``law`` at ``x`` (scalar or array)."""
    k = _Shapes(law)
    if _is_scalar(x):
        return _pdf_scalar(k, _real_point(x, "pdf"))
    arr = _unit_points(x, "pdf")
    return _pdf_array(k, arr.ravel()).reshape(arr.shape)


def beta_tails_pdf(law: BetaLaw, x: float) -> tuple[float, float, float]:
    """(beta_cdf, beta_sf, beta_pdf) of ``law`` at the scalar ``x`` from one evaluation.

    Each value is bit for bit the one its function gives; the density
    takes the prefactor the tail formed, and one set of law constants
    serves all three.
    """
    return _point(_Shapes(law), _real_point(x, "cdf"))


def beta_cdf(law: BetaLaw, x):
    """Regularized incomplete beta I_x(a, b) at ``x`` (scalar or array)."""
    return _tail(law, x, False)


def beta_sf(law: BetaLaw, x):
    """Upper tail 1 - I_x(a, b) at ``x`` (scalar or array).

    Computed directly where it is the smaller tail, so it keeps its
    relative precision far below the one ulp of 1 that one minus the
    cdf would resolve.
    """
    return _tail(law, x, True)


def beta_quantile(law: BetaLaw, q):
    """Inverse cdf at probability ``q`` (scalar or array), point by point."""
    k = _Shapes(law)
    if _is_scalar(q):
        return _quantile_scalar(law, k, _real_point(q, "quantile"))
    arr = _real_points(q, "quantile")
    return np.array([_quantile_scalar(law, k, float(v)) for v in arr.ravel()]).reshape(arr.shape)


def _spectrum_logpdf(lam: np.ndarray, gap: np.ndarray, law: MatrixBetaLaw) -> float:
    """Log density of the matrix beta law at a W given by two spectra.

    ``lam`` is the spectrum of W and ``gap`` that of I - W.  Every matrix
    density is this one after a change of variables, so this is where
    the law's support and boundary are decided: an eigenvalue below
    -SUPPORT_TOL in either spectrum is off-support (DomainError), the
    rest are clipped to [0, 1], and an eigenvalue at 0 gives -inf when
    its determinant's exponent is positive (with a zero exponent the
    determinant drops out).
    """
    if lam.min() < -SUPPORT_TOL or gap.min() < -SUPPORT_TOL:
        raise DomainError(
            "point is outside the support 0 <= W <= I "
            f"(min eigenvalue of W = {lam.min():.3e}, of I - W = {gap.min():.3e})"
        )
    out = law.log_norm()
    for values, exponent in ((lam, law.m - law.p), (gap, law.n - law.m - law.p)):
        if exponent == 0:
            continue
        values = np.clip(values, 0.0, 1.0)
        if np.any(values <= 0.0):
            return -math.inf
        out += float(exponent * np.sum(np.log(values)))
    return float(out)


def matrix_beta_logpdf(W, law: MatrixBetaLaw) -> float:
    """Log density of the matrix beta law at the Hermitian point ``W``.

    ``W`` is the complex-form J^{-1/2} Jhat J^{-1/2}, whose density
    needs m >= p and n - m >= p (``MatrixBetaLaw``).  Support is
    0 <= W <= I in the Loewner order, with SUPPORT_TOL slack in the
    spectrum; points outside raise DomainError, boundary points yield
    -inf when the corresponding exponent is positive.
    """
    W = cxla.as_hermitian(W, "W")
    if W.shape[0] != law.p:
        raise BadShape(f"W is {W.shape[0]}x{W.shape[0]}, law has p={law.p}")
    lam = np.linalg.eigvalsh(W)
    return _spectrum_logpdf(lam, 1.0 - lam, law)


def eig_joint_logpdf(lams, law: MatrixBetaLaw) -> float:
    """Log joint density of the eigenvalues of a matrix beta draw.

    Symmetric in the entries of ``lams``; integrates to p! over the
    unit cube (to 1 over the ordered sector).  The matrix density at
    diag(lams) times pi^{p(p-1)} / Gamma~_p(p) and the squared
    Vandermonde factor, so coincident eigenvalues give -inf.
    """
    lam = np.asarray(lams, dtype=np.float64).reshape(-1)
    if lam.shape[0] != law.p:
        raise BadShape(f"expected {law.p} eigenvalues, got {lam.shape[0]}")
    if not np.all(np.isfinite(lam)):
        raise BadShape("eigenvalues contain non-finite entries")
    out = _spectrum_logpdf(lam, 1.0 - lam, law)
    p = law.p
    diffs = np.abs(np.subtract.outer(lam, lam)[np.triu_indices(p, 1)])
    if np.any(diffs == 0.0):
        return -math.inf
    out += p * (p - 1) * math.log(math.pi) - ln_cmv_gamma(p, p)
    return float(out + 2.0 * np.sum(np.log(diffs)))


def fim_after_logpdf(J_hat, J, law: MatrixBetaLaw) -> float:
    """Log density of the compressed information matrix given ``J``.

    Change of variables of the matrix beta law of the complex-form
    W = J^{-1/2} Jhat J^{-1/2}, so m >= p and n - m >= p, through
    Jhat = J^{1/2} W J^{H/2}: the matrix density at W minus p log|J|,
    which is
    log_norm + (p - n) log|J| + (m - p) log|Jhat| + (n - m - p) log|J - Jhat|
    on the support 0 <= Jhat <= J.  The spectrum of I - W is that of
    J^{-1/2} (J - Jhat) J^{-1/2}, formed from J - Jhat, so Jhat = J is
    the boundary exactly.
    """
    J = cxla.as_hermitian(J, "J")
    J_hat = cxla.as_hermitian(J_hat, "J_hat")
    if J.shape != J_hat.shape or J.shape[0] != law.p:
        raise BadShape(
            f"J and J_hat must both be {law.p}x{law.p}, got {J.shape} and {J_hat.shape}"
        )
    try:
        s = cxla.hermitian_inv_sqrt(J)
    except NotPositiveDefinite:
        raise DomainError("uncompressed information matrix must be positive definite") from None
    lam = np.linalg.eigvalsh(s @ J_hat @ s)
    gap = np.linalg.eigvalsh(s @ (J - J_hat) @ s)
    out = _spectrum_logpdf(lam, gap, law)
    return float(out - law.p * np.sum(np.log(np.linalg.eigvalsh(J))))


def crb_ratio_law(n: int, m: int, p: int) -> BetaLaw:
    """Law of (CRB before) / (CRB after) for any parameter index.

    Beta(m - p + 1, n - m); valid for p < m < n.  The ratio is the
    residual of one projected column against the other p - 1, so unlike
    the matrix density it needs no n - m >= p.  The bounds are those of
    the complex-form information G^H G / sigma2 that
    ``fisher.fim`` and ``fisher.crb`` compute.  The textbook
    real-parameter information 2 Re(G^H G) / sigma2 (Kay, Vol. I) gives
    the same ratio when p = 1; for p > 1 its ratio does not follow this
    law.  Like :class:`MatrixBetaLaw`, it needs a compressor whose law
    is invariant under right multiplication by a unitary matrix (both
    ``randcomp.FAMILIES``) and noise added before compression.
    """
    _check_dims(n, m, p)
    if not p < m:
        raise DomainError(f"need m > p, got m={m}, p={p}")
    if not m < n:
        raise DomainError(f"need m < n, got m={m}, n={n}")
    return BetaLaw(float(m - p + 1), float(n - m))


def kl_ratio_law(n: int, m: int) -> BetaLaw:
    """Law of (KL after) / (KL before) for scalar noise covariance.

    Beta(m, n - m); valid for 1 <= m < n, whatever the parameter count,
    for a compressor whose law is invariant under right multiplication
    by a unitary matrix (both ``randcomp.FAMILIES``; see
    :class:`MatrixBetaLaw`) and noise added before compression.
    """
    _check_dims(n, m)
    if not 1 <= m < n:
        raise DomainError(f"need 1 <= m < n, got m={m}, n={n}")
    return BetaLaw(float(m), float(n - m))


@dataclass(frozen=True)
class CompressionMoments:
    """Closed-form moments of the compressed information quantities."""

    mean_fim_scale: float
    mean_crb: float
    var_crb: float


def moments(n: int, m: int, p: int, J, i: int) -> CompressionMoments:
    """Mean and variance of the compressed information and CRB.

    E[Jhat] = (m/n) J entrywise, so mean_fim_scale = m/n.
    E[(Jhat^{-1})_{ii}] = (n-p)/(m-p) times the uncompressed bound.
    var[(Jhat^{-1})_{ii}] = (n-m)(n-p)/((m-p-1)(m-p)^2) times its square.
    Requires m > p + 1 so the variance exists.  The uncompressed bound
    (J^{-1})_{ii} is the squared norm of column i of
    ``cxla.hermitian_inv_sqrt(J)``, whose NotPositiveDefinite (smallest
    eigenvalue at or below PD_TOL times the largest) a singular J raises.
    """
    _check_dims(n, m, p)
    if not m > p + 1:
        raise DomainError(f"moments need m > p + 1, got m={m}, p={p}")
    if not n >= m:
        raise DomainError(f"need n >= m, got n={n}, m={m}")
    J = cxla.as_hermitian(J, "J")
    if J.shape[0] != p:
        raise BadShape(f"J must be {p}x{p}, got {J.shape}")
    if not (is_int(i) and 0 <= i < p):
        raise BadShape(f"parameter index must be an int in [0, {p}), got {i!r}")
    s = cxla.hermitian_inv_sqrt(J)
    crb_before = float(np.real(np.vdot(s[:, i], s[:, i])))
    mean_crb = (n - p) / (m - p) * crb_before
    var_crb = (n - m) * (n - p) / ((m - p - 1) * (m - p) ** 2) * crb_before**2
    return CompressionMoments(
        mean_fim_scale=m / n,
        mean_crb=mean_crb,
        var_crb=var_crb,
    )
