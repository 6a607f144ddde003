"""Test oracles: independent computations the library's answers are checked against."""

import numpy as np

from crbcompress.cxla import PD_TOL, RANK_TOL
from crbcompress.errors import BadSpec, DomainError, NotPositiveDefinite, RankDeficient, TooFewSamples
from crbcompress.mcharness import KS_CRITICAL, KsResult
from crbcompress.sigmodel import UlaModel


def finite_diff_jacobian(model: UlaModel, theta, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of ``model.mean`` at ``theta``.

    Second-order accurate in ``h``; intended as a cross-check for
    analytic Jacobians, not as a production derivative.
    """
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    if h <= 0.0:
        raise BadSpec(f"step must be positive, got h={h}")
    g = np.empty((model.n, theta.shape[0]), dtype=np.complex128)
    for i in range(theta.shape[0]):
        lo = theta.copy()
        hi = theta.copy()
        lo[i] -= h
        hi[i] += h
        g[:, i] = (model.mean(hi) - model.mean(lo)) / (2.0 * h)
    return g


def explicit_basis_projection(a: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Columns of ``a`` projected onto the row space of ``phi`` through an explicit basis.

    Q from a numpy QR of phi^H, then Q (Q^H a): the n-row projection whose
    inner products the library's coordinates Q^H a keep.
    """
    q = np.linalg.qr(phi.conj().T)[0]
    return q @ (q.conj().T @ a)


def svd_full_rank_verdict(r: np.ndarray, shape: tuple, gram: bool = False) -> None:
    """The full-rank verdict from the singular values of ``r`` alone, with no certificate.

    RankDeficient, with ``cxla``'s message, when the smallest singular
    value of the square triangular factor ``r`` of a ``shape`` matrix is
    at or below RANK_TOL times the largest; with ``gram``, when the
    eigenvalues of the Gram matrix r^H r, the squared singular values,
    fail the PD_TOL rule: the smallest at or below PD_TOL times the
    largest, or the largest 0.
    """
    s = np.linalg.svd(r, compute_uv=False)
    with np.errstate(over="ignore"):
        lo, hi, floor = (s[-1] ** 2, s[0] ** 2, PD_TOL) if gram else (s[-1], s[0], RANK_TOL)
    if hi == 0.0 or lo <= floor * hi:
        raise RankDeficient(
            f"matrix of shape {shape} is rank deficient "
            f"(smallest/largest singular value = {s[-1]:.3e}/{s[0]:.3e})"
        )


def logdet_hpd(a) -> float:
    """log det A for a Hermitian positive definite ``a``, from its eigenvalues.

    NotPositiveDefinite when the smallest eigenvalue is at or below 1e-10
    times the largest: the log-determinant is -inf or undefined there.
    """
    w = np.linalg.eigvalsh(np.asarray(a, dtype=np.complex128))
    if w[-1] <= 0.0 or w[0] <= 1e-10 * w[-1]:
        raise NotPositiveDefinite(f"eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}]")
    return float(np.sum(np.log(w)))


def ks_two_sample(a, b, alpha: float = 0.01) -> KsResult:
    """Two-sample KS test for samples drawn from a common law."""
    if alpha not in KS_CRITICAL:
        raise DomainError(f"unsupported alpha {alpha}; choose from {sorted(KS_CRITICAL)}")
    xa = np.sort(np.asarray(a, dtype=np.float64).ravel())
    xb = np.sort(np.asarray(b, dtype=np.float64).ravel())
    na, nb = xa.shape[0], xb.shape[0]
    if na < 100 or nb < 100:
        raise TooFewSamples(f"KS test needs at least 100 samples per side, got {na} and {nb}")
    grid = np.concatenate([xa, xb])
    grid.sort()
    ecdf_a = np.searchsorted(xa, grid, side="right") / na
    ecdf_b = np.searchsorted(xb, grid, side="right") / nb
    d = float(np.max(np.abs(ecdf_a - ecdf_b)))
    critical = KS_CRITICAL[alpha] * np.sqrt((na + nb) / (na * nb))
    return KsResult(statistic=d, critical=float(critical), alpha=alpha, passed=bool(d < critical))
