"""Test oracles: independent computations the library's answers are checked against."""

import numpy as np

from crbcompress.errors import BadSpec, DomainError, TooFewSamples
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
