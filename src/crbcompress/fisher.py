"""Fisher information and Cramer-Rao bounds for complex Gaussian data.

The observation is x(theta) + noise with circular complex Gaussian
noise of covariance sigma2 * I.  The information matrix is then
G^H G / sigma2 with G the Jacobian of the mean map, and the bound for
parameter i is the i-th diagonal entry of its inverse, computable
without inversion by projecting column i against the others.

Compression by a wide matrix Phi replaces G with its projection onto
the row space of Phi; everything downstream is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cxla
from .errors import BadShape, NotPositiveDefinite, RankDeficient, SingularFim

# A parameter counts as unidentifiable when the residual of its Jacobian
# column against the others falls below this fraction of its norm.
SINGULAR_REL_TOL = 1e-12


@dataclass(frozen=True)
class FimResult:
    """Information matrix J together with the Jacobian that produced it.

    ``J`` equals G^H G / sigma2 up to Hermitian symmetrization, so the
    matrix is always reconstructible from the stored pieces.
    """

    J: np.ndarray
    G: np.ndarray
    sigma2: float

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def p(self) -> int:
        return self.G.shape[1]


def fim(G, sigma2: float = 1.0) -> FimResult:
    """Information matrix G^H G / sigma2 for noise covariance sigma2*I.

    This is the complex form of the information, and the beta laws of
    ``betalaw`` describe it.  For real parameters and complex data the
    textbook Fisher information is 2 Re(G^H G) / sigma2 (Kay,
    Fundamentals of Statistical Signal Processing, Vol. I).  The two
    forms give the same CRB ratio when p = 1; for p > 1 they differ.
    """
    G = cxla.as_complex_matrix(G, "G")
    if G.shape[0] <= G.shape[1]:
        raise BadShape(f"G must be tall (n > p), got shape {G.shape}")
    if not (sigma2 > 0.0 and math.isfinite(sigma2)):
        raise BadShape(f"sigma2 must be positive and finite, got {sigma2}")
    j = cxla.hermitian_part(G.conj().T @ G) / sigma2
    return FimResult(J=j, G=G, sigma2=float(sigma2))


def _residual_norm_sq(g: np.ndarray, others: np.ndarray) -> float:
    """Squared norm of g after projecting out the span of ``others``."""
    if others.shape[1] == 0:
        return float(np.real(np.vdot(g, g)))
    q = cxla.orthonormal_range(others)
    r = g - q @ (q.conj().T @ g)
    # Re-orthogonalize once; kills precision loss when g is nearly in span.
    r = r - q @ (q.conj().T @ r)
    return float(np.real(np.vdot(r, r)))


def crb(info: FimResult, i: int) -> float:
    """Bound (J^{-1})_{ii} via the projection form.

    Equals sigma2 divided by the squared residual of Jacobian column i
    against the span of the remaining columns; agrees with direct
    inversion of J whenever J is well conditioned.  The bound is that of
    the complex-form information G^H G / sigma2 (see ``fim``), whose
    before/after ratio follows ``betalaw.crb_ratio_law``; the textbook
    real-parameter form 2 Re(G^H G) / sigma2 gives the same ratio when
    p = 1.
    """
    if not 0 <= i < info.p:
        raise BadShape(f"parameter index {i} out of range for p={info.p}")
    g = info.G[:, i]
    others = np.delete(info.G, i, axis=1)
    norm_sq = float(np.real(np.vdot(g, g)))
    res_sq = _residual_norm_sq(g, others)
    if res_sq <= SINGULAR_REL_TOL * norm_sq or norm_sq == 0.0:
        raise SingularFim(
            f"parameter {i} is unidentifiable: residual fraction "
            f"{res_sq / norm_sq if norm_sq else 0.0:.3e}"
        )
    return info.sigma2 / res_sq


def compressed_fim(G, phi, sigma2: float = 1.0) -> FimResult:
    """Information after observing Phi x instead of x.

    The stored Jacobian is the projection of G onto the row space of
    Phi, so the result plugs into :func:`crb` unchanged.  Phi must be
    m-by-n with full row rank and p < m <= n.
    """
    G = cxla.as_complex_matrix(G, "G")
    phi = cxla.as_complex_matrix(phi, "phi")
    n, p = G.shape
    m = phi.shape[0]
    if phi.shape[1] != n:
        raise BadShape(f"phi has {phi.shape[1]} columns, expected n={n}")
    if not p < m <= n:
        raise BadShape(f"need p < m <= n, got p={p}, m={m}, n={n}")
    if not (sigma2 > 0.0 and math.isfinite(sigma2)):
        raise BadShape(f"sigma2 must be positive and finite, got {sigma2}")
    try:
        q = cxla.orthonormal_columns(phi.conj().T)
    except RankDeficient as exc:
        raise RankDeficient(f"phi does not have full row rank: {exc}") from exc
    g_hat = q @ (q.conj().T @ G)
    j_hat = cxla.hermitian_part(g_hat.conj().T @ g_hat) / sigma2
    return FimResult(J=j_hat, G=g_hat, sigma2=float(sigma2))


def compressed_crb(G, phi, sigma2: float, i: int) -> float:
    """Bound for parameter i after compression by ``phi``."""
    return crb(compressed_fim(G, phi, sigma2), i)


@dataclass(frozen=True)
class NormalizedFim:
    """Whitened compressed information W = S Jhat S with S = J^{-1/2}.

    W lives in [0, I] in the Loewner order; its spectrum measures the
    fraction of information surviving compression per direction.
    """

    W: np.ndarray
    before: FimResult
    after: FimResult


def normalized_fim(before: FimResult, after: FimResult) -> NormalizedFim:
    """Whiten the compressed information by the uncompressed one."""
    if before.J.shape != after.J.shape:
        raise BadShape(
            f"information matrices disagree in size: {before.J.shape} vs {after.J.shape}"
        )
    s = cxla.hermitian_inv_sqrt(before.J)
    w = cxla.hermitian_part(s @ after.J @ s)
    return NormalizedFim(W=w, before=before, after=after)


def kl_divergence(x1, x2, C) -> float:
    """KL divergence between complex Gaussians with means x1, x2.

    Both share the Hermitian positive definite covariance ``C``; the
    divergence reduces to the quadratic form (x1-x2)^H C^{-1} (x1-x2).
    """
    x1 = cxla.as_complex_vector(x1, "x1")
    x2 = cxla.as_complex_vector(x2, "x2")
    if x1.shape != x2.shape:
        raise BadShape(f"mean vectors disagree in length: {x1.shape} vs {x2.shape}")
    C = cxla.as_hermitian(C, "C")
    if C.shape[0] != x1.shape[0]:
        raise BadShape(f"covariance is {C.shape[0]}x{C.shape[0]}, means have length {x1.shape[0]}")
    delta = x1 - x2
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"covariance is not positive definite: {exc}") from exc
    y = np.linalg.solve(L, delta)
    return max(float(np.real(np.vdot(y, y))), 0.0)


def compressed_kl(x1, x2, C, phi) -> float:
    """KL divergence between the same Gaussians observed through Phi.

    Means become Phi x, covariance becomes Phi C Phi^H.  For C equal to
    sigma2*I this is the projected quadratic form
    (x1-x2)^H P (x1-x2) / sigma2 with P the row-space projector of Phi.
    """
    x1 = cxla.as_complex_vector(x1, "x1")
    x2 = cxla.as_complex_vector(x2, "x2")
    phi = cxla.as_complex_matrix(phi, "phi")
    if x1.shape != x2.shape:
        raise BadShape(f"mean vectors disagree in length: {x1.shape} vs {x2.shape}")
    n = x1.shape[0]
    if phi.shape[1] != n or phi.shape[0] > n:
        raise BadShape(f"phi must be m-by-{n} with m <= {n}, got {phi.shape}")
    cxla.require_full_rank(phi, "phi")
    C = cxla.as_hermitian(C, "C")
    if C.shape[0] != n:
        raise BadShape(f"covariance is {C.shape[0]}x{C.shape[0]}, means have length {n}")
    delta = phi @ (x1 - x2)
    M = cxla.hermitian_part(phi @ C @ phi.conj().T)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"compressed covariance is not positive definite: {exc}") from exc
    y = np.linalg.solve(L, delta)
    return max(float(np.real(np.vdot(y, y))), 0.0)
