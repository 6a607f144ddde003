"""Fisher information and Cramer-Rao bounds for complex Gaussian data.

The observation is x(theta) + noise with circular complex Gaussian
noise of covariance sigma2 * I.  The information matrix is then
G^H G / sigma2 with G the Jacobian of the mean map, and the bound for
parameter i is the i-th diagonal entry of its inverse, computable
without inversion by projecting column i against the others.

Compression by a wide matrix Phi replaces G with its projection onto
the row space of Phi; everything downstream is unchanged.  Only inner
products of the projection matter, so a compressed result stores its
coordinates Q^H G in an orthonormal basis Q of that row space, an
m-by-p matrix with the same J, the same bounds and the same real form
as the n-by-p projection Q Q^H G.  The KL divergence between two mean
vectors is the same computation for the single column x1 - x2.

One R-only QR in ``cxla``, which never forms Q, gives every projection
and every residual here.  The QR of [Phi^H | A], with A = G or
x1 - x2, gives the coordinates Q^H A of ``compressed_fim`` and
``compressed_kl``; its leading block decides the rank verdict
(``cxla.RANK_TOL``), and a compressor without full row rank raises
RankDeficient.  The QR of G with column i moved last gives the residual
of ``crb``, and its whole R decides whether J is singular by the
``cxla.PD_TOL`` rule that ``normalized_fim`` applies to J itself; a
singular J raises SingularFim.  Both verdicts are a shifted Cholesky
certificate and, only when that fails, singular values.  Arbitrary
Jacobians enter through ``fim``, ``compressed_fim`` and ``crb``.
``normalized_fim`` alone forms W = J^{-1/2} Jhat J^{-1/2}, for each
Monte Carlo trial and, on the real-form pair (Re J, Re Jhat) of the
stacked real Jacobian [Re G; Im G], for the CLI's ellipses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cxla
from .errors import BadShape, RankDeficient, SingularFim, is_int, is_real


@dataclass(frozen=True)
class FimResult:
    """Information matrix J together with the Jacobian that produced it.

    ``J`` equals G^H G / sigma2 up to Hermitian symmetrization, so the
    matrix is always reconstructible from the stored pieces.  For
    ``compressed_fim`` G holds the m-by-p coordinates of the projected
    Jacobian in an orthonormal basis of Phi's row space: the same J,
    bounds and real form [Re G; Im G] information as the n-by-p
    projection itself.
    """

    J: np.ndarray
    G: np.ndarray
    sigma2: float

    @property
    def n(self) -> int:
        """Row count of G: the data dimension n for ``fim``, m for ``compressed_fim``."""
        return self.G.shape[0]

    @property
    def p(self) -> int:
        return self.G.shape[1]

    @cached_property
    def inv_sqrt(self) -> np.ndarray:
        """J^{-1/2}, factored on first use and kept, so whitening many draws factors J once."""
        return cxla.hermitian_inv_sqrt(self.J)


def _noise_power(sigma2) -> float:
    """``sigma2`` as a float, or BadShape unless it is a positive finite real number."""
    if not (is_real(sigma2) and sigma2 > 0.0 and math.isfinite(sigma2)):
        raise BadShape(f"sigma2 must be a positive finite real number, got {sigma2!r}")
    return float(sigma2)


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
    sigma2 = _noise_power(sigma2)
    j = cxla.hermitian_part(G.conj().T @ G) / sigma2
    return FimResult(J=j, G=G, sigma2=sigma2)


def crb(info: FimResult, i: int) -> float:
    """Bound (J^{-1})_{ii} via the projection form.

    Equals sigma2 divided by the squared residual of Jacobian column i
    against the span of the remaining columns: the last diagonal entry
    of one R-only QR of [others | column i].  SingularFim is raised when
    J is singular, that is when its smallest eigenvalue is at or below
    ``cxla.PD_TOL`` times its largest, the rule ``normalized_fim``
    applies; it is read off the same R, since J = R^H R / sigma2.  The
    bound is that of the complex-form information G^H G / sigma2 (see
    ``fim``), whose before/after ratio follows
    ``betalaw.crb_ratio_law``; the textbook real-parameter form
    2 Re(G^H G) / sigma2 gives the same ratio when p = 1.
    """
    if not (is_int(i) and 0 <= i < info.p):
        raise BadShape(f"parameter index must be an int in [0, {info.p}), got {i!r}")
    others = [k for k in range(info.p) if k != i]
    try:
        res_sq = cxla.last_column_residual_sq(info.G[:, others + [i]])
    except RankDeficient as exc:
        raise SingularFim(f"parameter {i} is unidentifiable: J is singular, its Jacobian {exc}") from exc
    return info.sigma2 / res_sq


def _project_onto_rows(a: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Coordinates Q^H a of ``a``'s columns, Q an orthonormal basis of ``phi``'s row space.

    ``phi`` is validated by the caller; RankDeficient unless it has full row rank.
    """
    try:
        return cxla.coordinates(phi.conj().T, a)
    except RankDeficient as exc:
        raise RankDeficient(f"phi does not have full row rank: {exc}") from exc


def compressed_fim(G, phi, sigma2: float = 1.0) -> FimResult:
    """Information after observing Phi x instead of x.

    The stored Jacobian is the m-by-p matrix Y = Q^H G of coordinates
    of G's projection onto the row space of Phi (Q an orthonormal basis
    of it), and Jhat = Y^H Y / sigma2.  Y has the Gram matrix of the
    projection, so the result plugs into :func:`crb` unchanged.  Phi
    must be m-by-n with full row rank and p < m <= n.
    """
    G = cxla.as_complex_matrix(G, "G")
    phi = cxla.as_complex_matrix(phi, "phi")
    n, p = G.shape
    m = phi.shape[0]
    if phi.shape[1] != n:
        raise BadShape(f"phi has {phi.shape[1]} columns, expected n={n}")
    if not p < m <= n:
        raise BadShape(f"need p < m <= n, got p={p}, m={m}, n={n}")
    sigma2 = _noise_power(sigma2)
    y = _project_onto_rows(G, phi)
    j_hat = cxla.hermitian_part(y.conj().T @ y) / sigma2
    return FimResult(J=j_hat, G=y, sigma2=sigma2)


def normalized_fim(before: FimResult, after: FimResult) -> np.ndarray:
    """Whitened compressed information W = S Jhat S with S = J^{-1/2}.

    W lives in [0, I] in the Loewner order; its spectrum measures the
    fraction of information surviving compression per direction.  S is
    ``before.inv_sqrt``, so J is factored once however many ``after``
    it whitens.
    """
    if before.J.shape != after.J.shape:
        raise BadShape(
            f"information matrices disagree in size: {before.J.shape} vs {after.J.shape}"
        )
    s = before.inv_sqrt
    return cxla.hermitian_part(s @ after.J @ s)


def _mean_difference(x1, x2) -> np.ndarray:
    x1 = cxla.as_complex_vector(x1, "x1")
    x2 = cxla.as_complex_vector(x2, "x2")
    if x1.shape != x2.shape:
        raise BadShape(f"mean vectors disagree in length: {x1.shape} vs {x2.shape}")
    return x1 - x2


def kl_divergence(x1, x2, sigma2: float = 1.0) -> float:
    """KL divergence between complex Gaussians with means x1, x2 and covariance sigma2*I.

    This is ||x1 - x2||^2 / sigma2.
    """
    delta = _mean_difference(x1, x2)
    return float(np.real(np.vdot(delta, delta))) / _noise_power(sigma2)


def compressed_kl(x1, x2, sigma2: float, phi) -> float:
    """KL divergence between the same Gaussians observed through Phi.

    The means become Phi x and the covariance sigma2 Phi Phi^H, so the
    divergence is ||P (x1 - x2)||^2 / sigma2 with P the row-space
    projector of Phi: the compressed information of the single column
    x1 - x2, computed as ||Q^H (x1 - x2)||^2 / sigma2.  Phi must be
    m-by-n with full row rank and m <= n.
    """
    delta = _mean_difference(x1, x2)
    phi = cxla.as_complex_matrix(phi, "phi")
    n = delta.shape[0]
    if phi.shape[1] != n or phi.shape[0] > n:
        raise BadShape(f"phi must be m-by-{n} with m <= {n}, got {phi.shape}")
    sigma2 = _noise_power(sigma2)
    d_hat = _project_onto_rows(delta[:, None], phi)
    return float(np.real(np.vdot(d_hat, d_hat))) / sigma2
