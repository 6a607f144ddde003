"""Dense complex linear algebra kernels.

Orthonormal bases, coordinates in a column space, residuals and
Hermitian inverse square roots, all on plain ``numpy`` arrays in
``complex128``.  Every rank verdict (RANK_TOL) and every definiteness
verdict (PD_TOL) of the package is made here.  A full-rank basis costs
one QR: its triangular factor R has the singular values of the input,
so R alone decides the rank verdict.  Coordinates in the column space
of B cost one R-only QR of [B | A]: the leading block R11 decides the
verdict and the block R12 beside it is Q^H A, so Q is never formed.
The residual of a matrix's last column against its other columns is
the last diagonal entry of its R-only QR, and the whole R decides
whether the Gram matrix R^H R is singular by the PD_TOL rule of
:func:`hermitian_inv_sqrt`.  Both verdicts on R are first a shifted
Cholesky certificate on R^H R, which proves a singular value ratio far
above either floor without computing one; only when it fails do the
singular values of R decide.  Routines that produce Hermitian matrices
re-symmetrize the result so downstream ``eigh`` calls never see
accumulated asymmetry.
"""

from __future__ import annotations

import numpy as np

from .errors import BadShape, NotPositiveDefinite, RankDeficient

# Relative rank cutoff: singular values below RANK_TOL times the largest
# count as zero.
RANK_TOL = 1e-10
# Relative positive-definiteness floor for eigenvalues.
PD_TOL = 1e-12
# Relative diagonal shift tau of the rank certificate (see _check_full_rank).
_CERT_SHIFT = 1e-7
# The certificate is tried only while ||R||_F^2 lies in this range, where
# underflow cannot outweigh the shift and no Gram entry can overflow.
_CERT_RANGE = (1e-250, 1e250)


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise BadShape(f"{name} must be a nonempty 2-D array, got shape {np.shape(a)}")
    return _finite(arr, name)


def as_complex_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return ``a`` as a finite 1-D complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise BadShape(f"{name} must be a nonempty 1-D array, got shape {np.shape(a)}")
    return _finite(arr, name)


def _finite(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr`` itself, or BadShape if a real or imaginary part is not finite."""
    # isfinite of a complex entry is false when either part is, so one pass
    if not np.isfinite(arr).all():
        raise BadShape(f"{name} contains non-finite entries")
    return arr


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A^H)/2."""
    return 0.5 * (a + a.conj().T)


def as_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate ``a`` as square and return its Hermitian part."""
    arr = as_complex_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise BadShape(f"{name} must be square, got shape {arr.shape}")
    return hermitian_part(arr)


def orthonormal_columns(m) -> np.ndarray:
    """Orthonormal basis Q (same shape as ``m``) for the column space.

    Requires at least as many rows as columns (else BadShape) and full
    column rank: raises RankDeficient when the smallest singular value
    is at or below RANK_TOL times the largest.  One QR gives both the
    basis and the verdict, since the square factor R has the singular
    values of ``m``: a shifted Cholesky certificate on R^H R accepts a
    well-conditioned R, and the singular values of R decide only when
    it fails.
    """
    m = as_complex_matrix(m)
    _check_tall(m)
    q, r = np.linalg.qr(m)
    _check_full_rank(r, m.shape)
    return q


def coordinates(basis: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Coordinates Q^H a of ``a``'s columns, Q an orthonormal basis of ``basis``'s columns.

    ``basis`` is n-by-m (1 <= m <= n, else BadShape for m > n) and ``a``
    n-by-k, both finite complex128 arrays.  One R-only QR of
    [basis | a] gives the result as the m-by-k block R12.  Its leading
    m-by-m block R11 is the R of ``basis`` alone, so it gives the rank
    verdict of :func:`orthonormal_columns`: the shifted Cholesky
    certificate, then its singular values if that fails (RankDeficient,
    same message).
    """
    _check_tall(basis)
    m = basis.shape[1]
    r = np.linalg.qr(np.hstack([basis, a]), mode="r")
    _check_full_rank(r[:m, :m], basis.shape)
    return r[:m, m:]


def last_column_residual_sq(a: np.ndarray) -> float:
    """Squared norm of the residual of ``a``'s last column against the span of its other columns.

    ``a`` is an n-by-p finite complex128 array (p <= n, else BadShape).
    The residual's norm is the last diagonal entry of the R of one
    R-only QR of ``a``.  That R also gives the verdict: the Gram matrix
    a^H a = R^H R is singular, and RankDeficient is raised, when its
    smallest eigenvalue is at or below PD_TOL times its largest, the
    rule :func:`hermitian_inv_sqrt` applies to the Gram matrix itself.
    On R that reads sigma_min^2 <= PD_TOL sigma_max^2, decided by the
    same certificate and singular values as the rank verdict; a residual
    whose square underflows to 0 is refused with it.
    """
    _check_tall(a)
    r = np.linalg.qr(a, mode="r")
    _check_full_rank(r, a.shape, gram=True)
    residual = r[-1:, -1:]
    return float(np.real(np.vdot(residual, residual)))


def _check_tall(m: np.ndarray) -> None:
    if m.shape[0] < m.shape[1]:
        raise BadShape(f"matrix of shape {m.shape} has fewer rows than columns")


def _check_full_rank(r: np.ndarray, shape: tuple, gram: bool = False) -> None:
    """RankDeficient unless the square triangular factor ``r`` of a ``shape`` matrix has full rank.

    Full rank means sigma_min > RANK_TOL sigma_max for a basis.  With
    ``gram`` it means that the Gram matrix r^H r is positive definite by
    the rule of :func:`hermitian_inv_sqrt`: its eigenvalues, the squares
    sigma^2, have sigma_min^2 > PD_TOL sigma_max^2 (a singular value
    ratio above 1e-6), and sigma_max^2 neither underflows to 0 nor
    overflows.

    A certificate decides first.  With r m-by-m, s2 = ||r||_F^2 and
    delta = tau s2 (tau = _CERT_SHIFT), a Cholesky factorization of
    g = r^H r - delta I that completes with finite pivots proves full
    rank.  The rounding of the Gram matrix, of the shift and of the
    factorization perturbs g by E with ||E||_2 <= 3 gamma_{m+1} s2, where
    gamma_k = k u / (1 - k u) and u = 2^-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3; Demmel 1989);
    complex arithmetic adds at most a factor sqrt(2), and 2 to gamma's
    index (Higham Sec. 3.6).  For every m up to 10^6 that is below
    5e-10 s2, so tau = 1e-7 sits 200 times above it, and success gives
    lambda_min(r^H r) >= delta - ||E||_2 >= 0.99 tau s2 >= 0.99 tau
    sigma_max^2.  Hence sigma_min / sigma_max >= sqrt(tau / 2), about
    2.2e-4: far above either floor, where the SVD accepts as well.  The bound
    holds while s2 lies in _CERT_RANGE, away from underflow and overflow.
    The certificate feeds no number, so only the cost of the verdict
    changes.

    When it fails (a ratio below about sqrt(tau), or s2 outside the
    range), the singular values of ``r``, or their squares, decide and
    give the message.
    """
    s2 = np.vdot(r, r).real
    if _CERT_RANGE[0] < s2 < _CERT_RANGE[1]:
        g = r.conj().T @ r
        g.reshape(-1)[:: g.shape[0] + 1] -= _CERT_SHIFT * s2
        try:
            # OpenBLAS passes a NaN pivot without an error; a finite diagonal rules it out
            if np.isfinite(np.linalg.cholesky(g).diagonal()).all():
                return
        except np.linalg.LinAlgError:
            pass
    s = np.linalg.svd(r, compute_uv=False)
    with np.errstate(over="ignore"):
        e, tol = (s * s, PD_TOL) if gram else (s, RANK_TOL)
    if e[0] == 0.0 or e[-1] <= tol * e[0]:
        raise RankDeficient(
            f"matrix of shape {shape} is rank deficient "
            f"(smallest/largest singular value = {s[-1]:.3e}/{s[0]:.3e})"
        )


def orthonormal_range(m) -> np.ndarray:
    """Orthonormal basis for the column space, rank-truncating.

    Unlike :func:`orthonormal_columns` this never raises on rank
    deficiency; it returns a basis with one column per numerical rank.
    A zero matrix yields a basis with zero columns.
    """
    m = as_complex_matrix(m)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0:
        return u[:, :0]
    rank = int(np.count_nonzero(s > RANK_TOL * s[0]))
    return u[:, :rank]


def hermitian_inv_sqrt(a) -> np.ndarray:
    """Hermitian S = A^{-1/2}, so S A S = I and S S = A^{-1}, for Hermitian PD ``a``.

    Raises NotPositiveDefinite when the smallest eigenvalue is at or
    below PD_TOL times the largest.
    """
    a = as_hermitian(a)
    w, v = np.linalg.eigh(a)
    if w[-1] <= 0.0 or w[0] <= PD_TOL * w[-1]:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    s = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return hermitian_part(s)

