"""Dense complex linear algebra kernels.

Orthonormal bases, coordinates in a column space, residuals and
Hermitian inverse square roots, all on plain ``numpy`` arrays in
``complex128``.  Every rank verdict (RANK_TOL) and every definiteness
verdict (PD_TOL) of the package is made here.  A full-rank basis costs
one QR: its triangular factor carries the singular values that decide
the rank verdict.  Coordinates in the column space of B and the
residual of A against it cost one R-only QR of [B | A]: the leading
block R11 decides the verdict, the block R12 beside it is Q^H A and the
block below R12 is the triangular factor of the residual, so Q is never
formed.  Routines that produce Hermitian matrices re-symmetrize the
result so downstream ``eigh`` calls never see accumulated asymmetry.
"""

from __future__ import annotations

import numpy as np

from .errors import BadShape, NotPositiveDefinite, RankDeficient

# Relative rank cutoff: singular values below RANK_TOL times the largest
# count as zero.
RANK_TOL = 1e-10
# Relative positive-definiteness floor for eigenvalues.
PD_TOL = 1e-12


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
    values of ``m``.
    """
    m = as_complex_matrix(m)
    _check_tall(m)
    q, r = np.linalg.qr(m)
    _check_full_rank(r, m.shape)
    return q


def coordinates_and_residual(basis: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The columns of R beside ``basis`` in one R-only QR of [basis | a].

    ``basis`` is n-by-m (n >= m, else BadShape) and ``a`` n-by-k, both
    finite complex128 arrays.  The leading m-by-m block R11 is the R of
    ``basis`` alone, so its singular values give the rank verdict of
    :func:`orthonormal_columns` (RankDeficient, same message; none for a
    basis with no columns).  Rows :m of the result are Q^H a, Q an
    orthonormal basis of the columns of ``basis``; the rows below are the
    triangular factor of a's residual (I - Q Q^H) a, with its norm.
    """
    _check_tall(basis)
    m = basis.shape[1]
    r = np.linalg.qr(np.hstack([basis, a]), mode="r")
    if m:
        _check_full_rank(r[:m, :m], basis.shape)
    return r[:, m:]


def _check_tall(m: np.ndarray) -> None:
    if m.shape[0] < m.shape[1]:
        raise BadShape(f"matrix of shape {m.shape} has fewer rows than columns")


def _check_full_rank(r: np.ndarray, shape: tuple) -> None:
    """RankDeficient unless the square triangular factor ``r`` of a ``shape`` matrix has full rank."""
    s = np.linalg.svd(r, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
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

