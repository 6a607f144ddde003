"""Dense complex linear algebra kernels.

Orthonormal bases, Hermitian roots, and stable log-determinants, all on
plain ``numpy`` arrays in ``complex128``.  Routines that produce
Hermitian matrices re-symmetrize the result so downstream ``eigh`` calls
never see accumulated asymmetry.
"""

from __future__ import annotations

import numpy as np

from .errors import BadShape, NotPositiveDefinite, RankDeficient, SingularMatrix

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
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise BadShape(f"{name} contains non-finite entries")
    return arr


def as_complex_vector(a, name: str = "vector") -> np.ndarray:
    """Validate and return ``a`` as a finite 1-D complex128 array."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 1 or arr.shape[0] == 0:
        raise BadShape(f"{name} must be a nonempty 1-D array, got shape {np.shape(a)}")
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
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


def require_full_rank(m: np.ndarray, name: str = "matrix", rank_tol: float = RANK_TOL) -> None:
    """Raise RankDeficient unless ``m`` has rank min(rows, columns).

    The test compares the singular values against ``rank_tol`` times the
    largest.
    """
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= rank_tol * s[0]:
        raise RankDeficient(
            f"{name} of shape {m.shape} is rank deficient "
            f"(smallest/largest singular value = {s[-1]:.3e}/{s[0]:.3e})"
        )


def orthonormal_columns(m, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis Q (same shape as ``m``) for the column space.

    Requires full column rank; raises RankDeficient otherwise (see
    :func:`require_full_rank`).
    """
    m = as_complex_matrix(m)
    require_full_rank(m, rank_tol=rank_tol)
    q, _ = np.linalg.qr(m)
    return q


def orthonormal_range(m, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis for the column space, rank-truncating.

    Unlike :func:`orthonormal_columns` this never raises on rank
    deficiency; it returns a basis with one column per numerical rank.
    A zero matrix yields a basis with zero columns.
    """
    m = as_complex_matrix(m)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0:
        return u[:, :0]
    rank = int(np.count_nonzero(s > rank_tol * s[0]))
    return u[:, :rank]


def hermitian_inv_sqrt(a, pd_tol: float = PD_TOL) -> np.ndarray:
    """Hermitian S with S A S = inverse of A, for Hermitian PD ``a``.

    Raises NotPositiveDefinite when the smallest eigenvalue is at or
    below ``pd_tol`` times the largest.
    """
    a = as_hermitian(a)
    w, v = np.linalg.eigh(a)
    if w[-1] <= 0.0 or w[0] <= pd_tol * w[-1]:
        raise NotPositiveDefinite(
            f"matrix is not positive definite (eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    s = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return hermitian_part(s)


def logdet_hpd(a, rank_tol: float = RANK_TOL) -> float:
    """log det A for Hermitian PSD ``a``; SingularMatrix when det is 0.

    Consumers evaluating log-densities should map SingularMatrix to
    -inf when the corresponding density exponent is positive.
    """
    a = as_hermitian(a)
    w = np.linalg.eigvalsh(a)
    if w[-1] <= 0.0 or w[0] <= rank_tol * w[-1]:
        raise SingularMatrix(
            f"matrix is singular to working precision (eigenvalue range [{w[0]:.3e}, {w[-1]:.3e}])"
        )
    return float(np.sum(np.log(w)))
