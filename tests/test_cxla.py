"""Kernel checks: validation, bases, coordinates, Hermitian roots."""

import numpy as np
import pytest

from crbcompress import cxla
from crbcompress.errors import BadShape, NotPositiveDefinite, RankDeficient
from crbcompress.fisher import compressed_fim


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _span_projector(m):
    """Orthogonal projector q q^H onto the column space of the full-rank ``m``."""
    q, _ = np.linalg.qr(m)
    return q @ q.conj().T


def test_orthonormal_columns_identity():
    q = cxla.orthonormal_columns(np.eye(4))
    np.testing.assert_allclose(q.conj().T @ q, np.eye(4), atol=1e-14)


def test_orthonormal_columns_random():
    rng = np.random.default_rng(11)
    m = _random_complex(rng, (8, 3))
    q = cxla.orthonormal_columns(m)
    assert q.shape == (8, 3)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(3), atol=1e-12)
    # same column space as the input
    np.testing.assert_allclose(_span_projector(q), _span_projector(m), atol=1e-12)


def test_orthonormal_columns_rank_deficient():
    rng = np.random.default_rng(12)
    col = _random_complex(rng, (6, 1))
    m = np.hstack([col, 2.0 * col])
    with pytest.raises(RankDeficient):
        cxla.orthonormal_columns(m)


def _frame_times_unit_triangle(rng, k):
    """Q T: a random complex 80-by-k orthonormal frame times the k-by-k
    unit upper triangle with -1 above the diagonal.

    T's singular values spread out geometrically in k while every diagonal
    entry of R stays 1 in magnitude, so only the singular values tell a
    near-singular input from a well-conditioned one.
    """
    q, _ = np.linalg.qr(_random_complex(rng, (80, k)))
    return q @ (np.eye(k) - np.triu(np.ones((k, k)), 1))


def test_orthonormal_columns_verdict_reads_singular_values_not_the_r_diagonal():
    rng = np.random.default_rng(20)
    m = _frame_times_unit_triangle(rng, 40)
    s = np.linalg.svd(m, compute_uv=False)
    assert s[-1] / s[0] < 1e-12
    r_diagonal = np.abs(np.diag(np.linalg.qr(m)[1]))
    assert r_diagonal.min() / r_diagonal.max() > 0.99
    with pytest.raises(RankDeficient):
        cxla.orthonormal_columns(m)
    # at 24 columns the singular value ratio is about 1e-8, above RANK_TOL
    m = _frame_times_unit_triangle(rng, 24)
    s = np.linalg.svd(m, compute_uv=False)
    assert s[-1] / s[0] > 100 * cxla.RANK_TOL
    assert cxla.orthonormal_columns(m).shape == (80, 24)


def test_compressed_fim_shares_the_verdict():
    # the same two inputs as rows of phi: R11 of the R-only QR of
    # [phi^H | G] has phi's singular values, not a better-looking diagonal
    rng = np.random.default_rng(20)
    g = _random_complex(rng, (80, 2))
    basis = _frame_times_unit_triangle(rng, 40)
    with pytest.raises(RankDeficient, match="phi does not have full row rank"):
        compressed_fim(g, basis.conj().T)
    with pytest.raises(RankDeficient):
        cxla.column_space_coordinates(basis, g)
    basis = _frame_times_unit_triangle(rng, 24)
    assert compressed_fim(g, basis.conj().T).G.shape == (24, 2)


@pytest.mark.parametrize("shape, k", [((8, 3), 1), ((32, 16), 2), ((128, 64), 2), ((5, 5), 3)])
def test_column_space_coordinates_are_q_conjugate_transpose_a(shape, k):
    # Q from numpy's QR of the basis alone; the augmented QR uses the same
    # reflectors on the leading columns, so the coordinates are in that Q
    rng = np.random.default_rng(22)
    basis = _random_complex(rng, shape)
    a = _random_complex(rng, (shape[0], k))
    q = np.linalg.qr(basis)[0]
    y = cxla.column_space_coordinates(basis, a)
    assert y.shape == (shape[1], k)
    np.testing.assert_allclose(y, q.conj().T @ a, rtol=0.0, atol=1e-12 * np.abs(a).max() * shape[0])


@pytest.mark.parametrize("shape", [(8, 3), (32, 16), (128, 64), (5, 5)])
def test_orthonormal_columns_is_numpy_qr_bit_for_bit(shape):
    m = _random_complex(np.random.default_rng(21), shape)
    np.testing.assert_array_equal(cxla.orthonormal_columns(m), np.linalg.qr(m)[0])


def test_orthonormal_range_truncates_to_the_numerical_rank():
    rng = np.random.default_rng(16)
    col = _random_complex(rng, (7, 1))
    m = np.hstack([col, col, _random_complex(rng, (7, 1))])
    q = cxla.orthonormal_range(m)
    assert q.shape == (7, 2)
    np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-12)
    # q spans the columns of m
    np.testing.assert_allclose(q @ (q.conj().T @ m), m, atol=1e-12)
    assert cxla.orthonormal_range(np.zeros((4, 2))).shape == (4, 0)


def test_hermitian_inv_sqrt_scalar_and_diagonal():
    np.testing.assert_allclose(cxla.hermitian_inv_sqrt(np.array([[4.0]])), [[0.5]], rtol=1e-14)
    s = cxla.hermitian_inv_sqrt(np.diag([4.0, 9.0]).astype(complex))
    np.testing.assert_allclose(s, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_hermitian_inv_sqrt_reconstruction():
    rng = np.random.default_rng(17)
    b = _random_complex(rng, (6, 6))
    a = b.conj().T @ b + 0.5 * np.eye(6)
    s = cxla.hermitian_inv_sqrt(a)
    np.testing.assert_allclose(s, s.conj().T, atol=0.0)
    np.testing.assert_allclose(s @ a @ s, np.eye(6), atol=1e-12)


def test_hermitian_inv_sqrt_ill_conditioned():
    a = np.diag([1.0, 1e-8]).astype(complex)
    s = cxla.hermitian_inv_sqrt(a)
    np.testing.assert_allclose(s @ a @ s, np.eye(2), atol=1e-7)


def test_hermitian_inv_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cxla.hermitian_inv_sqrt(np.diag([1.0, -1.0]))
    with pytest.raises(NotPositiveDefinite):
        cxla.hermitian_inv_sqrt(np.diag([1.0, 0.0]))


def test_shape_validation():
    with pytest.raises(BadShape):
        cxla.as_complex_matrix(np.ones(3))
    with pytest.raises(BadShape):
        cxla.as_complex_matrix(np.array([[np.nan, 1.0]]))
    with pytest.raises(BadShape):
        cxla.as_hermitian(np.ones((2, 3)))
    with pytest.raises(BadShape):
        cxla.as_complex_vector(np.ones((2, 2)))
    # a wide matrix has no full-column-rank basis of its own shape
    with pytest.raises(BadShape):
        cxla.orthonormal_columns(np.ones((2, 3)))
    with pytest.raises(BadShape):
        cxla.column_space_coordinates(np.ones((2, 3)), np.ones((2, 1)))


@pytest.mark.parametrize(
    "entry",
    [complex(bad, 0.0) for bad in (np.nan, np.inf, -np.inf)]
    + [complex(0.0, bad) for bad in (np.nan, np.inf, -np.inf)],
)
def test_non_finite_real_or_imaginary_part_is_rejected(entry):
    matrix = np.ones((3, 2), dtype=np.complex128)
    matrix[1, 0] = entry
    vector = np.ones(4, dtype=np.complex128)
    vector[2] = entry
    with pytest.raises(BadShape):
        cxla.as_complex_matrix(matrix)
    with pytest.raises(BadShape):
        cxla.as_complex_vector(vector)
