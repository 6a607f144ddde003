"""Kernel checks: validation, bases, coordinates, Hermitian roots."""

import ast
from pathlib import Path

import numpy as np
import pytest
from oracles import svd_full_rank_verdict

import crbcompress
from crbcompress import cxla
from crbcompress.errors import BadShape, NotPositiveDefinite, RankDeficient
from crbcompress.fisher import compressed_fim, compressed_kl, crb
from crbcompress.randcomp import CompressorSpec, derive_stream, sample
from crbcompress.sigmodel import UlaModel, two_source_half_rayleigh


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


def _count_svd_calls(monkeypatch) -> list:
    """Patch np.linalg.svd, as cxla sees it, to count its calls in the one-element list returned."""
    calls, svd = [0], np.linalg.svd

    def counted(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(cxla.np.linalg, "svd", counted)
    return calls


def _frame_times_unit_triangle(rng, k):
    """Q T: a random complex 80-by-k orthonormal frame times the k-by-k
    unit upper triangle with -1 above the diagonal.

    T's singular values spread out geometrically in k while every diagonal
    entry of R stays 1 in magnitude, so only the singular values tell a
    near-singular input from a well-conditioned one.
    """
    q, _ = np.linalg.qr(_random_complex(rng, (80, k)))
    return q @ (np.eye(k) - np.triu(np.ones((k, k)), 1))


def test_orthonormal_columns_verdict_reads_singular_values_not_the_r_diagonal(monkeypatch):
    rng = np.random.default_rng(20)
    m = _frame_times_unit_triangle(rng, 40)
    s = np.linalg.svd(m, compute_uv=False)
    assert s[-1] / s[0] < 1e-12
    r_diagonal = np.abs(np.diag(np.linalg.qr(m)[1]))
    assert r_diagonal.min() / r_diagonal.max() > 0.99
    with pytest.raises(RankDeficient):
        cxla.orthonormal_columns(m)
    # at 24 columns the singular value ratio is about 1e-8, above RANK_TOL
    # but below the certificate's reach, so the SVD accepts it
    m = _frame_times_unit_triangle(rng, 24)
    s = np.linalg.svd(m, compute_uv=False)
    assert s[-1] / s[0] > 100 * cxla.RANK_TOL
    calls = _count_svd_calls(monkeypatch)
    assert cxla.orthonormal_columns(m).shape == (80, 24)
    assert calls == [1]


def _verdict(check, r, shape):
    """None if ``check`` accepts ``r``, else the RankDeficient message."""
    try:
        check(r, shape)
    except RankDeficient as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("k", [1, 2, 5, 16, 64])
@pytest.mark.filterwarnings("error")
def test_rank_verdict_and_message_equal_the_svd_oracle(k, monkeypatch):
    # R of a (k + 3)-by-k matrix with geometric singular values from 1 down
    # to each ratio, also at scales where the Gram matrix underflows (at
    # 1e-160 its rounding alone would certify some rank-deficient R) or
    # overflows, which must not warn either
    rng = np.random.default_rng(23)
    calls = _count_svd_calls(monkeypatch)
    shape = (k + 3, k)
    checked = 0
    for ratio in np.logspace(-2, -13, 45):
        left = np.linalg.qr(_random_complex(rng, shape))[0]
        right = np.linalg.qr(_random_complex(rng, (k, k)))[0]
        r = np.linalg.qr((left * np.geomspace(1.0, ratio, k)) @ right.conj().T, mode="r")
        for scale in (1e-200, 1e-160, 1e-120, 1e-20, 1.0, 1e20, 1e120, 1e150, 1e160):
            assert _verdict(cxla._check_full_rank, r * scale, shape) == _verdict(svd_full_rank_verdict, r * scale, shape)
            checked += 1
    # the oracle ran one SVD per case; the certificate spared some, not all
    fallbacks = calls[0] - checked
    assert 0 < fallbacks < checked


@pytest.mark.parametrize("n, m, draws", [(32, 16, 20), (128, 64, 5)])
def test_gaussian_draws_take_the_certificate(n, m, draws, monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the rank verdict fell back to the SVD")

    monkeypatch.setattr(cxla.np.linalg, "svd", no_svd)
    model = UlaModel(two_source_half_rayleigh(n))
    g = model.jacobian(model.reference_theta)
    x_ref = model.mean(model.reference_theta)
    x_alt = model.mean(model.reference_theta + np.array([0.011, -0.017]))
    spec = CompressorSpec(m=m, n=n, family="gaussian", seed=3)
    for t in range(draws):
        phi = sample(spec, derive_stream(3, t))
        assert crb(compressed_fim(g, phi), 0) > 0.0
        assert compressed_kl(x_ref, x_alt, 1.0, phi) > 0.0


def test_compressed_fim_shares_the_verdict():
    # the same two inputs as rows of phi: R11 of the R-only QR of
    # [phi^H | G] has phi's singular values, not a better-looking diagonal
    rng = np.random.default_rng(20)
    g = _random_complex(rng, (80, 2))
    basis = _frame_times_unit_triangle(rng, 40)
    with pytest.raises(RankDeficient, match="phi does not have full row rank"):
        compressed_fim(g, basis.conj().T)
    with pytest.raises(RankDeficient):
        cxla.coordinates_and_residual(basis, g)
    basis = _frame_times_unit_triangle(rng, 24)
    assert compressed_fim(g, basis.conj().T).G.shape == (24, 2)


@pytest.mark.parametrize("shape, k", [((8, 3), 1), ((32, 16), 2), ((128, 64), 2), ((5, 5), 3)])
def test_coordinates_are_q_conjugate_transpose_a(shape, k):
    # Q from numpy's QR of the basis alone; the augmented QR uses the same
    # reflectors on the leading columns, so the coordinates are in that Q
    rng = np.random.default_rng(22)
    basis = _random_complex(rng, shape)
    a = _random_complex(rng, (shape[0], k))
    q = np.linalg.qr(basis)[0]
    y = cxla.coordinates_and_residual(basis, a)[: shape[1]]
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
        cxla.coordinates_and_residual(np.ones((2, 3)), np.ones((2, 1)))


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


def _verdicts(tree: ast.AST):
    """(line, what) of every rank or definiteness decision: an inverse,
    singular value, Cholesky or eigendecomposition routine of np.linalg,
    an R-only QR, a verdict tolerance, or LinAlgError, whose catch is a
    verdict."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in {"svd", "inv", "pinv", "matrix_rank", "cholesky", "eigh"}:
            if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                yield node.lineno, f"linalg.{node.attr}"
        if isinstance(node, ast.keyword) and node.arg == "mode":
            if isinstance(node.value, ast.Constant) and node.value.value == "r":
                yield node.value.lineno, 'mode="r"'
        name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
        if name in {"RANK_TOL", "PD_TOL", "LinAlgError"}:
            yield node.lineno, name


def test_only_cxla_decides_rank_and_definiteness():
    # randcomp's Haar QR (a full QR) and the eigvalsh of sampled statistics decide nothing
    src = Path(crbcompress.__file__).resolve().parent
    found = {path.name: sorted(set(_verdicts(ast.parse(path.read_text(encoding="utf-8")))))
             for path in sorted(src.rglob("*.py"))}
    assert found.pop("cxla.py"), "cxla holds the verdicts"
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the guard sees each spelling
    probe = ("np.linalg.inv(a)\nnp.linalg.qr(a, mode='r')\ncxla.PD_TOL\nnp.linalg.qr(a)\nnp.linalg.eigvalsh(a)\n"
             "np.linalg.cholesky(a)\nnp.linalg.eigh(a)\ntry:\n    a\nexcept np.linalg.LinAlgError:\n    pass")
    assert [what for _, what in sorted(_verdicts(ast.parse(probe)))] == [
        "linalg.inv", 'mode="r"', "PD_TOL", "linalg.cholesky", "linalg.eigh", "LinAlgError"]
