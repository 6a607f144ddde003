"""Information matrices, bound computations, and divergence checks."""

import mpmath
import numpy as np
import pytest

from crbcompress import cxla, fisher
from crbcompress.errors import BadShape, NotPositiveDefinite, RankDeficient, SingularFim
from crbcompress.fisher import (
    compressed_fim,
    compressed_kl,
    crb,
    fim,
    kl_divergence,
    normalized_fim,
)
from crbcompress.randcomp import CompressorSpec, derive_stream, sample
from crbcompress.sigmodel import Source, UlaModel, UlaScenario, two_source_half_rayleigh

from oracles import explicit_basis_projection


def crb_angle_form(G, sigma2, i):
    """Bound written as sigma2 / (||g_i||^2 sin^2 psi_i), an oracle for crb.

    ``psi_i`` is the principal angle between Jacobian column i and the
    span of the remaining columns, read off a numpy QR of those columns.
    """
    g = G[:, i]
    others = np.delete(G, i, axis=1)
    q, _ = np.linalg.qr(others)
    residual = g - q @ (q.conj().T @ g)
    norm_sq = np.vdot(g, g).real
    sin_sq = np.vdot(residual, residual).real / norm_sq
    return sigma2 / (norm_sq * sin_sq)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_fim_unit_column():
    g = np.zeros((3, 1), dtype=complex)
    g[0, 0] = 1.0
    info = fim(g, 1.0)
    np.testing.assert_allclose(info.J, [[1.0]], atol=0.0)
    assert info.n == 3 and info.p == 1


def test_fim_noise_scaling():
    rng = np.random.default_rng(31)
    g = _random_complex(rng, (6, 2))
    np.testing.assert_allclose(fim(g, 4.0).J, fim(g, 1.0).J / 4.0, rtol=1e-14)


def test_fim_three_sensor_single_source():
    # column is (0, j e^{j theta}, 2j e^{2j theta}); squared norm 0+1+4
    model = UlaModel(UlaScenario(n=3, sources=(Source(0.7),)))
    info = fim(model.jacobian(model.reference_theta), 1.0)
    np.testing.assert_allclose(info.J, [[5.0]], atol=1e-13)


def test_fim_shape_errors():
    rng = np.random.default_rng(32)
    with pytest.raises(BadShape):
        fim(_random_complex(rng, (2, 3)))
    with pytest.raises(BadShape):
        fim(_random_complex(rng, (3, 3)))
    with pytest.raises(BadShape):
        fim(_random_complex(rng, (4, 2)), sigma2=0.0)
    with pytest.raises(BadShape):
        fim(_random_complex(rng, (4, 2)), sigma2=-1.0)


def test_crb_orthogonal_columns():
    g = np.zeros((5, 2), dtype=complex)
    g[0, 0] = 2.0
    g[1, 1] = 1.0 + 1.0j
    info = fim(g, 0.5)
    np.testing.assert_allclose(crb(info, 0), 0.5 / 4.0, rtol=1e-14)
    np.testing.assert_allclose(crb(info, 1), 0.5 / 2.0, rtol=1e-14)


def test_crb_matches_matrix_inverse():
    rng = np.random.default_rng(33)
    g = _random_complex(rng, (10, 3))
    info = fim(g, 0.7)
    inv = np.linalg.inv(info.J)
    for i in range(3):
        np.testing.assert_allclose(crb(info, i), inv[i, i].real, rtol=1e-10)


def test_crb_single_parameter():
    # with no other columns the QR of the column alone gives its norm, and only a zero column is singular
    rng = np.random.default_rng(34)
    g = _random_complex(rng, (7, 1))
    info = fim(g, 2.0)
    np.testing.assert_allclose(crb(info, 0), 2.0 / np.sum(np.abs(g) ** 2), rtol=1e-14)
    with pytest.raises(SingularFim):
        crb(fim(np.zeros((7, 1)) + 0j), 0)


def test_crb_raises_when_the_other_columns_are_rank_deficient():
    # J is singular, so (J^{-1})_00 does not exist: a rank-truncated
    # projection would return a finite value for parameter 0
    rng = np.random.default_rng(46)
    a, b = _random_complex(rng, (8, 1)), _random_complex(rng, (8, 1))
    info = fim(np.hstack([a, b, b]))
    for i in range(3):
        with pytest.raises(SingularFim, match=f"parameter {i} is unidentifiable"):
            crb(info, i)
    with pytest.raises(SingularFim, match="rank deficient"):
        crb(info, 0)


def _mp_inverse_diagonal(g):
    """(J^{-1})_ii for J = G^H G at 50 digits, from the double entries of G."""
    G = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in g])
    with mpmath.workdps(50):
        inv = (G.H * G) ** -1
        return [float(mpmath.re(inv[i, i])) for i in range(g.shape[1])]


def test_crb_matches_a_50_digit_inverse_on_near_singular_jacobians():
    # the last column is the first plus a perturbation of relative size
    # 1e-5 to 1e-2, so J has condition numbers up to about 1e10; the
    # residual of the R-only QR keeps the bound within 1e-9 relative (the
    # worst of these 60 Jacobians is about 2e-11)
    rng = np.random.default_rng(47)
    worst = 0.0
    for trial in range(60):
        p = 2 + trial % 4
        g = _random_complex(rng, (3 * p + 2, p))
        g[:, -1] = g[:, 0] + 10.0 ** rng.uniform(-5.0, -2.0) * _random_complex(rng, 3 * p + 2)
        info = fim(g)
        for i, exact in enumerate(_mp_inverse_diagonal(g)):
            worst = max(worst, abs(crb(info, i) - exact) / exact)
    assert worst < 1e-9


def test_crb_forty_five_degree_angle():
    g = np.zeros((3, 2), dtype=complex)
    g[0, 0] = 1.0
    g[:2, 1] = 1.0 / np.sqrt(2.0)
    info = fim(g, 1.0)
    np.testing.assert_allclose(crb(info, 0), 2.0, rtol=1e-12)
    np.testing.assert_allclose(crb_angle_form(g, 1.0, 0), 2.0, rtol=1e-12)


def test_crb_angle_form_agrees():
    rng = np.random.default_rng(35)
    g = _random_complex(rng, (12, 4))
    info = fim(g, 1.3)
    for i in range(4):
        np.testing.assert_allclose(crb_angle_form(g, 1.3, i), crb(info, i), rtol=1e-10)


def test_crb_near_singular_threshold():
    u = np.zeros(8, dtype=complex)
    v = np.zeros(8, dtype=complex)
    u[0] = 1.0
    v[1] = 1.0
    ok = fim(np.column_stack([u, u + 1e-5 * v]))
    np.testing.assert_allclose(crb(ok, 1), 1e10, rtol=1e-6)
    bad = fim(np.column_stack([u, u + 1e-7 * v]))
    with pytest.raises(SingularFim):
        crb(bad, 1)
    with pytest.raises(BadShape):
        crb(ok, 2)


def _orthonormal_pair(rng, n):
    """Unit vectors g and e with e orthogonal to g."""
    q = np.linalg.qr(_random_complex(rng, (n, 2)))[0]
    return q[:, 0], q[:, 1]


def _refuses(call, error) -> bool:
    try:
        call()
    except error:
        return True
    return False


@pytest.mark.parametrize("form", ["nearly parallel", "unequal scales"])
def test_crb_refuses_j_exactly_when_its_inverse_square_root_does(form):
    # one singularity rule, lambda_min(J) <= PD_TOL lambda_max(J): for
    # G = [g, g + eps e] the eigenvalue ratio of J is about eps^2 / 4, for
    # G = [g, s e] it is s^2; points within 1e-3 relative of the floor are
    # skipped, as eigh of the formed J resolves the ratio only to about
    # 1e-4 relative there
    rng = np.random.default_rng(48)
    checked = 0
    for x in np.logspace(-4.0, -8.0, 81):
        g, e = _orthonormal_pair(rng, 16)
        if form == "nearly parallel":
            G, trace = np.column_stack([g, g + x * e]), 2.0 + x * x
            ratio = x * x / (0.5 * (trace + np.sqrt(trace * trace - 4.0 * x * x))) ** 2
        else:
            G, ratio = np.column_stack([g, x * e]), x * x
        if abs(ratio / cxla.PD_TOL - 1.0) < 1e-3:
            continue
        info = fim(G)
        singular = _refuses(lambda: cxla.hermitian_inv_sqrt(info.J), NotPositiveDefinite)
        assert singular == (ratio <= cxla.PD_TOL)
        for i in range(2):
            assert _refuses(lambda: crb(info, i), SingularFim) == singular, (x, i)
        checked += 1
    assert checked >= 79


def test_crb_refuses_a_jacobian_whose_information_underflows():
    # J = G^H G rounds to 0, so hermitian_inv_sqrt refuses it; crb must
    # refuse it too, not divide by a residual whose square is 0
    info = fim(1e-200 * _random_complex(np.random.default_rng(49), (8, 2)))
    with pytest.raises(NotPositiveDefinite):
        cxla.hermitian_inv_sqrt(info.J)
    for i in range(2):
        with pytest.raises(SingularFim, match=f"parameter {i} is unidentifiable"):
            crb(info, i)


@pytest.mark.parametrize("index", [True, False, 1.0, np.float64(0.0)])
def test_crb_index_must_be_an_int(index):
    # True used to fail inside numpy and 1.0 with an IndexError
    info = fim(np.eye(4, 2, dtype=complex))
    with pytest.raises(BadShape, match="parameter index"):
        crb(info, index)


def _crb_ratios_in_both_forms(G, phi, i):
    """Per-draw CRB ratio (before / after) under both information forms.

    The complex form is G^H G / sigma2, the textbook real-parameter form
    2 Re(G^H G) / sigma2; sigma2 cancels in the ratio.  After compression
    the whitened Jacobian (Phi Phi^H)^(-1/2) Phi G has the Gram matrix of
    Q^H G, with Q an orthonormal basis of the row space of Phi.
    """
    q, _ = np.linalg.qr(phi.conj().T)
    g_hat = q.conj().T @ G

    def ratio(form):
        return np.linalg.inv(form(G))[i, i].real / np.linalg.inv(form(g_hat))[i, i].real

    return ratio(lambda g: g.conj().T @ g), ratio(lambda g: 2.0 * np.real(g.conj().T @ g))


def test_crb_ratio_real_and_complex_forms():
    # the beta laws describe the complex form; the real form has the same
    # ratio for one parameter only
    n, m = 32, 16
    spec = CompressorSpec(m=m, n=n, seed=29)
    phis = [sample(spec, derive_stream(29, t)) for t in range(5)]
    one = UlaModel(UlaScenario(n=n, sources=(Source(0.4),)))
    g_one = one.jacobian(one.reference_theta)
    for phi in phis:
        complex_ratio, real_ratio = _crb_ratios_in_both_forms(g_one, phi, 0)
        np.testing.assert_allclose(real_ratio, complex_ratio, rtol=1e-12)
    two = UlaModel(two_source_half_rayleigh(n))
    g_two = two.jacobian(two.reference_theta)
    gaps = []
    for phi in phis:
        complex_ratio, real_ratio = _crb_ratios_in_both_forms(g_two, phi, 0)
        library = crb(fim(g_two), 0) / crb(compressed_fim(g_two, phi, 1.0), 0)
        np.testing.assert_allclose(complex_ratio, library, rtol=1e-10)
        gaps.append(abs(real_ratio - complex_ratio))
    assert max(gaps) > 1e-6


def test_compressed_fim_identity_map():
    rng = np.random.default_rng(36)
    g = _random_complex(rng, (9, 2))
    info = compressed_fim(g, np.eye(9), 1.0)
    np.testing.assert_allclose(info.J, fim(g).J, atol=1e-12)


def test_compressed_fim_coordinate_truncation():
    rng = np.random.default_rng(37)
    g = _random_complex(rng, (10, 2))
    phi = np.eye(10)[:6]
    info = compressed_fim(g, phi, 0.8)
    np.testing.assert_allclose(info.J, fim(g[:6], 0.8).J, atol=1e-12)


def test_compressed_fim_row_transform_invariance():
    # the bound depends on phi only through its row space
    rng = np.random.default_rng(38)
    g = _random_complex(rng, (12, 2))
    phi = _random_complex(rng, (5, 12))
    t = _random_complex(rng, (5, 5)) + 3.0 * np.eye(5)
    d = np.diag(rng.uniform(0.5, 2.0, size=5)).astype(complex)
    base = compressed_fim(g, phi).J
    np.testing.assert_allclose(compressed_fim(g, d @ phi).J, base, atol=1e-10)
    np.testing.assert_allclose(compressed_fim(g, t @ phi).J, base, atol=1e-10)


def test_compressed_fim_errors():
    rng = np.random.default_rng(39)
    g = _random_complex(rng, (8, 2))
    row = _random_complex(rng, (1, 8))
    with pytest.raises(RankDeficient):
        compressed_fim(g, np.vstack([row, row, row]))
    # sigma2 is checked with the shapes, before the rank of phi
    with pytest.raises(BadShape):
        compressed_fim(g, np.vstack([row, row, row]), sigma2=0.0)
    with pytest.raises(BadShape):
        compressed_fim(g, _random_complex(rng, (2, 8)))
    with pytest.raises(BadShape):
        compressed_fim(g, _random_complex(rng, (9, 8)))
    with pytest.raises(BadShape):
        compressed_fim(g, _random_complex(rng, (4, 7)))


def test_compressed_fim_factors_the_compressor_once(monkeypatch):
    # one R-only QR of [phi^H | G] gives the rank verdict (from its m-by-m
    # block R11) and the coordinates Q^H G (the block R12 beside it); the
    # n-by-m basis Q itself is never formed
    model = UlaModel(two_source_half_rayleigh(128))
    G = model.jacobian(model.reference_theta)
    phi = sample(CompressorSpec(m=64, n=128, family="gaussian", seed=3), derive_stream(3, 0))
    calls = {"qr": [], "svd": []}
    for name in calls:
        real = getattr(np.linalg, name)

        def record(a, *args, _real=real, _name=name, **kwargs):
            calls[_name].append((np.shape(a), kwargs.get("mode", args[0] if args else None)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, record)

    def no_basis(m):
        raise AssertionError(f"an explicit basis of shape {np.shape(m)} was formed")

    monkeypatch.setattr(fisher.cxla, "orthonormal_columns", no_basis)
    info = compressed_fim(G, phi)
    assert calls["qr"] == [((128, 66), "r")]
    assert {shape for shape, _ in calls["svd"]} <= {(64, 64)}
    assert info.G.shape == (64, 2)


@pytest.mark.parametrize("family", ["gaussian", "stiefel"])
@pytest.mark.parametrize("n, m, sources", [(128, 64, 2), (32, 16, 2), (32, 32, 2), (32, 3, 2), (32, 16, 1)])
def test_compressed_results_match_an_explicit_basis(family, n, m, sources):
    # the coordinates Q^H G keep every inner product of the projection
    # Q Q^H G, so J, the bound, the KL divergence and W agree with the
    # explicit-basis oracle to rounding (1e-12 relative)
    scenario = two_source_half_rayleigh(n)
    model = UlaModel(UlaScenario(n=n, sources=scenario.sources[:sources]))
    G = model.jacobian(model.reference_theta)
    theta_alt = model.reference_theta + 0.01
    x1, x2 = model.mean(model.reference_theta), model.mean(theta_alt)
    before = fim(G, 0.7)
    spec = CompressorSpec(m=m, n=n, family=family, seed=41)
    for t in range(5):
        phi = sample(spec, derive_stream(41, t))
        after = compressed_fim(G, phi, 0.7)
        g_hat = explicit_basis_projection(G, phi)
        j_oracle = cxla.hermitian_part(g_hat.conj().T @ g_hat) / 0.7
        oracle = fisher.FimResult(J=j_oracle, G=g_hat, sigma2=0.7)
        assert np.linalg.norm(after.J - j_oracle) <= 1e-12 * np.linalg.norm(j_oracle)
        for i in range(sources):
            np.testing.assert_allclose(crb(before, i) / crb(after, i), crb(before, i) / crb(oracle, i), rtol=1e-12)
        d_hat = explicit_basis_projection((x1 - x2)[:, None], phi)
        np.testing.assert_allclose(
            compressed_kl(x1, x2, 0.7, phi), np.vdot(d_hat, d_hat).real / 0.7, rtol=1e-12
        )
        np.testing.assert_allclose(
            np.linalg.eigvalsh(normalized_fim(before, after)),
            np.linalg.eigvalsh(normalized_fim(before, oracle)),
            rtol=1e-12,
        )


def test_compression_never_improves_the_bound():
    model = UlaModel(two_source_half_rayleigh(24))
    g = model.jacobian(model.reference_theta)
    before = crb(fim(g), 0)
    for trial in range(50):
        spec = CompressorSpec(m=8, n=24, family="gaussian", seed=4)
        phi = sample(spec, derive_stream(4, trial))
        after = crb(compressed_fim(g, phi, 1.0), 0)
        assert after >= before * (1.0 - 1e-10)


def test_compressed_crb_mean_inflation():
    # mean of after/before approaches (n-p)/(m-p) as trials grow
    n, m, p, trials = 32, 16, 2, 3000
    model = UlaModel(two_source_half_rayleigh(n))
    g = model.jacobian(model.reference_theta)
    before = crb(fim(g), 0)
    total = 0.0
    for trial in range(trials):
        phi = sample(CompressorSpec(m=m, n=n, family="gaussian", seed=7), derive_stream(7, trial))
        total += crb(compressed_fim(g, phi, 1.0), 0) / before
    expected = (n - p) / (m - p)
    assert abs(total / trials - expected) < 0.05 * expected


def test_normalized_fim_identity_and_scaling():
    rng = np.random.default_rng(40)
    g = _random_complex(rng, (10, 3))
    before = fim(g)
    w_same = normalized_fim(before, before)
    np.testing.assert_allclose(w_same, np.eye(3), atol=1e-12)
    half = fim(g / np.sqrt(2.0))
    np.testing.assert_allclose(normalized_fim(before, half), 0.5 * np.eye(3), atol=1e-12)
    with pytest.raises(BadShape):
        normalized_fim(before, fim(_random_complex(rng, (10, 2))))


def test_normalized_fim_spectrum_in_unit_interval():
    model = UlaModel(two_source_half_rayleigh(20))
    g = model.jacobian(model.reference_theta)
    before = fim(g)
    for trial in range(40):
        phi = sample(CompressorSpec(m=6, n=20, family="stiefel", seed=9), derive_stream(9, trial))
        w = normalized_fim(before, compressed_fim(g, phi))
        eigs = np.linalg.eigvalsh(w)
        assert eigs[0] > -1e-10 and eigs[-1] < 1.0 + 1e-10


def test_kl_zero_for_equal_means():
    rng = np.random.default_rng(41)
    x = _random_complex(rng, 6)
    assert kl_divergence(x, x.copy()) == 0.0


def test_kl_identity_covariance():
    rng = np.random.default_rng(42)
    x1 = _random_complex(rng, 5)
    x2 = _random_complex(rng, 5)
    np.testing.assert_allclose(
        kl_divergence(x1, x2, 2.0), np.sum(np.abs(x1 - x2) ** 2) / 2.0, rtol=1e-12
    )
    with pytest.raises(BadShape):
        kl_divergence(x1, x2, 0.0)
    with pytest.raises(BadShape):
        kl_divergence(x1, x2[:4])


def test_kl_matches_explicit_inverse():
    # the compressed data Phi x has covariance sigma2 Phi Phi^H; invert it
    rng = np.random.default_rng(43)
    x1 = _random_complex(rng, 6)
    x2 = _random_complex(rng, 6)
    phi = _random_complex(rng, (4, 6))
    sigma2 = 1.7
    d = phi @ (x1 - x2)
    expected = np.real(d.conj() @ np.linalg.inv(sigma2 * phi @ phi.conj().T) @ d)
    np.testing.assert_allclose(compressed_kl(x1, x2, sigma2, phi), expected, rtol=1e-10)
    with pytest.raises(BadShape):
        compressed_kl(x1, x2, 0.0, phi)


def test_compressed_kl_invertible_map_changes_nothing():
    rng = np.random.default_rng(44)
    x1 = _random_complex(rng, 6)
    x2 = _random_complex(rng, 6)
    phi = _random_complex(rng, (6, 6)) + 2.0 * np.eye(6)
    np.testing.assert_allclose(
        compressed_kl(x1, x2, 1.7, phi), kl_divergence(x1, x2, 1.7), rtol=1e-10
    )


def test_compressed_kl_projector_form_for_white_noise():
    rng = np.random.default_rng(45)
    x1 = _random_complex(rng, 10)
    x2 = _random_complex(rng, 10)
    phi = _random_complex(rng, (4, 10))
    sigma2 = 0.6
    # projector onto the row space of phi, from a QR of phi^H
    q, _ = np.linalg.qr(phi.conj().T)
    p = q @ q.conj().T
    delta = x1 - x2
    expected = np.real(delta.conj() @ p @ delta) / sigma2
    np.testing.assert_allclose(
        compressed_kl(x1, x2, sigma2, phi), expected, rtol=1e-10
    )
    row = _random_complex(rng, (1, 10))
    with pytest.raises(RankDeficient):
        compressed_kl(x1, x2, 1.0, np.vstack([row, 2.0 * row]))


def test_compressed_kl_ratio_mean():
    # for white noise the ratio after/before concentrates around m/n
    n, m, trials = 32, 8, 4000
    model = UlaModel(two_source_half_rayleigh(n))
    x1 = model.mean(model.reference_theta)
    x2 = model.mean(model.reference_theta + np.array([0.01, -0.02]))
    before = kl_divergence(x1, x2)
    total = 0.0
    for trial in range(trials):
        phi = sample(CompressorSpec(m=m, n=n, family="gaussian", seed=3), derive_stream(3, trial))
        total += compressed_kl(x1, x2, 1.0, phi) / before
    assert abs(total / trials - m / n) < 0.02 * (m / n)
