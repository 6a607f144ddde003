"""Measurement planning and concentration ellipse loci."""

import numpy as np
import pytest
import scipy.stats

from crbcompress.betalaw import beta_cdf, crb_ratio_law
from crbcompress import planner
from crbcompress.errors import BadShape, DomainError, Infeasible, NoConvergence, NotPositiveDefinite
from crbcompress.fisher import compressed_crb, crb, fim
from crbcompress.planner import (
    PlanQuery,
    confidence_at,
    curve,
    ellipse_locus,
    min_measurements,
)
from crbcompress.randcomp import CompressorSpec, derive_stream, sample
from crbcompress.sigmodel import UlaModel, two_source_half_rayleigh


def test_confidence_is_one_minus_the_tail_cdf():
    law = crb_ratio_law(64, 24, 2)
    expected = 1.0 - beta_cdf(law, 1.0 / 1.7)
    np.testing.assert_allclose(confidence_at(64, 24, 2, 1.7), expected, rtol=1e-14)


def test_confidence_matches_the_binomial_cdf():
    # confidence_at(n, m, p, kappa) = P[Binomial(n - p, 1/kappa) <= m - p];
    # the value is one minus a cdf, so below ~1e-4 it is resolved to one
    # ulp of 1 rather than relatively
    for n in (8, 13, 40, 97, 200):
        for p in (1, 2, 4):
            for kappa in (1.1, 1.5, 2.0, 3.0):
                ms = range(p + 1, n - p + 1)
                values = [confidence_at(n, m, p, kappa) for m in ms]
                ref = scipy.stats.binom.cdf([m - p for m in ms], n - p, 1.0 / kappa)
                np.testing.assert_allclose(values, ref, rtol=1e-12, atol=np.finfo(float).eps)


def test_confidence_edge_cases():
    assert confidence_at(64, 24, 2, 1.0) == 0.0
    assert confidence_at(64, 24, 2, 0.5) == 0.0
    assert confidence_at(64, 24, 2, 1e12) > 1.0 - 1e-12
    with pytest.raises(DomainError):
        confidence_at(64, 2, 2, 2.0)
    with pytest.raises(DomainError):
        confidence_at(64, 63, 2, 2.0)
    with pytest.raises(DomainError):
        confidence_at(64, 24, 2, -1.0)


def test_confidence_monotone_in_m():
    values = [confidence_at(40, m, 2, 2.0) for m in range(3, 39)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] < 0.5 < values[-1]


def test_min_measurements_reference_case():
    query = PlanQuery(n=128, p=2, kappa=2.0, confidence=0.90)
    m_star = min_measurements(query)
    assert m_star == 72
    assert confidence_at(128, 72, 2, 2.0) >= 0.90
    assert confidence_at(128, 71, 2, 2.0) < 0.90


def test_min_measurements_boundary_property():
    for n, p, kappa, confidence in [(48, 2, 2.5, 0.95), (64, 3, 1.5, 0.8), (200, 4, 3.0, 0.99)]:
        m_star = min_measurements(PlanQuery(n=n, p=p, kappa=kappa, confidence=confidence))
        assert p + 2 <= m_star <= n - p
        assert confidence_at(n, m_star, p, kappa) >= confidence
        if m_star > p + 2:
            assert confidence_at(n, m_star - 1, p, kappa) < confidence


def _scan(n, p, kappa, confidence):
    """Linear-scan answer: the smallest admissible m, or the best confidence."""
    values = {m: confidence_at(n, m, p, kappa) for m in range(p + 2, n - p + 1)}
    for m, value in values.items():
        if value >= confidence:
            return m, None
    return None, values.get(n - p, 0.0)


def test_min_measurements_matches_a_linear_scan():
    kinds = set()
    for p in (1, 2, 4):
        for n in sorted({p + 2, p + 3, 2 * p + 2, 9, 16, 41, 97, 200}):
            for kappa in (1.1, 1.5, 2.0, 3.0):
                for confidence in (0.5, 0.9, 0.99):
                    m_scan, best = _scan(n, p, kappa, confidence)
                    query = PlanQuery(n=n, p=p, kappa=kappa, confidence=confidence)
                    if m_scan is None:
                        kinds.add("infeasible")
                        with pytest.raises(Infeasible) as exc_info:
                            min_measurements(query)
                        assert exc_info.value.max_confidence == best
                    else:
                        kinds.add("floor" if m_scan == p + 2 else "interior")
                        assert min_measurements(query) == m_scan, (n, p, kappa, confidence)
    assert kinds == {"infeasible", "floor", "interior"}


@pytest.mark.parametrize("p", [1, 2, 4])
def test_min_measurements_at_a_million_matches_the_binomial_oracle(p):
    n = 10**6
    for kappa, confidence in [(1.5, 0.9), (2.0, 0.99), (1.1, 0.9), (1.02, 0.999)]:
        law = scipy.stats.binom(n - p, 1.0 / kappa)
        k = int(law.ppf(confidence))
        while law.cdf(k) < confidence:
            k += 1
        while law.cdf(k - 1) >= confidence:
            k -= 1
        query = PlanQuery(n=n, p=p, kappa=kappa, confidence=confidence)
        assert min_measurements(query) == max(k + p, p + 2)


def test_min_measurements_raises_when_the_walk_cannot_be_confirmed(monkeypatch):
    # exact values that contradict the binomial walk at every anchor
    monkeypatch.setattr(planner, "confidence_at", lambda n, m, p, kappa: 1.0)
    with pytest.raises(NoConvergence):
        min_measurements(PlanQuery(n=10_000, p=2, kappa=2.0, confidence=0.9))


def test_min_measurements_generous_kappa_hits_the_floor():
    assert min_measurements(PlanQuery(n=64, p=2, kappa=1e6, confidence=0.9)) == 4


def test_min_measurements_infeasible_carries_the_best_confidence():
    query = PlanQuery(n=16, p=2, kappa=1.0001, confidence=0.999)
    with pytest.raises(Infeasible) as exc_info:
        min_measurements(query)
    best = exc_info.value.max_confidence
    np.testing.assert_allclose(best, confidence_at(16, 14, 2, 1.0001), rtol=1e-14)
    assert 0.0 <= best < 0.999


def test_min_measurements_agrees_with_monte_carlo():
    n, p, kappa = 48, 2, 2.5
    query = PlanQuery(n=n, p=p, kappa=kappa, confidence=0.9)
    m_star = min_measurements(query)
    model = UlaModel(two_source_half_rayleigh(n))
    g = model.jacobian(model.reference_theta)
    before = crb(fim(g), 0)
    trials = 4000
    hits = 0
    spec = CompressorSpec(m=m_star, n=n, family="gaussian", seed=17)
    for t in range(trials):
        after = compressed_crb(g, sample(spec, derive_stream(17, t)), 1.0, 0)
        hits += after <= kappa * before
    predicted = confidence_at(n, m_star, p, kappa)
    sigma = np.sqrt(predicted * (1.0 - predicted) / trials)
    assert abs(hits / trials - predicted) < 4.0 * sigma


def test_curve_rows_and_monotonicity():
    kappas = [1.5, 2.0, 3.0]
    rows = curve(64, 2, kappas, confidences=(0.9, 0.99))
    assert len(rows) == 6
    by_conf = {c: [r for r in rows if r.confidence == c] for c in (0.9, 0.99)}
    for conf, sub in by_conf.items():
        assert [r.kappa for r in sub] == kappas
        ms = [r.m for r in sub]
        assert all(r.feasible for r in sub)
        assert all(b <= a for a, b in zip(ms, ms[1:]))  # looser kappa, fewer rows needed
        for r in sub:
            np.testing.assert_allclose(r.ratio, r.m / 64.0, rtol=1e-15)
    # tighter confidence needs at least as many measurements
    for r9, r99 in zip(by_conf[0.9], by_conf[0.99]):
        assert r99.m >= r9.m


def test_curve_marks_infeasible_points():
    rows = curve(16, 2, [1.0001, 4.0], confidences=(0.9999,))
    assert rows[0].feasible is False and rows[0].m is None and rows[0].ratio is None
    assert rows[1].feasible is True
    with pytest.raises(DomainError):
        curve(16, 2, [], confidences=(0.9,))
    with pytest.raises(DomainError):
        curve(16, 2, [2.0], confidences=())


def test_plan_query_validation():
    with pytest.raises(DomainError):
        PlanQuery(n=16, p=2, kappa=1.0, confidence=0.9)
    with pytest.raises(DomainError):
        PlanQuery(n=16, p=2, kappa=2.0, confidence=1.0)
    with pytest.raises(DomainError):
        PlanQuery(n=16, p=2, kappa=2.0, confidence=0.0)
    with pytest.raises(DomainError):
        PlanQuery(n=3, p=2, kappa=2.0, confidence=0.9)
    with pytest.raises(DomainError):
        PlanQuery(n=16, p=0, kappa=2.0, confidence=0.9)


def test_ellipse_circle_case():
    locus = ellipse_locus(np.eye(2), 4.0, points=8)
    assert locus.shape == (8, 2)
    np.testing.assert_allclose(np.linalg.norm(locus, axis=1), 2.0, rtol=1e-12)
    np.testing.assert_allclose(locus[0], [2.0, 0.0], atol=1e-12)


def test_ellipse_diagonal_case():
    # information 4 along x shrinks the x semi-axis to 1/2
    locus = ellipse_locus(np.diag([4.0, 1.0]), 1.0, points=360)
    np.testing.assert_allclose(np.max(np.abs(locus[:, 0])), 0.5, rtol=1e-6)
    np.testing.assert_allclose(np.max(np.abs(locus[:, 1])), 1.0, rtol=1e-6)


def test_ellipse_points_satisfy_the_level_equation():
    rng = np.random.default_rng(71)
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    j = b.conj().T @ b + np.eye(2)
    r2 = 5.99
    locus = ellipse_locus(j, r2, points=64)
    a = np.real(j)
    quad = np.einsum("ki,ij,kj->k", locus, a, locus)
    np.testing.assert_allclose(quad, r2, rtol=1e-12)


def test_ellipse_validation():
    with pytest.raises(BadShape):
        ellipse_locus(np.eye(3), 1.0)
    with pytest.raises(NotPositiveDefinite):
        ellipse_locus(np.diag([1.0, -1.0]), 1.0)
    with pytest.raises(DomainError):
        ellipse_locus(np.eye(2), 0.0)
    with pytest.raises(DomainError):
        ellipse_locus(np.eye(2), 1.0, points=2)


def test_compressed_ellipse_always_encloses_the_uncompressed_one():
    # enclosure in the whitened metric: every eigenvalue of
    # L^{-1} Re(J_after) L^{-T} stays at or below 1
    n, m = 32, 12
    model = UlaModel(two_source_half_rayleigh(n))
    g = model.jacobian(model.reference_theta)
    before = fim(g)
    L = np.linalg.cholesky(np.real(before.J))
    spec = CompressorSpec(m=m, n=n, family="spherical_rows", seed=23)
    from crbcompress.fisher import compressed_fim

    for t in range(50):
        after = compressed_fim(g, sample(spec, derive_stream(23, t)))
        inner = np.linalg.solve(L, np.real(after.J))
        inner = np.linalg.solve(L, inner.T).T
        lam_max = np.linalg.eigvalsh(0.5 * (inner + inner.T))[-1]
        assert lam_max <= 1.0 + 1e-9
