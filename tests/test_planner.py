"""Measurement planning and concentration ellipse loci."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from crbcompress.betalaw import beta_cdf, beta_pdf, beta_sf, beta_tails_pdf, crb_ratio_law
from crbcompress import betalaw, planner
from crbcompress.errors import BadShape, DomainError, Infeasible, NoConvergence, NotPositiveDefinite
from crbcompress.fisher import compressed_fim, crb, fim
from crbcompress.planner import (
    PlanQuery,
    confidence_at,
    curve,
    ellipse_locus,
    min_measurements,
)
from crbcompress.randcomp import CompressorSpec, derive_stream, sample
from crbcompress.sigmodel import UlaModel, two_source_half_rayleigh


def test_confidence_is_the_upper_tail():
    law = crb_ratio_law(64, 24, 2)
    expected = beta_sf(law, 1.0 / 1.7)
    np.testing.assert_allclose(confidence_at(64, 24, 2, 1.7), expected, rtol=1e-14)
    # one minus the cdf agrees only to the ulp of 1 it is formed at
    one_minus_cdf = 1.0 - beta_cdf(law, 1.0 / 1.7)
    np.testing.assert_allclose(one_minus_cdf, expected, rtol=0.0, atol=np.finfo(float).eps)


def test_confidence_matches_the_binomial_cdf():
    # confidence_at(n, m, p, kappa) = P[Binomial(n - p, 1/kappa) <= m - p],
    # relatively, deep into the tail
    for n in (8, 13, 40, 97, 200):
        for p in (1, 2, 4):
            for kappa in (1.1, 1.5, 2.0, 3.0):
                ms = range(p + 1, n)
                values = [confidence_at(n, m, p, kappa) for m in ms]
                ref = scipy.stats.binom.cdf([m - p for m in ms], n - p, 1.0 / kappa)
                np.testing.assert_allclose(values, ref, rtol=1e-12)
    # one minus the cdf read 0.0 here
    tail = confidence_at(200, 45, 4, 2.0)
    np.testing.assert_allclose(tail, scipy.stats.binom.cdf(41, 196, 0.5), rtol=1e-12)
    assert 4e-17 < tail < 5e-17


def test_confidence_edge_cases():
    assert confidence_at(64, 24, 2, 1.0) == 0.0
    assert confidence_at(64, 24, 2, 0.5) == 0.0
    assert confidence_at(64, 24, 2, 1e12) > 1.0 - 1e-12
    # the law's domain p < m < n, up to m = n - 1
    assert confidence_at(64, 63, 2, 2.0) == beta_sf(crb_ratio_law(64, 63, 2), 0.5)
    with pytest.raises(DomainError):
        confidence_at(64, 2, 2, 2.0)
    with pytest.raises(DomainError):
        confidence_at(64, 64, 2, 2.0)
    with pytest.raises(DomainError):
        confidence_at(64, 24, 2, -1.0)
    # a bad shape raises even where kappa <= 1 needs no law value
    with pytest.raises(DomainError):
        confidence_at(64, 64, 2, 1.0)


def test_min_measurements_reaches_past_n_minus_p():
    # m = 7 > n - p is the first m to reach the target: P[Binomial(6, 2/3) <= m - 2]
    np.testing.assert_allclose(confidence_at(8, 6, 2, 1.5), 473 / 729, rtol=1e-14)  # 0.649
    np.testing.assert_allclose(confidence_at(8, 7, 2, 1.5), 665 / 729, rtol=1e-14)  # 0.912
    assert min_measurements(PlanQuery(n=8, p=2, kappa=1.5, confidence=0.9)) == 7


def test_confidence_monotone_in_m():
    values = [confidence_at(40, m, 2, 2.0) for m in range(3, 39)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] < 0.5 < values[-1]


def _bulk_ms(n, p, kappa, offsets):
    """Admissible m at the given sd offsets from the binomial's mean."""
    trials, x = n - p, 1.0 / kappa
    mean, sd = trials * x, math.sqrt(trials * x * (1.0 - x))
    return sorted({min(max(p + round(mean + j * sd), p + 2), n - 1) for j in offsets})


@pytest.mark.parametrize("n", [128, 10**4, 10**6])
def test_pmf_term_is_the_density_of_the_law(n):
    # P[Binomial(n - p, x) = m - p] = pdf of Beta(m - p + 1, n - m) at x times (1 - x) / (n - m)
    for p in (1, 2, 4):
        for kappa in (1.1, 2.0, 3.0):
            x = 1.0 / kappa
            for m in _bulk_ms(n, p, kappa, (-8, -3, -1, 0, 1, 3, 8)):
                law = crb_ratio_law(n, m, p)
                pmf = beta_pdf(law, x) * (1.0 - x) / (n - m)
                ref = scipy.stats.binom.pmf(m - p, n - p, x)
                np.testing.assert_allclose(pmf, ref, rtol=1e-12, err_msg=str((n, p, kappa, m)))
                c = confidence_at(n, m, p, kappa)
                # the planner's one kernel evaluation gives both, bit for bit
                _, upper, pdf = beta_tails_pdf(law, x)
                assert (upper, pdf) == (c, beta_pdf(law, x)), (n, p, kappa, m)
                # the difference keeps its precision where it loses at most a bit
                if pmf <= 0.5 * c:
                    np.testing.assert_allclose(
                        c - pmf, confidence_at(n, m - 1, p, kappa), rtol=1e-12, err_msg=str((n, p, kappa, m))
                    )


@pytest.mark.parametrize("n", [1024, 10**5, 10**6])
def test_min_measurements_at_an_exact_boundary(n):
    # the target is confidence_at(m) itself, so confidence_at(m + 1) minus
    # its pmf term lands within rounding of it and must not decide alone
    for p in (1, 2):
        for kappa in (1.5, 2.0, 4.0):
            for m in _bulk_ms(n, p, kappa, (-3, -1, 0, 1, 3)):
                confidence = confidence_at(n, m, p, kappa)
                query = PlanQuery(n=n, p=p, kappa=kappa, confidence=confidence)
                assert min_measurements(query) == m, (n, p, kappa, m)


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
    values = {m: confidence_at(n, m, p, kappa) for m in range(p + 1, n)}
    for m, value in values.items():
        if value >= confidence:
            return m, None
    return None, values.get(n - 1, 0.0)


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
                        kinds.add("floor" if m_scan == p + 1 else "interior")
                        assert min_measurements(query) == m_scan, (n, p, kappa, confidence)
    assert kinds == {"infeasible", "floor", "interior"}


PLAN_TARGETS = [(1.5, 0.9), (2.0, 0.99), (1.1, 0.9), (1.02, 0.999)]


def _binomial_plan(n, p, kappa, confidence):
    """(m, None) from the binomial cdf, or (None, best confidence) when no admissible m reaches it."""
    law = scipy.stats.binom(n - p, 1.0 / kappa)
    k = int(law.ppf(confidence))
    while law.cdf(k) < confidence:
        k += 1
    while law.cdf(k - 1) >= confidence:
        k -= 1
    if k + p > n - 1:
        return None, law.cdf(n - 1 - p)
    return max(k + p, p + 1), None


@pytest.mark.parametrize("p", [1, 2, 4])
def test_min_measurements_at_a_million_matches_the_binomial_oracle(p):
    n = 10**6
    for kappa, confidence in PLAN_TARGETS:
        query = PlanQuery(n=n, p=p, kappa=kappa, confidence=confidence)
        assert min_measurements(query) == _binomial_plan(n, p, kappa, confidence)[0]


def test_plan_queries_evaluate_no_second_density(monkeypatch):
    # the pmf term reads the density stored with the exact value, so no
    # query calls beta_pdf for it; every answer still matches the oracle
    def no_density(law, x):
        raise AssertionError(f"beta_pdf called for {law} at {x}")

    monkeypatch.setattr(betalaw, "beta_pdf", no_density)
    kinds = set()
    for n in (128, 1024, 10**4, 10**5, 10**6):
        for p in (1, 2, 4):
            for kappa, confidence in PLAN_TARGETS:
                m, best = _binomial_plan(n, p, kappa, confidence)
                query = PlanQuery(n=n, p=p, kappa=kappa, confidence=confidence)
                if m is None:
                    kinds.add("infeasible")
                    with pytest.raises(Infeasible) as exc_info:
                        min_measurements(query)
                    np.testing.assert_allclose(exc_info.value.max_confidence, best, rtol=1e-12)
                else:
                    kinds.add("feasible")
                    assert min_measurements(query) == m, (n, p, kappa, confidence)
    assert kinds == {"infeasible", "feasible"}


def test_plan_answers_match_the_benchmark_oracle():
    # every laws-plan reference answer: its m, or Infeasible where it has none
    table = json.loads((Path(__file__).parents[1] / "perfbench" / "oracle_table.json").read_text())
    assert len(table["plan"]) == 60
    for e in table["plan"]:
        query = PlanQuery(n=e["n"], p=e["p"], kappa=e["kappa"], confidence=e["confidence"])
        if e["infeasible"]:
            with pytest.raises(Infeasible):
                min_measurements(query)
        else:
            assert min_measurements(query) == e["m"], e


def test_min_measurements_raises_when_the_walk_cannot_be_confirmed(monkeypatch):
    # exact values that contradict the binomial walk at every anchor
    monkeypatch.setattr(planner, "_exact", lambda n, m, p, x: (1.0, 0.0))
    with pytest.raises(NoConvergence):
        min_measurements(PlanQuery(n=10_000, p=2, kappa=2.0, confidence=0.9))


def test_min_measurements_generous_kappa_hits_the_floor():
    # m = p + 1 is the law's smallest m, and already confident here
    assert confidence_at(64, 3, 2, 1e6) >= 0.9
    assert min_measurements(PlanQuery(n=64, p=2, kappa=1e6, confidence=0.9)) == 3


def test_min_measurements_infeasible_carries_the_best_confidence():
    query = PlanQuery(n=16, p=2, kappa=1.0001, confidence=0.999)
    with pytest.raises(Infeasible) as exc_info:
        min_measurements(query)
    best = exc_info.value.max_confidence
    np.testing.assert_allclose(best, confidence_at(16, 15, 2, 1.0001), rtol=1e-14)
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
        after = crb(compressed_fim(g, sample(spec, derive_stream(17, t)), 1.0), 0)
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
    # positive but below the PD_TOL floor: the locus would reach 3.16e7
    with pytest.raises(NotPositiveDefinite):
        ellipse_locus(np.diag([1.0, 1e-15]), 1.0)
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
    spec = CompressorSpec(m=m, n=n, family="gaussian", seed=23)
    from crbcompress.fisher import compressed_fim

    for t in range(50):
        after = compressed_fim(g, sample(spec, derive_stream(23, t)))
        inner = np.linalg.solve(L, np.real(after.J))
        inner = np.linalg.solve(L, inner.T).T
        lam_max = np.linalg.eigvalsh(0.5 * (inner + inner.T))[-1]
        assert lam_max <= 1.0 + 1e-9
