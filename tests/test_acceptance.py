"""End-to-end checks of the library against its published tolerances.

Every test carries an ``acceptance`` marker; the conftest hook prints a
PASS or FAIL line per criterion after the run. Seeds are fixed so each
Monte Carlo verdict is reproducible. The distributional hypotheses under
test are exactly true, so a fixed seed is a fair draw, not a tuned one.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from oracles import finite_diff_jacobian, ks_two_sample

from crbcompress import cli
from crbcompress.betalaw import (
    BetaLaw,
    MatrixBetaLaw,
    beta_cdf,
    beta_pdf,
    beta_quantile,
    crb_ratio_law,
    kl_ratio_law,
    ln_cmv_gamma,
    matrix_beta_logpdf,
    moments,
)
from crbcompress.fisher import compressed_fim, crb, fim, normalized_fim
from crbcompress.mcharness import ExperimentConfig, run
from crbcompress.planner import PlanQuery, confidence_at, min_measurements
from crbcompress.randcomp import FAMILIES, CompressorSpec, derive_stream, sample
from crbcompress.sigmodel import Source, UlaModel, UlaScenario, two_source_half_rayleigh


@pytest.fixture(scope="module")
def big_doa_campaign():
    """10^4 gaussian draws at (n, m, p) = (128, 64, 2), shared by 1 and 2."""
    config = ExperimentConfig(
        compressor=CompressorSpec(m=64, n=128, family="gaussian", seed=101),
        trials=10_000,
        model=UlaModel(two_source_half_rayleigh(128)),
        statistics=("crb_ratio",),
        seed=101,
    )
    return run(config)


@pytest.mark.acceptance(
    1, "crb ratio over 1e4 gaussian draws at (128, 64, 2) passes KS vs Beta(63, 64) at alpha 0.01"
)
def test_criterion_1_crb_ratio_matches_its_beta_law(big_doa_campaign):
    law = crb_ratio_law(128, 64, 2)
    assert (law.a, law.b) == (63.0, 64.0)
    ks = big_doa_campaign.stats["crb_ratio"].ks
    assert ks is not None
    np.testing.assert_allclose(ks.critical, 1.628 / 100.0, rtol=1e-12)
    assert ks.statistic < 1.628 / 100.0
    assert ks.passed


@pytest.mark.acceptance(
    2, "compressed bound mean within 2% of (126/62)x before and variance within 10% of closed form"
)
def test_criterion_2_compressed_crb_moments(big_doa_campaign):
    model = UlaModel(two_source_half_rayleigh(128))
    info = fim(model.jacobian(model.reference_theta), 1.0)
    before = crb(info, 0)
    mom = moments(128, 64, 2, info.J, 0)
    np.testing.assert_allclose(mom.mean_crb, (126.0 / 62.0) * before, rtol=1e-13)
    after = before / big_doa_campaign.samples["crb_ratio"]
    assert abs(after.mean() - mom.mean_crb) < 0.02 * mom.mean_crb
    assert abs(after.var(ddof=1) - mom.var_crb) < 0.10 * mom.var_crb


@pytest.mark.acceptance(
    3, "mean normalized information over 1e5 draws at (32, 16, 2) is within 0.01 of I/2"
)
def test_criterion_3_normalized_fim_mean():
    config = ExperimentConfig(
        compressor=CompressorSpec(m=16, n=32, family="gaussian", seed=103),
        trials=100_000,
        model=UlaModel(two_source_half_rayleigh(32)),
        statistics=("w_mean",),
        seed=103,
    )
    summary = run(config)
    assert summary.excluded_trials == 0
    deviation = float(np.linalg.norm(summary.stats["w_mean"].mean - 0.5 * np.eye(2)))
    assert deviation < 0.01


@pytest.mark.acceptance(
    4, "kl ratio at (32, 8) passes KS vs Beta(8, 24) at alpha 0.01 with mean within 2% of 0.25"
)
def test_criterion_4_kl_ratio_law():
    law = kl_ratio_law(32, 8)
    assert (law.a, law.b) == (8.0, 24.0)
    model = UlaModel(two_source_half_rayleigh(32))
    config = ExperimentConfig(
        compressor=CompressorSpec(m=8, n=32, family="gaussian", seed=104),
        trials=10_000,
        model=model,
        statistics=("kl_ratio",),
        theta_alt=model.reference_theta + np.array([0.011, -0.017]),
        seed=104,
    )
    summary = run(config)
    s = summary.stats["kl_ratio"]
    assert s.ks is not None and s.ks.passed
    assert abs(s.mean - 0.25) < 0.02 * 0.25


@pytest.mark.acceptance(
    5, "crb ratio law is the same for the array model and a random Jacobian across all families"
)
def test_criterion_5_universality_across_models_and_families():
    n, m, trials = 64, 24, 10_000
    model = UlaModel(two_source_half_rayleigh(n))
    rng = np.random.default_rng(55)
    G_fixed = (rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))) / np.sqrt(2.0)
    before_fixed = crb(fim(G_fixed), 0)
    batches = {}
    seed = 105
    for family in FAMILIES:
        spec = CompressorSpec(m=m, n=n, family=family, seed=seed)
        config = ExperimentConfig(
            compressor=spec, trials=trials, model=model, statistics=("crb_ratio",), seed=seed
        )
        batches[(family, "doa")] = run(config).samples["crb_ratio"]
        # the random Jacobian goes through fisher directly, with the
        # streams a campaign of the next seed would draw
        spec = CompressorSpec(m=m, n=n, family=family, seed=seed + 1)
        batches[(family, "raw")] = np.array([
            before_fixed / crb(compressed_fim(G_fixed, sample(spec, derive_stream(seed + 1, t))), 0)
            for t in range(trials)
        ])
        seed += 2
    keys = sorted(batches)
    for i, key_a in enumerate(keys):
        for key_b in keys[i + 1:]:
            ks = ks_two_sample(batches[key_a], batches[key_b], alpha=0.01)
            assert ks.passed, (key_a, key_b, ks.statistic, ks.critical)


@pytest.mark.acceptance(
    6, "stiefel compression with m = n reproduces the information matrix to 1e-10 in every trial"
)
def test_criterion_6_identity_at_full_measurement():
    model = UlaModel(two_source_half_rayleigh(32))
    G = model.jacobian(model.reference_theta)
    info = fim(G, 1.0)
    spec = CompressorSpec(m=32, n=32, family="stiefel", seed=106)
    eye = np.eye(2)
    worst = 0.0
    for trial in range(100):
        after = compressed_fim(G, sample(spec, derive_stream(106, trial)), 1.0)
        W = normalized_fim(info, after)
        worst = max(worst, float(np.linalg.norm(W - eye)))
    assert worst < 1e-10


@pytest.mark.acceptance(
    7, "normalized spectra stay in [0, 1] and the bound never improves over 1e5 mixed-family draws"
)
def test_criterion_7_spectrum_and_ordering_invariants():
    scenario = UlaScenario(
        n=32,
        sources=(
            Source(theta=0.0),
            Source(theta=math.pi / 32),
            Source(theta=-0.9, amplitude=1.2, phase=0.4),
        ),
    )
    model = UlaModel(scenario)
    G = model.jacobian(model.reference_theta)
    info = fim(G, 1.0)
    before = np.array([crb(info, i) for i in range(3)])
    specs = [CompressorSpec(m=12, n=32, family=f, seed=107) for f in FAMILIES]
    lo = math.inf
    hi = -math.inf
    margin = math.inf
    for trial in range(100_000):
        phi = sample(specs[trial % len(specs)], derive_stream(107, trial))
        after = compressed_fim(G, phi, 1.0)
        eigs = np.linalg.eigvalsh(normalized_fim(info, after))
        lo = min(lo, float(eigs[0]))
        hi = max(hi, float(eigs[-1]))
        after_bounds = np.real(np.diag(np.linalg.inv(after.J)))
        margin = min(margin, float(np.min(after_bounds - before)))
    assert lo >= -1e-10
    assert hi <= 1.0 + 1e-10
    assert margin >= -1e-10


@pytest.mark.acceptance(
    8, "planner boundary holds at (128, 2, kappa 2, confidence 0.9) and 1e4 draws meet the fraction"
)
def test_criterion_8_planner_consistency():
    query = PlanQuery(n=128, p=2, kappa=2.0, confidence=0.9)
    m_star = min_measurements(query)
    assert m_star == 72
    assert confidence_at(128, m_star, 2, 2.0) >= 0.9
    assert confidence_at(128, m_star - 1, 2, 2.0) < 0.9
    config = ExperimentConfig(
        compressor=CompressorSpec(m=m_star, n=128, family="gaussian", seed=108),
        trials=10_000,
        model=UlaModel(two_source_half_rayleigh(128)),
        statistics=("crb_ratio",),
        seed=108,
    )
    summary = run(config)
    # inflation <= kappa exactly when the before/after ratio is >= 1/kappa
    fraction = float(np.mean(summary.samples["crb_ratio"] >= 0.5))
    assert fraction >= 0.9 - 3.0 * math.sqrt(0.9 * 0.1 / 10_000)


@pytest.mark.acceptance(
    9, "quantile round-trip, p=1 matrix reduction, log-gamma oracle, and analytic Jacobian agree"
)
def test_criterion_9_numerical_kernels():
    qs = np.array([1e-6, 1e-3, 0.02, 0.25, 0.5, 0.75, 0.98, 0.999, 0.999999])
    for a, b in [(0.5, 0.5), (1.0, 1.0), (2.0, 5.0), (63.0, 64.0), (120.0, 7.0), (200.0, 200.0)]:
        law = BetaLaw(a, b)
        x = beta_quantile(law, qs)
        assert np.max(np.abs(beta_cdf(law, x) - qs)) < 1e-9, (a, b)

    for n, m in [(12, 5), (64, 24)]:
        matrix_law = MatrixBetaLaw(p=1, m=m, n=n)
        scalar_law = BetaLaw(float(m), float(n - m))
        for x in (0.05, 0.3, 0.62, 0.97):
            got = matrix_beta_logpdf(np.array([[x]], dtype=np.complex128), matrix_law)
            want = math.log(beta_pdf(scalar_law, x))
            assert abs(got - want) < 1e-12

    mpmath.mp.dps = 50
    for p, a in [(1, 3.0), (2, 7.5), (3, 12.0), (5, 40.25), (8, 200.0)]:
        oracle = p * (p - 1) / 2 * mpmath.log(mpmath.pi)
        for i in range(1, p + 1):
            oracle += mpmath.loggamma(a - i + 1)
        assert abs(ln_cmv_gamma(p, a) - float(oracle)) < 1e-12 * max(1.0, abs(float(oracle)))

    model = UlaModel(two_source_half_rayleigh(128))
    theta = model.reference_theta
    analytic = model.jacobian(theta)
    numeric = finite_diff_jacobian(model, theta)
    rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
    assert rel < 1e-5


@pytest.mark.acceptance(
    10, "figures subcommand emits 100 ellipse loci (CSV + SVG) that all enclose the reference"
)
def test_criterion_10_ellipse_figure(tmp_path, capsys):
    out = tmp_path / "figs"
    code = cli.main([
        "figures", "--which", "fig2", "--n", "128", "--m", "64",
        "--draws", "100", "--points", "128", "--seed", "110", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert (out / "fig2.csv").exists()
    svg = (out / "fig2.svg").read_text()
    assert svg.startswith("<svg")
    metrics = json.loads((out / "fig2_metrics.json").read_text())
    lam = np.asarray(metrics["lambda_max"], dtype=np.float64)
    assert lam.shape == (100,)
    assert float(lam.max()) <= 1.0 + 1e-9
    # recompute the first draw's inflation factor straight from the API
    model = UlaModel(two_source_half_rayleigh(128))
    G = model.jacobian(model.reference_theta)
    info = fim(G, 1.0)
    spec = CompressorSpec(m=64, n=128, family="gaussian", seed=110)
    after = compressed_fim(G, sample(spec, derive_stream(110, 0)), 1.0)
    a_before = 0.5 * (np.real(info.J) + np.real(info.J).T)
    a_after = 0.5 * (np.real(after.J) + np.real(after.J).T)
    L = np.linalg.cholesky(a_before)
    white = np.linalg.solve(L, np.linalg.solve(L, a_after.T).T)
    lam0 = float(np.linalg.eigvalsh(0.5 * (white + white.T))[-1])
    assert abs(lam0 - lam[0]) < 1e-10
