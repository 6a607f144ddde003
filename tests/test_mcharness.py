"""Campaign harness: KS machinery, histograms, and full runs."""

import numpy as np
import pytest
import scipy.stats
from oracles import ks_two_sample

from crbcompress import cxla
from crbcompress.betalaw import BetaLaw, beta_cdf, beta_pdf, beta_quantile, crb_ratio_law
from crbcompress.errors import BadShape, BadSpec, DomainError, RankDeficient, SingularFim, TooFewSamples
from crbcompress.fisher import compressed_fim, fim, normalized_fim
from crbcompress.mcharness import (
    STATISTICS,
    _Campaign,
    ExperimentConfig,
    histogram,
    ks_one_sample,
    run,
)
from crbcompress.randcomp import FAMILIES, CompressorSpec, derive_stream, sample
from crbcompress.sigmodel import UlaModel, two_source_half_rayleigh


def _doa_config(n, m, trials, family="gaussian", seed=0, **kwargs):
    model = UlaModel(two_source_half_rayleigh(n))
    spec = CompressorSpec(m=m, n=n, family=family, seed=seed)
    return ExperimentConfig(compressor=spec, trials=trials, model=model, **kwargs)


def test_ks_one_sample_on_quantile_grid():
    # plugging the law's own quantiles back in leaves only grid error
    law = BetaLaw(3.0, 5.0)
    n = 500
    grid = beta_quantile(law, (np.arange(n) + 0.5) / n)
    result = ks_one_sample(grid, lambda x: beta_cdf(law, x), alpha=0.01)
    assert result.statistic <= 1.0 / n + 1e-12
    assert result.passed
    np.testing.assert_allclose(result.critical, 1.628 / np.sqrt(n), rtol=1e-12)


def test_ks_one_sample_rejects_wrong_law():
    n = 400
    uniform_grid = (np.arange(n) + 0.5) / n
    law = BetaLaw(3.0, 3.0)
    result = ks_one_sample(uniform_grid, lambda x: beta_cdf(law, x), alpha=0.01)
    assert not result.passed
    assert result.statistic > 0.1


def test_ks_one_sample_matches_scipy():
    rng = np.random.default_rng(91)
    x = rng.beta(2.5, 4.0, size=737)
    ours = ks_one_sample(x, lambda v: scipy.stats.beta.cdf(v, 2.5, 4.0), alpha=0.05)
    ref = scipy.stats.kstest(x, lambda v: scipy.stats.beta.cdf(v, 2.5, 4.0))
    np.testing.assert_allclose(ours.statistic, ref.statistic, rtol=1e-12)
    np.testing.assert_allclose(ours.critical, 1.358 / np.sqrt(737), rtol=1e-12)


def test_ks_one_sample_validation():
    with pytest.raises(TooFewSamples):
        ks_one_sample(np.linspace(0.1, 0.9, 99), lambda x: x)
    with pytest.raises(DomainError):
        ks_one_sample(np.linspace(0.01, 0.99, 200), lambda x: x, alpha=0.1)
    # a non-finite sample is refused before the cdf sees it, as histogram
    # refuses it, and a non-finite cdf value does not become statistic=nan
    law = BetaLaw(3.0, 5.0)
    for bad in (np.nan, np.inf, -np.inf):
        x = np.linspace(0.01, 0.99, 200)
        x[17] = bad
        with pytest.raises(BadShape, match="KS samples contain non-finite"):
            ks_one_sample(x, lambda v: beta_cdf(law, v))
    with pytest.raises(BadShape, match="cdf returned non-finite"):
        ks_one_sample(np.linspace(0.01, 0.99, 200), lambda v: np.where(v > 0.5, np.nan, v))


def test_ks_one_sample_needs_one_cdf_value_per_sample():
    with pytest.raises(BadShape):
        ks_one_sample(np.linspace(0.01, 0.99, 200), lambda x: 0.5)


def test_ks_two_sample_matches_scipy():
    rng = np.random.default_rng(92)
    a = rng.beta(2.0, 3.0, size=450)
    b = rng.beta(2.0, 3.0, size=613)
    ours = ks_two_sample(a, b, alpha=0.05)
    ref = scipy.stats.ks_2samp(a, b)
    np.testing.assert_allclose(ours.statistic, ref.statistic, rtol=1e-12)
    assert ours.passed


def test_ks_two_sample_detects_shift():
    rng = np.random.default_rng(93)
    a = rng.beta(2.0, 3.0, size=800)
    b = rng.beta(3.0, 2.0, size=800)
    assert not ks_two_sample(a, b, alpha=0.01).passed
    with pytest.raises(TooFewSamples):
        ks_two_sample(a[:50], b)


def test_histogram_basics():
    h = histogram([0.5], bins=1)
    assert h.total == 1 and h.counts[0] == 1
    same = histogram(np.full(10, 0.7), bins=3)
    assert same.total == 10
    rng = np.random.default_rng(94)
    x = rng.uniform(size=1000)
    h = histogram(x, bins=20)
    assert h.total == 1000
    np.testing.assert_allclose(np.sum(h.density * np.diff(h.edges)), 1.0, rtol=1e-12)
    assert h.centers.shape == (20,)
    with pytest.raises(TooFewSamples):
        histogram([])
    with pytest.raises(BadShape):
        histogram([np.nan])
    with pytest.raises(BadSpec):
        histogram([0.5], bins=0)


def test_histogram_collapses_near_constant_data():
    # a span of a few ulps cannot be split into 50 distinct bins
    x = 1.0 + np.array([0.0, 1e-16, 2e-16, -1e-16] * 30)
    h = histogram(x, bins=50)
    assert h.counts.shape == (1,)
    assert h.total == 120


def test_histogram_span_past_the_largest_double_is_a_bad_shape():
    # max - min overflows to inf, where numpy raises an untyped ValueError
    with pytest.raises(BadShape, match="overflows"):
        histogram([-1e308, 1e308])
    assert histogram([0.0, 1e308], bins=4).total == 2


def test_histogram_density_tracks_the_law():
    # deterministic quantile grid: bin density equals the bin-averaged pdf
    # up to 1/(N * width) rounding
    law = BetaLaw(63.0, 64.0)
    n = 20_000
    grid = beta_quantile(law, (np.arange(n) + 0.5) / n)
    h = histogram(grid, bins=40)
    pdf = beta_pdf(law, h.centers)
    assert np.max(np.abs(h.density - pdf)) < 0.02 * pdf.max()


def test_run_identity_compression_keeps_the_bound():
    summary = run(_doa_config(12, 12, 40, family="stiefel", seed=2))
    assert summary.excluded_trials == 0
    np.testing.assert_allclose(summary.samples["crb_ratio"], 1.0, atol=1e-10)
    assert summary.stats["crb_ratio"].ks is None


def test_run_is_reproducible_across_reruns():
    first = run(_doa_config(16, 6, 300, seed=11))
    again = run(_doa_config(16, 6, 300, seed=11))
    np.testing.assert_array_equal(first.samples["crb_ratio"], again.samples["crb_ratio"])
    other = run(_doa_config(16, 6, 300, seed=12))
    assert not np.array_equal(first.samples["crb_ratio"], other.samples["crb_ratio"])


def test_run_seed_falls_back_to_compressor_seed():
    implicit = run(_doa_config(16, 6, 200, seed=4))  # config.seed stays None
    explicit = _doa_config(16, 6, 200, seed=4)
    explicit.seed = 4
    np.testing.assert_array_equal(
        implicit.samples["crb_ratio"], run(explicit).samples["crb_ratio"]
    )
    shifted = _doa_config(16, 6, 200, seed=4)
    shifted.seed = 21
    moved = run(shifted)
    assert not np.array_equal(implicit.samples["crb_ratio"], moved.samples["crb_ratio"])


def test_run_rejects_seeds_that_would_collide():
    # a float seed used to run as its integer part, and 2**64 as seed 0
    for seed in (1.5, True, -1, 2**64):
        config = _doa_config(16, 6, 100)
        config.seed = seed
        with pytest.raises(BadSpec):
            run(config)


@pytest.mark.parametrize("field, value, error, message", [
    ("crb_index", True, BadShape, "parameter index"),
    ("crb_index", 1.0, BadShape, "parameter index"),
    ("trials", True, BadSpec, "trials"),
    ("histogram_bins", True, BadSpec, "bins"),
])
def test_run_rejects_bool_and_float_counts_and_indices(field, value, error, message):
    # bool is an int to Python: trials=True used to raise TypeError and histogram_bins=True to run
    config = _doa_config(16, 6, 100, seed=1)
    setattr(config, field, value)
    with pytest.raises(error, match=message):
        run(config)


def test_run_validation(monkeypatch):
    import crbcompress.mcharness as mc

    with pytest.raises(BadSpec):
        run(_doa_config(16, 6, 100, statistics=("nope",)))
    with pytest.raises(BadSpec):
        run(_doa_config(16, 6, 100, statistics=()))
    with pytest.raises(BadSpec):
        run(_doa_config(16, 6, 100, statistics=("crb_ratio", "crb_ratio")))
    with pytest.raises(BadSpec):
        run(_doa_config(16, 6, 0))
    with pytest.raises(BadSpec):
        run(_doa_config(16, 6, 100, threads=0))
    with pytest.raises(BadSpec):
        run(_doa_config(16, 6, 100, threads=4))
    draws = []
    monkeypatch.setattr(mc, "sample", lambda spec, rng: draws.append(spec) or sample(spec, rng))
    for m, statistics in ((2, ("crb_ratio",)), (1, ("w_eigenvalues",)), (2, ("w_mean", "kl_ratio"))):
        with pytest.raises(BadSpec, match="information statistics need p < m <= n"):
            run(_doa_config(16, m, 100, statistics=statistics,
                            theta_alt=np.array([0.05, 0.25])))  # m <= p
    assert len(draws) == 0
    with pytest.raises(BadSpec):
        run(_doa_config(16, 6, 100, statistics=("kl_ratio",)))  # no theta_alt
    with pytest.raises(BadSpec):
        run(ExperimentConfig(compressor=CompressorSpec(m=6, n=16), trials=100))
    with pytest.raises(BadSpec):
        run(
            ExperimentConfig(
                compressor=CompressorSpec(m=6, n=16),
                trials=100,
                model=UlaModel(two_source_half_rayleigh(20)),
            )
        )
    with pytest.raises(DomainError):
        cfg = _doa_config(16, 6, 100, statistics=("kl_ratio",))
        cfg.theta_alt = cfg.model.reference_theta
        run(cfg)


def test_reduce_settings_are_checked_before_any_trial(monkeypatch):
    # a bad KS level or bin count fails before the first draw, not after the last trial
    import crbcompress.mcharness as mc

    draws = []
    monkeypatch.setattr(mc, "sample", lambda spec, rng: draws.append(spec) or sample(spec, rng))
    with pytest.raises(DomainError, match=r"unsupported alpha 0.02; choose from \[0.01, 0.05\]"):
        run(_doa_config(16, 6, 3000, ks_alpha=0.02))
    for bins in (0, 2.5):
        with pytest.raises(BadSpec, match=f"bins must be a positive int, got {bins}"):
            run(_doa_config(16, 6, 3000, histogram_bins=bins))
    assert len(draws) == 0
    run(_doa_config(16, 6, 3))
    assert len(draws) == 3  # the counter sees the harness's draws


def test_run_counts_and_excludes_degenerate_trials(monkeypatch):
    import crbcompress.mcharness as mc

    real = mc.fisher.compressed_fim
    config = _doa_config(16, 6, 2000, seed=3)
    # one trial of each cause, recognized by its compressor
    injected = {
        7: (sample(config.compressor, derive_stream(3, 7)), SingularFim),
        1234: (sample(config.compressor, derive_stream(3, 1234)), RankDeficient),
    }

    def flaky(G, phi, sigma2=1.0):
        for bad, error in injected.values():
            if np.array_equal(phi, bad):
                raise error("injected degenerate trial")
        return real(G, phi, sigma2)

    monkeypatch.setattr(mc.fisher, "compressed_fim", flaky)
    summary = run(config)
    assert summary.excluded_trials == 2
    assert summary.excluded_by_cause == {"SingularFim": 1, "RankDeficient": 1}
    assert summary.samples["crb_ratio"].shape == (1998,)
    assert not set(injected) & set(summary.trial_index.tolist())
    assert summary.stats["crb_ratio"].ks is not None


def test_run_fails_when_too_many_trials_are_degenerate(monkeypatch):
    import crbcompress.mcharness as mc

    real = mc.fisher.compressed_fim
    calls = {"t": -1}

    def flaky(G, phi, sigma2=1.0):
        calls["t"] += 1
        if calls["t"] in {3, 400}:
            raise SingularFim("injected degenerate trial")
        return real(G, phi, sigma2)

    monkeypatch.setattr(mc.fisher, "compressed_fim", flaky)
    with pytest.raises(SingularFim):
        run(_doa_config(16, 6, 1000, seed=3))


def test_run_crb_ratio_matches_the_law():
    n, m, trials = 24, 10, 2000
    summary = run(_doa_config(n, m, trials, seed=5))
    law = crb_ratio_law(n, m, 2)
    tol = 4.0 * np.sqrt(law.variance / trials)
    assert abs(summary.stats["crb_ratio"].mean - law.mean) < tol
    assert summary.stats["crb_ratio"].ks.passed
    h = summary.histograms["crb_ratio"]
    assert h.total == trials


def test_run_kl_ratio_campaign():
    model = UlaModel(two_source_half_rayleigh(32))
    config = ExperimentConfig(
        compressor=CompressorSpec(m=8, n=32, seed=6),
        trials=600,
        model=model,
        theta_alt=model.reference_theta + np.array([0.011, -0.017]),
        statistics=("kl_ratio",),
    )
    summary = run(config)
    stat = summary.stats["kl_ratio"]
    assert stat.ks.passed
    assert abs(stat.mean - 0.25) < 4.0 * np.sqrt(BetaLaw(8.0, 24.0).variance / 600)


def test_run_spectrum_statistics():
    summary = run(
        _doa_config(16, 6, 200, seed=7, statistics=("crb_ratio", "w_eigenvalues", "w_mean"))
    )
    eigs = summary.samples["w_eigenvalues"]
    assert eigs.shape == (200, 2)
    assert eigs.min() > -1e-10 and eigs.max() < 1.0 + 1e-10
    assert np.all(np.diff(eigs, axis=1) >= 0.0)
    assert summary.w_mean.shape == (2, 2)
    full = run(_doa_config(12, 12, 150, family="stiefel", seed=8, statistics=("w_eigenvalues",)))
    np.testing.assert_allclose(full.samples["w_eigenvalues"], 1.0, atol=1e-10)


def test_w_is_normalized_fim_of_each_draw_with_one_factorization(monkeypatch):
    real = cxla.hermitian_inv_sqrt
    calls = []

    def counted(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(cxla, "hermitian_inv_sqrt", counted)
    names = ("w_eigenvalues", "w_mean")
    config = _doa_config(16, 6, 40, seed=19, statistics=names)
    summary = run(config)
    assert len(calls) == 1  # J is factored once per campaign
    campaign = _Campaign(config, names)
    G = config.model.jacobian(config.model.reference_theta)
    before = fim(G, config.sigma2)
    ws = []
    for t in range(config.trials):
        w = normalized_fim(before, compressed_fim(G, sample(config.compressor, derive_stream(19, t))))
        np.testing.assert_array_equal(campaign.trial(t)[1], w)
        np.testing.assert_array_equal(summary.samples["w_eigenvalues"][t], np.linalg.eigvalsh(w))
        ws.append(w)
    np.testing.assert_array_equal(summary.w_mean, np.mean(ws, axis=0))


def test_run_matrix_means_approach_their_laws():
    n, m, trials = 32, 16, 4000
    summary = run(
        _doa_config(n, m, trials, seed=9, statistics=("w_mean", "fim_mean"))
    )
    assert np.linalg.norm(summary.w_mean - 0.5 * np.eye(2)) < 0.05
    model = UlaModel(two_source_half_rayleigh(n))
    from crbcompress.fisher import fim

    j = fim(model.jacobian(model.reference_theta)).J
    rel = np.linalg.norm(summary.fim_mean - 0.5 * j) / np.linalg.norm(j)
    assert rel < 0.05


def test_run_families_share_the_ratio_law():
    a = run(_doa_config(32, 12, 1500, family="gaussian", seed=13))
    b = run(_doa_config(32, 12, 1500, family="stiefel", seed=14))
    result = ks_two_sample(a.samples["crb_ratio"], b.samples["crb_ratio"], alpha=0.01)
    assert result.passed


@pytest.mark.parametrize("family, seed", [("gaussian", 22), ("stiefel", 23)])
def test_run_ks_verdicts_past_n_minus_p(family, seed):
    # m = 15 > n - p = 14: the scalar laws still hold where the matrix density does not
    model = UlaModel(two_source_half_rayleigh(16))
    summary = run(_doa_config(16, 15, 2000, family=family, seed=seed, statistics=("crb_ratio", "kl_ratio"),
                              theta_alt=model.reference_theta + np.array([0.011, -0.017])))
    for name in ("crb_ratio", "kl_ratio"):
        ks = summary.stats[name].ks
        assert ks is not None and ks.alpha == 0.01
        assert ks.passed, (name, ks.statistic, ks.critical)


@pytest.mark.filterwarnings("error")
def test_run_at_m_equal_n_has_no_ks_verdict():
    # every ratio is 1 at m = n, where no beta law exists; the run neither warns nor fails
    model = UlaModel(two_source_half_rayleigh(12))
    summary = run(_doa_config(12, 12, 150, seed=10, statistics=("crb_ratio", "kl_ratio", "w_eigenvalues"),
                              theta_alt=model.reference_theta + np.array([0.011, -0.017])))
    for name in ("crb_ratio", "kl_ratio", "w_eigenvalues"):
        assert summary.stats[name].ks is None
        np.testing.assert_allclose(summary.samples[name], 1.0, atol=1e-10)


def test_run_skips_ks_for_small_campaigns():
    summary = run(_doa_config(16, 6, 60, seed=15))
    assert summary.stats["crb_ratio"].ks is None
    assert summary.histograms["crb_ratio"].total == 60


@pytest.mark.parametrize("family", FAMILIES)
def test_each_statistic_is_the_same_alone_or_with_all_the_others(family):
    model = UlaModel(two_source_half_rayleigh(16))

    def campaign(statistics):
        return run(_doa_config(16, 6, 40, family=family, seed=17, statistics=statistics,
                               theta_alt=model.reference_theta + np.array([0.011, -0.017])))

    together = campaign(STATISTICS)
    for name in STATISTICS:
        alone = campaign((name,))
        np.testing.assert_array_equal(alone.trial_index, together.trial_index)
        if name in ("w_mean", "fim_mean"):
            np.testing.assert_array_equal(getattr(alone, name), getattr(together, name))
            assert alone.samples == {}
        else:
            np.testing.assert_array_equal(alone.samples[name], together.samples[name])
            assert list(alone.samples) == [name]
