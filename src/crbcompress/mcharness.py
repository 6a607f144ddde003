"""Monte Carlo verification harness.

Draws compression matrices trial by trial, evaluates per-trial
information statistics, and aggregates them into moments, histograms,
and Kolmogorov-Smirnov comparisons against the analytic laws.

A campaign has the inputs the laws depend on and no others: a line
array model, evaluated at its reference point, white noise of power
``sigma2``, and a compressor ensemble.

Per-trial statistics:

* ``crb_ratio``: (CRB before) / (CRB after) for one parameter index,
  in [0, 1]; predicted law Beta(m - p + 1, n - m).
* ``kl_ratio``: (KL after) / (KL before) between two parameter points,
  in [0, 1]; predicted law Beta(m, n - m).
* ``w_eigenvalues``: ascending spectrum of the whitened compressed
  information matrix.
* ``w_mean`` / ``fim_mean``: matrix means of W and of the compressed
  information matrix.

``run`` validates the config, runs one sequential loop over the trial
kernel ``_Campaign.trial`` and reduces each statistic as its ``_TABLE``
entry says, into one ``StatSummary`` record in ``stats``.  A statistic
is one ``_TABLE`` entry and one ``_Trial`` attribute of its name.  A
campaign runs for any m <= n, and for p < m <= n where it needs the
information matrices; a sample statistic gets a histogram, and a KS
verdict when at least 100 trials are kept and its own law covers
(n, m, p), which in practice leaves out only m = n.  A matrix statistic
keeps only its p x p mean.

Reproducibility: trial t draws from ``derive_stream(seed, t)`` and
writes into slot t, so results are byte-identical for a given config
and seed, and a statistic's values do not depend on which others are
requested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import betalaw, fisher
from .errors import BadShape, BadSpec, DomainError, RankDeficient, SingularFim, TooFewSamples, is_int, is_real_array
from .randcomp import CompressorSpec, check_key, derive_stream, sample
from .sigmodel import UlaModel


@dataclass(frozen=True)
class _Statistic:
    """How a campaign keeps one statistic, read off each trial as ``_Trial.<name>``.

    A value of ``rank`` 0 or 1 (axes of length p) is a sample, with a
    histogram and a KS verdict against ``law(n, m, p)`` where that law
    exists; a complex p x p value keeps only its mean.  ``need`` is the
    ``_Campaign`` piece its trials read.
    """

    rank: int
    need: str
    law: Callable[[int, int, int], betalaw.BetaLaw] | None = None

    def law_at(self, n: int, m: int, p: int) -> betalaw.BetaLaw | None:
        """``law(n, m, p)``, or None where the statistic has no law there (m = n)."""
        try:
            return None if self.law is None else self.law(n, m, p)
        except DomainError:
            return None


# Every statistic, in the order a trial computes them and summaries list them
_TABLE = {
    "crb_ratio": _Statistic(0, "crb_before", betalaw.crb_ratio_law),
    "kl_ratio": _Statistic(0, "kl_reference", lambda n, m, p: betalaw.kl_ratio_law(n, m)),
    "w_eigenvalues": _Statistic(1, "information"),
    "w_mean": _Statistic(2, "information"),
    "fim_mean": _Statistic(2, "information"),
}
STATISTICS = tuple(_TABLE)

# One-sample KS critical constants c(alpha); the threshold is c/sqrt(N).
KS_CRITICAL = {0.01: 1.628, 0.05: 1.358}

# A campaign fails outright when more than this fraction of trials is
# degenerate; occasional exclusions are counted and reported.
MAX_EXCLUDED_FRACTION = 1e-3

# Why a trial is excluded; a trial's cause code is 1 + its index here.
EXCLUSION_CAUSES = ("SingularFim", "RankDeficient")


@dataclass(frozen=True)
class KsResult:
    statistic: float
    critical: float
    alpha: float
    passed: bool


@dataclass(frozen=True)
class Histogram:
    """Equal-width histogram; ``density`` normalizes to unit area."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def density(self) -> np.ndarray:
        widths = np.diff(self.edges)
        total = self.total
        if total == 0:
            return np.zeros_like(widths)
        return self.counts / (total * widths)


@dataclass(frozen=True)
class StatSummary:
    """One statistic's summary: a sample's moments, KS verdict and histogram, or a matrix statistic's p x p mean alone."""

    mean: float | np.ndarray
    variance: float | None
    ks: KsResult | None
    histogram: Histogram | None


@dataclass(eq=False)
class ExperimentConfig:
    """Everything needed to rerun a campaign bit for bit.

    The trials compress the Jacobian of ``model`` at its reference
    point; ``kl_ratio`` compares the means there and at ``theta_alt``.
    ``seed`` falls back to the compressor's own seed when omitted.
    """

    compressor: CompressorSpec
    trials: int
    model: UlaModel | None = None
    sigma2: float = 1.0
    statistics: tuple[str, ...] = ("crb_ratio",)
    crb_index: int = 0
    theta_alt: np.ndarray | None = None
    seed: int | None = None
    histogram_bins: int = 50
    ks_alpha: float = 0.01
    # only 1 is accepted; kept while the benchmark still passes threads=1
    threads: int = 1


@dataclass(eq=False)
class ExperimentSummary:
    """A campaign's outcome: the kept trials' samples and one ``StatSummary`` per statistic, in ``_TABLE`` order."""

    n: int
    m: int
    p: int
    trials: int
    trial_index: np.ndarray
    # excluded trials per name in EXCLUSION_CAUSES
    excluded_by_cause: dict
    samples: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def excluded_trials(self) -> int:
        return sum(self.excluded_by_cause.values())


def _check_alpha(alpha) -> None:
    if alpha not in KS_CRITICAL:
        raise DomainError(f"unsupported alpha {alpha}; choose from {sorted(KS_CRITICAL)}")


def _check_bins(bins) -> None:
    if not (is_int(bins) and bins >= 1):
        raise BadSpec(f"bins must be a positive int, got {bins!r}")


def _real_samples(samples, what: str) -> np.ndarray:
    """``samples`` flattened to float64, or BadShape unless they are finite real numbers (complex is not made real)."""
    if not is_real_array(samples):
        raise BadShape(f"{what} samples must be real numbers, not bools, complex numbers or strings")
    x = np.asarray(samples, dtype=np.float64).ravel()
    if not np.isfinite(x).all():
        raise BadShape(f"{what} samples contain non-finite values")
    return x


def ks_one_sample(samples, cdf: Callable, alpha: float = 0.01) -> KsResult:
    """One-sample KS test of ``samples`` against a continuous ``cdf``.

    The pass threshold is the asymptotic critical value c(alpha)/sqrt(N);
    at least 100 samples are required for the asymptotics to be fair.
    """
    _check_alpha(alpha)
    x = np.sort(_real_samples(samples, "KS"))
    n = x.shape[0]
    if n < 100:
        raise TooFewSamples(f"KS test needs at least 100 samples, got {n}")
    f = np.asarray(cdf(x), dtype=np.float64)
    if f.shape != x.shape:
        raise BadShape(f"cdf must return one value per sample, got shape {f.shape} for {x.shape}")
    if not np.isfinite(f).all():
        raise BadShape("cdf returned non-finite values")
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1.0) / n))
    d = max(d_plus, d_minus, 0.0)
    critical = KS_CRITICAL[alpha] / np.sqrt(n)
    return KsResult(statistic=d, critical=float(critical), alpha=alpha, passed=bool(d < critical))


def histogram(samples, bins: int = 50) -> Histogram:
    """Equal-width histogram over [min, max]; every sample lands in some bin."""
    x = _real_samples(samples, "histogram")
    if x.size == 0:
        raise TooFewSamples("histogram needs at least one sample")
    _check_bins(bins)
    lo, hi = float(x.min()), float(x.max())
    if not np.isfinite(hi - lo):
        raise BadShape(f"histogram span [{lo:.3e}, {hi:.3e}] overflows a double")
    # span of a few ulps cannot support bins of distinct finite width; a
    # single bin is the honest picture of constant data
    if 0.0 < hi - lo <= bins * np.spacing(max(abs(lo), abs(hi))):
        bins = 1
    counts, edges = np.histogram(x, bins=bins)
    return Histogram(edges=edges, counts=counts)


class _Campaign:
    """What the trials of one campaign share.

    The cached properties are built before the first trial, for the
    statistics that need them, so their failures fail the run.
    """

    def __init__(self, config: ExperimentConfig, names: tuple):
        self.config, self.names = config, names
        model = config.model
        self.G = model.jacobian(model.reference_theta)
        self.seed = config.seed if config.seed is not None else config.compressor.seed
        # every campaign checks G and sigma2 this way, whatever it samples
        self.info_before = fisher.fim(self.G, config.sigma2)

    @cached_property
    def information(self) -> fisher.FimResult:
        """The uncompressed information, once p < m <= n says the compressed one exists."""
        (n, p), m = self.G.shape, self.config.compressor.m
        if not p < m <= n:
            raise BadSpec(f"information statistics need p < m <= n, got p={p}, m={m}, n={n}")
        return self.info_before

    @cached_property
    def crb_before(self) -> float:
        return fisher.crb(self.information, self.config.crb_index)

    @cached_property
    def kl_reference(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The means at the reference point and at theta_alt, and their uncompressed KL divergence."""
        config, model = self.config, self.config.model
        if config.theta_alt is None:
            raise BadSpec("kl_ratio needs theta_alt")
        x_ref = model.mean(model.reference_theta)
        x_alt = model.mean(config.theta_alt)
        kl_before = fisher.kl_divergence(x_ref, x_alt, config.sigma2)
        if kl_before <= 0.0:
            raise DomainError("theta_alt coincides with the reference point; the KL ratio is undefined")
        return x_ref, x_alt, kl_before

    def trial(self, t: int) -> list:
        """The trial kernel: trial t's requested values; SingularFim or RankDeficient if degenerate."""
        trial = _Trial(self, sample(self.config.compressor, derive_stream(self.seed, t)))
        return [getattr(trial, name) for name in self.names]


class _Trial:
    """One compressor draw; the compressed information and W are computed on first use."""

    def __init__(self, campaign: _Campaign, phi: np.ndarray):
        self.campaign, self.phi = campaign, phi

    @cached_property
    def after(self) -> fisher.FimResult:
        return fisher.compressed_fim(self.campaign.G, self.phi, self.campaign.config.sigma2)

    @cached_property
    def w(self) -> np.ndarray:
        return fisher.normalized_fim(self.campaign.information, self.after)

    @property
    def crb_ratio(self) -> float:
        return self.campaign.crb_before / fisher.crb(self.after, self.campaign.config.crb_index)

    @property
    def kl_ratio(self) -> float:
        x_ref, x_alt, kl_before = self.campaign.kl_reference
        return fisher.compressed_kl(x_ref, x_alt, self.campaign.config.sigma2, self.phi) / kl_before

    @property
    def w_eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.w)

    @property
    def w_mean(self) -> np.ndarray:
        return self.w

    @property
    def fim_mean(self) -> np.ndarray:
        return self.after.J


def run(config: ExperimentConfig) -> ExperimentSummary:
    """Execute a campaign and aggregate its statistics.

    Trials whose compressed information is singular for the requested
    parameter (SingularFim) or whose compressor is rank deficient
    (RankDeficient) are excluded and counted by cause; the run fails
    with SingularFim if they exceed MAX_EXCLUDED_FRACTION of the total.
    """
    t0 = time.perf_counter()
    requested = tuple(config.statistics)
    if len(requested) == 0:
        raise BadSpec("at least one statistic must be requested")
    unknown = [s for s in requested if s not in _TABLE]
    if unknown:
        raise BadSpec(f"unknown statistics {unknown}; choose from {STATISTICS}")
    if len(set(requested)) != len(requested):
        raise BadSpec(f"duplicate statistics in {requested}")
    if not (is_int(config.trials) and config.trials >= 1):
        raise BadSpec(f"trials must be a positive int, got {config.trials!r}")
    if config.seed is not None:
        check_key(config.seed)
    # the reduce step's settings, checked before any trial runs
    _check_alpha(config.ks_alpha)
    _check_bins(config.histogram_bins)
    # the field goes with the next benchmark change, which stops passing threads=1
    if not (is_int(config.threads) and config.threads == 1):
        raise BadSpec(f"threads must be 1 (campaigns run on one thread), got {config.threads!r}")

    model, spec = config.model, config.compressor
    if not isinstance(model, UlaModel):
        raise BadSpec(f"config needs a UlaModel, got {model!r}")
    n, p, m = model.n, model.p, spec.m
    if spec.n != n:
        raise BadSpec(f"compressor ambient dimension {spec.n} does not match model n={n}")

    names = tuple(name for name in _TABLE if name in requested)
    campaign = _Campaign(config, names)
    for name in names:  # build the shared pieces before any trial
        getattr(campaign, _TABLE[name].need)

    trials = config.trials
    values = {
        name: np.full((trials,) + (p,) * _TABLE[name].rank, np.nan,
                      dtype=np.complex128 if _TABLE[name].rank == 2 else np.float64)
        for name in names
    }
    # 0 for a kept trial, else its cause code
    cause = np.zeros(trials, dtype=np.int8)
    for t in range(trials):
        try:
            for name, value in zip(names, campaign.trial(t)):
                values[name][t] = value
        except SingularFim:
            cause[t] = 1
        except RankDeficient:
            cause[t] = 2

    by_cause = {name: int(np.count_nonzero(cause == code)) for code, name in enumerate(EXCLUSION_CAUSES, 1)}
    excluded_count = sum(by_cause.values())
    if excluded_count > MAX_EXCLUDED_FRACTION * trials:
        raise SingularFim(
            f"{excluded_count} of {trials} trials were degenerate {by_cause} "
            f"(limit is {MAX_EXCLUDED_FRACTION:.1%})"
        )
    keep = cause == 0
    summary = ExperimentSummary(n=n, m=m, p=p, trials=trials, trial_index=np.nonzero(keep)[0],
                                excluded_by_cause=by_cause)
    kept = trials - excluded_count
    for name in names:
        stat = _TABLE[name]
        kept_values = values[name][keep]
        if stat.rank == 2:
            summary.stats[name] = StatSummary(mean=kept_values.mean(axis=0), variance=None, ks=None, histogram=None)
            continue
        summary.samples[name] = kept_values
        flat = kept_values.ravel()
        mean = float(np.mean(flat))
        variance = float(np.var(flat, ddof=1)) if flat.size > 1 else 0.0
        law = stat.law_at(n, m, p) if kept >= 100 else None
        ks = None
        if law is not None:
            ks = ks_one_sample(flat, lambda x: betalaw.beta_cdf(law, x), config.ks_alpha)
        summary.stats[name] = StatSummary(mean=mean, variance=variance, ks=ks,
                                          histogram=histogram(flat, bins=config.histogram_bins))

    summary.duration_s = time.perf_counter() - t0
    return summary
