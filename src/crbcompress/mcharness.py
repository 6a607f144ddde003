"""Monte Carlo verification harness.

Draws compression matrices trial by trial, evaluates per-trial
information statistics, and aggregates them into moments, histograms,
and Kolmogorov-Smirnov comparisons against the analytic laws.

Per-trial statistics:

* ``crb_ratio``: (CRB before) / (CRB after) for one parameter index,
  in [0, 1]; predicted law Beta(m - p + 1, n - m).
* ``kl_ratio``: (KL after) / (KL before) between two parameter points,
  in [0, 1]; predicted law Beta(m, n - m) for scalar noise covariance.
* ``w_eigenvalues``: ascending spectrum of the whitened compressed
  information matrix.
* ``w_mean`` / ``fim_mean``: matrix means of W and of the compressed
  information matrix.

``run`` validates the config, runs one sequential loop over the trial
kernel ``_Campaign.trial`` and reduces each statistic as its ``_TABLE``
entry says.  A statistic is one ``_TABLE`` entry and one ``_Trial``
attribute of its name.

Reproducibility: trial t draws from ``derive_stream(seed, t)`` and
writes into slot t, so results are byte-identical for a given config
and seed, and a statistic's values do not depend on which others are
requested.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import betalaw, cxla, fisher
from .errors import BadShape, BadSpec, DomainError, RankDeficient, SingularFim, TooFewSamples
from .randcomp import CompressorSpec, derive_stream, sample
from .sigmodel import SignalModel, UlaModel


@dataclass(frozen=True)
class _Statistic:
    """How a campaign keeps one statistic, read off each trial as ``_Trial.<name>``.

    A value of ``rank`` 0 or 1 (axes of length p) is a sample, with a KS
    verdict against ``law(n, m, p)`` if given; a complex p x p value keeps
    only its mean, as the summary attribute of its name.  ``need`` is the
    ``_Campaign`` piece its trials read.
    """

    rank: int
    need: str
    law: Callable[[int, int, int], betalaw.BetaLaw] | None = None


# Every statistic, in the order a trial computes them and summaries list them
_TABLE = {
    "crb_ratio": _Statistic(0, "crb_before", betalaw.crb_ratio_law),
    "kl_ratio": _Statistic(0, "kl_reference", lambda n, m, p: betalaw.kl_ratio_law(n, m)),
    "w_eigenvalues": _Statistic(1, "whitener"),
    "w_mean": _Statistic(2, "whitener"),
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
    mean: float
    variance: float
    ks: KsResult | None


@dataclass(eq=False)
class ExperimentConfig:
    """Everything needed to rerun a campaign bit for bit.

    Give either an explicit Jacobian ``G`` or a ``model`` (plus
    ``theta`` unless the model carries a reference point).  ``seed``
    falls back to the compressor's own seed when omitted.
    ``allow_law_violation`` downgrades the p < m <= n - p validity gate
    to a warning, for deliberately degenerate runs such as m = n.
    """

    compressor: CompressorSpec
    trials: int
    model: SignalModel | None = None
    theta: np.ndarray | None = None
    G: np.ndarray | None = None
    sigma2: float = 1.0
    statistics: tuple[str, ...] = ("crb_ratio",)
    crb_index: int = 0
    theta_alt: np.ndarray | None = None
    seed: int | None = None
    histogram_bins: int = 50
    ks_alpha: float = 0.01
    allow_law_violation: bool = False
    # only 1 is accepted; kept while the benchmark still passes threads=1
    threads: int = 1


@dataclass(eq=False)
class ExperimentSummary:
    n: int
    m: int
    p: int
    trials: int
    excluded_trials: int
    trial_index: np.ndarray
    # excluded trials per name in EXCLUSION_CAUSES
    excluded_by_cause: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    w_mean: np.ndarray | None = None
    fim_mean: np.ndarray | None = None
    duration_s: float = 0.0
    config: ExperimentConfig | None = None


def ks_one_sample(samples, cdf: Callable, alpha: float = 0.01) -> KsResult:
    """One-sample KS test of ``samples`` against a continuous ``cdf``.

    The pass threshold is the asymptotic critical value c(alpha)/sqrt(N);
    at least 100 samples are required for the asymptotics to be fair.
    """
    if alpha not in KS_CRITICAL:
        raise DomainError(f"unsupported alpha {alpha}; choose from {sorted(KS_CRITICAL)}")
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = x.shape[0]
    if n < 100:
        raise TooFewSamples(f"KS test needs at least 100 samples, got {n}")
    f = np.asarray(cdf(x), dtype=np.float64)
    if f.shape != x.shape:
        raise BadShape(f"cdf must return one value per sample, got shape {f.shape} for {x.shape}")
    i = np.arange(1, n + 1, dtype=np.float64)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1.0) / n))
    d = max(d_plus, d_minus, 0.0)
    critical = KS_CRITICAL[alpha] / np.sqrt(n)
    return KsResult(statistic=d, critical=float(critical), alpha=alpha, passed=bool(d < critical))


def ks_two_sample(a, b, alpha: float = 0.01) -> KsResult:
    """Two-sample KS test for samples drawn from a common law."""
    if alpha not in KS_CRITICAL:
        raise DomainError(f"unsupported alpha {alpha}; choose from {sorted(KS_CRITICAL)}")
    xa = np.sort(np.asarray(a, dtype=np.float64).ravel())
    xb = np.sort(np.asarray(b, dtype=np.float64).ravel())
    na, nb = xa.shape[0], xb.shape[0]
    if na < 100 or nb < 100:
        raise TooFewSamples(f"KS test needs at least 100 samples per side, got {na} and {nb}")
    grid = np.concatenate([xa, xb])
    grid.sort()
    ecdf_a = np.searchsorted(xa, grid, side="right") / na
    ecdf_b = np.searchsorted(xb, grid, side="right") / nb
    d = float(np.max(np.abs(ecdf_a - ecdf_b)))
    critical = KS_CRITICAL[alpha] * np.sqrt((na + nb) / (na * nb))
    return KsResult(statistic=d, critical=float(critical), alpha=alpha, passed=bool(d < critical))


def histogram(samples, bins: int = 50, value_range: tuple[float, float] | None = None) -> Histogram:
    """Equal-width histogram over [min, max] unless a range is given.

    Samples outside an explicit range are dropped by ``np.histogram``;
    with the default range every sample lands in some bin.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    if x.size == 0:
        raise TooFewSamples("histogram needs at least one sample")
    if not np.all(np.isfinite(x)):
        raise BadShape("histogram samples contain non-finite values")
    if not (isinstance(bins, int) and bins >= 1):
        raise BadSpec(f"bins must be a positive int, got {bins!r}")
    if value_range is None:
        lo, hi = float(x.min()), float(x.max())
        # span of a few ulps cannot support bins of distinct finite
        # width; a single bin is the honest picture of constant data
        if 0.0 < hi - lo <= bins * np.spacing(max(abs(lo), abs(hi))):
            counts, edges = np.histogram(x, bins=1, range=(lo, hi))
            return Histogram(edges=edges, counts=counts)
    counts, edges = np.histogram(x, bins=bins, range=value_range)
    return Histogram(edges=edges, counts=counts)


def _resolve_jacobian(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray | None]:
    if config.G is not None:
        if config.model is not None:
            raise BadSpec("give either an explicit G or a model, not both")
        return cxla.as_complex_matrix(config.G, "G"), None
    if config.model is None:
        raise BadSpec("config needs an explicit G or a model")
    theta = config.theta
    if theta is None:
        if isinstance(config.model, UlaModel):
            theta = config.model.reference_theta
        else:
            raise BadSpec("theta is required unless the model carries a reference point")
    theta = np.asarray(theta, dtype=np.float64).reshape(-1)
    return config.model.jacobian(theta), theta


class _Campaign:
    """What the trials of one campaign share.

    The cached properties are built before the first trial, for the
    statistics that need them, so their failures fail the run.
    """

    def __init__(self, config: ExperimentConfig, G: np.ndarray, theta: np.ndarray | None, names: tuple):
        self.config, self.G, self.theta, self.names = config, G, theta, names
        self.seed = config.seed if config.seed is not None else config.compressor.seed
        # every campaign checks G and sigma2 this way, whatever it samples
        self.info_before = fisher.fim(G, config.sigma2)

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
    def kl_reference(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """The two means, the noise covariance and the uncompressed KL divergence."""
        config = self.config
        if config.model is None or self.theta is None:
            raise BadSpec("kl_ratio needs a model (explicit G carries no mean map)")
        if config.theta_alt is None:
            raise BadSpec("kl_ratio needs theta_alt")
        x_ref = config.model.mean(self.theta)
        x_alt = config.model.mean(np.asarray(config.theta_alt, dtype=np.float64).reshape(-1))
        noise_cov = config.sigma2 * np.eye(self.G.shape[0], dtype=np.complex128)
        kl_before = fisher.kl_divergence(x_ref, x_alt, noise_cov)
        if kl_before <= 0.0:
            raise DomainError("theta_alt coincides with theta; the KL ratio is undefined")
        return x_ref, x_alt, noise_cov, kl_before

    @cached_property
    def whitener(self) -> np.ndarray:
        return cxla.hermitian_inv_sqrt(self.information.J)

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
        whitener = self.campaign.whitener
        return cxla.hermitian_part(whitener @ self.after.J @ whitener)

    @property
    def crb_ratio(self) -> float:
        return self.campaign.crb_before / fisher.crb(self.after, self.campaign.config.crb_index)

    @property
    def kl_ratio(self) -> float:
        x_ref, x_alt, noise_cov, kl_before = self.campaign.kl_reference
        return fisher.compressed_kl(x_ref, x_alt, noise_cov, self.phi) / kl_before

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
    if not (isinstance(config.trials, int) and config.trials >= 1):
        raise BadSpec(f"trials must be a positive int, got {config.trials!r}")
    # the field goes with the next benchmark change, which stops passing threads=1
    if not (isinstance(config.threads, int) and config.threads == 1):
        raise BadSpec(f"threads must be 1 (campaigns run on one thread), got {config.threads!r}")

    spec = config.compressor
    G, theta = _resolve_jacobian(config)
    n, p = G.shape
    m = spec.m
    if spec.n != n:
        raise BadSpec(f"compressor ambient dimension {spec.n} does not match model n={n}")
    law_ok = p < m <= n - p
    if not law_ok:
        message = f"law validity needs p < m <= n - p, got p={p}, m={m}, n={n}"
        if config.allow_law_violation:
            warnings.warn(message + "; analytic reference laws are disabled", stacklevel=2)
        else:
            raise BadSpec(message + "; set allow_law_violation=True to run anyway")

    names = tuple(name for name in _TABLE if name in requested)
    campaign = _Campaign(config, G, theta, names)
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
    kept_index = np.nonzero(keep)[0]
    summary = ExperimentSummary(n=n, m=m, p=p, trials=trials, excluded_trials=excluded_count,
                                trial_index=kept_index, excluded_by_cause=by_cause, config=config)
    kept = int(kept_index.shape[0])
    for name in names:
        stat = _TABLE[name]
        kept_values = values[name][keep]
        if stat.rank == 2:
            setattr(summary, name, kept_values.mean(axis=0))
            continue
        summary.samples[name] = kept_values
        flat = kept_values.ravel()
        mean = float(np.mean(flat))
        variance = float(np.var(flat, ddof=1)) if flat.size > 1 else 0.0
        ks = None
        if stat.law is not None and kept >= 100 and law_ok:
            law = stat.law(n, m, p)
            ks = ks_one_sample(flat, lambda x: betalaw.beta_cdf(law, x), config.ks_alpha)
        summary.stats[name] = StatSummary(mean=mean, variance=variance, ks=ks)
        summary.histograms[name] = histogram(flat, bins=config.histogram_bins)

    summary.duration_s = time.perf_counter() - t0
    return summary
