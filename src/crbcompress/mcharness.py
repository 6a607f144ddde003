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
* ``w_mean`` / ``fim_mean``: running matrix means of W and of the
  compressed information matrix.

Reproducibility: trial t draws from ``derive_stream(seed, t)`` and
writes into slot t, so results are byte-identical for a given config
and seed regardless of thread count or execution order.
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import betalaw, cxla, fisher
from .errors import BadShape, BadSpec, DomainError, RankDeficient, SingularFim, TooFewSamples
from .randcomp import CompressorSpec, derive_stream, sample
from .sigmodel import SignalModel, UlaModel

STATISTICS = ("crb_ratio", "kl_ratio", "w_eigenvalues", "w_mean", "fim_mean")

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
        f = np.array([float(cdf(v)) for v in x])
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


def run(config: ExperimentConfig) -> ExperimentSummary:
    """Execute a campaign and aggregate its statistics.

    Trials whose compressed information is singular for the requested
    parameter (SingularFim) or whose compressor is rank deficient
    (RankDeficient) are excluded and counted by cause; the run fails
    with SingularFim if they exceed MAX_EXCLUDED_FRACTION of the total.
    """
    t0 = time.perf_counter()
    stats_requested = tuple(config.statistics)
    if len(stats_requested) == 0:
        raise BadSpec("at least one statistic must be requested")
    unknown = [s for s in stats_requested if s not in STATISTICS]
    if unknown:
        raise BadSpec(f"unknown statistics {unknown}; choose from {STATISTICS}")
    if len(set(stats_requested)) != len(stats_requested):
        raise BadSpec(f"duplicate statistics in {stats_requested}")
    if not (isinstance(config.trials, int) and config.trials >= 1):
        raise BadSpec(f"trials must be a positive int, got {config.trials!r}")
    if not (isinstance(config.threads, int) and config.threads >= 1):
        raise BadSpec(f"threads must be a positive int, got {config.threads!r}")

    spec = config.compressor
    G, theta = _resolve_jacobian(config)
    n, p = G.shape
    m = spec.m
    if spec.n != n:
        raise BadSpec(f"compressor ambient dimension {spec.n} does not match model n={n}")

    needs_fim = any(s in stats_requested for s in ("crb_ratio", "w_eigenvalues", "w_mean", "fim_mean"))
    needs_w = any(s in stats_requested for s in ("w_eigenvalues", "w_mean"))
    needs_kl = "kl_ratio" in stats_requested

    law_ok = p < m <= n - p
    if not law_ok:
        message = f"law validity needs p < m <= n - p, got p={p}, m={m}, n={n}"
        if config.allow_law_violation:
            warnings.warn(message + "; analytic reference laws are disabled", stacklevel=2)
        else:
            raise BadSpec(message + "; set allow_law_violation=True to run anyway")
    if needs_fim and not p < m <= n:
        raise BadSpec(f"information statistics need p < m <= n, got p={p}, m={m}, n={n}")

    info_before = fisher.fim(G, config.sigma2)
    crb_before = None
    if "crb_ratio" in stats_requested:
        crb_before = fisher.crb(info_before, config.crb_index)
    whitener = None
    if needs_w:
        whitener = cxla.hermitian_inv_sqrt(info_before.J)

    x_ref = x_alt = None
    kl_before = None
    noise_cov = None
    if needs_kl:
        if config.model is None or theta is None:
            raise BadSpec("kl_ratio needs a model (explicit G carries no mean map)")
        if config.theta_alt is None:
            raise BadSpec("kl_ratio needs theta_alt")
        x_ref = config.model.mean(theta)
        x_alt = config.model.mean(np.asarray(config.theta_alt, dtype=np.float64).reshape(-1))
        noise_cov = config.sigma2 * np.eye(n, dtype=np.complex128)
        kl_before = fisher.kl_divergence(x_ref, x_alt, noise_cov)
        if kl_before <= 0.0:
            raise DomainError("theta_alt coincides with theta; the KL ratio is undefined")

    trials = config.trials
    ratio_samples = np.full(trials, np.nan) if "crb_ratio" in stats_requested else None
    kl_samples = np.full(trials, np.nan) if needs_kl else None
    eig_samples = np.full((trials, p), np.nan) if "w_eigenvalues" in stats_requested else None
    w_mats = np.full((trials, p, p), np.nan, dtype=np.complex128) if "w_mean" in stats_requested else None
    fim_mats = np.full((trials, p, p), np.nan, dtype=np.complex128) if "fim_mean" in stats_requested else None
    # 0 for a kept trial, else its cause code; each trial writes its own
    # slot, so the codes do not depend on the thread count
    cause = np.zeros(trials, dtype=np.int8)

    seed = config.seed if config.seed is not None else spec.seed

    def one_trial(t: int) -> None:
        rng = derive_stream(seed, t)
        phi = sample(spec, rng)
        try:
            if needs_fim:
                after = fisher.compressed_fim(G, phi, config.sigma2)
                if ratio_samples is not None:
                    ratio_samples[t] = crb_before / fisher.crb(after, config.crb_index)
                if needs_w:
                    w = cxla.hermitian_part(whitener @ after.J @ whitener)
                    if eig_samples is not None:
                        eig_samples[t] = np.linalg.eigvalsh(w)
                    if w_mats is not None:
                        w_mats[t] = w
                if fim_mats is not None:
                    fim_mats[t] = after.J
            if kl_samples is not None:
                kl_samples[t] = fisher.compressed_kl(x_ref, x_alt, noise_cov, phi) / kl_before
        except SingularFim:
            cause[t] = 1
        except RankDeficient:
            cause[t] = 2

    if config.threads == 1:
        for t in range(trials):
            one_trial(t)
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(one_trial, range(trials)))

    by_cause = {name: int(np.count_nonzero(cause == code)) for code, name in enumerate(EXCLUSION_CAUSES, 1)}
    excluded_count = sum(by_cause.values())
    if excluded_count > MAX_EXCLUDED_FRACTION * trials:
        raise SingularFim(
            f"{excluded_count} of {trials} trials were degenerate {by_cause} "
            f"(limit is {MAX_EXCLUDED_FRACTION:.1%})"
        )
    keep = cause == 0
    kept_index = np.nonzero(keep)[0]

    samples: dict = {}
    if ratio_samples is not None:
        samples["crb_ratio"] = ratio_samples[keep]
    if kl_samples is not None:
        samples["kl_ratio"] = kl_samples[keep]
    if eig_samples is not None:
        samples["w_eigenvalues"] = eig_samples[keep]

    summary = ExperimentSummary(
        n=n,
        m=m,
        p=p,
        trials=trials,
        excluded_trials=excluded_count,
        trial_index=kept_index,
        excluded_by_cause=by_cause,
        samples=samples,
        config=config,
    )
    if w_mats is not None:
        summary.w_mean = w_mats[keep].mean(axis=0)
    if fim_mats is not None:
        summary.fim_mean = fim_mats[keep].mean(axis=0)

    kept = int(kept_index.shape[0])
    for name, values in samples.items():
        flat = values.ravel()
        mean = float(np.mean(flat))
        variance = float(np.var(flat, ddof=1)) if flat.size > 1 else 0.0
        ks = None
        if kept >= 100 and law_ok:
            if name == "crb_ratio":
                law = betalaw.crb_ratio_law(n, m, p)
                ks = ks_one_sample(flat, lambda x: betalaw.beta_cdf(law, x), config.ks_alpha)
            elif name == "kl_ratio":
                law = betalaw.kl_ratio_law(n, m)
                ks = ks_one_sample(flat, lambda x: betalaw.beta_cdf(law, x), config.ks_alpha)
        summary.stats[name] = StatSummary(mean=mean, variance=variance, ks=ks)
        summary.histograms[name] = histogram(flat, bins=config.histogram_bins)

    summary.duration_s = time.perf_counter() - t0
    return summary
