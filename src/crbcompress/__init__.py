"""Fisher information and Cramer-Rao bounds under random compression.

The package computes exact information quantities for complex Gaussian
mean models, the closed-form beta laws that govern their degradation
under right-orthogonally invariant random compression, Monte Carlo
verification of those laws, and planning tools that turn the laws into
measurement budgets.
"""

from .betalaw import (
    BetaLaw,
    CompressionMoments,
    MatrixBetaLaw,
    beta_cdf,
    beta_pdf,
    beta_quantile,
    beta_sf,
    crb_ratio_law,
    eig_joint_logpdf,
    fim_after_logpdf,
    kl_ratio_law,
    ln_cmv_gamma,
    matrix_beta_logpdf,
    moments,
)
from .cxla import (
    hermitian_inv_sqrt,
    hermitian_part,
    logdet_hpd,
    orthonormal_columns,
    orthonormal_range,
)
from .errors import (
    BadShape,
    BadSpec,
    CrbCompressError,
    DomainError,
    Infeasible,
    NoConvergence,
    NotPositiveDefinite,
    RankDeficient,
    SingularFim,
    SingularMatrix,
    TooFewSamples,
)
from .fisher import (
    FimResult,
    NormalizedFim,
    compressed_crb,
    compressed_fim,
    compressed_kl,
    crb,
    fim,
    kl_divergence,
    normalized_fim,
)
from .mcharness import (
    ExperimentConfig,
    ExperimentSummary,
    Histogram,
    KsResult,
    StatSummary,
    histogram,
    ks_one_sample,
    ks_two_sample,
    run,
)
from .planner import (
    PlanQuery,
    PlanRow,
    confidence_at,
    curve,
    ellipse_locus,
    min_measurements,
)
from .randcomp import FAMILIES, CompressorSpec, derive_stream, sample
from .sigmodel import (
    FunctionModel,
    SignalModel,
    Source,
    UlaModel,
    UlaScenario,
    finite_diff_jacobian,
    two_source_half_rayleigh,
    ula_jacobian,
    ula_mean,
)

__version__ = "0.1.0"
