"""Fisher information and Cramer-Rao bounds under random compression.

The package computes exact information quantities for complex Gaussian
mean models, the closed-form beta laws that govern their degradation
under right-orthogonally invariant random compression, Monte Carlo
verification of those laws, and planning tools that turn the laws into
measurement budgets.  Names live in their modules (``crbcompress.fisher``,
``crbcompress.betalaw``, ...); the package root holds only the version.
"""

__version__ = "0.1.0"
