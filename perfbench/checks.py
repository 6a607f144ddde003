"""Answer checks that never consult the code under test.

* Monte Carlo samples are tested against the exact Beta law, evaluated
  here as a binomial tail (every law the workloads use has integer
  shapes), with a pooled Kolmogorov-Smirnov test at a significance level
  small enough that a correct program essentially never fails it.
* Planning and law answers are compared with ``oracle_table.json``,
  written by ``make_oracle.py`` from scipy and mpmath.  Misses the
  package already made when ``known_failures.json`` was written are
  counted as failed operations; any other miss makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

ORACLE_PATH = Path(__file__).with_name("oracle_table.json")

# Relative tolerance in x for quantiles and in F for cdf points.
QUANTILE_RTOL = 1e-10
CDF_RTOL = 1e-10
# Pooled KS significance: a correct program fails it about once in 10^6
# runs, so a failure means the samples do not follow the law.
KS_ALPHA = 1e-6


def load_oracle(path: Path = ORACLE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def integer_beta_cdf(a: int, b: int, x) -> np.ndarray:
    """I_x(a, b) for integer shapes, as P[Binomial(a + b - 1, x) >= a]."""
    big_n = a + b - 1
    j = np.arange(a, big_n + 1, dtype=np.float64)
    log_binom = np.array(
        [math.lgamma(big_n + 1) - math.lgamma(k + 1) - math.lgamma(big_n - k + 1) for k in range(a, big_n + 1)]
    )
    x = np.clip(np.asarray(x, dtype=np.float64).reshape(-1, 1), 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = log_binom + j * np.log(x) + (big_n - j) * np.log1p(-x)
        terms = np.exp(log_terms)
    # x = 1 makes 0 * log(0) in the last term; that term is then 1.
    terms[:, -1] = np.where(x[:, 0] >= 1.0, 1.0, terms[:, -1])
    return np.clip(terms.sum(axis=1), 0.0, 1.0)


def ks_test(samples, cdf) -> dict:
    """One-sample KS statistic and asymptotic p-value (Stephens' correction)."""
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = x.shape[0]
    f = cdf(x)
    i = np.arange(1, n + 1, dtype=np.float64)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1.0) / n), 0.0))
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * d
    if lam < 0.2:
        pvalue = 1.0
    else:
        pvalue = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam) for k in range(1, 101))
        pvalue = min(max(pvalue, 0.0), 1.0)
    return {"samples": n, "statistic": d, "pvalue": pvalue, "alpha": KS_ALPHA, "passed": pvalue >= KS_ALPHA}


def in_unit_interval(values, tol: float) -> bool:
    v = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.isfinite(v)) and np.all(v >= -tol) and np.all(v <= 1.0 + tol))


def digest(arrays) -> str:
    """SHA-256 of float64 sample arrays, in the order given."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def plan_label(entry: dict) -> str:
    return f"n={entry['n']} p={entry['p']} kappa={entry['kappa']} conf={entry['confidence']}"


def law_label(entry: dict) -> str:
    return f"Beta({entry['a']}, {entry['b']})"


def quantile_label(entry: dict) -> str:
    return f"{law_label(entry)} q={entry['q']!r}"


def cdf_correct(value, expected) -> np.ndarray:
    """Which cdf points match the oracle within CDF_RTOL (all False on a shape mismatch)."""
    expected = np.asarray(expected, dtype=np.float64)
    v = np.asarray(value, dtype=np.float64)
    if v.shape != expected.shape:
        return np.zeros(expected.shape, dtype=bool)
    return np.isfinite(v) & (np.abs(v - expected) <= CDF_RTOL * np.abs(expected))


def classify(kind: str, value, error: BaseException | None, expected, infeasible_type=None) -> int:
    """Number of correct answers in one operation.

    ``kind`` is ``plan`` (one answer), ``quantile`` (one point) or ``cdf``
    (one answer per point of ``expected``, an array).  An operation that
    raised is wrong at every point, except a plan query that raised
    ``infeasible_type`` where the oracle says no m reaches the target.
    """
    if kind == "plan":
        if error is not None:
            return int(infeasible_type is not None and isinstance(error, infeasible_type) and expected["infeasible"])
        return int(not expected["infeasible"] and isinstance(value, int) and value == expected["m"])
    if kind == "quantile":
        if error is not None:
            return 0
        v = float(value)
        return int(math.isfinite(v) and abs(v - expected) <= QUANTILE_RTOL * abs(expected))
    if kind == "cdf":
        return 0 if error is not None else int(np.count_nonzero(cdf_correct(value, expected)))
    raise ValueError(f"unknown operation kind {kind!r}")
