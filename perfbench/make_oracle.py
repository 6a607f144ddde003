"""Generate the reference answers for the ``laws-plan`` workload.

Usage (from the repository root)::

    python3 perfbench/make_oracle.py          # rewrite perfbench/oracle_table.json
    python3 perfbench/make_oracle.py --check  # exit 1 if regeneration differs

The table lists every input the workload runs together with its answer,
so the benchmark never compares the package against itself.  Answers
come from scipy and mpmath, which are test-only dependencies; the
benchmark reads the stored table and never imports either.

Every law in the table has integer shapes, so the exact reference cdf is
the binomial tail I_x(a, b) = P[Bin(a + b - 1, x) >= a], summed in
mpmath at 30 digits.  scipy provides starting points and the bulk of the
cdf pools; mpmath refines every quantile, confirms every plan answer,
and spot-checks the pools.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import scipy.special

TABLE_PATH = Path(__file__).with_name("oracle_table.json")

# Planning grid: n spans the sizes the package accepts, including 10^6
# where the continued fraction is known to give up.  (kappa, confidence)
# pairs cover easy, demanding and (at small n) infeasible targets.
PLAN_N = (128, 1024, 10_000, 100_000, 1_000_000)
PLAN_P = (1, 2, 4)
PLAN_TARGETS = ((1.5, 0.9), (2.0, 0.99), (1.1, 0.9), (1.02, 0.999))

# CRB-ratio laws Beta(m - p + 1, n - m) at (n, m, p) shapes of the
# planning grid and of the Monte Carlo workloads.
LAW_SHAPES = (
    (32, 16, 2),
    (128, 64, 2),
    (1024, 256, 1),
    (10_000, 5_000, 4),
    (100_000, 10_000, 2),
    (1_000_000, 500_000, 2),
)
QUANTILE_PROBS = (1e-15, 1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-9)
# Cdf pool per law: points at probabilities (i + 1/2) / POOL_SIZE, the
# spread a KS test of samples drawn from the law evaluates.
POOL_SIZE = 256
POOL_SPOT_CHECK_EVERY = 16
POOL_SPOT_RTOL = 1e-12

mpmath.mp.dps = 30
_NEGLIGIBLE = mpmath.mpf("1e-40")


def law_shape(n: int, m: int, p: int) -> tuple[int, int]:
    return m - p + 1, n - m


def mp_cdf(a: int, b: int, x: float) -> mpmath.mpf:
    """Exact I_x(a, b) for integer shapes: the binomial tail, in mpmath."""
    if x <= 0.0:
        return mpmath.mpf(0)
    if x >= 1.0:
        return mpmath.mpf(1)
    big_n = a + b - 1
    xm = mpmath.mpf(x)
    r = xm / (1 - xm)
    j0 = min(max(int(math.floor((big_n + 1) * x)), a), big_n)
    log_t0 = (
        mpmath.loggamma(big_n + 1)
        - mpmath.loggamma(j0 + 1)
        - mpmath.loggamma(big_n - j0 + 1)
        + j0 * mpmath.log(xm)
        + (big_n - j0) * mpmath.log1p(-xm)
    )
    t0 = mpmath.exp(log_t0)
    total = t0
    t = t0
    for j in range(j0, big_n):  # terms above j0
        t = t * (big_n - j) / (j + 1) * r
        total += t
        if t < _NEGLIGIBLE * total:
            break
    t = t0
    for j in range(j0, a, -1):  # terms below j0, down to a
        t = t * j / (big_n - j + 1) / r
        total += t
        if t < _NEGLIGIBLE * total:
            break
    return total


def mp_pdf(a: int, b: int, x: mpmath.mpf) -> mpmath.mpf:
    log_beta = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
    return mpmath.exp((a - 1) * mpmath.log(x) + (b - 1) * mpmath.log1p(-x) - log_beta)


def mp_quantile(a: int, b: int, q: float) -> float:
    """Newton refinement in mpmath of scipy's inverse, rounded to a double."""
    x = mpmath.mpf(float(scipy.special.betaincinv(a, b, q)))
    target = mpmath.mpf(q)
    for _ in range(30):
        step = (mp_cdf(a, b, float(x)) - target) / mp_pdf(a, b, x)
        # mp_cdf takes a double; finish on the double grid.
        x_next = mpmath.mpf(float(x - step))
        if x_next == x:
            break
        x = x_next
    # The double nearest the root: compare neighbours on the double grid.
    best = float(x)
    candidates = [np.nextafter(best, 0.0), best, np.nextafter(best, 1.0)]
    errors = [abs(mp_cdf(a, b, float(c)) - target) for c in candidates]
    return float(candidates[int(np.argmin([float(e) for e in errors]))])


def mp_confidence(n: int, m: int, p: int, kappa: float) -> mpmath.mpf:
    a, b = law_shape(n, m, p)
    return 1 - mp_cdf(a, b, 1.0 / kappa)


def plan_answer(n: int, p: int, kappa: float, confidence: float) -> dict:
    """Smallest m in [p + 2, n - p] reaching the confidence, or infeasible."""
    floor, top = p + 2, n - p
    best = mp_confidence(n, top, p, kappa)
    if best < confidence:
        return {"m": None, "infeasible": True, "max_confidence": float(best)}
    lo, hi = floor, top
    while lo < hi:  # scipy locates the boundary quickly
        mid = (lo + hi) // 2
        a, b = law_shape(n, mid, p)
        if float(scipy.special.betaincc(a, b, 1.0 / kappa)) >= confidence:
            hi = mid
        else:
            lo = mid + 1
    m = lo
    # mpmath decides the boundary exactly; walk if scipy was off by a step.
    while m < top and mp_confidence(n, m, p, kappa) < confidence:
        m += 1
    while m > floor and mp_confidence(n, m - 1, p, kappa) >= confidence:
        m -= 1
    return {"m": m, "infeasible": False, "max_confidence": None}


def cdf_pool(a: int, b: int) -> dict:
    probs = (np.arange(POOL_SIZE) + 0.5) / POOL_SIZE
    xs = scipy.special.betaincinv(a, b, probs)
    fs = scipy.special.betainc(a, b, xs)
    for i in range(0, POOL_SIZE, POOL_SPOT_CHECK_EVERY):
        exact = mp_cdf(a, b, float(xs[i]))
        if abs(fs[i] - exact) > POOL_SPOT_RTOL * exact:
            raise SystemExit(
                f"scipy and mpmath disagree for Beta({a}, {b}) at x={xs[i]!r}: "
                f"{fs[i]!r} vs {mpmath.nstr(exact, 20)}"
            )
    return {"x": [float(v) for v in xs], "F": [float(v) for v in fs]}


def build_table() -> dict:
    plan = []
    for n in PLAN_N:
        for p in PLAN_P:
            for kappa, confidence in PLAN_TARGETS:
                entry = {"n": n, "p": p, "kappa": kappa, "confidence": confidence}
                entry.update(plan_answer(n, p, kappa, confidence))
                plan.append(entry)
    quantile = []
    cdf = []
    for n, m, p in LAW_SHAPES:
        a, b = law_shape(n, m, p)
        for q in QUANTILE_PROBS:
            quantile.append({"shape": [n, m, p], "a": a, "b": b, "q": q, "x": mp_quantile(a, b, q)})
        entry = {"shape": [n, m, p], "a": a, "b": b}
        entry.update(cdf_pool(a, b))
        cdf.append(entry)
    return {
        "about": "reference answers for the laws-plan workload; regenerate with "
        "python3 perfbench/make_oracle.py",
        "plan": plan,
        "quantile": quantile,
        "cdf": cdf,
    }


def dumps(table: dict) -> str:
    return json.dumps(table, indent=1) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the stored table")
    args = parser.parse_args(argv)
    text = dumps(build_table())
    if args.check:
        same = TABLE_PATH.read_text(encoding="utf-8") == text
        print("oracle table reproduces" if same else "oracle table differs from regeneration")
        return 0 if same else 1
    TABLE_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {TABLE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
