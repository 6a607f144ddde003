"""The three benchmark workloads.

Each workload is set up once (imports, scenario, Jacobian, oracle, one
warm-up call into every layer it uses), then runs batches back to back
from one caller: a batch is one campaign for the Monte Carlo workloads
and four rounds of the query grid for ``laws-plan``.  Only the calls into
the package are timed; the checks run outside the timed region.

Why these workloads:

* ``simulate-n128``: the paper's headline shape through ``cli.main``,
  BLAS-bound in ``fisher.compressed_fim`` and stiefel sampling, and the
  only workload that writes output files.
* ``mc-n32-allstats``: small matrices where per-call overhead dominates,
  all five statistics, no stiefel QR, no ``cli`` and no files.
* ``laws-plan``: the bisection in ``planner``, ``beta_quantile`` at tail
  and bulk probabilities and the Lentz loop of ``beta_cdf`` over sorted
  arrays, including the inputs where they are known to fail.
"""

from __future__ import annotations

import csv
import io
import json
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import known_failures
from crbcompress import betalaw, cli, mcharness, planner, randcomp, sigmodel
from crbcompress.errors import Infeasible
from crbcompress.randcomp import FAMILIES


def campaign_seed(seed: int, index: int) -> int:
    """Library seed of campaign ``index`` in a run with benchmark seed ``seed``."""
    return seed * 1_000_003 + index


@dataclass
class Batch:
    """One timed batch: its wall time, operations attempted and correct."""

    seconds: float
    attempted: int
    correct: int
    trials: int = 0  # trials of a passing campaign
    excluded_trials: int = 0
    output_bytes: int = 0
    error: str | None = None


@dataclass
class KindTally:
    seconds: float = 0.0
    attempted: int = 0
    correct: int = 0


def _timed(tracer, fn, *args):
    """Call ``fn`` under a root span when tracing; return (seconds, result, error)."""
    t0 = time.perf_counter()
    try:
        result = tracer.call("bench.batch", fn, *args) if tracer is not None else fn(*args)
        error = None
    except Exception as exc:  # a campaign that raises is a failed operation
        result, error = None, exc
    return time.perf_counter() - t0, result, error


class _Campaigns:
    """Shared bookkeeping of the two Monte Carlo workloads.

    A run is correct only if no campaign failed its checks and the
    pooled KS test passes: the per-campaign checks have no chance
    failures, so any failing campaign is a defect.
    """

    cycle = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.samples: dict[str, list[np.ndarray]] = {}
        self.digests: list[dict] = []
        self.campaigns = 0
        self.failed_campaigns = 0

    def batch(self, index: int, tracer=None) -> Batch:
        result = self._campaign(index, tracer)
        self.campaigns += 1
        self.failed_campaigns += result.attempted - result.correct
        return result

    def _keep(self, index: int, samples: dict[str, np.ndarray], **key) -> None:
        for name, values in samples.items():
            self.samples.setdefault(name, []).append(np.asarray(values, dtype=np.float64))
        self.digests.append(
            {
                "seed": self.seed,
                "campaign": index,
                **key,
                "sha256": checks.digest(samples[k] for k in sorted(samples)),
            }
        )

    def summary(self) -> dict:
        ks = {}
        for name, (a, b) in self.laws.items():
            pooled = np.concatenate(self.samples.get(name, [np.zeros(0)]))
            if pooled.size == 0:
                ks[name] = {"samples": 0, "passed": False}
                continue
            ks[name] = checks.ks_test(pooled, lambda x, a=a, b=b: checks.integer_beta_cdf(a, b, x))
            ks[name]["law"] = f"Beta({a}, {b})"
        return {
            "pooled_ks": ks,
            "digests": self.digests,
            "inputs": {"attempted": self.campaigns, "failed": self.failed_campaigns},
            "failed_campaigns": self.failed_campaigns,
            "passed": self.failed_campaigns == 0 and all(r["passed"] for r in ks.values()),
        }


class SimulateN128(_Campaigns):
    """``crb-compress simulate`` at (128, 64, 2), cycling the three families."""

    name = "simulate-n128"
    cycle = len(FAMILIES)
    n, m, trials = 128, 64, 100

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.out = workdir / "simulate"
        model = sigmodel.UlaModel(sigmodel.two_source_half_rayleigh(self.n))
        p = model.jacobian(model.reference_theta).shape[1]
        self.laws = {"crb_ratio": (self.m - p + 1, self.n - self.m)}
        for family in FAMILIES:
            self._call(self._argv(family, 2, campaign_seed(seed, 0)))
        betalaw.beta_cdf(betalaw.BetaLaw(*map(float, self.laws["crb_ratio"])), 0.5)

    def _argv(self, family: str, trials: int, seed: int) -> list[str]:
        return [
            "simulate", "--n", str(self.n), "--m", str(self.m), "--family", family,
            "--stat", "crb_ratio", "--trials", str(trials), "--seed", str(seed), "--out", str(self.out),
        ]

    @staticmethod
    def _call(argv) -> int:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def _campaign(self, index: int, tracer=None) -> Batch:
        family = FAMILIES[index % len(FAMILIES)]
        argv = self._argv(family, self.trials, campaign_seed(self.seed, index))
        seconds, rc, error = _timed(tracer, self._call, argv)
        if error is not None or rc != 0:
            return Batch(seconds, 1, 0, error=repr(error) if error else f"exit code {rc}")
        with open(self.out / "summary.json", encoding="utf-8") as fh:
            excluded = json.load(fh)["excluded_trials"]
        with open(self.out / "samples.csv", encoding="utf-8", newline="") as fh:
            values = np.array([float(r["value"]) for r in csv.DictReader(fh) if r["statistic"] == "crb_ratio"])
        output_bytes = sum(f.stat().st_size for f in self.out.iterdir())
        ok = (
            excluded <= mcharness.MAX_EXCLUDED_FRACTION * self.trials
            and values.shape[0] == self.trials - excluded
            and checks.in_unit_interval(values, betalaw.SUPPORT_TOL)
        )
        self._keep(index, {"crb_ratio": values}, family=family)
        return Batch(seconds, 1, int(ok), self.trials if ok else 0, excluded, output_bytes,
                     None if ok else "campaign checks failed")


class McN32AllStats(_Campaigns):
    """``mcharness.run`` at (32, 16, 2), gaussian, all five statistics."""

    name = "mc-n32-allstats"
    # 600 trials make a campaign about as long as a simulate-n128 one
    # (~0.4 s), so a run has ~90 campaigns and its tail (ten beyond)
    # sits near p90, not in the host's second-long slow phases
    n, m, trials = 32, 16, 600
    theta_shift = (0.011, -0.017)

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed)
        self.model = sigmodel.UlaModel(sigmodel.two_source_half_rayleigh(self.n))
        p = self.model.jacobian(self.model.reference_theta).shape[1]
        self.theta_alt = self.model.reference_theta + np.array(self.theta_shift)
        self.laws = {"crb_ratio": (self.m - p + 1, self.n - self.m), "kl_ratio": (self.m, self.n - self.m)}
        mcharness.run(self._config(2, campaign_seed(seed, 0)))
        betalaw.beta_cdf(betalaw.BetaLaw(*map(float, self.laws["crb_ratio"])), 0.5)

    def _config(self, trials: int, seed: int) -> mcharness.ExperimentConfig:
        return mcharness.ExperimentConfig(
            compressor=randcomp.CompressorSpec(m=self.m, n=self.n, family="gaussian", seed=seed),
            trials=trials,
            model=self.model,
            statistics=mcharness.STATISTICS,
            theta_alt=self.theta_alt,
            seed=seed,
            threads=1,
        )

    def _campaign(self, index: int, tracer=None) -> Batch:
        config = self._config(self.trials, campaign_seed(self.seed, index))
        seconds, summary, error = _timed(tracer, mcharness.run, config)
        if error is not None:
            return Batch(seconds, 1, 0, error=repr(error))
        tol = betalaw.SUPPORT_TOL
        ok = (
            summary.trials == self.trials
            and summary.excluded_trials <= mcharness.MAX_EXCLUDED_FRACTION * self.trials
            and all(checks.in_unit_interval(summary.samples[k], tol) for k in ("crb_ratio", "kl_ratio", "w_eigenvalues"))
        )
        self._keep(index, summary.samples)
        return Batch(seconds, 1, int(ok), self.trials if ok else 0, summary.excluded_trials,
                     error=None if ok else "campaign checks failed")


# Correct answers per second of call time, by kind of operation.
RATE_NAMES = {"plan": "plan_queries_per_s", "quantile": "quantile_points_per_s", "cdf": "cdf_points_per_s"}


class LawsPlan:
    """Oracle-checked calls into ``planner`` and ``betalaw``, four rounds per batch.

    A round is every plan query, every quantile point and one sorted
    cdf array per law (every ``cdf_stride``-th point of the oracle
    pool), in an order the seed sets.  Every answer is compared with
    ``oracle_table.json``.  Each round repeats the same inputs, so the
    run counts inputs, not calls: an input fails if any call gets it
    wrong, and the failed count does not grow with the run's length.
    A failure ``known_failures.json`` lists is counted; any other is a
    new failure and makes the run incorrect.
    """

    name = "laws-plan"
    cycle = 1
    kinds = ("plan", "quantile", "cdf")
    # every other pool point: 128 points per law, so the cdf arrays take
    # about as long per round as the plan queries
    cdf_stride = 2
    # a round takes ~90 ms; four make a batch about as long as a campaign
    rounds_per_batch = 4

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed)
        table = checks.load_oracle()
        known = known_failures.load()
        self.known = {kind: {e["index"] for e in known[kind]} for kind in ("plan", "quantile")}
        self.known["cdf"] = [(set(e["raises"]), set(e["raises"]) | set(e["off"])) for e in known["cdf"]]
        self.plan = [(planner.PlanQuery(e["n"], e["p"], e["kappa"], e["confidence"]), e, checks.plan_label(e))
                     for e in table["plan"]]
        self.quantile = [(betalaw.BetaLaw(float(e["a"]), float(e["b"])), e["q"], e["x"], checks.quantile_label(e))
                         for e in table["quantile"]]
        self.cdf = []
        for e in table["cdf"]:
            idx = np.arange(0, len(e["x"]), self.cdf_stride)
            self.cdf.append((betalaw.BetaLaw(float(e["a"]), float(e["b"])), idx, np.array(e["x"])[idx],
                             np.array(e["F"])[idx], checks.law_label(e)))
        self.inputs = len(self.plan) + len(self.quantile) + sum(c[1].shape[0] for c in self.cdf)
        self.rounds = 0
        self.tally = {kind: KindTally() for kind in self.kinds}
        self.failed: set[tuple[str, str, int]] = set()  # (kind, label, index): inputs answered wrong
        self.failures: dict[str, int] = {}  # distinct failed inputs by label and cause
        self.new_failures: dict[str, int] = {}
        planner.min_measurements(self.plan[0][0])
        betalaw.beta_quantile(self.quantile[0][0], 0.5)
        betalaw.beta_cdf(self.cdf[0][0], self.cdf[0][2][:8])

    @staticmethod
    def _call(fn, *args):
        t0 = time.perf_counter()
        try:
            value, error = fn(*args), None
        except Exception as exc:  # classified by the caller: Infeasible may be the right answer
            value, error = None, exc
        return time.perf_counter() - t0, value, error

    def _count(self, kind: str, label: str, error, seconds: float, attempted: int, wrong, known) -> None:
        """Tally one call; ``wrong`` are the indices of the inputs it got wrong, ``known`` those listed as failing."""
        tally = self.tally[kind]
        tally.seconds += seconds
        tally.attempted += attempted
        tally.correct += attempted - len(wrong)
        fresh = [i for i in wrong if (kind, label, i) not in self.failed]
        if not fresh:
            return
        self.failed.update((kind, label, i) for i in fresh)
        key = f"{kind} {label}: {type(error).__name__ if error else 'off-oracle'}"
        self.failures[key] = self.failures.get(key, 0) + len(fresh)
        new = sum(1 for i in fresh if i not in known)
        if new:
            self.new_failures[key] = self.new_failures.get(key, 0) + new

    def _plan(self, i: int) -> float:
        query, expected, label = self.plan[i]
        seconds, value, error = self._call(planner.min_measurements, query)
        correct = checks.classify("plan", value, error, expected, Infeasible)
        self._count("plan", label, error, seconds, 1, [] if correct else [i], self.known["plan"])
        return seconds

    def _quantile(self, i: int) -> float:
        law, q, x, label = self.quantile[i]
        seconds, value, error = self._call(betalaw.beta_quantile, law, q)
        correct = checks.classify("quantile", value, error, x)
        self._count("quantile", label, error, seconds, 1, [] if correct else [i], self.known["quantile"])
        return seconds

    def _cdf(self, i: int) -> float:
        law, idx, xs, fs, label = self.cdf[i]
        raises, wrong = self.known["cdf"][i]
        seconds, value, error = self._call(betalaw.beta_cdf, law, xs)
        if error is not None:
            failed = idx.tolist()
            # the array raised before too if it holds a point known to raise
            known = set(failed) if raises.intersection(failed) else wrong
        else:
            failed = idx[~checks.cdf_correct(value, fs)].tolist()
            known = wrong
        self._count("cdf", label, error, seconds, idx.shape[0], failed, known)
        return seconds

    def _round(self) -> tuple[float, int, int]:
        before = {k: (t.attempted, t.correct) for k, t in self.tally.items()}
        seconds = 0.0
        for i in self.rng.permutation(len(self.plan)):
            seconds += self._plan(int(i))
        for i in self.rng.permutation(len(self.quantile)):
            seconds += self._quantile(int(i))
        for i in self.rng.permutation(len(self.cdf)):
            seconds += self._cdf(int(i))
        self.rounds += 1
        attempted = sum(t.attempted - before[k][0] for k, t in self.tally.items())
        correct = sum(t.correct - before[k][1] for k, t in self.tally.items())
        return seconds, attempted, correct

    def _rounds(self) -> tuple[float, int, int]:
        seconds, attempted, correct = zip(*(self._round() for _ in range(self.rounds_per_batch)))
        return sum(seconds), sum(attempted), sum(correct)

    def batch(self, index: int, tracer=None) -> Batch:
        if tracer is not None:
            seconds, attempted, correct = tracer.call("bench.batch", self._rounds)
        else:
            seconds, attempted, correct = self._rounds()
        return Batch(seconds, attempted, correct)

    def summary(self) -> dict:
        rates = {RATE_NAMES[kind]: (t.correct / t.seconds if t.seconds else 0.0) for kind, t in self.tally.items()}
        return {
            "tally": {k: vars(t) for k, t in self.tally.items()},
            "rates": rates,
            "inputs": {"attempted": self.inputs if self.rounds else 0, "failed": len(self.failed)},
            "failures": dict(sorted(self.failures.items())),
            "new_failures": dict(sorted(self.new_failures.items())),
            "passed": self.rounds > 0 and not self.new_failures,
        }


WORKLOADS = {w.name: w for w in (SimulateN128, McN32AllStats, LawsPlan)}
