"""Self-tests of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They check that tracing does not change results, that every patch is
undone, that failures are classified against the oracle, that only
known failures leave a run correct, that the oracle table regenerates,
and that the benchmark refuses to run without the package.
"""

from __future__ import annotations

import io
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import known_failures  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from crbcompress import cli, errors, mcharness, planner, sigmodel  # noqa: E402


def _bindings() -> dict:
    """Every name bound in a crbcompress namespace, and UlaModel's methods."""
    out = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "crbcompress" or module_name.startswith("crbcompress."):
            for key, value in vars(module).items():
                out[(module_name, key)] = value
    for key, value in vars(sigmodel.UlaModel).items():
        out[("UlaModel", key)] = value
    return out


def _traced(fn, *args):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return fn(*args), tracer
    finally:
        tracer.restore()


def test_traced_campaign_gives_bit_identical_samples(tmp_path):
    workload = workloads.McN32AllStats(seed=3, workdir=tmp_path)
    plain = mcharness.run(workload._config(120, 17))
    # looked up after install, as the workloads do
    traced, tracer = _traced(lambda config: mcharness.run(config), workload._config(120, 17))
    assert plain.samples.keys() == traced.samples.keys()
    for name in plain.samples:
        assert plain.samples[name].tobytes() == traced.samples[name].tobytes()
    names = {s.name for s in tracer.finished()}
    assert {
        "mcharness.run", "fisher.compressed_fim", "fisher.compressed_kl", "randcomp.sample.gaussian",
        "randcomp.derive_stream", "mcharness.ks_one_sample", "betalaw.beta_cdf", "sigmodel.jacobian",
    } <= names


def test_traced_cli_campaign_writes_identical_files_and_linked_spans(tmp_path):
    def simulate(out):
        argv = ["simulate", "--n", "128", "--m", "64", "--family", "stiefel", "--trials", "20", "--seed", "5",
                "--out", str(out)]
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)

    assert simulate(tmp_path / "plain") == 0
    rc, tracer = _traced(simulate, tmp_path / "traced")
    assert rc == 0
    for name in ("samples.csv", "summary.json", "histogram_crb_ratio.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    spans = {s.id: s for s in tracer.finished()}
    (main,) = [s for s in spans.values() if s.name == "cli.main"]
    (run,) = [s for s in spans.values() if s.name == "mcharness.run"]
    samples = [s for s in spans.values() if s.name == "randcomp.sample.stiefel"]
    assert main.parent == -1 and run.parent == main.id
    assert len(samples) == 20 and all(s.parent == run.id for s in samples)
    assert tracing.self_times(list(spans.values()))[main.id] < main.seconds


def test_every_wrapper_is_restored():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # patched where the callers look the names up
        assert mcharness.sample is not before[("crbcompress.mcharness", "sample")]
        assert mcharness.derive_stream is not before[("crbcompress.mcharness", "derive_stream")]
        assert planner.confidence_at is not before[("crbcompress.planner", "confidence_at")]
        assert sigmodel.UlaModel.__dict__["jacobian"] is not before[("UlaModel", "jacobian")]
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_self_time_subtracts_child_intervals():
    span = tracing.Span
    spans = [
        span(0, -1, "a", 0, 100, 1, None),
        span(1, 0, "b", 10, 30, 1, None),
        span(2, 0, "c", 40, 90, 1, None),
        span(3, 2, "d", 50, 60, 1, None),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(30e-9)
    assert own[2] == pytest.approx(40e-9)
    assert own[3] == pytest.approx(10e-9)


def test_classifier_counts_oracle_confirmed_infeasible_as_correct():
    feasible = {"m": 93, "infeasible": False}
    infeasible = {"m": None, "infeasible": True}
    classify = checks.classify
    assert classify("plan", None, errors.Infeasible("no m"), infeasible, errors.Infeasible) == 1
    assert classify("plan", None, errors.Infeasible("no m"), feasible, errors.Infeasible) == 0
    assert classify("plan", None, errors.NoConvergence("gave up"), feasible, errors.Infeasible) == 0
    assert classify("plan", None, errors.NoConvergence("gave up"), infeasible, errors.Infeasible) == 0
    assert classify("plan", 93, None, feasible, errors.Infeasible) == 1
    assert classify("plan", 94, None, feasible, errors.Infeasible) == 0
    assert classify("plan", 93, None, infeasible, errors.Infeasible) == 0


def test_classifier_counts_noconvergence_and_off_oracle_points_as_failed():
    classify = checks.classify
    assert classify("quantile", 0.183925740426631, None, 0.183925740426631) == 1
    assert classify("quantile", 0.20123491735232454, None, 0.183925740426631) == 0
    assert classify("quantile", 0.183925740426631 * (1 + 1e-9), None, 0.183925740426631) == 0
    assert classify("quantile", None, errors.NoConvergence("gave up"), 0.5) == 0
    expected = np.array([0.1, 0.5, 0.9])
    assert classify("cdf", expected.copy(), None, expected) == 3
    assert classify("cdf", expected * np.array([1, 1 + 1e-8, 1]), None, expected) == 2
    assert classify("cdf", None, errors.NoConvergence("gave up"), expected) == 0


def test_only_known_failures_leave_a_laws_run_correct(tmp_path):
    workload = workloads.LawsPlan(seed=2, workdir=tmp_path)
    batch = workload.batch(0)
    summary = workload.summary()
    assert batch.correct < batch.attempted  # the known failures stay in the grid
    assert summary["passed"] and summary["new_failures"] == {}

    # the same answers, judged as if the package had answered all of them right before
    workload = workloads.LawsPlan(seed=2, workdir=tmp_path)
    workload.known = {"plan": set(), "quantile": set(), "cdf": [(set(), set())] * len(workload.cdf)}
    batch = workload.batch(0)
    summary = workload.summary()
    assert not summary["passed"]
    assert sum(summary["new_failures"].values()) == summary["inputs"]["failed"] > 0


def test_laws_failures_count_inputs_not_rounds(tmp_path):
    workload = workloads.LawsPlan(seed=5, workdir=tmp_path)
    workload.batch(0)
    once = dict(workload.summary()["inputs"])
    for index in range(1, 3):
        workload.batch(index)
    assert workload.summary()["inputs"] == once
    assert once["attempted"] == workload.inputs and 0 < once["failed"] < once["attempted"]
    # the seed orders the inputs; it does not choose them
    other = workloads.LawsPlan(seed=6, workdir=tmp_path)
    other.batch(0)
    assert other.summary()["inputs"] == once


def test_known_failures_name_oracle_inputs():
    table = checks.load_oracle()
    known = known_failures.load()
    for e in known["plan"]:
        assert checks.plan_label(table["plan"][e["index"]]) == e["label"]
    for e in known["quantile"]:
        assert checks.quantile_label(table["quantile"][e["index"]]) == e["label"]
    assert [checks.law_label(e) for e in table["cdf"]] == [e["label"] for e in known["cdf"]]
    # the list may only shrink: these are the failures of the commit that wrote it
    assert len(known["plan"]) <= 9 and len(known["quantile"]) <= 23
    limits = (0, 0, 0, 0, 118, 234)
    assert all(len(e["raises"]) + len(e["off"]) <= limit for e, limit in zip(known["cdf"], limits, strict=True))


def test_a_failing_campaign_makes_the_run_incorrect(tmp_path, monkeypatch):
    workload = workloads.McN32AllStats(seed=4, workdir=tmp_path)
    workload.trials = 60
    workload.batch(0)
    assert workload.summary()["failed_campaigns"] == 0
    monkeypatch.setattr(checks, "in_unit_interval", lambda values, tol: False)
    batch = workload.batch(1)
    assert batch.correct == 0
    summary = workload.summary()
    assert summary["failed_campaigns"] == 1 and not summary["passed"]


def test_exact_law_and_pooled_ks():
    rng = np.random.default_rng(0)
    draws = rng.beta(15, 16, size=5000)
    assert checks.ks_test(draws, lambda x: checks.integer_beta_cdf(15, 16, x))["passed"]
    assert not checks.ks_test(draws, lambda x: checks.integer_beta_cdf(16, 15, x))["passed"]
    scipy_special = pytest.importorskip("scipy.special")
    x = np.linspace(0.0, 1.0, 101)
    for a, b in ((15, 16), (63, 64), (16, 16)):
        np.testing.assert_allclose(checks.integer_beta_cdf(a, b, x), scipy_special.betainc(a, b, x),
                                   rtol=1e-11, atol=1e-15)


def test_oracle_table_regenerates():
    pytest.importorskip("scipy")
    pytest.importorskip("mpmath")
    import make_oracle

    assert make_oracle.dumps(make_oracle.build_table()) == checks.ORACLE_PATH.read_text(encoding="utf-8")


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "laws-plan", "--seed", "1", "--seconds", "1",
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
