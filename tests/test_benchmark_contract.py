"""The names and keywords the benchmark in perfbench/ uses from the package.

A change that removes or renames one of them fails here, not only when
the benchmark runs.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from crbcompress import cli, mcharness
from crbcompress.mcharness import STATISTICS, ExperimentConfig
from crbcompress.randcomp import FAMILIES, CompressorSpec
from crbcompress.sigmodel import UlaModel, two_source_half_rayleigh

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its slotted dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_restores():
    tracing = _load_tracing()
    original = mcharness.run
    tracer = tracing.Tracer()
    tracer.install()  # looks up every traced name, so a missing one raises
    try:
        assert mcharness.run is not original
    finally:
        tracer.restore()
    assert mcharness.run is original


def test_allstats_workload_config_runs():
    # the keywords of the mc-n32-allstats workload
    model = UlaModel(two_source_half_rayleigh(32))
    seed = 3 * 1_000_003
    config = ExperimentConfig(
        compressor=CompressorSpec(m=16, n=32, family="gaussian", seed=seed),
        trials=2,
        model=model,
        statistics=STATISTICS,
        theta_alt=model.reference_theta + np.array((0.011, -0.017)),
        seed=seed,
        threads=1,
    )
    summary = mcharness.run(config)
    assert summary.trials == 2 and set(summary.samples) == {"crb_ratio", "kl_ratio", "w_eigenvalues"}


def test_simulate_workload_argv_runs(tmp_path):
    # the command line of the simulate-n128 workload
    for family in FAMILIES:
        argv = ["simulate", "--n", "128", "--m", "64", "--family", family, "--stat", "crb_ratio",
                "--trials", "2", "--seed", "3000009", "--out", str(tmp_path)]
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert (tmp_path / "samples.csv").is_file()
