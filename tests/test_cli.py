"""Command line behavior: output schemas, exit codes, reproducibility."""

import csv
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import crbcompress
from crbcompress import cli, errors, mcharness
from crbcompress.betalaw import BetaLaw, beta_cdf, beta_pdf
from crbcompress.mcharness import ExperimentConfig, run
from crbcompress.randcomp import CompressorSpec
from crbcompress.sigmodel import UlaModel, two_source_half_rayleigh


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_dist_pdf_round_trips_exactly(capsys):
    assert cli.main(["dist", "--law", "crb-ratio", "--n", "128", "--m", "64",
                     "--p", "2", "--eval", "pdf", "--at", "0.5"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == beta_pdf(BetaLaw(63.0, 64.0), 0.5)


def test_dist_quantile_then_cdf(capsys):
    assert cli.main(["dist", "--law", "kl-ratio", "--n", "32", "--m", "8",
                     "--eval", "quantile", "--at", "0.9"]) == 0
    x = float(capsys.readouterr().out.strip())
    assert cli.main(["dist", "--law", "kl-ratio", "--n", "32", "--m", "8",
                     "--eval", "cdf", "--at", repr(x)]) == 0
    q = float(capsys.readouterr().out.strip())
    assert abs(q - 0.9) < 1e-12


def test_dist_plain_beta_and_missing_parameters(capsys):
    assert cli.main(["dist", "--law", "beta", "--a", "2.0", "--b", "3.0",
                     "--eval", "cdf", "--at", "0.25"]) == 0
    out = float(capsys.readouterr().out.strip())
    assert out == beta_cdf(BetaLaw(2.0, 3.0), 0.25)
    assert cli.main(["dist", "--law", "beta", "--eval", "cdf", "--at", "0.25"]) == 1
    err = capsys.readouterr().err
    assert "error" in err
    assert cli.main(["dist", "--law", "crb-ratio", "--n", "128",
                     "--eval", "cdf", "--at", "0.25"]) == 1
    capsys.readouterr()


def test_plan_single_query(capsys):
    assert cli.main(["plan", "--n", "128", "--p", "2", "--kappa", "2.0",
                     "--confidence", "0.9"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["m"] == 72
    np.testing.assert_allclose(payload["ratio"], 72.0 / 128.0, rtol=1e-15)
    assert payload["confidence_achieved"] >= 0.9
    from crbcompress.planner import confidence_at

    np.testing.assert_allclose(
        payload["confidence_achieved"], confidence_at(128, 72, 2, 2.0), rtol=1e-15
    )


def test_plan_infeasible_reports_json_on_stderr(capsys):
    code = cli.main(["plan", "--n", "16", "--p", "2", "--kappa", "1.0001",
                     "--confidence", "0.999"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "Infeasible"
    assert 0.0 <= err["max_confidence"] < 0.999


def test_plan_table_mode(tmp_path, capsys):
    out = tmp_path / "plan"
    assert cli.main(["plan", "--n", "64", "--p", "2", "--kappas", "1.5,2.0,3.0",
                     "--confidences", "0.9,0.99", "--out", str(out)]) == 0
    rows = _read_csv(out / "plan.csv")
    assert rows[0] == ["kappa", "confidence", "m", "ratio"]
    assert len(rows) == 7
    assert (out / "manifest.json").exists()
    capsys.readouterr()
    # infeasible grid points become rows with empty m and ratio cells
    out2 = tmp_path / "plan2"
    assert cli.main(["plan", "--n", "16", "--p", "2", "--kappas", "1.0001,4.0",
                     "--confidences", "0.9999", "--out", str(out2)]) == 0
    rows2 = _read_csv(out2 / "plan.csv")
    assert rows2[1][2] == "" and rows2[1][3] == ""
    assert rows2[2][2] != ""
    capsys.readouterr()


_ERRORS = [cls for cls in vars(errors).values()
           if isinstance(cls, type) and issubclass(cls, errors.CrbCompressError)]


@pytest.mark.parametrize("cls", _ERRORS, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_taxonomy(capsys, monkeypatch, cls):
    # bad input (a ValueError) exits 1 with a plain message, any other package error 2 with JSON
    def fail(args, out, record):
        raise cls("boom")

    monkeypatch.setattr(cli, "_cmd_fisher", fail)
    code = cli.main(["fisher", "--n", "16"])
    err = capsys.readouterr().err
    if issubclass(cls, ValueError):
        assert code == 1 and err == "error: boom\n"
    else:
        assert code == 2 and json.loads(err) == {"error": cls.__name__, "message": "boom"}


def test_argparse_problems_exit_one(capsys):
    assert cli.main(["dist", "--nope"]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["dist", "--eval", "cdf", "--at", "0.5"]) == 1  # --law missing
    assert cli.main(["simulate", "--n", "16", "--m", "6", "--family", "spherical_rows"]) == 1
    assert cli.main([]) == 1
    capsys.readouterr()


def test_version_and_help_exit_zero(capsys):
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"crb-compress {crbcompress.__version__}"
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


def test_pyproject_takes_its_version_from_the_package():
    # one version string: the package metadata reads crbcompress.__version__
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "crbcompress.__version__"}


def test_fisher_stdout_and_files(tmp_path, capsys):
    assert cli.main(["fisher", "--n", "16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 16 and payload["p"] == 2
    assert len(payload["crb"]) == 2
    assert set(payload["fim"]) == {"re", "im"}
    model = UlaModel(two_source_half_rayleigh(16))
    from crbcompress.fisher import crb, fim

    info = fim(model.jacobian(model.reference_theta), 1.0)
    np.testing.assert_allclose(payload["crb"][0], crb(info, 0), rtol=1e-15)
    out = tmp_path / "fisher"
    assert cli.main(["fisher", "--n", "16", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "fisher.json").exists() and (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "fisher"
    assert manifest["outputs"] == ["fisher.json"]


def test_fisher_custom_sources(capsys):
    assert cli.main(["fisher", "--n", "12", "--theta", "0.2,-0.4,1.0",
                     "--amplitudes", "1.0,2.0,0.5", "--phases", "0,0.3,-0.3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == 3
    assert cli.main(["fisher", "--n", "12", "--theta", "0.2,0.4",
                     "--amplitudes", "1.0"]) == 1
    capsys.readouterr()


def test_simulate_writes_everything(tmp_path, capsys):
    out = tmp_path / "sim"
    args = ["simulate", "--n", "16", "--m", "6", "--trials", "150", "--seed", "5",
            "--out", str(out)]
    assert cli.main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 16 and payload["m"] == 6 and payload["p"] == 2
    assert payload["trials"] == 150 and payload["excluded_trials"] == 0
    assert payload["excluded_by_cause"] == {"SingularFim": 0, "RankDeficient": 0}
    stat = payload["statistics"]["crb_ratio"]
    assert set(stat) == {"mean", "variance", "ks"}
    assert stat["ks"]["pass"] in (True, False)
    for name in ("summary.json", "samples.csv", "histogram_crb_ratio.csv", "manifest.json"):
        assert (out / name).exists()
    rows = _read_csv(out / "samples.csv")
    assert rows[0] == ["trial", "statistic", "value"]
    assert len(rows) == 151
    # CSV floats round-trip to the exact binary samples of an API rerun
    config = ExperimentConfig(
        compressor=CompressorSpec(m=6, n=16, family="gaussian", seed=5),
        trials=150,
        model=UlaModel(two_source_half_rayleigh(16)),
        seed=5,
    )
    reference = run(config).samples["crb_ratio"]
    got = np.array([float(r[2]) for r in rows[1:]])
    np.testing.assert_array_equal(got, reference)
    hist_rows = _read_csv(out / "histogram_crb_ratio.csv")
    assert hist_rows[0] == ["bin_left", "bin_right", "count", "density"]
    assert sum(int(r[2]) for r in hist_rows[1:]) == 150


def test_simulate_reports_every_statistic_in_table_order(tmp_path, capsys):
    out = tmp_path / "all"
    args = ["simulate", "--n", "16", "--m", "6", "--trials", "40", "--seed", "5",
            "--theta-alt", "0.011,0.081", "--out", str(out)]
    for name in reversed(mcharness.STATISTICS):
        args += ["--stat", name]
    assert cli.main(args) == 0
    capsys.readouterr()
    statistics = json.loads((out / "summary.json").read_text())["statistics"]
    assert list(statistics) == list(mcharness.STATISTICS)
    assert all(set(entry) == {"mean", "variance", "ks"} for entry in statistics.values())
    # a histogram per sample statistic (rank 0 or 1), none for a matrix mean
    histograms = {path.name for path in out.glob("histogram_*.csv")}
    assert histograms == {f"histogram_{name}.csv" for name, stat in mcharness._TABLE.items() if stat.rank < 2}


def test_simulate_is_byte_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["simulate", "--n", "16", "--m", "6", "--trials", "120", "--seed", "9"]
    assert cli.main(base + ["--out", str(out_a)]) == 0
    assert cli.main(base + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_simulate_seed_from_environment(tmp_path, capsys, monkeypatch):
    out_env = tmp_path / "env"
    out_flag = tmp_path / "flag"
    monkeypatch.setenv("CRB_COMPRESS_SEED", "42")
    assert cli.main(["simulate", "--n", "16", "--m", "6", "--trials", "100",
                     "--out", str(out_env)]) == 0
    monkeypatch.delenv("CRB_COMPRESS_SEED")
    assert cli.main(["simulate", "--n", "16", "--m", "6", "--trials", "100",
                     "--seed", "42", "--out", str(out_flag)]) == 0
    capsys.readouterr()
    assert (out_env / "samples.csv").read_bytes() == (out_flag / "samples.csv").read_bytes()
    monkeypatch.setenv("CRB_COMPRESS_SEED", "not-an-int")
    assert cli.main(["simulate", "--n", "16", "--m", "6", "--trials", "100"]) == 1
    capsys.readouterr()


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    config = {
        "n": 16,
        "sources": [{"theta": 0.0}, {"theta": 0.196349540849362, "amplitude": 1.0}],
        "m": 6,
        "family": "stiefel",
        "trials": 80,
        "seed": 3,
        "histogram_bins": 10,
        "statistics": ["w_mean"],
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(cfg_path), "--trials", "90",
                     "--stat", "crb_ratio"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 90  # flag beats file
    assert payload["config"]["statistics"] == ["crb_ratio"]  # not appended to the file's list
    assert payload["m"] == 6
    assert payload["config"]["family"] == "stiefel"
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert cli.main(["simulate", "--config", str(bad)]) == 1
    capsys.readouterr()


def test_simulate_kl_statistic(tmp_path, capsys):
    out = tmp_path / "kl"
    assert cli.main(["simulate", "--n", "32", "--m", "8", "--trials", "150",
                     "--stat", "kl_ratio", "--theta-alt", "0.01,0.08",
                     "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    stat = payload["statistics"]["kl_ratio"]
    assert 0.0 < stat["mean"] < 1.0
    assert (out / "histogram_kl_ratio.csv").exists()
    # kl_ratio without a second parameter point is a config error
    assert cli.main(["simulate", "--n", "32", "--m", "8", "--trials", "100",
                     "--stat", "kl_ratio"]) == 1
    capsys.readouterr()


def test_simulate_missing_m_is_a_config_error(capsys):
    assert cli.main(["simulate", "--n", "16", "--trials", "50"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_simulate_law_gate_exit_codes(capsys):
    # m = n runs without a flag or a warning; no law covers it, so there is no KS verdict
    args = ["simulate", "--n", "12", "--m", "12", "--family", "stiefel",
            "--trials", "30", "--seed", "2"]
    assert cli.main(args + ["--allow-law-violation"]) == 1  # the flag is gone
    capsys.readouterr()
    assert cli.main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(payload["statistics"]["crb_ratio"]["mean"], 1.0, atol=1e-10)
    assert payload["statistics"]["crb_ratio"]["ks"] is None
    # m past n - p runs too, with a verdict from the crb_ratio law
    assert cli.main(["simulate", "--n", "16", "--m", "15", "--trials", "200", "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["statistics"]["crb_ratio"]["ks"] is not None


def test_fisher_and_plan_take_no_seed(tmp_path, capsys, monkeypatch):
    # they draw nothing, so a seed flag, key or bad environment value changes nothing
    monkeypatch.setenv("CRB_COMPRESS_SEED", "junk")
    for argv in (["fisher", "--n", "16"], ["plan", "--n", "16", "--kappa", "2.0", "--confidence", "0.9"]):
        out = tmp_path / argv[0]
        assert cli.main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "seed" not in manifest["config"] and manifest["seed"] is None
        assert cli.main(argv + ["--seed", "3"]) == 1
    assert cli.main(["simulate", "--n", "16", "--m", "6", "--trials", "10"]) == 1
    assert "CRB_COMPRESS_SEED" in capsys.readouterr().err


def test_ellipse_outputs(tmp_path, capsys):
    out = tmp_path / "ell"
    assert cli.main(["ellipse", "--n", "16", "--m", "6", "--draws", "8",
                     "--points", "32", "--seed", "4", "--out", str(out)]) == 0
    stdout = json.loads(capsys.readouterr().out)
    assert stdout["max_lambda_max"] <= 1.0 + 1e-9
    for name in ("ellipse.csv", "ellipse.svg", "ellipse_metrics.json", "manifest.json"):
        assert (out / name).exists()
    rows = _read_csv(out / "ellipse.csv")
    assert rows[0] == ["curve_id", "x", "y"]
    assert len(rows) == 1 + 9 * 32
    metrics = json.loads((out / "ellipse_metrics.json").read_text())
    assert len(metrics["lambda_max"]) == 8
    assert metrics["r2"] > 0.0
    svg = (out / "ellipse.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    # the loci and lambda_max are those of the real-parameter form
    assert "Re(J)" in metrics["form"] and "Re(J)" in svg


@pytest.mark.parametrize("draws", ["0", "-1"])
@pytest.mark.parametrize("command", [["ellipse"], ["figures", "--which", "fig2"],
                                     # a bad fig2 option leaves no fig1 or fig3 file behind
                                     ["figures", "--which", "all", "--trials", "100"]])
def test_draws_below_one_is_a_config_error(tmp_path, capsys, command, draws):
    out = tmp_path / "out"
    assert cli.main(command + ["--n", "16", "--m", "6", "--draws", draws, "--out", str(out)]) == 1
    assert "draws" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("which", ["fig3", "fig1"])
def test_figures_seed_out_of_range_writes_nothing(tmp_path, capsys, which, seed):
    # fig3 draws nothing, but the seed it would record must still be one fig1 can use
    out = tmp_path / "d"
    out.mkdir()
    assert cli.main(["figures", "--which", which, "--n", "16", "--m", "8", "--trials", "100",
                     "--seed", seed, "--out", str(out)]) == 1
    assert "seed" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_ellipse_needs_two_parameters(tmp_path, capsys):
    out = tmp_path / "ell1"
    assert cli.main(["ellipse", "--n", "16", "--m", "6", "--theta", "0.3",
                     "--out", str(out)]) == 1
    capsys.readouterr()


def test_figures_fig3(tmp_path, capsys):
    out = tmp_path / "figs3"
    assert cli.main(["figures", "--which", "fig3", "--n", "32", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = _read_csv(out / "fig3_plan.csv")
    assert rows[0] == ["kappa", "confidence", "m", "ratio"]
    assert len(rows) == 81
    assert (out / "fig3.svg").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "figures"
    assert "fig3_plan.csv" in manifest["outputs"]


def test_figures_fig1_small_campaign(tmp_path, capsys):
    out = tmp_path / "figs1"
    assert cli.main(["figures", "--which", "fig1", "--n", "16", "--m", "8",
                     "--trials", "200", "--bins", "20", "--seed", "6",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "fig1_summary.json").read_text())
    assert summary["statistics"]["crb_ratio"]["ks"] is not None
    pdf_rows = _read_csv(out / "fig1_pdf.csv")
    assert pdf_rows[0] == ["x", "pdf"]
    assert len(pdf_rows) == 513
    assert (out / "fig1.svg").exists()
    assert (out / "fig1_samples.csv").exists()
    assert (out / "fig1_histogram.csv").exists()


@pytest.mark.parametrize("which", ["fig1", "all"])
def test_figures_without_a_law_fail_before_the_campaign(tmp_path, capsys, monkeypatch, which):
    # at m = n there is no beta law to draw, so no trial may run first
    def no_campaign(config):
        raise AssertionError("the campaign ran")

    monkeypatch.setattr(cli.mcharness, "run", no_campaign)
    out = tmp_path / "f"
    assert cli.main(["figures", "--which", which, "--n", "16", "--m", "16", "--trials", "20000",
                     "--out", str(out)]) == 1
    assert "m < n" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", [["fisher"], ["simulate", "--m", "6", "--trials", "20"], ["ellipse", "--m", "6"]])
def test_too_few_sensors_is_a_config_error(tmp_path, capsys, command):
    # n = 0 used to end in a ZeroDivisionError traceback
    assert cli.main(command + ["--n", "0", "--out", str(tmp_path / "o")]) == 1
    assert "array needs an int n >= 2 sensors" in capsys.readouterr().err


def test_figures_fig2(tmp_path, capsys):
    out = tmp_path / "figs2"
    assert cli.main(["figures", "--which", "fig2", "--n", "16", "--m", "6",
                     "--draws", "5", "--points", "16", "--seed", "7",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    metrics = json.loads((out / "fig2_metrics.json").read_text())
    assert len(metrics["lambda_max"]) == 5
    assert metrics["max_lambda_max"] <= 1.0 + 1e-9
    assert (out / "fig2.csv").exists() and (out / "fig2.svg").exists()


def test_manifest_records_argv_and_seed(tmp_path, capsys):
    out = tmp_path / "man"
    args = ["simulate", "--n", "16", "--m", "6", "--trials", "100", "--seed", "8",
            "--out", str(out)]
    assert cli.main(args) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["argv"] == args
    assert manifest["seed"] == 8
    assert manifest["version"] == crbcompress.__version__
    assert sorted(manifest["outputs"]) == manifest["outputs"]
    assert manifest["duration_s"] > 0.0
    assert math.isfinite(manifest["duration_s"])


def test_manifest_records_the_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "env"
    assert cli.main(["fisher", "--n", "16", "--out", str(out)]) == 0
    capsys.readouterr()
    environment = json.loads((out / "manifest.json").read_text())["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert environment == {
        "numpy": np.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "nproc": os.cpu_count(),
        "env": {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None},
    }
    assert environment["blas"]["name"]


def _write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("nested", ["scenario", "compressor"])
def test_config_nested_objects_name_no_option(tmp_path, capsys, nested):
    # a file is flat: the old nested objects are not a second spelling of n, sources, m and family
    fields = {"scenario": {"n": 16}, "compressor": {"m": 6}}[nested]
    cfg = _write_config(tmp_path, {"n": 16, "m": 6, "trials": 50, "seed": 1, nested: fields})
    assert cli.main(["simulate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config key {nested!r} names no option a file can set\n"


def test_config_seed_beats_environment(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, {"seed": 5})
    monkeypatch.setenv("CRB_COMPRESS_SEED", "42")
    assert cli.main(["simulate", "--config", cfg, "--n", "16", "--m", "6",
                     "--trials", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5


def test_plan_table_reads_lists_from_config(tmp_path, capsys):
    by_flag = tmp_path / "flag"
    by_file = tmp_path / "file"
    assert cli.main(["plan", "--n", "64", "--p", "2", "--kappas", "1.5,2.0,3.0",
                     "--confidences", "0.9,0.99", "--out", str(by_flag)]) == 0
    cfg = _write_config(tmp_path, {"n": 64, "p": 2, "kappas": [1.5, 2.0, 3.0],
                                   "confidences": [0.9, 0.99]})
    assert cli.main(["plan", "--config", cfg, "--out", str(by_file)]) == 0
    capsys.readouterr()
    assert (by_file / "plan.csv").read_bytes() == (by_flag / "plan.csv").read_bytes()


def test_figures_reads_bins_from_config(tmp_path, capsys):
    out = tmp_path / "figs"
    cfg = _write_config(tmp_path, {"histogram_bins": 12})
    assert cli.main(["figures", "--config", cfg, "--which", "fig1", "--n", "16", "--m", "8",
                     "--trials", "100", "--seed", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(_read_csv(out / "fig1_histogram.csv")) == 13


def test_ellipse_reads_compressor_m_from_config(tmp_path, capsys):
    out = tmp_path / "ell"
    cfg = _write_config(tmp_path, {"m": 6})
    assert cli.main(["ellipse", "--config", cfg, "--n", "16", "--draws", "3",
                     "--points", "8", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["m"] == 6


def test_config_keys_that_name_no_option_are_errors(tmp_path, capsys):
    # a misspelled key used to run silently with the option's default
    cases = [
        ({"histogram_bin": 7, "m": 6, "n": 16, "trials": 20}, "histogram_bin"),
        ({"m": 6, "element_variance": 0.5, "n": 16, "trials": 20}, "element_variance"),
        ({"n": 16, "type": "ula", "m": 6, "trials": 20}, "type"),
    ]
    # the per-source lists have no key; a file gives sources
    cases += [({key: [0.1, 0.3], "n": 16, "m": 6, "trials": 20}, key)
              for key in ("theta", "amplitudes", "phases")]
    for cfg, key in cases:
        assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg)]) == 1
        assert key in capsys.readouterr().err
    # another subcommand's key is skipped, so one file serves simulate and figures
    cfg = _write_config(tmp_path, {"draws": 12, "histogram_bins": 7, "n": 16, "m": 6,
                                   "trials": 20, "seed": 1})
    assert cli.main(["simulate", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["histogram_bins"] == 7


def test_dist_options_are_no_config_keys(tmp_path, capsys):
    # dist reads no file, so its options are no keys a file can set
    cfg = _write_config(tmp_path, {"at": 0.5, "eval": "pdf", "n": 16, "m": 6, "trials": 20})
    assert cli.main(["simulate", "--config", cfg]) == 1
    assert "'at'" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, key", [
    ("simulate", {"trials": 20.7}, "trials"),
    ("simulate", {"m": 6.9}, "m"),
    ("simulate", {"crb_index": True}, "crb_index"),
    ("simulate", {"seed": 1.5}, "seed"),
    ("simulate", {"sigma2": [1]}, "sigma2"),
    ("simulate", {"sigma2": None}, "sigma2"),
    ("simulate", {"family": "spherical_rows"}, "family"),
    ("simulate", {"statistics": "crb_ratio"}, "statistics"),
    ("simulate", {"statistics": ["crb_ratio", "nope"]}, "statistics"),
    ("simulate", {"theta_alt": "0.01,0.08"}, "theta_alt"),
    ("simulate", {"allow_law_violation": 1}, "allow_law_violation"),
    ("simulate", {"sources": {"theta": 0.1}}, "sources"),
    ("simulate", {"sources": [0.1]}, "sources"),
    ("simulate", {"sources": [{"theta": 0.1, "amp": 2.0}]}, "amp"),
    ("simulate", {"sources": [{"theta": "abc"}]}, "theta"),
    ("fisher", {"sources": [{"theta": 0.1, "phase": True}]}, "phase"),
    ("plan", {"kappas": "1.5,2.0"}, "kappas"),
    ("plan", {"confidences": None}, "confidences"),
    # figures --bins is stored as histogram_bins, so bins names no option
    ("figures", {"bins": 12}, "bins"),
    ("figures", {"histogram_bins": False}, "histogram_bins"),
    # a number is a JSON number, not the flag's text
    ("simulate", {"trials": "30"}, "trials"),
    ("plan", {"kappa": "2.0"}, "kappa"),
])
def test_config_values_get_the_checks_a_flag_gets(tmp_path, capsys, command, cfg, key):
    path = _write_config(tmp_path, {"n": 16, "m": 6, "trials": 120, "kappa": 2.0, "confidence": 0.9,
                                    **cfg})
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert repr(key) in captured.err


_ROUND_TRIPS = {
    "fisher": ["fisher", "--n", "12", "--theta", "0.2,-0.4,1.0", "--amplitudes", "1.0,2.0,0.5",
               "--phases", "0,0.3,-0.3"],
    "simulate": ["simulate", "--n", "16", "--m", "6", "--family", "stiefel", "--trials", "120",
                 "--stat", "crb_ratio", "--stat", "kl_ratio", "--theta-alt", "0.01,0.08",
                 "--sigma2", "0.7", "--seed", "5"],
    "plan": ["plan", "--n", "128", "--kappa", "2.0", "--confidence", "0.9"],
    "plan-table": ["plan", "--n", "64", "--kappas", "1.5,2.0,3.0", "--confidences", "0.9,0.99"],
    "ellipse": ["ellipse", "--n", "16", "--m", "6", "--family", "stiefel", "--sigma2", "2.5",
                "--draws", "4", "--points", "16", "--seed", "4"],
    "fig1": ["figures", "--which", "fig1", "--n", "16", "--m", "8", "--trials", "120",
             "--bins", "12", "--seed", "6"],
    "fig2": ["figures", "--which", "fig2", "--n", "16", "--m", "6", "--draws", "4",
             "--points", "16", "--seed", "7"],
}


@pytest.mark.parametrize("argv", _ROUND_TRIPS.values(), ids=_ROUND_TRIPS)
def test_manifest_config_reruns_the_command(tmp_path, capsys, argv):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(argv + ["--out", str(first)]) == 0
    printed = capsys.readouterr().out
    config = json.loads((first / "manifest.json").read_text())["config"]
    which = argv[argv.index("--which"):][:2] if "--which" in argv else []
    assert cli.main([argv[0], "--config", _write_config(tmp_path, config), *which,
                     "--out", str(second)]) == 0
    if str(first) not in printed:  # what names no output directory prints the same
        assert capsys.readouterr().out == printed
    assert json.loads((second / "manifest.json").read_text())["config"] == config
    # the record is flat: one key per option of the subcommand
    _, subparsers = cli._build_parser()
    assert list(config) == list(cli._options(subparsers[argv[0]]))
    outputs = sorted(path.name for path in first.iterdir())
    assert outputs == sorted(path.name for path in second.iterdir())
    for name in outputs:
        if name != "manifest.json":
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_readme_config_table_lists_every_option():
    # the README's table of config keys, one row per subcommand that reads a file
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in text.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            keys = re.findall(r"`([^`]+)`", cells[2])
            rows[cells[1].strip().strip("`")] = {k for k in keys if not k.startswith("--")}
    _, subparsers = cli._build_parser()
    expected = {name: set(cli._options(sub)) for name, sub in subparsers.items()
                if any(action.dest == "config" for action in sub._actions)}
    assert rows == expected
