"""Command line behavior: output schemas, exit codes, reproducibility."""

import csv
import json
import math

import numpy as np
import pytest

import crbcompress
from crbcompress import cli
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


def test_argparse_problems_exit_one(capsys):
    assert cli.main(["dist", "--nope"]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["dist", "--eval", "cdf", "--at", "0.5"]) == 1  # --law missing
    assert cli.main([]) == 1
    capsys.readouterr()


def test_version_and_help_exit_zero(capsys):
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"crb-compress {crbcompress.__version__}"
    assert cli.main(["--help"]) == 0
    capsys.readouterr()


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


def test_simulate_is_byte_reproducible(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    base = ["simulate", "--n", "16", "--m", "6", "--trials", "120", "--seed", "9"]
    assert cli.main(base + ["--out", str(out_a)]) == 0
    assert cli.main(base + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_simulate_threads_do_not_change_results(tmp_path, capsys):
    out_a = tmp_path / "serial"
    out_b = tmp_path / "threaded"
    base = ["simulate", "--n", "16", "--m", "6", "--trials", "120", "--seed", "9"]
    assert cli.main(base + ["--threads", "1", "--out", str(out_a)]) == 0
    assert cli.main(base + ["--threads", "4", "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "samples.csv").read_bytes() == (out_b / "samples.csv").read_bytes()


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
        "scenario": {
            "n": 16,
            "sources": [{"theta": 0.0}, {"theta": 0.196349540849362, "amplitude": 1.0}],
        },
        "compressor": {"m": 6, "family": "stiefel"},
        "trials": 80,
        "seed": 3,
        "histogram_bins": 10,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["simulate", "--config", str(cfg_path), "--trials", "90"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trials"] == 90  # flag beats file
    assert payload["m"] == 6
    assert payload["config"]["compressor"]["family"] == "stiefel"
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


def test_simulate_law_gate_exit_codes(capsys):
    # m = n needs the override flag; with it, the run must warn but pass
    args = ["simulate", "--n", "12", "--m", "12", "--family", "stiefel",
            "--trials", "30", "--seed", "2"]
    assert cli.main(args) == 1
    capsys.readouterr()
    with pytest.warns(UserWarning):
        assert cli.main(args + ["--allow-law-violation"]) == 0
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(payload["statistics"]["crb_ratio"]["mean"], 1.0, atol=1e-10)


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
