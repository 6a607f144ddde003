"""Command line front end.

Subcommands:

* ``fisher``: information matrix and per-parameter CRBs for a line
  array scenario.
* ``simulate``: Monte Carlo campaign; writes a summary JSON plus
  samples and histogram CSVs.
* ``dist``: evaluate pdf, cdf, or quantile of the implemented scalar
  laws.
* ``plan``: minimum measurement count for a target CRB inflation, as a
  single query or a CSV table.
* ``ellipse``: concentration-ellipse loci before and after compression.
* ``figures``: one-shot reproduction of the three standard
  demonstration figures (ratio histogram, ellipse fan, planning
  curves).

Exit codes: 0 on success, 1 on configuration or usage errors, 2 on
numerical failures (reported as a JSON object on stderr).

Options may also be supplied through a JSON config file (``--config``);
explicit flags win over file values.  When ``--seed`` is absent the
environment variable CRB_COMPRESS_SEED is consulted before falling
back to 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, betalaw, fisher, mcharness, planner, svgfig
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
from .randcomp import FAMILIES, CompressorSpec, derive_stream, sample
from .sigmodel import Source, UlaModel, UlaScenario, two_source_half_rayleigh

_CONFIG_ERRORS = (BadSpec, BadShape, DomainError, TooFewSamples)
_NUMERICAL_ERRORS = (
    SingularFim,
    SingularMatrix,
    RankDeficient,
    NotPositiveDefinite,
    NoConvergence,
    Infeasible,
)


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise BadSpec(f"could not parse float list {text!r}: {exc}") from exc


def _default_seed() -> int:
    env = os.environ.get("CRB_COMPRESS_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise BadSpec(f"CRB_COMPRESS_SEED must be an integer, got {env!r}") from exc


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise BadSpec(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadSpec(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise BadSpec(f"config file {path} must hold a JSON object")
    return cfg


def _pick(flag, cfg: dict, key: str, default):
    if flag is not None:
        return flag
    if key in cfg:
        return cfg[key]
    return default


def _resolve_seed(args, cfg: dict) -> int:
    seed = _pick(getattr(args, "seed", None), cfg, "seed", None)
    if seed is None:
        return _default_seed()
    if not isinstance(seed, int):
        raise BadSpec(f"seed must be an integer, got {seed!r}")
    return seed


def _resolve_scenario(args, cfg: dict) -> UlaScenario:
    scen_cfg = cfg.get("scenario", {})
    if not isinstance(scen_cfg, dict):
        raise BadSpec("config key 'scenario' must be an object")
    n = _pick(getattr(args, "n", None), scen_cfg, "n", cfg.get("n", 128))
    if not isinstance(n, int):
        raise BadSpec(f"n must be an integer, got {n!r}")
    theta_flag = getattr(args, "theta", None)
    thetas = _floats(theta_flag) if theta_flag is not None else None
    amplitudes = phases = None
    amp_flag = getattr(args, "amplitudes", None)
    if amp_flag is not None:
        amplitudes = _floats(amp_flag)
    phase_flag = getattr(args, "phases", None)
    if phase_flag is not None:
        phases = _floats(phase_flag)
    if thetas is None and "sources" in scen_cfg:
        sources = []
        for entry in scen_cfg["sources"]:
            if not isinstance(entry, dict) or "theta" not in entry:
                raise BadSpec("each scenario source must be an object with a 'theta' key")
            sources.append(
                Source(
                    theta=float(entry["theta"]),
                    amplitude=float(entry.get("amplitude", 1.0)),
                    phase=float(entry.get("phase", 0.0)),
                )
            )
        return UlaScenario(n=n, sources=tuple(sources))
    if thetas is None:
        return two_source_half_rayleigh(n)
    amplitudes = amplitudes if amplitudes is not None else [1.0] * len(thetas)
    phases = phases if phases is not None else [0.0] * len(thetas)
    if len(amplitudes) != len(thetas) or len(phases) != len(thetas):
        raise BadSpec("theta, amplitudes, and phases must have matching lengths")
    sources = tuple(
        Source(theta=t, amplitude=a, phase=ph) for t, a, ph in zip(thetas, amplitudes, phases)
    )
    return UlaScenario(n=n, sources=sources)


def _scenario_dict(scenario: UlaScenario) -> dict:
    return {
        "type": "ula",
        "n": scenario.n,
        "sources": [
            {"theta": s.theta, "amplitude": s.amplitude, "phase": s.phase}
            for s in scenario.sources
        ],
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, indent=2)
        fh.write("\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row])


def _write_manifest(outdir: Path, command: str, argv, config: dict, seed: int, outputs, t0: float) -> None:
    manifest = {
        "command": command,
        "argv": list(argv),
        "config": config,
        "seed": seed,
        "version": __version__,
        "outputs": sorted(str(p) for p in outputs),
        "duration_s": time.perf_counter() - t0,
    }
    _write_json(outdir / "manifest.json", manifest)


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ks_dict(ks: mcharness.KsResult | None):
    if ks is None:
        return None
    return {
        "statistic": ks.statistic,
        "critical": ks.critical,
        "alpha": ks.alpha,
        "pass": ks.passed,
    }


def _summary_payload(summary: mcharness.ExperimentSummary, config_dict: dict) -> dict:
    stats = {}
    for name, s in summary.stats.items():
        stats[name] = {"mean": s.mean, "variance": s.variance, "ks": _ks_dict(s.ks)}
    if summary.w_mean is not None:
        stats["w_mean"] = {"mean": summary.w_mean, "variance": None, "ks": None}
    if summary.fim_mean is not None:
        stats["fim_mean"] = {"mean": summary.fim_mean, "variance": None, "ks": None}
    return {
        "config": config_dict,
        "n": summary.n,
        "m": summary.m,
        "p": summary.p,
        "trials": summary.trials,
        "excluded_trials": summary.excluded_trials,
        "excluded_by_cause": summary.excluded_by_cause,
        "statistics": stats,
    }


def _samples_rows(summary: mcharness.ExperimentSummary):
    for name in sorted(summary.samples):
        values = summary.samples[name]
        if values.ndim == 1:
            for t, v in zip(summary.trial_index, values):
                yield (int(t), name, float(v))
        else:
            for t, row in zip(summary.trial_index, values):
                for v in row:
                    yield (int(t), name, float(v))


def _histogram_rows(hist: mcharness.Histogram):
    density = hist.density
    for left, right, count, dens in zip(hist.edges[:-1], hist.edges[1:], hist.counts, density):
        yield (float(left), float(right), int(count), float(dens))


# ---------------------------------------------------------------- fisher


def _cmd_fisher(args, argv) -> int:
    t0 = time.perf_counter()
    cfg = _load_config(args.config)
    scenario = _resolve_scenario(args, cfg)
    sigma2 = float(_pick(args.sigma2, cfg, "sigma2", 1.0))
    model = UlaModel(scenario)
    info = fisher.fim(model.jacobian(model.reference_theta), sigma2)
    bounds = [fisher.crb(info, i) for i in range(info.p)]
    payload = {
        "n": info.n,
        "p": info.p,
        "sigma2": sigma2,
        "scenario": _scenario_dict(scenario),
        "crb": bounds,
        "fim": info.J,
    }
    print(json.dumps(_jsonable(payload)))
    if args.out is not None:
        out = _outdir(args.out)
        _write_json(out / "fisher.json", payload)
        _write_manifest(
            out, "fisher", argv, {"scenario": _scenario_dict(scenario), "sigma2": sigma2},
            _resolve_seed(args, cfg), ["fisher.json"], t0,
        )
    return 0


# ---------------------------------------------------------------- simulate


def _simulate_config(args, cfg: dict):
    scenario = _resolve_scenario(args, cfg)
    comp_cfg = cfg.get("compressor", {})
    if not isinstance(comp_cfg, dict):
        raise BadSpec("config key 'compressor' must be an object")
    m = _pick(args.m, comp_cfg, "m", cfg.get("m"))
    if m is None:
        raise BadSpec("the compressed dimension m is required (flag --m or config key)")
    family = _pick(args.family, comp_cfg, "family", cfg.get("family", "gaussian"))
    element_variance = float(
        _pick(args.element_variance, comp_cfg, "element_variance", cfg.get("element_variance", 1.0))
    )
    seed = _resolve_seed(args, cfg)
    trials = _pick(args.trials, cfg, "trials", 10000)
    stats = tuple(args.stat) if args.stat else tuple(cfg.get("statistics", ("crb_ratio",)))
    theta_alt = None
    if args.theta_alt is not None:
        theta_alt = _floats(args.theta_alt)
    elif "theta_alt" in cfg:
        theta_alt = [float(v) for v in cfg["theta_alt"]]
    spec = CompressorSpec(
        m=int(m), n=scenario.n, family=str(family), element_variance=element_variance, seed=seed
    )
    config = mcharness.ExperimentConfig(
        compressor=spec,
        trials=int(trials),
        model=UlaModel(scenario),
        sigma2=float(_pick(args.sigma2, cfg, "sigma2", 1.0)),
        statistics=stats,
        crb_index=int(_pick(args.crb_index, cfg, "crb_index", 0)),
        theta_alt=np.asarray(theta_alt, dtype=np.float64) if theta_alt is not None else None,
        seed=seed,
        histogram_bins=int(_pick(args.bins, cfg, "histogram_bins", 50)),
        ks_alpha=float(_pick(args.alpha, cfg, "ks_alpha", 0.01)),
        allow_law_violation=bool(
            _pick(args.allow_law_violation or None, cfg, "allow_law_violation", False)
        ),
        threads=int(_pick(args.threads, cfg, "threads", 1)),
    )
    config_dict = {
        "scenario": _scenario_dict(scenario),
        "sigma2": config.sigma2,
        "compressor": {
            "m": spec.m,
            "n": spec.n,
            "family": spec.family,
            "element_variance": spec.element_variance,
            "seed": spec.seed,
        },
        "trials": config.trials,
        "statistics": list(config.statistics),
        "crb_index": config.crb_index,
        "theta_alt": theta_alt,
        "seed": seed,
        "histogram_bins": config.histogram_bins,
        "ks_alpha": config.ks_alpha,
        "allow_law_violation": config.allow_law_violation,
        "threads": config.threads,
    }
    return config, config_dict, seed


def _cmd_simulate(args, argv) -> int:
    t0 = time.perf_counter()
    cfg = _load_config(args.config)
    config, config_dict, seed = _simulate_config(args, cfg)
    summary = mcharness.run(config)
    payload = _summary_payload(summary, config_dict)
    print(json.dumps(_jsonable(payload)))
    if args.out is not None:
        out = _outdir(args.out)
        outputs = ["summary.json", "samples.csv"]
        _write_json(out / "summary.json", payload)
        _write_csv(out / "samples.csv", ["trial", "statistic", "value"], _samples_rows(summary))
        for name in sorted(summary.histograms):
            fname = f"histogram_{name}.csv"
            _write_csv(
                out / fname,
                ["bin_left", "bin_right", "count", "density"],
                _histogram_rows(summary.histograms[name]),
            )
            outputs.append(fname)
        _write_manifest(out, "simulate", argv, config_dict, seed, outputs, t0)
    return 0


# ---------------------------------------------------------------- dist


def _dist_law(args) -> betalaw.BetaLaw:
    if args.law == "crb-ratio":
        if args.n is None or args.m is None or args.p is None:
            raise BadSpec("law crb-ratio needs --n, --m, and --p")
        return betalaw.crb_ratio_law(args.n, args.m, args.p)
    if args.law == "kl-ratio":
        if args.n is None or args.m is None:
            raise BadSpec("law kl-ratio needs --n and --m")
        return betalaw.kl_ratio_law(args.n, args.m)
    if args.a is None or args.b is None:
        raise BadSpec("law beta needs --a and --b")
    return betalaw.BetaLaw(args.a, args.b)


def _cmd_dist(args, argv) -> int:
    law = _dist_law(args)
    if args.eval == "pdf":
        value = betalaw.beta_pdf(law, args.at)
    elif args.eval == "cdf":
        value = betalaw.beta_cdf(law, args.at)
    else:
        value = betalaw.beta_quantile(law, args.at)
    print(repr(float(value)))
    return 0


# ---------------------------------------------------------------- plan


def _cmd_plan(args, argv) -> int:
    t0 = time.perf_counter()
    cfg = _load_config(args.config)
    n = _pick(args.n, cfg, "n", 128)
    p = _pick(args.p, cfg, "p", 2)
    kappas_flag = _pick(args.kappas, cfg, "kappas", None)
    if kappas_flag is not None:
        kappas = _floats(kappas_flag) if isinstance(kappas_flag, str) else [float(v) for v in kappas_flag]
        conf_flag = _pick(args.confidences, cfg, "confidences", None)
        if conf_flag is None:
            confidences = list(planner.DEFAULT_CONFIDENCES)
        elif isinstance(conf_flag, str):
            confidences = _floats(conf_flag)
        else:
            confidences = [float(v) for v in conf_flag]
        rows = planner.curve(n, p, kappas, confidences)
        table = [(r.kappa, r.confidence, r.m, r.ratio) for r in rows]
        if args.out is None:
            raise BadSpec("table mode needs --out for the CSV")
        out = _outdir(args.out)
        _write_csv(out / "plan.csv", ["kappa", "confidence", "m", "ratio"], table)
        _write_manifest(
            out, "plan", argv,
            {"n": n, "p": p, "kappas": kappas, "confidences": confidences},
            _resolve_seed(args, cfg), ["plan.csv"], t0,
        )
        print(json.dumps({"rows": len(table), "out": str(out / "plan.csv")}))
        return 0
    kappa = _pick(args.kappa, cfg, "kappa", None)
    confidence = _pick(args.confidence, cfg, "confidence", None)
    if kappa is None or confidence is None:
        raise BadSpec("single query mode needs --kappa and --confidence")
    query = planner.PlanQuery(n=int(n), p=int(p), kappa=float(kappa), confidence=float(confidence))
    m = planner.min_measurements(query)
    payload = {
        "n": query.n,
        "p": query.p,
        "kappa": query.kappa,
        "confidence": query.confidence,
        "m": m,
        "ratio": m / query.n,
        "confidence_achieved": planner.confidence_at(query.n, m, query.p, query.kappa),
    }
    print(json.dumps(_jsonable(payload)))
    return 0


# ---------------------------------------------------------------- ellipse


def _ellipse_curves(scenario: UlaScenario, sigma2: float, spec: CompressorSpec,
                    draws: int, r2: float | None, points: int, seed: int):
    model = UlaModel(scenario)
    if model.p != 2:
        raise BadSpec(f"ellipse loci need a two-parameter scenario, got p={model.p}")
    G = model.jacobian(model.reference_theta)
    info = fisher.fim(G, sigma2)
    level = float(np.real(info.J[0, 0])) if r2 is None else float(r2)
    curves = [(0, planner.ellipse_locus(info.J, level, points))]
    lam_max = []
    a_before = np.real(info.J)
    a_before = 0.5 * (a_before + a_before.T)
    L = np.linalg.cholesky(a_before)
    for d in range(draws):
        rng = derive_stream(seed, d)
        phi = sample(spec, rng)
        after = fisher.compressed_fim(G, phi, sigma2)
        curves.append((d + 1, planner.ellipse_locus(after.J, level, points)))
        a_after = np.real(after.J)
        a_after = 0.5 * (a_after + a_after.T)
        white = np.linalg.solve(L, np.linalg.solve(L, a_after.T).T)
        lam_max.append(float(np.linalg.eigvalsh(0.5 * (white + white.T))[-1]))
    return info, level, curves, lam_max


def _write_ellipse_outputs(out: Path, prefix: str, level: float, curves, lam_max):
    rows = []
    for curve_id, locus in curves:
        for x, y in locus:
            rows.append((curve_id, float(x), float(y)))
    csv_name = f"{prefix}.csv"
    _write_csv(out / csv_name, ["curve_id", "x", "y"], rows)
    all_pts = np.vstack([locus for _, locus in curves])
    span = 1.1 * float(np.max(np.abs(all_pts)))
    canvas = svgfig.SvgCanvas(
        xlim=(-span, span), ylim=(-span, span), width=560, height=560,
        title="CRB concentration ellipses", xlabel="e1", ylabel="e2",
    )
    for curve_id, locus in curves[1:]:
        canvas.polyline(locus[:, 0], locus[:, 1], color="#b0c8e0", width=0.8, close=True)
    canvas.polyline(curves[0][1][:, 0], curves[0][1][:, 1], color="#d62728", width=2.0, close=True)
    canvas.legend([("uncompressed", "#d62728"), ("compressed draws", "#b0c8e0")])
    svg_name = f"{prefix}.svg"
    canvas.write(out / svg_name)
    metrics_name = f"{prefix}_metrics.json"
    _write_json(
        out / metrics_name,
        {
            "r2": level,
            "draws": len(lam_max),
            "lambda_max": lam_max,
            "max_lambda_max": max(lam_max) if lam_max else None,
        },
    )
    return [csv_name, svg_name, metrics_name]


def _cmd_ellipse(args, argv) -> int:
    t0 = time.perf_counter()
    cfg = _load_config(args.config)
    scenario = _resolve_scenario(args, cfg)
    sigma2 = float(_pick(args.sigma2, cfg, "sigma2", 1.0))
    seed = _resolve_seed(args, cfg)
    m = _pick(args.m, cfg, "m", None)
    if m is None:
        raise BadSpec("the compressed dimension m is required (flag --m or config key)")
    family = str(_pick(args.family, cfg, "family", "gaussian"))
    element_variance = float(_pick(args.element_variance, cfg, "element_variance", 1.0 / int(m)))
    spec = CompressorSpec(
        m=int(m), n=scenario.n, family=family, element_variance=element_variance, seed=seed
    )
    r2 = _pick(args.r2, cfg, "r2", None)
    info, level, curves, lam_max = _ellipse_curves(
        scenario, sigma2, spec, int(_pick(args.draws, cfg, "draws", 100)),
        r2, int(_pick(args.points, cfg, "points", 256)), seed,
    )
    out = _outdir(args.out)
    outputs = _write_ellipse_outputs(out, "ellipse", level, curves, lam_max)
    config_dict = {
        "scenario": _scenario_dict(scenario),
        "sigma2": sigma2,
        "compressor": {
            "m": spec.m, "n": spec.n, "family": spec.family,
            "element_variance": spec.element_variance, "seed": spec.seed,
        },
        "draws": len(lam_max),
        "r2": level,
    }
    _write_manifest(out, "ellipse", argv, config_dict, seed, outputs, t0)
    print(json.dumps({"out": str(out), "max_lambda_max": max(lam_max) if lam_max else None}))
    return 0


# ---------------------------------------------------------------- figures


def _fig1(out: Path, n: int, m: int, trials: int, bins: int, seed: int) -> list[str]:
    scenario = two_source_half_rayleigh(n)
    spec = CompressorSpec(m=m, n=n, family="gaussian", element_variance=1.0 / m, seed=seed)
    config = mcharness.ExperimentConfig(
        compressor=spec,
        trials=trials,
        model=UlaModel(scenario),
        statistics=("crb_ratio",),
        seed=seed,
        histogram_bins=bins,
    )
    summary = mcharness.run(config)
    config_dict = {
        "scenario": _scenario_dict(scenario),
        "compressor": {
            "m": m, "n": n, "family": "gaussian",
            "element_variance": 1.0 / m, "seed": seed,
        },
        "trials": trials,
        "statistics": ["crb_ratio"],
        "histogram_bins": bins,
    }
    _write_json(out / "fig1_summary.json", _summary_payload(summary, config_dict))
    _write_csv(out / "fig1_samples.csv", ["trial", "statistic", "value"], _samples_rows(summary))
    hist = summary.histograms["crb_ratio"]
    _write_csv(
        out / "fig1_histogram.csv",
        ["bin_left", "bin_right", "count", "density"],
        _histogram_rows(hist),
    )
    law = betalaw.crb_ratio_law(n, m, summary.p)
    lo, hi = float(hist.edges[0]), float(hist.edges[-1])
    xs = np.linspace(lo, hi, 512)
    pdf = betalaw.beta_pdf(law, np.clip(xs, 0.0, 1.0))
    _write_csv(out / "fig1_pdf.csv", ["x", "pdf"], zip(xs.tolist(), np.asarray(pdf).tolist()))
    top = 1.1 * max(float(np.max(hist.density)), float(np.max(pdf)))
    canvas = svgfig.SvgCanvas(
        xlim=(lo, hi), ylim=(0.0, top),
        title="CRB ratio under random compression",
        xlabel="CRB before / CRB after", ylabel="density",
    )
    canvas.bars(hist.edges, hist.density)
    canvas.polyline(xs, np.asarray(pdf), color="#d62728", width=2.0)
    canvas.legend([
        (f"Monte Carlo ({trials} trials)", "#9ecae1"),
        (f"Beta({int(law.a)}, {int(law.b)})", "#d62728"),
    ])
    canvas.write(out / "fig1.svg")
    return ["fig1_summary.json", "fig1_samples.csv", "fig1_histogram.csv", "fig1_pdf.csv", "fig1.svg"]


def _fig2(out: Path, n: int, m: int, draws: int, points: int, seed: int) -> list[str]:
    scenario = two_source_half_rayleigh(n)
    spec = CompressorSpec(m=m, n=n, family="gaussian", element_variance=1.0 / m, seed=seed)
    _, level, curves, lam_max = _ellipse_curves(scenario, 1.0, spec, draws, None, points, seed)
    return _write_ellipse_outputs(out, "fig2", level, curves, lam_max)


def _fig3(out: Path, n: int, p: int) -> list[str]:
    kappas = np.linspace(1.1, 5.0, 40).tolist()
    confidences = list(planner.DEFAULT_CONFIDENCES)
    rows = planner.curve(n, p, kappas, confidences)
    _write_csv(
        out / "fig3_plan.csv",
        ["kappa", "confidence", "m", "ratio"],
        [(r.kappa, r.confidence, r.m, r.ratio) for r in rows],
    )
    feasible = [r for r in rows if r.feasible]
    ratios = [r.ratio for r in feasible]
    canvas = svgfig.SvgCanvas(
        xlim=(min(kappas), max(kappas)),
        ylim=(0.0, 1.05 * max(ratios)) if ratios else (0.0, 1.0),
        title="Compression needed for a target CRB inflation",
        xlabel="allowed inflation factor", ylabel="m / n",
    )
    legend = []
    for idx, confidence in enumerate(confidences):
        sub = [r for r in feasible if r.confidence == confidence]
        color = svgfig.palette(idx)
        canvas.polyline([r.kappa for r in sub], [r.ratio for r in sub], color=color, width=2.0)
        legend.append((f"confidence {confidence:g}", color))
    canvas.legend(legend)
    canvas.write(out / "fig3.svg")
    return ["fig3_plan.csv", "fig3.svg"]


def _cmd_figures(args, argv) -> int:
    t0 = time.perf_counter()
    cfg = _load_config(args.config)
    seed = _resolve_seed(args, cfg)
    n = int(_pick(args.n, cfg, "n", 128))
    m = int(_pick(args.m, cfg, "m", 64))
    trials = int(_pick(args.trials, cfg, "trials", 10000))
    draws = int(_pick(args.draws, cfg, "draws", 100))
    points = int(_pick(args.points, cfg, "points", 256))
    bins = int(_pick(args.bins, cfg, "bins", 50))
    which = args.which
    out = _outdir(args.out)
    outputs: list[str] = []
    if which in ("fig1", "all"):
        outputs.extend(_fig1(out, n, m, trials, bins, seed))
    if which in ("fig2", "all"):
        outputs.extend(_fig2(out, n, m, draws, points, seed))
    if which in ("fig3", "all"):
        outputs.extend(_fig3(out, n, 2))
    config_dict = {
        "which": which, "n": n, "m": m, "trials": trials,
        "draws": draws, "points": points, "bins": bins,
    }
    _write_manifest(out, "figures", argv, config_dict, seed, outputs, t0)
    print(json.dumps({"out": str(out), "outputs": sorted(outputs)}))
    return 0


# ---------------------------------------------------------------- parser


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=None, help="number of array sensors")
    sub.add_argument("--theta", type=str, default=None, help="comma separated source angles")
    sub.add_argument("--amplitudes", type=str, default=None, help="comma separated amplitudes")
    sub.add_argument("--phases", type=str, default=None, help="comma separated phases")
    sub.add_argument("--sigma2", type=float, default=None, help="noise power per sample")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crb-compress",
        description="Fisher information and Cramer-Rao bounds under random compression",
    )
    parser.add_argument("--version", action="version", version=f"crb-compress {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("fisher", help="information matrix and CRBs for a scenario")
    sub.add_argument("--config", type=str, default=None)
    _add_scenario_flags(sub)
    sub.add_argument("--out", type=str, default=None, help="directory for fisher.json")
    sub.set_defaults(func=_cmd_fisher)

    sub = subs.add_parser("simulate", help="run a Monte Carlo campaign")
    sub.add_argument("--config", type=str, default=None)
    _add_scenario_flags(sub)
    sub.add_argument("--m", type=int, default=None, help="compressed dimension")
    sub.add_argument("--family", type=str, default=None, choices=list(FAMILIES))
    sub.add_argument("--element-variance", type=float, default=None)
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--stat", action="append", default=None, choices=list(mcharness.STATISTICS))
    sub.add_argument("--crb-index", type=int, default=None)
    sub.add_argument("--theta-alt", type=str, default=None, help="second parameter point for kl_ratio")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--bins", type=int, default=None)
    sub.add_argument("--threads", type=int, default=None)
    sub.add_argument("--alpha", type=float, default=None, help="KS significance level")
    sub.add_argument("--allow-law-violation", action="store_true", default=False)
    sub.add_argument("--out", type=str, default=None, help="directory for JSON and CSV outputs")
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("dist", help="evaluate the scalar loss laws")
    sub.add_argument("--law", type=str, required=True, choices=["crb-ratio", "kl-ratio", "beta"])
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--a", type=float, default=None)
    sub.add_argument("--b", type=float, default=None)
    sub.add_argument("--eval", type=str, required=True, choices=["pdf", "cdf", "quantile"])
    sub.add_argument("--at", type=float, required=True)
    sub.set_defaults(func=_cmd_dist)

    sub = subs.add_parser("plan", help="minimum measurements for a target inflation")
    sub.add_argument("--config", type=str, default=None)
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--kappa", type=float, default=None)
    sub.add_argument("--confidence", type=float, default=None)
    sub.add_argument("--kappas", type=str, default=None, help="comma separated grid (table mode)")
    sub.add_argument("--confidences", type=str, default=None, help="comma separated grid (table mode)")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", type=str, default=None, help="directory for plan.csv (table mode)")
    sub.set_defaults(func=_cmd_plan)

    sub = subs.add_parser("ellipse", help="concentration ellipse loci")
    sub.add_argument("--config", type=str, default=None)
    _add_scenario_flags(sub)
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("--family", type=str, default=None, choices=list(FAMILIES))
    sub.add_argument("--element-variance", type=float, default=None)
    sub.add_argument("--draws", type=int, default=None)
    sub.add_argument("--r2", type=float, default=None, help="ellipse level (default Re(J)_00)")
    sub.add_argument("--points", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", type=str, required=True)
    sub.set_defaults(func=_cmd_ellipse)

    sub = subs.add_parser("figures", help="reproduce the demonstration figures")
    sub.add_argument("--config", type=str, default=None)
    sub.add_argument("--which", type=str, default="all", choices=["fig1", "fig2", "fig3", "all"])
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("--trials", type=int, default=None)
    sub.add_argument("--draws", type=int, default=None)
    sub.add_argument("--points", type=int, default=None)
    sub.add_argument("--bins", type=int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", type=str, required=True)
    sub.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args, argv)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _NUMERICAL_ERRORS as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, Infeasible) and exc.max_confidence is not None:
            payload["max_confidence"] = exc.max_confidence
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except CrbCompressError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
