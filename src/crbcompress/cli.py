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

Every subcommand but ``dist`` reads option values from the JSON object
named by ``--config`` (see the README for its keys): a flag beats the
file, and the file beats the built-in default.  A seed set neither way
comes from the environment variable CRB_COMPRESS_SEED, else 0.
``--out`` names a directory for the outputs and a ``manifest.json``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
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


# parsed values a config file cannot set: the subcommand, help, the config
# file itself, the output directory, the figure selector, and the per-source
# lists (a file gives scenario.sources instead)
_FLAG_ONLY = frozenset(
    {"command", "func", "help", "config", "out", "which", "theta", "amplitudes", "phases"}
)
# keys a nested config object may hold; each beats the same top-level key
_NESTED = {"scenario": ("n", "sources"), "compressor": ("m", "family")}


def _float_list(value) -> list[float]:
    """A comma separated flag string or a config file's JSON list, as floats."""
    if not isinstance(value, str):
        return [float(v) for v in value]
    try:
        return [float(tok) for tok in value.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise BadSpec(f"could not parse float list {value!r}: {exc}") from exc


def _default_seed() -> int:
    env = os.environ.get("CRB_COMPRESS_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise BadSpec(f"CRB_COMPRESS_SEED must be an integer, got {env!r}") from exc


def _load_config(path: str, options, known) -> dict:
    """The values the JSON file at ``path`` gives for ``options``.

    The nested ``scenario`` and ``compressor`` objects are laid over the
    top-level keys.  A key no subcommand has (``known``), a flag-only or
    an unknown nested key is a BadSpec; another subcommand's is skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise BadSpec(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise BadSpec(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise BadSpec(f"config file {path} must hold a JSON object")
    for key in cfg:
        if key in _FLAG_ONLY or key not in known | _NESTED.keys():
            raise BadSpec(f"config key {key!r} names no option a file can set")
    values = dict(cfg)
    for name, keys in _NESTED.items():
        nested = cfg.get(name, {})
        if not isinstance(nested, dict):
            raise BadSpec(f"config key {name!r} must be an object")
        if set(nested) - set(keys):
            raise BadSpec(f"config key {name!r} holds {sorted(nested)}, expected some of {keys}")
        values.update(nested)
    values = {k: v for k, v in values.items() if k in options}
    for key in ("n", "seed"):
        if key in values and not isinstance(values[key], int):
            raise BadSpec(f"{key} must be an integer, got {values[key]!r}")
    return values


def _resolve_scenario(args) -> UlaScenario:
    n = args.n
    if args.theta is None:
        if args.sources is None:
            return two_source_half_rayleigh(n)
        sources = []
        for entry in args.sources:
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
    thetas = _float_list(args.theta)
    amplitudes = [1.0] * len(thetas) if args.amplitudes is None else _float_list(args.amplitudes)
    phases = [0.0] * len(thetas) if args.phases is None else _float_list(args.phases)
    if len(amplitudes) != len(thetas) or len(phases) != len(thetas):
        raise BadSpec("theta, amplitudes, and phases must have matching lengths")
    sources = tuple(
        Source(theta=t, amplitude=a, phase=ph) for t, a, ph in zip(thetas, amplitudes, phases)
    )
    return UlaScenario(n=n, sources=sources)


def _compressor(args, n: int) -> CompressorSpec:
    """The --m and --family options."""
    if args.m is None:
        raise BadSpec("the compressed dimension m is required (flag --m or config key)")
    return CompressorSpec(m=int(args.m), n=n, family=str(args.family), seed=args.seed)


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


def _write_campaign(out: Path, prefix: str, payload: dict, summary: mcharness.ExperimentSummary,
                    histogram: str = "histogram_{stat}.csv") -> list[str]:
    """Summary JSON, samples CSV, and one histogram CSV per statistic; returns the file names."""
    names = [f"{prefix}summary.json", f"{prefix}samples.csv"]
    _write_json(out / names[0], payload)
    _write_csv(out / names[1], ["trial", "statistic", "value"], _samples_rows(summary))
    for stat in sorted(summary.histograms):
        names.append(histogram.format(stat=stat))
        _write_csv(
            out / names[-1],
            ["bin_left", "bin_right", "count", "density"],
            _histogram_rows(summary.histograms[stat]),
        )
    return names


# ---------------------------------------------------------------- fisher


def _cmd_fisher(args, out: Path | None):
    scenario = _resolve_scenario(args)
    sigma2 = float(args.sigma2)
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
    if out is not None:
        _write_json(out / "fisher.json", payload)
    return {"scenario": payload["scenario"], "sigma2": sigma2}, ["fisher.json"]


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args, out: Path | None):
    scenario = _resolve_scenario(args)
    spec = _compressor(args, scenario.n)
    theta_alt = None if args.theta_alt is None else _float_list(args.theta_alt)
    config = mcharness.ExperimentConfig(
        compressor=spec,
        trials=int(args.trials),
        model=UlaModel(scenario),
        sigma2=float(args.sigma2),
        statistics=tuple(args.statistics),
        crb_index=int(args.crb_index),
        theta_alt=np.asarray(theta_alt, dtype=np.float64) if theta_alt is not None else None,
        seed=args.seed,
        histogram_bins=int(args.histogram_bins),
        ks_alpha=float(args.ks_alpha),
        allow_law_violation=bool(args.allow_law_violation),
    )
    config_dict = {
        "scenario": _scenario_dict(scenario),
        "sigma2": config.sigma2,
        "compressor": dataclasses.asdict(spec),
        "trials": config.trials,
        "statistics": list(config.statistics),
        "crb_index": config.crb_index,
        "theta_alt": theta_alt,
        "seed": args.seed,
        "histogram_bins": config.histogram_bins,
        "ks_alpha": config.ks_alpha,
        "allow_law_violation": config.allow_law_violation,
    }
    summary = mcharness.run(config)
    payload = _summary_payload(summary, config_dict)
    print(json.dumps(_jsonable(payload)))
    return config_dict, [] if out is None else _write_campaign(out, "", payload, summary)


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


def _cmd_dist(args) -> None:
    law = _dist_law(args)
    if args.eval == "pdf":
        value = betalaw.beta_pdf(law, args.at)
    elif args.eval == "cdf":
        value = betalaw.beta_cdf(law, args.at)
    else:
        value = betalaw.beta_quantile(law, args.at)
    print(repr(float(value)))


# ---------------------------------------------------------------- plan


def _write_plan(path: Path, rows) -> None:
    table = [(r.kappa, r.confidence, r.m, r.ratio) for r in rows]
    _write_csv(path, ["kappa", "confidence", "m", "ratio"], table)


def _cmd_plan(args, out: Path | None):
    if args.kappas is not None:
        if out is None:
            raise BadSpec("table mode needs --out for the CSV")
        kappas = _float_list(args.kappas)
        confidences = _float_list(args.confidences)
        rows = planner.curve(args.n, args.p, kappas, confidences)
        _write_plan(out / "plan.csv", rows)
        print(json.dumps({"rows": len(rows), "out": str(out / "plan.csv")}))
        config = {"n": args.n, "p": args.p, "kappas": kappas, "confidences": confidences}
        return config, ["plan.csv"]
    if args.kappa is None or args.confidence is None:
        raise BadSpec("single query mode needs --kappa and --confidence")
    query = planner.PlanQuery(
        n=int(args.n), p=int(args.p), kappa=float(args.kappa), confidence=float(args.confidence)
    )
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
    return {k: payload[k] for k in ("n", "p", "kappa", "confidence")}, []


# ---------------------------------------------------------------- ellipse


def _real_form(info: fisher.FimResult) -> fisher.FimResult:
    """The information of the stacked real Jacobian [Re G; Im G]: J is Re(G^H G) / sigma2."""
    return fisher.fim(np.vstack([info.G.real, info.G.imag]), info.sigma2)


def _ellipse_curves(scenario: UlaScenario, sigma2: float, spec: CompressorSpec,
                    draws: int, r2: float | None, points: int):
    """Loci e^T Re(J) e = r2 before and after each draw, and lambda_max of each draw's real-form W."""
    model = UlaModel(scenario)
    if model.p != 2:
        raise BadSpec(f"ellipse loci need a two-parameter scenario, got p={model.p}")
    G = model.jacobian(model.reference_theta)
    info = fisher.fim(G, sigma2)
    level = float(np.real(info.J[0, 0])) if r2 is None else float(r2)
    curves = [(0, planner.ellipse_locus(info.J, level, points))]
    lam_max = []
    real_before = _real_form(info)
    for d in range(draws):
        after = fisher.compressed_fim(G, sample(spec, derive_stream(spec.seed, d)), sigma2)
        curves.append((d + 1, planner.ellipse_locus(after.J, level, points)))
        w = fisher.normalized_fim(real_before, _real_form(after))
        lam_max.append(float(np.linalg.eigvalsh(w)[-1]))
    return level, curves, lam_max


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
        title="Concentration ellipses e^T Re(J) e = r^2", xlabel="e1", ylabel="e2",
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
            "form": "e^T Re(J) e = r2, the real-parameter information",
            "r2": level,
            "draws": len(lam_max),
            "lambda_max": lam_max,
            "max_lambda_max": max(lam_max) if lam_max else None,
        },
    )
    return [csv_name, svg_name, metrics_name]


def _cmd_ellipse(args, out: Path):
    scenario = _resolve_scenario(args)
    sigma2 = float(args.sigma2)
    spec = _compressor(args, scenario.n)
    level, curves, lam_max = _ellipse_curves(
        scenario, sigma2, spec, int(args.draws), args.r2, int(args.points)
    )
    outputs = _write_ellipse_outputs(out, "ellipse", level, curves, lam_max)
    print(json.dumps({"out": str(out), "max_lambda_max": max(lam_max) if lam_max else None}))
    config_dict = {
        "scenario": _scenario_dict(scenario),
        "sigma2": sigma2,
        "compressor": dataclasses.asdict(spec),
        "draws": len(lam_max),
        "r2": level,
    }
    return config_dict, outputs


# ---------------------------------------------------------------- figures


def _fig1(out: Path, n: int, m: int, trials: int, bins: int, seed: int) -> list[str]:
    scenario = two_source_half_rayleigh(n)
    spec = CompressorSpec(m=m, n=n, family="gaussian", seed=seed)
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
        "compressor": dataclasses.asdict(spec),
        "trials": trials,
        "statistics": ["crb_ratio"],
        "histogram_bins": bins,
    }
    # one statistic, so its histogram's name carries none
    payload = _summary_payload(summary, config_dict)
    outputs = _write_campaign(out, "fig1_", payload, summary, histogram="fig1_histogram.csv")
    hist = summary.histograms["crb_ratio"]
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
    return outputs + ["fig1_pdf.csv", "fig1.svg"]


def _fig2(out: Path, n: int, m: int, draws: int, points: int, seed: int) -> list[str]:
    scenario = two_source_half_rayleigh(n)
    spec = CompressorSpec(m=m, n=n, family="gaussian", seed=seed)
    level, curves, lam_max = _ellipse_curves(scenario, 1.0, spec, draws, None, points)
    return _write_ellipse_outputs(out, "fig2", level, curves, lam_max)


def _fig3(out: Path, n: int, p: int) -> list[str]:
    kappas = np.linspace(1.1, 5.0, 40).tolist()
    confidences = list(planner.DEFAULT_CONFIDENCES)
    rows = planner.curve(n, p, kappas, confidences)
    _write_plan(out / "fig3_plan.csv", rows)
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


def _cmd_figures(args, out: Path):
    n = int(args.n)
    m = int(args.m)
    trials = int(args.trials)
    draws = int(args.draws)
    points = int(args.points)
    bins = int(args.bins)
    outputs: list[str] = []
    if args.which in ("fig1", "all"):
        outputs.extend(_fig1(out, n, m, trials, bins, args.seed))
    if args.which in ("fig2", "all"):
        outputs.extend(_fig2(out, n, m, draws, points, args.seed))
    if args.which in ("fig3", "all"):
        outputs.extend(_fig3(out, n, 2))
    print(json.dumps({"out": str(out), "outputs": sorted(outputs)}))
    config_dict = {
        "which": args.which, "n": n, "m": m, "trials": trials,
        "draws": draws, "points": points, "bins": bins,
    }
    return config_dict, outputs


# ---------------------------------------------------------------- parser


class _AppendOver(argparse.Action):
    """Repeatable flag collecting a list; its first use replaces the default list."""

    def __call__(self, parser, namespace, value, option_string=None):
        chosen = getattr(namespace, self.dest)
        setattr(namespace, self.dest, [*([] if chosen is self.default else chosen), value])


def _add_run_flags(sub: argparse.ArgumentParser, out_help: str, *, seed: bool = True,
                   out_required: bool = False) -> None:
    """--config, --seed and --out, which main handles for every subcommand."""
    sub.add_argument("--config", type=str, default=None, help="JSON file of option values")
    if seed:
        sub.add_argument("--seed", type=int, default=None,
                         help="random seed; None reads $CRB_COMPRESS_SEED, else 0")
    else:
        # draws nothing, but the manifest records a seed from the file or environment
        sub.set_defaults(seed=None)
    sub.add_argument("--out", type=str, default=None, required=out_required, help=out_help)


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=128, help="number of array sensors")
    sub.add_argument("--theta", type=str, default=None, help="comma separated source angles")
    sub.add_argument("--amplitudes", type=str, default=None, help="comma separated amplitudes")
    sub.add_argument("--phases", type=str, default=None, help="comma separated phases")
    sub.add_argument("--sigma2", type=float, default=1.0, help="noise power per sample")
    # a config file's scenario.sources, used when --theta is absent
    sub.set_defaults(sources=None)


def _add_compressor_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--m", type=int, default=None, help="compressed dimension, required")
    sub.add_argument("--family", type=str, default="gaussian", choices=list(FAMILIES),
                     help="compressor ensemble")


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="crb-compress",
        description="Fisher information and Cramer-Rao bounds under random compression",
    )
    parser.add_argument("--version", action="version", version=f"crb-compress {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, func) -> argparse.ArgumentParser:
        sub = subs.add_parser(
            name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        sub.set_defaults(func=func)
        return sub

    sub = add("fisher", "information matrix and CRBs for a scenario", _cmd_fisher)
    _add_run_flags(sub, "directory for fisher.json", seed=False)
    _add_scenario_flags(sub)

    sub = add("simulate", "run a Monte Carlo campaign", _cmd_simulate)
    _add_run_flags(sub, "directory for JSON and CSV outputs")
    _add_scenario_flags(sub)
    _add_compressor_flags(sub)
    sub.add_argument("--trials", type=int, default=10000, help="compressor draws")
    sub.add_argument("--stat", dest="statistics", action=_AppendOver, default=["crb_ratio"],
                     choices=list(mcharness.STATISTICS), help="statistic to sample (repeatable)")
    sub.add_argument("--crb-index", type=int, default=0, help="parameter of the crb_ratio")
    sub.add_argument("--theta-alt", type=str, default=None, help="second parameter point for kl_ratio")
    sub.add_argument("--bins", dest="histogram_bins", type=int, default=50, help="histogram bins")
    sub.add_argument("--alpha", dest="ks_alpha", type=float, default=0.01, help="KS significance level")
    sub.add_argument("--allow-law-violation", action="store_true", default=False,
                     help="warn instead of failing outside p < m <= n - p")

    sub = add("dist", "evaluate the scalar loss laws", _cmd_dist)
    sub.add_argument("--law", type=str, required=True, choices=["crb-ratio", "kl-ratio", "beta"])
    sub.add_argument("--n", type=int, default=None)
    sub.add_argument("--m", type=int, default=None)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--a", type=float, default=None)
    sub.add_argument("--b", type=float, default=None)
    sub.add_argument("--eval", type=str, required=True, choices=["pdf", "cdf", "quantile"])
    sub.add_argument("--at", type=float, required=True)

    sub = add("plan", "minimum measurements for a target inflation", _cmd_plan)
    _add_run_flags(sub, "directory for plan.csv (table mode)", seed=False)
    sub.add_argument("--n", type=int, default=128, help="uncompressed dimension")
    sub.add_argument("--p", type=int, default=2, help="number of parameters")
    sub.add_argument("--kappa", type=float, default=None, help="allowed CRB inflation factor")
    sub.add_argument("--confidence", type=float, default=None,
                     help="probability that the inflation stays within kappa")
    sub.add_argument("--kappas", type=str, default=None, help="comma separated grid (table mode)")
    sub.add_argument("--confidences", type=str, default=list(planner.DEFAULT_CONFIDENCES),
                     help="comma separated grid (table mode)")

    sub = add("ellipse", "concentration ellipse loci", _cmd_ellipse)
    _add_run_flags(sub, "output directory", out_required=True)
    _add_scenario_flags(sub)
    _add_compressor_flags(sub)
    sub.add_argument("--draws", type=int, default=100, help="compressor draws")
    sub.add_argument("--r2", type=float, default=None, help="level of e^T Re(J) e = r2; None means Re(J)_00")
    sub.add_argument("--points", type=int, default=256, help="points per ellipse")

    sub = add("figures", "reproduce the demonstration figures", _cmd_figures)
    _add_run_flags(sub, "output directory", out_required=True)
    sub.add_argument("--which", type=str, default="all", choices=["fig1", "fig2", "fig3", "all"],
                     help="figure to make")
    sub.add_argument("--n", type=int, default=128, help="number of array sensors")
    sub.add_argument("--m", type=int, default=64, help="compressed dimension")
    sub.add_argument("--trials", type=int, default=10000, help="fig1 compressor draws")
    sub.add_argument("--draws", type=int, default=100, help="fig2 compressor draws")
    sub.add_argument("--points", type=int, default=256, help="points per fig2 ellipse")
    sub.add_argument("--bins", type=int, default=50, help="fig1 histogram bins")

    return parser, subs.choices


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "config" not in args:  # dist: no file, seed or output directory
            args.func(args)
            return 0
        t0 = time.perf_counter()
        if args.config is not None:
            # the file's values become defaults, so flags still beat them
            known = {name for sub in subparsers.values()
                     for name in [*sub._defaults, *(a.dest for a in sub._actions)]}
            subparsers[args.command].set_defaults(**_load_config(args.config, vars(args), known))
            args = parser.parse_args(argv)
        if args.seed is None:
            args.seed = _default_seed()
        out = None if args.out is None else Path(args.out)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        config, outputs = args.func(args, out)
        if out is not None:
            manifest = {
                "command": args.command,
                "argv": argv,
                "config": config,
                "seed": args.seed,
                "version": __version__,
                "outputs": sorted(outputs),
                "duration_s": time.perf_counter() - t0,
            }
            _write_json(out / "manifest.json", manifest)
        return 0
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
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
