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

Exit codes: 0 on success, 1 on usage errors and on the package's
bad-input errors (the ``ValueError``s of ``errors``), 2 on its other,
numerical, errors (reported as a JSON object on stderr).

Every subcommand but ``dist`` reads option values from the JSON object
named by ``--config``: a flat map from option name (see the README) to
a JSON value of its flag's type.  A flag beats the file, and the file
beats the built-in default.  The subcommands that draw compressors
(``simulate``, ``ellipse``, ``figures``) take a seed; one set neither
way comes from the environment variable CRB_COMPRESS_SEED, else 0.
``--out`` names a directory for the outputs and a ``manifest.json``
whose ``config`` records the resolved options as the same flat map, so
feeding it back reruns the command.
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
from .errors import BadSpec, CrbCompressError, Infeasible, is_int
from .randcomp import FAMILIES, CompressorSpec, check_key, derive_stream, sample
from .sigmodel import Source, UlaModel, UlaScenario, two_source_half_rayleigh

# parsed values a config file cannot set: the subcommand, help, the config
# file itself, the output directory, the figure selector, and the per-source
# lists (a file gives sources instead)
_FLAG_ONLY = frozenset(
    {"command", "func", "help", "config", "out", "which", "theta", "amplitudes", "phases"}
)
# the keys of a sources entry and their defaults
_SOURCE_FIELDS = {f.name: f.default for f in dataclasses.fields(Source)}
# the JSON values a config file may give an option of each flag type
_JSON_TYPES = {int: int, float: (int, float), str: str}
# the environment variables that set BLAS thread counts, recorded in the manifest
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _float_list(text: str) -> list[float]:
    """A comma separated flag value, as floats."""
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _default_seed() -> int:
    env = os.environ.get("CRB_COMPRESS_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise BadSpec(f"CRB_COMPRESS_SEED must be an integer, got {env!r}") from exc


def _options(sub: argparse.ArgumentParser) -> dict:
    """The options a config file may set for ``sub``, in parse order: name -> its flag's action.

    ``sources`` has no flag; its action is None.
    """
    actions = {a.dest: a for a in sub._actions}
    names = [*actions, *(k for k in sub._defaults if k not in actions)]
    return {k: actions.get(k) for k in names if k not in _FLAG_ONLY}


def _file_scalar(key: str, value, kind: type, choices):
    """One value of option ``key``: a JSON value of its flag's type ``kind``, as that type."""
    # bool is an int to Python, but no option takes one
    ok = isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)
    try:
        parsed = kind(value) if ok else None
    except OverflowError:  # an integer past the float range
        ok = False
    if not ok or (choices is not None and parsed not in choices):
        expected = kind.__name__ if choices is None else f"one of {list(choices)}"
        raise BadSpec(f"config key {key!r} must be {expected}, got {value!r}")
    return parsed


def _file_source(entry) -> dict:
    """A sources entry: an object with a number ``theta`` and optional ``amplitude`` and ``phase``."""
    if not isinstance(entry, dict) or "theta" not in entry:
        raise BadSpec(f"config key 'sources' needs objects with a 'theta' key, got {entry!r}")
    for key in entry:
        if key not in _SOURCE_FIELDS:
            raise BadSpec(f"config key 'sources' entries hold some of {list(_SOURCE_FIELDS)}, got {key!r}")
    return {k: _file_scalar(k, entry.get(k, default), float, None) for k, default in _SOURCE_FIELDS.items()}


def _file_value(key: str, value, action):
    """The value a config file gives option ``key`` (flag ``action``), checked like the flag's."""
    if value is None and (action is None or action.default is None):
        return None
    many = action is None or isinstance(action, _AppendOver) or action.type is _float_list
    if not many:
        return _file_scalar(key, value, action.type, action.choices)
    if not isinstance(value, list):
        raise BadSpec(f"config key {key!r} must be a list, got {value!r}")
    if action is None:  # sources
        return [_file_source(entry) for entry in value]
    kind = str if action.type is None else float
    return [_file_scalar(key, v, kind, action.choices) for v in value]


def _load_config(path: str, options: dict, known: set) -> dict:
    """The values the JSON object in the file at ``path`` gives for ``options``.

    The file is a flat map from option name to value, the layout of the
    run record (``_record``).  Each value must be a JSON value of its
    flag's type and passes the flag's check (list options need a list).
    A key no subcommand has (``known``), a flag-only key, or a value
    that fails its check is a BadSpec naming the key; another
    subcommand's key is skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise BadSpec(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or an integer past Python's digit limit
        raise BadSpec(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise BadSpec(f"config file {path} must hold a JSON object")
    for key in cfg:
        if key not in known:
            raise BadSpec(f"config key {key!r} names no option a file can set")
    return {k: _file_value(k, v, options[k]) for k, v in cfg.items() if k in options}


def _record(args, options: dict) -> dict:
    """The run record: option name -> resolved value, the flat map ``_load_config`` reads."""
    return {name: getattr(args, name) for name in options}


def _resolve_sources(args) -> list[dict]:
    """--theta/--amplitudes/--phases, else the file's sources, else two_source_half_rayleigh(n)."""
    if args.theta is None:
        if args.sources is not None:
            return args.sources
        return [dataclasses.asdict(s) for s in two_source_half_rayleigh(args.n).sources]
    amplitudes = [1.0] * len(args.theta) if args.amplitudes is None else args.amplitudes
    phases = [0.0] * len(args.theta) if args.phases is None else args.phases
    if not len(amplitudes) == len(phases) == len(args.theta):
        raise BadSpec("theta, amplitudes, and phases must have matching lengths")
    return [{"theta": t, "amplitude": a, "phase": ph} for t, a, ph in zip(args.theta, amplitudes, phases)]


def _resolve_scenario(args) -> UlaScenario:
    return UlaScenario(n=args.n, sources=tuple(Source(**s) for s in args.sources))


def _compressor(args) -> CompressorSpec:
    """The --m and --family options."""
    if args.m is None:
        raise BadSpec("the compressed dimension m is required (flag --m or config key)")
    return CompressorSpec(m=args.m, n=args.n, family=args.family, seed=args.seed)


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


def _environment() -> dict:
    """What a run's speed depends on: numpy, its BLAS, the core count and the thread settings."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas = {}
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "env": {name: os.environ.get(name) for name in _THREAD_VARIABLES},
    }


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, indent=2)
        fh.write("\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
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


def _summary_payload(summary: mcharness.ExperimentSummary, record: dict) -> dict:
    stats = {}
    for name, s in summary.stats.items():
        stats[name] = {"mean": s.mean, "variance": s.variance, "ks": _ks_dict(s.ks)}
    if summary.w_mean is not None:
        stats["w_mean"] = {"mean": summary.w_mean, "variance": None, "ks": None}
    if summary.fim_mean is not None:
        stats["fim_mean"] = {"mean": summary.fim_mean, "variance": None, "ks": None}
    return {
        "config": record,
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


def _cmd_fisher(args, out: Path | None, record: dict) -> list[str]:
    model = UlaModel(_resolve_scenario(args))
    info = fisher.fim(model.jacobian(model.reference_theta), args.sigma2)
    bounds = [fisher.crb(info, i) for i in range(info.p)]
    payload = {
        "n": info.n,
        "p": info.p,
        "sigma2": args.sigma2,
        "scenario": {"n": args.n, "sources": args.sources},
        "crb": bounds,
        "fim": info.J,
    }
    print(json.dumps(_jsonable(payload)))
    if out is not None:
        _write_json(out / "fisher.json", payload)
    return ["fisher.json"]


# ---------------------------------------------------------------- simulate


def _cmd_simulate(args, out: Path | None, record: dict) -> list[str]:
    config = mcharness.ExperimentConfig(
        compressor=_compressor(args),
        trials=args.trials,
        model=UlaModel(_resolve_scenario(args)),
        sigma2=args.sigma2,
        statistics=tuple(args.statistics),
        crb_index=args.crb_index,
        theta_alt=None if args.theta_alt is None else np.asarray(args.theta_alt, dtype=np.float64),
        seed=args.seed,
        histogram_bins=args.histogram_bins,
        ks_alpha=args.ks_alpha,
    )
    summary = mcharness.run(config)
    payload = _summary_payload(summary, record)
    print(json.dumps(_jsonable(payload)))
    return [] if out is None else _write_campaign(out, "", payload, summary)


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


def _cmd_plan(args, out: Path | None, record: dict) -> list[str]:
    if args.kappas is not None:
        if out is None:
            raise BadSpec("table mode needs --out for the CSV")
        rows = planner.curve(args.n, args.p, args.kappas, args.confidences)
        _write_plan(out / "plan.csv", rows)
        print(json.dumps({"rows": len(rows), "out": str(out / "plan.csv")}))
        return ["plan.csv"]
    if args.kappa is None or args.confidence is None:
        raise BadSpec("single query mode needs --kappa and --confidence")
    query = planner.PlanQuery(n=args.n, p=args.p, kappa=args.kappa, confidence=args.confidence)
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
    return []


# ---------------------------------------------------------------- ellipse


def _real_form(info: fisher.FimResult) -> fisher.FimResult:
    """The information of the stacked real Jacobian [Re G; Im G]: J is Re(G^H G) / sigma2."""
    return fisher.fim(np.vstack([info.G.real, info.G.imag]), info.sigma2)


def _ellipse_curves(scenario: UlaScenario, sigma2: float, spec: CompressorSpec,
                    draws: int, r2: float | None, points: int):
    """Loci e^T Re(J) e = r2 before and after each draw, and lambda_max of each draw's real-form W."""
    if not (is_int(draws) and draws >= 1):
        raise BadSpec(f"draws must be a positive int, got {draws!r}")
    model = UlaModel(scenario)
    if model.p != 2:
        raise BadSpec(f"ellipse loci need a two-parameter scenario, got p={model.p}")
    G = model.jacobian(model.reference_theta)
    before = _real_form(fisher.fim(G, sigma2))
    level = float(np.real(before.J[0, 0])) if r2 is None else float(r2)
    curves = [(0, planner.ellipse_locus(before.J, level, points))]
    lam_max = []
    for d in range(draws):
        after = _real_form(fisher.compressed_fim(G, sample(spec, derive_stream(spec.seed, d)), sigma2))
        curves.append((d + 1, planner.ellipse_locus(after.J, level, points)))
        lam_max.append(float(np.linalg.eigvalsh(fisher.normalized_fim(before, after))[-1]))
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
            "max_lambda_max": max(lam_max),
        },
    )
    return [csv_name, svg_name, metrics_name]


def _cmd_ellipse(args, out: Path, record: dict) -> list[str]:
    level, curves, lam_max = _ellipse_curves(
        _resolve_scenario(args), args.sigma2, _compressor(args), args.draws, args.r2, args.points
    )
    outputs = _write_ellipse_outputs(out, "ellipse", level, curves, lam_max)
    print(json.dumps({"out": str(out), "max_lambda_max": max(lam_max)}))
    return outputs


# ---------------------------------------------------------------- figures


def _fig1(args, record: dict):
    n, m = args.n, args.m
    config = mcharness.ExperimentConfig(
        compressor=CompressorSpec(m=m, n=n, family="gaussian", seed=args.seed),
        trials=args.trials,
        model=UlaModel(two_source_half_rayleigh(n)),
        statistics=("crb_ratio",),
        seed=args.seed,
        histogram_bins=args.histogram_bins,
    )
    # the figure draws the law, so a shape without one fails before the campaign
    law = betalaw.crb_ratio_law(n, m, config.model.p)
    summary = mcharness.run(config)
    hist = summary.histograms["crb_ratio"]
    lo, hi = float(hist.edges[0]), float(hist.edges[-1])
    xs = np.linspace(lo, hi, 512)
    pdf = np.asarray(betalaw.beta_pdf(law, np.clip(xs, 0.0, 1.0)))

    def write(out: Path) -> list[str]:
        # one statistic, so its histogram's name carries none
        payload = _summary_payload(summary, record)
        outputs = _write_campaign(out, "fig1_", payload, summary, histogram="fig1_histogram.csv")
        _write_csv(out / "fig1_pdf.csv", ["x", "pdf"], zip(xs.tolist(), pdf.tolist()))
        top = 1.1 * max(float(np.max(hist.density)), float(np.max(pdf)))
        canvas = svgfig.SvgCanvas(
            xlim=(lo, hi), ylim=(0.0, top),
            title="CRB ratio under random compression",
            xlabel="CRB before / CRB after", ylabel="density",
        )
        canvas.bars(hist.edges, hist.density)
        canvas.polyline(xs, pdf, color="#d62728", width=2.0)
        canvas.legend([
            (f"Monte Carlo ({args.trials} trials)", "#9ecae1"),
            (f"Beta({int(law.a)}, {int(law.b)})", "#d62728"),
        ])
        canvas.write(out / "fig1.svg")
        return outputs + ["fig1_pdf.csv", "fig1.svg"]

    return write


def _fig2(args):
    spec = CompressorSpec(m=args.m, n=args.n, family="gaussian", seed=args.seed)
    scenario = two_source_half_rayleigh(args.n)
    level, curves, lam_max = _ellipse_curves(scenario, 1.0, spec, args.draws, None, args.points)
    return lambda out: _write_ellipse_outputs(out, "fig2", level, curves, lam_max)


def _fig3(n: int, p: int):
    kappas = np.linspace(1.1, 5.0, 40).tolist()
    confidences = list(planner.DEFAULT_CONFIDENCES)
    rows = planner.curve(n, p, kappas, confidences)

    def write(out: Path) -> list[str]:
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

    return write


def _cmd_figures(args, out: Path, record: dict) -> list[str]:
    # Every requested figure is computed, so its options are checked,
    # before any file is written: a bad option leaves no partial set.
    # The Monte Carlo figure, the slowest, is computed last.
    makers = {
        "fig2": lambda: _fig2(args),
        "fig3": lambda: _fig3(args.n, 2),
        "fig1": lambda: _fig1(args, record),
    }
    writers = [make() for name, make in makers.items() if args.which in (name, "all")]
    outputs = [name for write in writers for name in write(out)]
    print(json.dumps({"out": str(out), "outputs": sorted(outputs)}))
    return outputs


# ---------------------------------------------------------------- parser


class _AppendOver(argparse.Action):
    """Repeatable flag collecting a list; its first use replaces the default list."""

    def __call__(self, parser, namespace, value, option_string=None):
        chosen = getattr(namespace, self.dest)
        setattr(namespace, self.dest, [*([] if chosen is self.default else chosen), value])


def _add_run_flags(sub: argparse.ArgumentParser, out_help: str, *, seed: bool = True,
                   out_required: bool = False) -> None:
    """--config, --out and, for a subcommand that draws, --seed, which main handles."""
    sub.add_argument("--config", type=str, default=None, help="JSON file of option values")
    if seed:
        sub.add_argument("--seed", type=int, default=None,
                         help="random seed; None reads $CRB_COMPRESS_SEED, else 0")
    sub.add_argument("--out", type=str, default=None, required=out_required, help=out_help)


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=128, help="number of array sensors")
    sub.add_argument("--theta", type=_float_list, default=None, help="comma separated source angles")
    sub.add_argument("--amplitudes", type=_float_list, default=None, help="comma separated amplitudes")
    sub.add_argument("--phases", type=_float_list, default=None, help="comma separated phases")
    sub.add_argument("--sigma2", type=float, default=1.0, help="noise power per sample")
    # a config file's sources, used when --theta is absent; main resolves it
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
    sub.add_argument("--theta-alt", type=_float_list, default=None,
                     help="second parameter point for kl_ratio")
    sub.add_argument("--bins", dest="histogram_bins", type=int, default=50, help="histogram bins")
    sub.add_argument("--alpha", dest="ks_alpha", type=float, default=0.01, help="KS significance level")

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
    sub.add_argument("--kappas", type=_float_list, default=None, help="comma separated grid (table mode)")
    sub.add_argument("--confidences", type=_float_list, default=list(planner.DEFAULT_CONFIDENCES),
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
    sub.add_argument("--bins", dest="histogram_bins", type=int, default=50, help="fig1 histogram bins")

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
        options = _options(subparsers[args.command])
        if args.config is not None:
            # the file's values become defaults, so flags still beat them;
            # a key is known if a subcommand that reads files has it
            known = {name for sub in subparsers.values() if any(a.dest == "config" for a in sub._actions)
                     for name in _options(sub)}
            subparsers[args.command].set_defaults(**_load_config(args.config, options, known))
            args = parser.parse_args(argv)
        if "seed" in options:
            args.seed = check_key(_default_seed() if args.seed is None else args.seed)
        if "sources" in options:
            args.sources = _resolve_sources(args)
        record = _record(args, options)
        out = None if args.out is None else Path(args.out)
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        outputs = args.func(args, out, record)
        if out is not None:
            manifest = {
                "command": args.command,
                "argv": argv,
                "config": record,
                "seed": record.get("seed"),
                "version": __version__,
                "outputs": sorted(outputs),
                "duration_s": time.perf_counter() - t0,
                "environment": _environment(),
            }
            _write_json(out / "manifest.json", manifest)
        return 0
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except CrbCompressError as exc:
        if isinstance(exc, ValueError):  # bad input
            print(f"error: {exc}", file=sys.stderr)
            return 1
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, Infeasible) and exc.max_confidence is not None:
            payload["max_confidence"] = exc.max_confidence
        print(json.dumps(payload), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
