"""crb-compress benchmark: one workload, one seed, one closed-loop run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload simulate-n128 --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; without it the
run exits with code 2 before measuring anything.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run; either way the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
report, including the environment block, the checks and (when traced)
every span, is written under ``.perfbench_out/`` in the checkout.

The run leaves thread settings alone: ``mcharness`` uses one thread, as
the CLI does, and BLAS keeps its default thread count, which the
environment block records.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# setup_s runs from here: importing the package, the workload's inputs
# and warm-up, and nothing of the interpreter's own start.
T_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9  # setup_s is the median of this many set-ups
WORKLOAD_NAMES = ("simulate-n128", "mc-n32-allstats", "laws-plan")


def _parse(argv):
    parser = argparse.ArgumentParser(description="crb-compress benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import crbcompress from this checkout's src/, or exit with code 2."""
    if not (SRC / "crbcompress" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'crbcompress'}; run from a checkout of the repository",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import crbcompress

    if SRC.resolve() not in Path(crbcompress.__file__).resolve().parents:
        print(f"error: crbcompress was imported from {crbcompress.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _setup_probe(args) -> float:
    """Set-up time of a fresh interpreter doing this run's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _blas_threads():
    """OpenBLAS thread count as the library reports it, or None."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": commit,
        "mcharness_threads": 1,
    }


def _tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, beyond)."""
    ordered = sorted(times)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def _quartiles(values: list[float]) -> list[float]:
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives them."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def _measure(workload, seconds: float, tracer=None, probe=None, probes: int = 0):
    """Closed loop of whole cycles until ``seconds`` of them have passed.

    With a tracer, cycles alternate untraced and traced (so at least
    one of each runs).  ``probes`` calls of ``probe`` (a set-up time)
    run between cycles, spread evenly over the run, so that they meet
    the host's slow phases as often as the batches do; their time does
    not count in ``seconds``.  Returns (untraced batches, traced
    batches, probe results).
    """
    plain, traced, probed = [], [], []
    index = 0
    start = time.perf_counter()
    paused = 0.0
    while True:
        elapsed = time.perf_counter() - start - paused
        if len(probed) < probes and elapsed >= len(probed) * seconds / probes:
            t0 = time.perf_counter()
            probed.append(probe())
            paused += time.perf_counter() - t0
            continue
        if elapsed >= seconds and plain and (tracer is None or traced):
            return plain, traced, probed
        trace_this = tracer is not None and len(plain) > len(traced)
        if trace_this:
            tracer.install()
        try:
            for _ in range(workload.cycle):
                (traced if trace_this else plain).append(workload.batch(index, tracer if trace_this else None))
                index += 1
        finally:
            if trace_this:
                tracer.restore()


def _end_to_end(batches, setup_times, summary) -> tuple[dict, dict]:
    """(metrics declared in BENCHMARK.json, metrics named per workload for the report)."""
    seconds = [b.seconds for b in batches]
    inputs = summary["inputs"]
    failed_frac = inputs["failed"] / inputs["attempted"]
    tail, pct, beyond = _tail(seconds)
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p50 = statistics.median(seconds)
    # Gated timings are quartiles over batches: other load on the host
    # only ever adds time, in phases of seconds that cover a varying share
    # of a run, so the fast quartile moves far less from run to run than
    # the median or the mean.  The median and the tail are still reported.
    p25 = _quartiles(seconds)[0]
    if "rates" in summary:
        goodput = _quartiles([b.correct / b.seconds for b in batches])[2]
        named = {name: (rate, "1/s") for name, rate in summary["rates"].items()}
        named.update(batch_s_p50=(p50, "s"), batch_s_tail=(tail, "s"))
    else:
        goodput = _quartiles([b.trials / b.seconds for b in batches])[2]
        named = {
            "trials_per_s": (sum(b.trials for b in batches) / sum(seconds), "1/s"),
            "campaign_s_p50": (p50, "s"),
            "campaign_s_tail": (tail, "s"),
        }
    named = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_failed_frac": (failed_frac, "frac"),
        **named,
        "tail_percentile": (pct, "%"),
        "tail_samples_beyond": (beyond, "count"),
        "batches": (len(batches), "count"),
    }
    declared = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_ok_frac": (1.0 - failed_frac, "frac"),
        "goodput_per_s": (goodput, "1/s"),
        "batch_s_p25": (p25, "s"),
    }
    return declared, named


def _cycle_times(batches, cycle: int) -> list[float]:
    """Time of each whole cycle, so each family counts equally."""
    return [sum(b.seconds for b in batches[i:i + cycle]) for i in range(0, len(batches), cycle)]


def _per_layer(plain, traced, tracer, cycle: int) -> dict:
    import tracing

    metrics = tracing.layer_metrics(tracer.finished(), len(traced))
    per_batch = 1.0 / len(traced)
    metrics["mcharness.excluded_trials"] = sum(b.excluded_trials for b in traced) * per_batch
    metrics["cli.output_bytes"] = sum(b.output_bytes for b in traced) * per_batch
    # untraced and traced cycles alternate: compare each traced cycle with
    # the untraced one just before it, so slow phases of the host cancel
    pairs = list(zip(_cycle_times(plain, cycle), _cycle_times(traced, cycle)))
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in pairs) / cycle  # per batch
    metrics["trace.overhead_pct"] = statistics.median(100.0 * (t - u) / u for u, t in pairs)
    return metrics


PER_LAYER_UNITS = {
    ".us": "us", ".us_per_point": "us", ".ms": "ms", ".self_s": "s", "overhead_s": "s", "overhead_pct": "%",
    "output_bytes": "bytes",
}


def _unit(name: str) -> str:
    return next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            plain, traced, _ = _measure(workload, args.seconds, tracer)
            batches = plain + traced
            metrics = {k: (v, _unit(k)) for k, v in _per_layer(plain, traced, tracer, workload.cycle).items()}
            report["spans"] = str(OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz")
            tracer.write(report["spans"])
        else:
            # fresh interpreters only, so every sample finds the same
            # bytecode caches (this process may have had to write them)
            batches, _, setup_times = _measure(workload, args.seconds, probe=lambda: _setup_probe(args),
                                               probes=SETUP_REPEATS)
            report["setup_times_s"] = setup_times
        summary = workload.summary()
        # campaigns, or distinct plan queries, quantile points and cdf points
        attempted, failed = summary["inputs"]["attempted"], summary["inputs"]["failed"]
        named = {}
        if not args.trace:
            metrics, named = _end_to_end(batches, setup_times, summary)
            report["named_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        for k, (v, u) in {**named, **metrics}.items():
            print(f"{args.workload}  {k} = {v:.6g} {u}")
        errors = sorted({b.error for b in batches if b.error})
        for line in errors + [f"{k}: {v}" for k, v in summary.get("failures", {}).items()]:
            print(f"{args.workload}  failed: {line}")
        for key, count in summary.get("new_failures", {}).items():
            print(f"{args.workload}  failed, not a known failure: {key}: {count}")
        if "new_failures" in summary:
            print(f"{args.workload}  check answers vs oracle, beyond known_failures.json: "
                  f"{sum(summary['new_failures'].values())} failed {'pass' if summary['passed'] else 'FAIL'}")
        if "failed_campaigns" in summary:
            print(f"{args.workload}  check campaigns: {summary['failed_campaigns']} failed "
                  f"{'pass' if summary['failed_campaigns'] == 0 else 'FAIL'}")
        for name, ks in summary.get("pooled_ks", {}).items():
            print(f"{args.workload}  check pooled KS {name} vs {ks.get('law')}: n={ks['samples']} "
                  f"p={ks.get('pvalue', float('nan')):.3g} {'pass' if ks['passed'] else 'FAIL'}")
        env = environment()
        print(f"{args.workload}  environment: {json.dumps(env)}")
        report.update(
            environment=env,
            batch_seconds=[b.seconds for b in batches],
            summary=summary,
            result={"correct": bool(summary["passed"]), "attempted": attempted, "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
        )
        with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        print(json.dumps(report["result"]))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
