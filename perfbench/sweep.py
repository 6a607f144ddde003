"""Run the benchmark over several seeds and report medians and spreads.

Usage (from the root of a checkout)::

    python3 perfbench/sweep.py --seeds 1-10                 # every workload, untraced
    python3 perfbench/sweep.py --seeds 1-5 --workloads laws-plan
    python3 perfbench/sweep.py --seeds 1-10 --trace 0,1 --baseline perfbench/baseline.json

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
bound in BENCHMARK.json.  The metrics named per workload (trials_per_s,
plan_queries_per_s, ...) come from each run's report file.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).with_name("run.py")
OUT = ROOT / ".perfbench_out"


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "runs": len(values)}


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", encoding="utf-8") as fh:
        report = json.load(fh)
    return result, report


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", default="0", help="0, 1 or 0,1")
    parser.add_argument("--baseline", default=None, help="write medians per workload to this JSON file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    baseline = {"seeds": _seeds(args.seeds), "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = {"why": whys[workload]}
        for trace in (int(t) for t in args.trace.split(",")):
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            correct, failed, attempted = True, 0, 0
            for seed in baseline["seeds"]:
                result, report = run_one(workload, seed, args.seconds, trace)
                correct &= result["correct"]
                failed += result["failed"]
                attempted += result["attempted"]
                metrics = dict(result["metrics"])
                metrics.update(report.get("named_metrics", {}))
                for name, m in metrics.items():
                    values.setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                entry["environment"] = report["environment"]
            print(f"== {workload} trace={trace}: correct={correct} failed={failed}/{attempted}")
            table = {}
            for name, vals in values.items():
                s = _stats(vals)
                s["unit"] = units[name]
                table[name] = s
                bound = bounds.get(name) if trace == 0 and name in result["metrics"] else None
                verdict = ""
                if bound is not None:
                    verdict = f"bound {bound:g} " + ("steady" if s["spread"] < bound / 3 else
                                                      "within" if s["spread"] <= bound else "TOO WIDE")
                print(f"  {name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                      f"spread {s['spread']:.4f} {s['unit']:6s} {verdict}")
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v for k, v in table.items() if k in result["metrics"]}
            if not trace:
                entry["named"] = {k: v for k, v in table.items() if k not in result["metrics"]}
            entry[f"{key}_checks"] = {"correct": correct, "failed": failed, "attempted": attempted}
        baseline["workloads"][workload] = entry
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
