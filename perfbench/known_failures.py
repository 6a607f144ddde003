"""Record which oracle inputs the package gets wrong, as a baseline.

Usage (from the repository root)::

    python3 perfbench/known_failures.py          # rewrite perfbench/known_failures.json
    python3 perfbench/known_failures.py --check  # exit 1 if the package now fails elsewhere

The ``laws-plan`` workload keeps inputs on which the package is known
to fail (``NoConvergence`` at n = 10^6, tail quantiles
off the oracle), so their failure share is measured rather than hidden.
This file lists those inputs: every plan query and quantile point the
package answered wrong when the file was written, and for each cdf law
the pool points that raise or miss the oracle when evaluated alone.

A run stays ``correct`` only while every failure it sees is listed
here, so an answer that was right when the file was written can never
go wrong unnoticed.  Rewrite the file only to drop inputs a change has
fixed; ``--check`` reports both fixed and newly failing inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from crbcompress import betalaw, planner  # noqa: E402
from crbcompress.errors import Infeasible  # noqa: E402

KNOWN_PATH = Path(__file__).with_name("known_failures.json")


def _call(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # classified by the caller against the oracle
        return None, exc


def _cause(error) -> str:
    return type(error).__name__ if error is not None else "off-oracle"


def build(table: dict) -> dict:
    plan = []
    for i, e in enumerate(table["plan"]):
        value, error = _call(planner.min_measurements, planner.PlanQuery(e["n"], e["p"], e["kappa"], e["confidence"]))
        if not checks.classify("plan", value, error, e, Infeasible):
            plan.append({"index": i, "label": checks.plan_label(e), "cause": _cause(error)})
    quantile = []
    for i, e in enumerate(table["quantile"]):
        value, error = _call(betalaw.beta_quantile, betalaw.BetaLaw(float(e["a"]), float(e["b"])), e["q"])
        if not checks.classify("quantile", value, error, e["x"]):
            quantile.append({"index": i, "label": checks.quantile_label(e), "cause": _cause(error)})
    cdf = []
    for e in table["cdf"]:
        law = betalaw.BetaLaw(float(e["a"]), float(e["b"]))
        raises, off = [], []
        for j, (x, f) in enumerate(zip(e["x"], e["F"])):
            value, error = _call(betalaw.beta_cdf, law, np.array([x]))
            if error is not None:
                raises.append(j)
            elif not checks.classify("cdf", value, None, np.array([f])):
                off.append(j)
        cdf.append({"label": checks.law_label(e), "raises": raises, "off": off})
    return {
        "about": "oracle inputs the package answered wrong when this file was written; "
                 "regenerate with python3 perfbench/known_failures.py",
        "plan": plan,
        "quantile": quantile,
        "cdf": cdf,
    }


def dumps(known: dict) -> str:
    return json.dumps(known, indent=1) + "\n"


def load(path: Path = KNOWN_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare with the stored file")
    args = parser.parse_args(argv)
    fresh = build(checks.load_oracle())
    if not args.check:
        KNOWN_PATH.write_text(dumps(fresh), encoding="utf-8")
        print(f"wrote {KNOWN_PATH}")
        return 0
    stored = load()
    same = True
    for kind in ("plan", "quantile"):
        now = {e["label"] for e in fresh[kind]}
        before = {e["label"] for e in stored[kind]}
        for label in sorted(now - before):
            print(f"newly failing {kind}: {label}")
        for label in sorted(before - now):
            print(f"fixed {kind}: {label}")
        same &= now == before
    for now, before in zip(fresh["cdf"], stored["cdf"]):
        for cause in ("raises", "off"):
            if now[cause] != before[cause]:
                print(f"cdf {now['label']} {cause}: {len(before[cause])} points before, {len(now[cause])} now")
                same = False
    print("known failures reproduce" if same else "known failures differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
