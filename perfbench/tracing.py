"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
namespace that binds it (module globals of every ``crbcompress`` module,
and the class for methods), so calls are seen where they are looked up:
``mcharness`` imports ``sample`` and ``derive_stream`` by name, and
``planner`` calls ``confidence_at`` as a global.  ``Tracer.restore``
puts every original back.  Nothing under ``src/`` is edited.

A span is (id, parent id, name, start ns, end ns, work, raised).  The
benchmark opens one root span per batch, so every span of a batch
shares that root.  Self time is a span's duration minus the union of
its children's intervals.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from dataclasses import dataclass

import numpy as np

# (module, attribute or Class.method, span name).  svgfig and
# planner.ellipse_locus are left out: SVG writing is ~2 ms of a figures run.
TARGETS = (
    ("randcomp", "derive_stream", "randcomp.derive_stream"),
    ("randcomp", "sample", "randcomp.sample"),
    ("cxla", "orthonormal_columns", "cxla.orthonormal_columns"),
    ("cxla", "orthonormal_range", "cxla.orthonormal_range"),
    ("fisher", "compressed_fim", "fisher.compressed_fim"),
    ("fisher", "compressed_kl", "fisher.compressed_kl"),
    ("fisher", "crb", "fisher.crb"),
    ("mcharness", "run", "mcharness.run"),
    ("mcharness", "ks_one_sample", "mcharness.ks_one_sample"),
    ("mcharness", "histogram", "mcharness.histogram"),
    ("betalaw", "beta_cdf", "betalaw.beta_cdf"),
    ("betalaw", "beta_quantile", "betalaw.beta_quantile"),
    ("planner", "min_measurements", "planner.min_measurements"),
    ("planner", "confidence_at", "planner.confidence_at"),
    ("cli", "main", "cli.main"),
    ("sigmodel", "UlaModel.jacobian", "sigmodel.jacobian"),
)


def _span_name(name: str, args) -> str:
    if name == "randcomp.sample":
        return f"randcomp.sample.{args[0].family}"
    return name


def _span_work(name: str, args) -> int:
    """Points evaluated by a law call; one for every other call."""
    if name in ("betalaw.beta_cdf", "betalaw.beta_quantile"):
        return int(np.size(args[1]))
    return 1


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    parent: int
    name: str
    start_ns: int
    end_ns: int
    work: int
    raised: str | None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """In-memory span recorder and the patches that feed it."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> tuple[int, int]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, work, raised) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[sid] = Span(sid, parent, name, start, end, work, raised)

    def call(self, name: str, fn, *args):
        """Run ``fn`` inside a span called ``name``."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _span_name(name, args)
            sid, parent = tracer._open(span)
            raised = None
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                tracer._close(sid, parent, span, start, _span_work(name, args), raised)

        return traced

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Wrap every target wherever a ``crbcompress`` namespace binds it."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for k, m in sorted(sys.modules.items()) if k == "crbcompress" or k.startswith("crbcompress.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules[f"crbcompress.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # ------------------------------------------------------------ output

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def write(self, path) -> None:
        """All spans as gzipped CSV: id,parent,name,start_ns,end_ns,work,raised."""
        with gzip.open(path, "wt", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,name,start_ns,end_ns,work,raised\n")
            for s in self.finished():
                fh.write(f"{s.id},{s.parent},{s.name},{s.start_ns},{s.end_ns},{s.work},{s.raised or ''}\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Seconds of each span not covered by any of its children."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start_ns
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, cursor, s.start_ns), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end_ns - s.start_ns - covered) * 1e-9
    return out


def layer_metrics(spans: list[Span], batches: int) -> dict[str, float]:
    """Per-layer figures from the spans of ``batches`` traced batches.

    ``.us``/``.ms`` are mean inclusive time per call (0 when the layer
    was never called); ``.self_s`` is mean self time per call;
    ``.us_per_point`` is inclusive time over points evaluated; counts
    are per batch unless named per query.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    self_s = self_times(spans)

    def mean_time(name: str, scale: float) -> float:
        group = by_name.get(name, [])
        return scale * sum(s.seconds for s in group) / len(group) if group else 0.0

    def mean_self(name: str) -> float:
        group = by_name.get(name, [])
        return sum(self_s[s.id] for s in group) / len(group) if group else 0.0

    def per_point(name: str) -> float:
        group = by_name.get(name, [])
        points = sum(s.work for s in group)
        return 1e6 * sum(s.seconds for s in group) / points if points else 0.0

    fim = by_name.get("fisher.compressed_fim", [])
    plans = by_name.get("planner.min_measurements", [])
    plan_ids = {s.id for s in plans}
    conf_calls = sum(1 for s in by_name.get("planner.confidence_at", []) if s.parent in plan_ids)
    law_spans = by_name.get("betalaw.beta_cdf", []) + by_name.get("betalaw.beta_quantile", [])
    per_batch = 1.0 / batches
    return {
        "fisher.compressed_fim.us": mean_time("fisher.compressed_fim", 1e6),
        "fisher.compressed_fim.calls": len(fim) * per_batch,
        "fisher.compressed_fim.raised": sum(1 for s in fim if s.raised) * per_batch,
        "cxla.orthonormal_columns.us": mean_time("cxla.orthonormal_columns", 1e6),
        "randcomp.sample.gaussian.us": mean_time("randcomp.sample.gaussian", 1e6),
        "randcomp.sample.stiefel.us": mean_time("randcomp.sample.stiefel", 1e6),
        "randcomp.sample.spherical_rows.us": mean_time("randcomp.sample.spherical_rows", 1e6),
        "randcomp.derive_stream.us": mean_time("randcomp.derive_stream", 1e6),
        "fisher.compressed_kl.us": mean_time("fisher.compressed_kl", 1e6),
        "fisher.crb.us": mean_time("fisher.crb", 1e6),
        "cxla.orthonormal_range.us": mean_time("cxla.orthonormal_range", 1e6),
        "mcharness.run.self_s": mean_self("mcharness.run"),
        "mcharness.ks_one_sample.ms": mean_time("mcharness.ks_one_sample", 1e3),
        "mcharness.histogram.ms": mean_time("mcharness.histogram", 1e3),
        "betalaw.beta_cdf.us_per_point": per_point("betalaw.beta_cdf"),
        "betalaw.beta_quantile.us_per_point": per_point("betalaw.beta_quantile"),
        "betalaw.noconvergence": sum(1 for s in law_spans if s.raised == "NoConvergence") * per_batch,
        "planner.min_measurements.us": mean_time("planner.min_measurements", 1e6),
        "planner.confidence_at.calls_per_query": conf_calls / len(plans) if plans else 0.0,
        "cli.main.self_s": mean_self("cli.main"),
        "sigmodel.jacobian.us": mean_time("sigmodel.jacobian", 1e6),
    }
