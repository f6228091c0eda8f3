"""Span tracer wrapped around the package from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces module
attributes and ``FamilySpec`` subclass methods with timing wrappers;
``uninstall`` puts the originals back.  Every wrapped call records a span
(id, parent id, name, layer, start, end) in memory, plus the time its child
spans covered, so that a span's self time is its duration minus its
children.  Spans are aggregated when the run ends and may be written out.
"""

from __future__ import annotations

import time

import numpy as np

LAYERS = ("_quad", "expfam", "evariables", "ripr", "growth", "sequential", "cli")


def prefix(layer: str) -> str:
    """A layer's metric-name prefix: names must start with a letter or digit."""
    return layer.lstrip("_")

# FamilySpec methods whose cost an optimisation is likely to move; check_mean
# is left out because it runs inside almost every other method and would add
# more tracing cost than information.
FAMILY_METHODS = (
    "natural_from_mean",
    "log_partition",
    "sum_log_pdf",
    "quantile",
    "sum_quantile",
    "sample",
    "log_pdf",
    "log_density",
    "check_support",
    "kl",
)


class Span:
    __slots__ = ("sid", "parent", "name", "layer", "start", "end", "child", "info")

    def __init__(self, sid, parent, name, layer, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.child = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Records spans around calls into the package's modules."""

    def __init__(self, pkg, import_s: dict[str, float]):
        self.pkg = pkg
        self.import_s = import_s  # seconds each layer's import took
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name, layer) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), parent.sid if parent else -1, name, layer,
                    time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += span.duration

    def _wrap(self, fn, name, layer, info=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr, name, layer, info=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, self._wrap(orig, name, layer, info))

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        p = self.pkg
        quad, expfam, ev, ripr, gr, sq, cli = (
            p._quad, p.expfam, p.evariables, p.ripr, p.growth, p.sequential, p.cli)

        leg = quad._leggauss
        seen = {"misses": leg.cache_info().misses}

        def leg_info(args, kwargs, out):
            misses = leg.cache_info().misses
            cold = misses > seen["misses"]
            seen["misses"] = misses
            return {"n": int(args[0]), "cold": cold}

        self._patch(quad, "_leggauss", "quad.leggauss", "_quad", leg_info)
        self._patch(quad, "support_nodes", "quad.support_nodes", "_quad")
        self._patch(quad, "sum_nodes", "quad.sum_nodes", "_quad")

        def sum_pdf_info(args, kwargs, out):
            spec, mus = args[0], args[1]
            return {"key": f"{spec.family_id}.k{len(mus)}", "points": int(np.size(out))}

        for cls in [expfam.FamilySpec] + expfam.FamilySpec.__subclasses__():
            for attr in FAMILY_METHODS:
                fn = cls.__dict__.get(attr)
                if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                    info = sum_pdf_info if attr == "sum_log_pdf" else None
                    self._patch(cls, attr, f"expfam.{attr}", "expfam", info)
        self._patch(expfam, "_hypoexponential_log_pdf", "expfam.hypoexponential", "expfam")
        self._patch(expfam, "_convolve_log_pdf", "expfam.convolve", "expfam")

        def block_info(args, kwargs, out):
            shape = np.shape(out)
            return {"blocks": int(np.prod(shape)) if shape else 1,
                    "streamed": len(shape) == 0}

        for attr in ("log_s_pseudo", "log_s_gro_iid", "log_s_cond", "log_s_gro_m"):
            self._patch(ev, attr, "evariables.log_statistic", "evariables", block_info)
        self._patch(ev, "_log_statistic", "evariables.dispatch", "evariables")

        self._patch(ripr, "li_approximate", "ripr.li_approximate", "ripr",
                    lambda a, k, out: {"iters": len(out[1])})
        self._patch(ripr, "brute_force_two_component",
                    "ripr.brute_force_two_component", "ripr")
        self._patch(ripr._SumGrid, "__init__", "ripr.sumgrid.build", "ripr")
        self._patch(ripr._SumGrid, "tilt_rows", "ripr.sumgrid.tilt_rows", "ripr")
        self._patch(ripr._SumGrid, "expectations", "ripr.sumgrid.expectations", "ripr")
        self._patch(ripr._SumGrid, "check_edges", "ripr.certify", "ripr")
        self._patch(ripr, "_certify", "ripr.certify", "ripr")
        self._patch(ripr, "kl_to_mixture", "ripr.kl_to_mixture", "ripr")
        self._patch(ripr.MixtureNull, "log_density_of_sum",
                    "ripr.mixture_density", "ripr")

        self._patch(gr, "growth_rate", "growth.growth_rate", "growth")
        self._patch(gr, "growth_report", "growth.growth_report", "growth")
        self._patch(gr, "gap_pseudo_iid", "growth.gap_pseudo_iid", "growth")
        self._patch(gr, "gap_pseudo_cond", "growth.gap_pseudo_cond", "growth")
        self._patch(gr, "heatmap", "growth.heatmap", "growth",
                    lambda a, k, out: {"failed": len(out.failures)
                                       + int(np.isnan(out.gap).sum())})

        self._patch(sq.StreamState, "ingest", "sequential.ingest", "sequential")
        self._patch(sq.StreamState, "_evaluate_block", "sequential.block", "sequential")
        self._patch(sq, "simulate", "sequential.simulate", "sequential",
                    lambda a, k, out: {"trials": int(out.trials)})

        self._patch(cli, "main", "cli.main", "cli")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- aggregation ------------------------------------------------------------

    def check_spans(self) -> list[str]:
        """Self times are non-negative and, with the children, cover each span."""
        problems = []
        children: dict[int, float] = {}
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent] = children.get(s.parent, 0.0) + s.duration
        for s in self.spans:
            if s.self_time < -1e-9:
                problems.append(f"{s.name}#{s.sid}: negative self time {s.self_time}")
            covered = s.self_time + children.get(s.sid, 0.0)
            if abs(covered - s.duration) > 1e-9 * max(1.0, s.duration):
                problems.append(f"{s.name}#{s.sid}: self + children {covered} "
                                f"!= duration {s.duration}")
            if s.parent >= 0:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    problems.append(f"{s.name}#{s.sid}: outside its parent {p.name}")
        return problems

    def summary(self) -> dict:
        """Per-name and per-layer totals; the raw material for the metrics."""
        names: dict[str, dict] = {}
        layers = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            agg = names.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += s.duration
            agg["self_s"] += s.self_time
            layers[s.layer] += s.self_time
        return {"names": names, "layer_self_s": layers}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,layer,start,end,self\n")
            for s in self.spans:
                fh.write(f"{s.sid},{s.parent},{s.name},{s.layer},"
                         f"{s.start!r},{s.end!r},{s.self_time!r}\n")
