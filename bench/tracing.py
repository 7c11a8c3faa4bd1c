"""Spans around the fiberfit layers, recorded from outside the package.

:func:`traced` replaces the module-level names through which the layers call
each other (``fitting.initialize``, ``fitting.ofa_loglik``,
``scales.segment_integrals``, ...) with timing wrappers, and puts the
original objects back when the block exits, so untraced runs execute the
package's own functions.  Spans are kept in memory; :func:`layer_metrics`
turns them into the per-layer metrics and :func:`write_spans` saves them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from fiberfit import cli, fitting, likelihood, quadrature, scales, summary

KRONROD_NODES = 15

# who calls segment_integrals through which module-level name
QUADRATURE_SITES = (
    (scales, "suffix"),  # censored suffix integrals (and k_theta)
    (likelihood, "normalizer"),  # microscopy k_theta normalizer stack
    (quadrature, "integrate"),  # integrate(): W-scale means and moments
)

FIT = "fitting.fit"
INIT = "fitting.initialize"
SUMMARY = "summary.summary_stats"
MAIN = "cli.main"
LIKELIHOOD_INIT = "likelihood.init"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    fit_id: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one fit id per request the harness issues."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.fit_id = -1

    def next_fit(self):
        self.fit_id += 1

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as a span; ``name`` may be a function of the call's arguments."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = Span(label, 0.0, 0.0, self._open[-1] if self._open else None, self.fit_id)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(span, out)
            return out

        return wrapper

    def wrap_quadrature(self, site: str, fn):
        """segment_integrals with its integrand counted: points evaluated and stack rows."""

        @functools.wraps(fn)
        def counted_segment_integrals(f, edges, *args, **kwargs):
            span = self.spans[self._open[-1]]  # opened by the wrap() around this function
            span.info.update(segments=int(np.size(edges)) - 1, points=0, rows=1)

            def integrand(y):
                vals = f(y)
                span.info["points"] += int(np.size(y))
                if np.ndim(vals) == 2:
                    span.info["rows"] = int(np.shape(vals)[0])
                return vals

            return fn(integrand, edges, *args, **kwargs)

        return self.wrap(f"quadrature.{site}", counted_segment_integrals)


def _loglik_name(args, kwargs) -> str:
    order = kwargs.get("order", args[4] if len(args) > 4 else 0)
    return f"likelihood.o{order}"


def _record_fit(span: Span, result):
    span.info.update(
        nit=sum(rec.n_iter for rec in result.trace),
        starts=result.starts_tried,
        starts_ok=sum(rec.status == "success" for rec in result.trace),
    )


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the span wrappers for the duration of the block, then restore."""
    sites = [
        (fitting, "fit", tracer.wrap(FIT, fitting.fit, after=_record_fit)),
        (cli, "fit", tracer.wrap(FIT, cli.fit, after=_record_fit)),
        (fitting, "initialize", tracer.wrap(INIT, fitting.initialize)),
        (fitting, "ofa_loglik", tracer.wrap(_loglik_name, fitting.ofa_loglik)),
        (fitting, "micro_loglik", tracer.wrap(_loglik_name, fitting.micro_loglik)),
        (fitting, "init_loglik", tracer.wrap(LIKELIHOOD_INIT, fitting.init_loglik)),
        (summary, "summary_stats", tracer.wrap(SUMMARY, summary.summary_stats)),
        (cli, "summary_stats", tracer.wrap(SUMMARY, cli.summary_stats)),
        (cli, "main", tracer.wrap(MAIN, cli.main)),
    ]
    sites += [
        (module, "segment_integrals", tracer.wrap_quadrature(site, module.segment_integrals))
        for module, site in QUADRATURE_SITES
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in sites]
    try:
        for module, attr, wrapper in sites:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _self_times(spans: list[Span], child_names=None) -> list[float]:
    """Span duration minus the time its direct children cover (children run in sequence)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None and (child_names is None or span.name in child_names):
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def layer_metrics(spans: list[Span], fits: int) -> dict:
    """Per-fit layer metrics (time in s, counts, computed MB) from one traced pass."""
    self_s = _self_times(spans)
    cli_self = _self_times(spans, child_names={FIT, SUMMARY})

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def count(name):
        return sum(s.name == name for s in spans)

    fit_spans = [s for s in spans if s.name == FIT]
    starts = sum(s.info.get("starts", 0) for s in fit_spans)
    objective_calls = sum(
        s.name in ("likelihood.o0", "likelihood.o1")
        and s.parent is not None
        and spans[s.parent].name == FIT
        for s in spans
    )
    loglik_names = ("likelihood.o0", "likelihood.o1", "likelihood.o2", LIKELIHOOD_INIT)

    out = {
        "fitting.init_s": total(INIT),
        "fitting.opt_self_s": sum(t for s, t in zip(spans, self_s) if s.name == FIT),
        "fitting.nit": sum(s.info.get("nit", 0) for s in fit_spans),
        "fitting.nfev": objective_calls,
        "likelihood.calls_o0": count("likelihood.o0"),
        "likelihood.calls_o1": count("likelihood.o1"),
        "likelihood.calls_o2": count("likelihood.o2"),
        "likelihood.o1_s": total("likelihood.o1"),
        "likelihood.o2_s": total("likelihood.o2"),
        "likelihood.init_calls": count(LIKELIHOOD_INIT),
        "likelihood.init_s": total(LIKELIHOOD_INIT),
        "likelihood.self_s": sum(t for s, t in zip(spans, self_s) if s.name in loglik_names),
        "summary.s": total(SUMMARY),
        "cli.self_s": sum(t for s, t in zip(spans, cli_self) if s.name == MAIN),
    }
    out = {k: v / fits for k, v in out.items()}
    out["fitting.start_ok_ratio"] = (
        sum(s.info.get("starts_ok", 0) for s in fit_spans) / starts if starts else 0.0
    )

    for _, site in QUADRATURE_SITES:
        calls = [s for s in spans if s.name == f"quadrature.{site}"]
        segments = sum(s.info["segments"] for s in calls)
        panels = sum(s.info["points"] for s in calls) // KRONROD_NODES
        # each bisection replaces one panel by two freshly evaluated halves
        splits = (panels - segments) // 2
        computed = sum(s.info["points"] * s.info["rows"] * 8 for s in calls)
        prefix = f"quadrature.{site}"
        out[f"{prefix}.calls"] = len(calls) / fits
        out[f"{prefix}.s"] = sum(s.duration for s in calls) / fits
        out[f"{prefix}.segments"] = segments / fits
        out[f"{prefix}.panels"] = panels / fits
        out[f"{prefix}.splits"] = splits / fits
        out[f"{prefix}.yield"] = (segments + splits) / panels if panels else 0.0
        out[f"{prefix}.computed_mb"] = computed / 1e6 / fits
    return out


def write_spans(spans: list[Span], path):
    path.write_text(json.dumps([asdict(s) for s in spans]) + "\n")
