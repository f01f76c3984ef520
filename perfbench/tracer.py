"""Spans around the package's public functions, recorded from outside it.

`Tracer.installed` replaces each traced function's module attribute with a
wrapper and puts the original back on exit.  The package calls its own
layers through module attributes (`bell.behavior_from_state`,
`graphs.enumerate_classes` and so on), so the calls it makes inside
`stabilizer_value` or `w_heatmap` are recorded too.  Spans stay in memory;
the run writes them out when it ends.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from magicwit import bell, graphs, optimize, states

HIT_TOL = 1e-6


@dataclass
class Span:
    name: str
    label: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _class_label(source) -> str:
    if not isinstance(source, tuple):
        return "fixed state"
    return " (+) ".join(f"d={a.d} edges={a.edges() or '-'}" for a in source)


def _report_counts(rep: optimize.OptimizationReport) -> dict[str, int]:
    best = max(rep.restart_values)
    return {
        "restarts": len(rep.restart_values),
        "best_iterations": rep.iterations,
        "unconverged": int(not rep.converged),
        "hits": sum(v >= best - HIT_TOL for v in rep.restart_values),
    }


def _no_label(*args, **kwargs) -> str:
    return ""


def _no_counts(args, kwargs, out) -> dict[str, int]:
    return {}


def _ineq_name(*args, **kwargs) -> str:
    return _arg(args, kwargs, 0, "ineq").name


def _register(*args, **kwargs) -> str:
    return f"n={_arg(args, kwargs, 0, 'n')} d={_arg(args, kwargs, 1, 'd')}"


def _assignment_label(*args, **kwargs) -> str:
    return _class_label(tuple(_arg(args, kwargs, 1, "assignment")))


def _state_label(*args, **kwargs) -> str:
    return _class_label(getattr(_arg(args, kwargs, 1, "state"), "source", None))


def _matrices(args, kwargs, out) -> dict[str, int]:
    return {"matrices": out.total}


def _strategies(args, kwargs, out) -> dict[str, int]:
    ineq = _arg(args, kwargs, 0, "ineq")
    return {"strategies": math.prod(d**m for d, m in zip(ineq.outcomes, ineq.settings))}


def _measurement_counts(args, kwargs, out) -> dict[str, int]:
    source = getattr(_arg(args, kwargs, 1, "state"), "source", None)
    edgeless = isinstance(source, tuple) and not any(a.edges() for a in source)
    return {**_report_counts(out), "edgeless": int(edgeless)}


def _quantum_counts(args, kwargs, out) -> dict[str, int]:
    return _report_counts(out)


# (module, attribute, label of a call, counts of a call)
LAYERS = (
    (graphs, "enumerate_classes", _register, _matrices),
    (bell, "local_bound", _ineq_name, _strategies),
    (bell, "behavior_from_state", _no_label, _no_counts),
    (states, "assemble_cluster_state", _assignment_label, _no_counts),
    (optimize, "optimize_measurements", _state_label, _measurement_counts),
    (optimize, "quantum_value", _ineq_name, _quantum_counts),
    (optimize, "stabilizer_value", _ineq_name, _no_counts),
)


class Tracer:
    """Records one span per call into the functions of `LAYERS`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name, fn, label, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = Span(name, label(*args, **kwargs), 0.0, parent=parent)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            span.counts = counts(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, label, counts in LAYERS:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                setattr(module, attr, self._wrap(name, fn, label, counts))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced pass; self time excludes traced children."""
    children = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            children[s.parent] += s.seconds
    total, own = defaultdict(float), defaultdict(float)
    calls, counts = defaultdict(int), defaultdict(int)
    edgeless = 0.0
    for i, s in enumerate(spans):
        total[s.name] += s.seconds
        own[s.name] += s.seconds - children[i]
        calls[s.name] += 1
        for k, v in s.counts.items():
            counts[k] += v
        if s.counts.get("edgeless"):
            edgeless += s.seconds

    def per_s(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    see_saw_s = total["optimize.optimize_measurements"] + total["optimize.quantum_value"]
    m = {}
    for name in (
        "graphs.enumerate_classes",
        "bell.local_bound",
        "bell.behavior_from_state",
        "states.assemble_cluster_state",
        "optimize.optimize_measurements",
    ):
        m[f"{name}.s"] = total[name]
        m[f"{name}.calls"] = calls[name]
    m["graphs.matrices"] = counts["matrices"]
    m["graphs.matrices_per_s"] = per_s(counts["matrices"], total["graphs.enumerate_classes"])
    m["bell.strategies"] = counts["strategies"]
    m["bell.strategies_per_s"] = per_s(counts["strategies"], total["bell.local_bound"])
    m["optimize.optimize_measurements.self_s"] = own["optimize.optimize_measurements"]
    m["optimize.edgeless_class.s"] = edgeless
    m["optimize.quantum_value.self_s"] = own["optimize.quantum_value"]
    m["optimize.quantum_value.calls"] = calls["optimize.quantum_value"]
    m["optimize.stabilizer_value.self_s"] = own["optimize.stabilizer_value"]
    m["optimize.restarts"] = counts["restarts"]
    m["optimize.restarts_per_s"] = per_s(counts["restarts"], see_saw_s)
    m["optimize.best_iterations"] = counts["best_iterations"]
    m["optimize.unconverged"] = counts["unconverged"]
    m["optimize.hit_rate"] = counts["hits"] / counts["restarts"] if counts["restarts"] else 0.0
    return m


def class_seconds(spans: list[Span]) -> dict[str, float]:
    """Time of each `optimize_measurements` call under `stabilizer_value`, by class."""
    out: dict[str, float] = {}
    for s in spans:
        if s.name == "optimize.optimize_measurements" and s.parent >= 0:
            parent = spans[s.parent]
            if parent.name == "optimize.stabilizer_value":
                key = f"{parent.label}: {s.label}"
                out[key] = out.get(key, 0.0) + s.seconds
    return out
