"""Spans around calls into famlearn's layers, recorded from outside the package.

:func:`installed` wraps the public functions listed in :data:`LAYERS` and
puts each wrapper everywhere the original is bound: the module that
defines it, every ``famlearn`` module that imported it by name, the
package namespace and the CLI's handler table.  A wrapper records one span
per call (name, start, end, parent, attributes) in the current pass's
list.  A layer's self time is its spans' durations minus the durations of
their direct children, so time is never counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

#: span name -> (module, attributes wrapped under that name)
LAYERS = {
    "cli.main": ("famlearn.cli", ("main",)),
    "cli.handler": (
        "famlearn.cli",
        (
            "cmd_validate",
            "cmd_eval",
            "cmd_sweep",
            "cmd_disagree",
            "cmd_closed_forms",
            "cmd_search",
        ),
    ),
    "cli.parse": (
        "famlearn.cli",
        (
            "ExperimentSpec.load",
            "ExperimentSpec.model_optional",
            "ExperimentSpec.model",
            "ExperimentSpec.problem_for",
            "ExperimentSpec.problem",
            "ExperimentSpec.mechanism_section",
            "ExperimentSpec.mechanism",
        ),
    ),
    "cli.write": ("famlearn.cli", ("write_json", "write_csv")),
    "signals.validate": ("famlearn.signals", ("validate",)),
    "automata.build": (
        "famlearn.automata",
        (
            "build_from_blueprint",
            "build_line",
            "build_star",
            "build_noisy_star",
            "build_symmetric_full",
            "build_symmetric_ignorant",
        ),
    ),
    "automata.kernel": ("famlearn.automata", ("expected_transition_matrix",)),
    "chain.occupancy": ("famlearn.chain", ("occupancy_profile",)),
    "chain.stationary": ("famlearn.chain", ("stationary",)),
    "chain.classes": ("famlearn.chain", ("recurrent_classes",)),
    "chain.joint": ("famlearn.chain", ("joint_occupancy",)),
    "chain.mc": ("famlearn.chain", ("monte_carlo_occupancy",)),
    "diagnostics.report": ("famlearn.diagnostics", ("diagnostics_report",)),
    "diagnostics.closed_form": (
        "famlearn.diagnostics",
        ("star_occupancy_closed_form", "pair_commitment_losses", "symmetric_utilities"),
    ),
    "search.enumerate": ("famlearn.search", ("enumerate_deterministic",)),
    "search.anneal": ("famlearn.search", ("local_search",)),
}


def _argument(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _stationary_attrs(args, kwargs, result):
    q = _argument(args, kwargs, 0, "q")
    return {"states": len(q), "nonfinite": int(not np.isfinite(result).all())}


def _mc_attrs(args, kwargs, result):
    return {"steps": int(_argument(args, kwargs, 3, "steps"))}


def _enumerate_attrs(args, kwargs, result):
    problem = _argument(args, kwargs, 0, "problem")
    m = int(_argument(args, kwargs, 1, "m_size"))
    return {"tables": m ** (m * problem.model.alphabet_size)}


def _anneal_attrs(args, kwargs, result):
    config = _argument(args, kwargs, 1, "config")
    return {"evals": config.restarts * config.iterations}


#: attributes recorded when a call returns, from its arguments and result
ATTRIBUTES = {
    "chain.stationary": _stationary_attrs,
    "chain.mc": _mc_attrs,
    "search.enumerate": _enumerate_attrs,
    "search.anneal": _anneal_attrs,
}


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span log, one list per pass; spans nest because calls do."""

    def __init__(self):
        self.passes: list[list[Span]] = []
        self._stack: list[int] = []

    def new_pass(self) -> None:
        self.passes.append([])

    def wrap(self, name: str, fn):
        attrs = ATTRIBUTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.passes[-1]
            span = Span(name, self._stack[-1] if self._stack else -1)
            self._stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return wrapper


def _famlearn_namespaces():
    for name, module in list(sys.modules.items()):
        if name == "famlearn" or name.startswith("famlearn."):
            yield vars(module)
    yield sys.modules["famlearn.cli"].HANDLERS


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every call to a listed function through ``tracer`` while open."""
    undo = []
    for name, (module_name, attributes) in LAYERS.items():
        module = sys.modules[module_name]
        for dotted in attributes:
            owner_name, _, attr = dotted.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    replacement = classmethod(tracer.wrap(name, raw.__func__))
                else:
                    replacement = tracer.wrap(name, raw)
                setattr(owner, attr, replacement)
                undo.append((owner, attr, raw, True))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original)
            for namespace in _famlearn_namespaces():
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapper
                        undo.append((namespace, key, original, False))
    try:
        yield tracer
    finally:
        for target, key, original, is_class in reversed(undo):
            if is_class:
                setattr(target, key, original)
            else:
                target[key] = original


def _self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


def _has_ancestor(spans, index, names) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass's spans (times in ms per pass)."""
    own = _self_times(spans)
    self_ms: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    for span, own_s in zip(spans, own):
        self_ms[span.name] = self_ms.get(span.name, 0.0) + 1e3 * own_s
        total_s[span.name] = total_s.get(span.name, 0.0) + (span.end - span.start)
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.attrs.items():
            attrs[key] = attrs.get(key, 0) + value

    def rate(numerator: str, name: str) -> float:
        return attrs.get(numerator, 0) / total_s[name] if total_s.get(name) else 0.0

    resolves = sum(
        1
        for i, span in enumerate(spans)
        if span.name == "chain.occupancy"
        and _has_ancestor(spans, i, ("search.enumerate", "search.anneal"))
    )
    evals = attrs.get("evals", 0)
    return {
        "cli.parse_ms": self_ms.get("cli.parse", 0.0),
        "cli.write_ms": self_ms.get("cli.write", 0.0),
        "cli.self_ms": self_ms.get("cli.main", 0.0) + self_ms.get("cli.handler", 0.0),
        "signals.validate_ms": self_ms.get("signals.validate", 0.0),
        "automata.build_ms": self_ms.get("automata.build", 0.0),
        "automata.kernel_ms": self_ms.get("automata.kernel", 0.0),
        "chain.stationary_ms": self_ms.get("chain.stationary", 0.0),
        "chain.stationary_calls": calls.get("chain.stationary", 0),
        "chain.states_solved": attrs.get("states", 0),
        "chain.occupancy_calls": calls.get("chain.occupancy", 0),
        "chain.nonfinite_results": attrs.get("nonfinite", 0),
        "chain.classes_ms": self_ms.get("chain.classes", 0.0),
        "chain.joint_ms": self_ms.get("chain.joint", 0.0),
        "chain.mc_steps_per_s": rate("steps", "chain.mc"),
        "diagnostics.report_ms": self_ms.get("diagnostics.report", 0.0),
        "diagnostics.closed_form_ms": self_ms.get("diagnostics.closed_form", 0.0),
        "search.enumerate_ms": self_ms.get("search.enumerate", 0.0),
        "search.tables_per_s": rate("tables", "search.enumerate"),
        "search.anneal_us_per_eval": 1e6 * total_s.get("search.anneal", 0.0) / evals
        if evals
        else 0.0,
        "search.exact_resolves": resolves,
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over passes of each per-pass layer metric."""
    per_pass = [pass_metrics(spans) for spans in tracer.passes]
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
