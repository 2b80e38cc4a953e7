"""Spans around desguard's public functions, installed from outside.

`installed(tracer)` swaps each traced function, in every loaded
``desguard`` module that holds it, for a wrapper that records a span
(name, start, end, parent span, model id) plus the counts read off its
result, and restores the originals on exit. Spans stay in memory until
the caller writes them out. Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time


def _states(result):
    return {"states": len(result.states)}


def _closed_loop(result):
    return {"states": len(result.model.states), "transitions": len(result.model.transitions)}


def _labeled(result):
    return {"states": len(result.automaton.states)}


def _verifier(result):
    return {
        "verifier_states": len(result.verifier.states) if result.verifier else 0,
        "tracker_states": len(result.tracker.states) if result.tracker else 0,
    }


def _explored(result):
    return {"explored": result.explored}


def _doc_bytes(result):
    return {"bytes": len(result.encode())}


# span name -> (module, function, counts read off the result)
TRACED = {
    "synthesis.supremal_controllable": ("desguard.synthesis", "supremal_controllable", None),
    "synthesis.check_observability": ("desguard.synthesis", "check_observability", None),
    "synthesis.realize_supervisor": ("desguard.synthesis", "realize_supervisor", _states),
    "attacks.build_model": ("desguard.attacks", "build_model", _closed_loop),
    "diagnosis.label_compose": ("desguard.diagnosis", "label_compose", _labeled),
    "diagnosis.build_diagnoser": ("desguard.diagnosis", "build_diagnoser", _labeled),
    "diagnosis.build_verifier": ("desguard.diagnosis", "build_verifier", _verifier),
    "safety.check_gf_safe_diagnoser": ("desguard.safety", "check_gf_safe_diagnoser", None),
    "safety.check_ae_safe_verifier": ("desguard.safety", "check_ae_safe_verifier", None),
    "safety.oracle_defense_simulation": ("desguard.safety", "oracle_defense_simulation", None),
    "runtime.run_exhaustive": ("desguard.runtime", "run_exhaustive", _explored),
    "modelio.model_to_doc": ("desguard.modelio", "model_to_doc", None),
    "modelio.attacked_to_doc": ("desguard.modelio", "attacked_to_doc", None),
    "modelio.dumps_doc": ("desguard.modelio", "dumps_doc", _doc_bytes),
    "modelio.load_path": ("desguard.modelio", "load_path", None),
    "automata.deadlock_states": ("desguard.automata", "deadlock_states", None),
    "automata.blocking_states": ("desguard.automata", "blocking_states", None),
}


class Tracer:
    """Collects spans; `model` tags the spans opened while it is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self.model: str | None = None
        self._open: list[int] = []

    def call(self, name, counts, fn, args, kwargs):
        span = {
            "name": name,
            "model": self.model,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        if counts is not None:
            span["counts"] = counts(result)
        return result

    def take(self) -> list[dict]:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def _wrap(tracer: Tracer, name: str, fn, counts):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, counts, fn, args, kwargs)

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every function in TRACED while the block runs."""
    swapped = []
    for name, (module_name, attr, counts) in TRACED.items():
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = _wrap(tracer, name, original, counts)
        for module_key, module in list(sys.modules.items()):
            if module_key.split(".")[0] != "desguard":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    swapped.append((module, key, original))
    try:
        yield tracer
    finally:
        for module, key, original in reversed(swapped):
            setattr(module, key, original)


def _covered(spans: list[dict], names) -> float:
    """Seconds inside spans named in `names`, not counting nested ones twice."""
    total = 0.0
    for span in spans:
        if span["name"] not in names:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] not in names:
            parent = spans[parent]["parent"]
        if parent is None:
            total += span["end"] - span["start"]
    return total


def _self_seconds(spans: list[dict], name: str) -> float:
    """Seconds inside spans named `name` minus their direct child spans."""
    total = 0.0
    for span in spans:
        if span["name"] == name:
            total += span["end"] - span["start"]
        elif span["parent"] is not None and spans[span["parent"]]["name"] == name:
            total -= span["end"] - span["start"]
    return total


def _count_sum(spans: list[dict], name: str, key: str) -> int:
    return sum(s["counts"][key] for s in spans if s["name"] == name)


def _per_model(spans: list[dict], name: str, key: str) -> int:
    """Sum over models of the count, taken once per model."""
    seen = {}
    for span in spans:
        if span["name"] == name:
            seen.setdefault(span["model"], span["counts"][key])
    return sum(seen.values())


LAYER_SECONDS = {
    "synthesis.supremal_controllable_s": ("synthesis.supremal_controllable",),
    "synthesis.check_observability_s": ("synthesis.check_observability",),
    "synthesis.realize_supervisor_s": ("synthesis.realize_supervisor",),
    "attacks.build_model_s": ("attacks.build_model",),
    "diagnosis.label_compose_s": ("diagnosis.label_compose",),
    "diagnosis.build_diagnoser_s": ("diagnosis.build_diagnoser",),
    "diagnosis.build_verifier_s": ("diagnosis.build_verifier",),
    "safety.diagnoser_check_s": ("safety.check_gf_safe_diagnoser",),
    "safety.verifier_check_s": ("safety.check_ae_safe_verifier",),
    "safety.oracle_s": ("safety.oracle_defense_simulation",),
    "runtime.run_exhaustive_s": ("runtime.run_exhaustive",),
    "modelio.dump_s": ("modelio.model_to_doc", "modelio.attacked_to_doc", "modelio.dumps_doc"),
    "modelio.load_s": ("modelio.load_path",),
    "automata.deadlock_states_s": ("automata.deadlock_states",),
    "automata.blocking_states_s": ("automata.blocking_states",),
}

SELF_SECONDS = {
    "safety.diagnoser_check_self_s": "safety.check_gf_safe_diagnoser",
    "safety.verifier_check_self_s": "safety.check_ae_safe_verifier",
}


# metric -> (span name, count key, how spans combine)
COUNTS = {
    "synthesis.supervisor_states": ("synthesis.realize_supervisor", "states", _count_sum),
    "attacks.closed_loop_states": ("attacks.build_model", "states", _count_sum),
    "attacks.closed_loop_transitions": ("attacks.build_model", "transitions", _count_sum),
    "diagnosis.labeled_states": ("diagnosis.label_compose", "states", _per_model),
    "diagnosis.diagnoser_states": ("diagnosis.build_diagnoser", "states", _count_sum),
    "diagnosis.verifier_states": ("diagnosis.build_verifier", "verifier_states", _count_sum),
    "diagnosis.tracker_states": ("diagnosis.build_verifier", "tracker_states", _count_sum),
    "runtime.explored_nodes": ("runtime.run_exhaustive", "explored", _count_sum),
    "modelio.doc_bytes": ("modelio.dumps_doc", "bytes", _count_sum),
}


def summarize(groups: list[list[dict]]) -> dict[str, float]:
    """Layer seconds and counts over span lists of separate processes."""
    out = {}
    for metric, names in LAYER_SECONDS.items():
        out[metric] = sum(_covered(spans, names) for spans in groups)
    for metric, name in SELF_SECONDS.items():
        out[metric] = sum(_self_seconds(spans, name) for spans in groups)
    for metric, (name, key, how) in COUNTS.items():
        out[metric] = sum(how(spans, name, key) for spans in groups)
    return out
