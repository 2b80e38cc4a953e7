"""Model files, verdict documents, and graph export.

One JSON document format covers plants, supervisors, and built attack
models; serialization is canonical (sorted keys, sorted lists) so that
parse and serialize round-trip byte-for-byte.  Built attack models carry
a provenance header (mode, vulnerable set, tool version) plus the
supervisor/plant component of every composed state, so analyses work on
reloaded models without the original inputs.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from . import __version__
from .attacks import (
    MODES,
    AttackedModel,
    artifact_suffix,
)
from .automata import (
    AE_ATTACKED,
    GENUINE,
    RENAMED,
    SE_ERASED,
    SI_ONSET,
    Alphabet,
    Automaton,
    EventInfo,
    state_name,
)

ATTACKED_MODEL_FORMAT = "attacked-model"
AUTOMATON_FORMAT = "automaton"

EVENT_KINDS = (GENUINE, AE_ATTACKED, SE_ERASED, SI_ONSET, RENAMED)


class ModelFormatError(ValueError):
    """A model document is malformed; the message pinpoints the entry."""


@dataclass(frozen=True)
class ModelDocument:
    """A plant or supervisor file: automaton, attributes, unsafe states."""

    automaton: Automaton
    alphabet: Alphabet
    unsafe: frozenset[str]


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise ModelFormatError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ModelFormatError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def parse_model(doc: dict, where: str = "model") -> ModelDocument:
    """Validate and load a plant/supervisor document."""
    states = _require(doc, "states", list, where)
    initial = _require(doc, "initial", str, where)
    events = _require(doc, "events", list, where)
    transitions = _require(doc, "transitions", list, where)
    marked = doc.get("marked", [])
    unsafe = doc.get("unsafe", [])

    state_set = set()
    for i, state in enumerate(states):
        if not isinstance(state, str):
            raise ModelFormatError(f"{where}: states[{i}] must be a string")
        if state in state_set:
            raise ModelFormatError(f"{where}: duplicate state {state!r}")
        state_set.add(state)

    infos: dict[str, EventInfo] = {}
    for i, entry in enumerate(events):
        here = f"{where}: events[{i}]"
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{here} must be an object")
        name = _require(entry, "name", str, here)
        if name in infos:
            raise ModelFormatError(f"{here}: duplicate event {name!r}")
        kind = entry.get("kind", GENUINE)
        if kind not in EVENT_KINDS:
            raise ModelFormatError(f"{here}: unknown kind {kind!r}")
        if kind == GENUINE and artifact_suffix(name):
            raise ModelFormatError(
                f"{here}: event name {name!r} uses a reserved artifact suffix"
            )
        infos[name] = EventInfo(
            observable=bool(_require(entry, "observable", bool, here)),
            controllable=bool(_require(entry, "controllable", bool, here)),
            vulnerable=bool(entry.get("vulnerable", False)),
            kind=kind,
            base=entry.get("base"),
        )

    trans: dict[tuple[str, str], str] = {}
    for i, entry in enumerate(transitions):
        here = f"{where}: transitions[{i}]"
        if not isinstance(entry, dict):
            raise ModelFormatError(f"{here} must be an object")
        src = _require(entry, "from", str, here)
        event = _require(entry, "event", str, here)
        dst = _require(entry, "to", str, here)
        for state in (src, dst):
            if state not in state_set:
                raise ModelFormatError(f"{here}: unknown state {state!r}")
        if event not in infos:
            raise ModelFormatError(f"{here}: unknown event {event!r}")
        if (src, event) in trans:
            raise ModelFormatError(
                f"{here}: duplicate transition on {event!r} from {src!r}"
            )
        trans[(src, event)] = dst

    if initial not in state_set:
        raise ModelFormatError(f"{where}: initial state {initial!r} not declared")
    for i, state in enumerate(marked):
        if state not in state_set:
            raise ModelFormatError(f"{where}: marked[{i}] unknown state {state!r}")
    for i, state in enumerate(unsafe):
        if state not in state_set:
            raise ModelFormatError(f"{where}: unsafe[{i}] unknown state {state!r}")

    automaton = Automaton(
        frozenset(state_set), frozenset(infos), trans, initial, frozenset(marked)
    )
    try:
        alphabet = Alphabet(infos)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc
    return ModelDocument(automaton, alphabet, frozenset(unsafe))


def _names(automaton: Automaton) -> dict:
    """Each state's display name, rendered once."""
    return {s: state_name(s) for s in automaton.states}


def model_to_doc(
    automaton: Automaton, alphabet: Alphabet, unsafe: frozenset = frozenset()
) -> dict:
    """Canonical plain document for a plant/supervisor."""
    return _model_doc(automaton, alphabet, unsafe, _names(automaton))


def _model_doc(automaton, alphabet, unsafe, name) -> dict:
    """`model_to_doc` with each state's name already in `name`."""
    events = []
    for event in sorted(automaton.events):
        info = alphabet[event]
        entry = {
            "name": event,
            "observable": info.observable,
            "controllable": info.controllable,
        }
        if info.vulnerable:
            entry["vulnerable"] = True
        if info.kind != GENUINE:
            entry["kind"] = info.kind
            entry["base"] = info.base
        events.append(entry)
    return {
        "format": AUTOMATON_FORMAT,
        "states": sorted(name.values()),
        "initial": name[automaton.initial],
        "marked": sorted(name[s] for s in automaton.marked),
        "events": events,
        "transitions": [
            {"from": src, "event": event, "to": dst}
            for src, event, dst in sorted(
                (name[s], e, name[d]) for (s, e), d in automaton.transitions.items()
            )
        ],
        "unsafe": sorted(state_name(s) for s in unsafe),
    }


def attacked_to_doc(model: AttackedModel) -> dict:
    """Canonical document for a built attack model, with provenance."""
    aut = model.model
    name = _names(aut)
    doc = _model_doc(aut, model.alphabet, model.unsafe_states, name)
    doc["format"] = ATTACKED_MODEL_FORMAT
    doc["tool_version"] = __version__
    doc["mode"] = model.mode
    doc["vulnerable"] = sorted(
        e for e in model.alphabet if model.alphabet[e].vulnerable
    )
    doc["attack_events"] = sorted(model.attack_events)
    part = functools.cache(state_name)  # component states recur across pairs
    doc["components"] = {
        name[s]: {
            "supervisor": part(model.supervisor_component(s)),
            "plant": part(model.plant_component(s)),
        }
        for s in sorted(aut.states, key=name.__getitem__)
    }
    return doc


def parse_attacked(doc: dict, where: str = "model") -> AttackedModel:
    """Load a built attack model; states become their display names."""
    base = parse_model(doc, where)
    mode = _require(doc, "mode", str, where)
    if mode not in MODES:
        raise ModelFormatError(f"{where}: unknown mode {mode!r}")
    attack_events = frozenset(_require(doc, "attack_events", list, where))
    unknown = attack_events - base.alphabet.events()
    if unknown:
        raise ModelFormatError(f"{where}: undeclared attack events {sorted(unknown)}")
    components_doc = _require(doc, "components", dict, where)
    components = {}
    for state in base.automaton.states:
        if state not in components_doc:
            raise ModelFormatError(f"{where}: components missing state {state!r}")
        entry = components_doc[state]
        if not isinstance(entry, dict) or {"supervisor", "plant"} - entry.keys():
            raise ModelFormatError(
                f"{where}: components[{state!r}] needs supervisor and plant names"
            )
        components[state] = (entry["supervisor"], entry["plant"])
    return AttackedModel(
        model=base.automaton,
        alphabet=base.alphabet,
        attack_events=attack_events,
        unsafe_states=base.unsafe,
        mode=mode,
        components=components,
    )


def dumps_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_path(path: str):
    """Load a model file; returns ModelDocument or AttackedModel by format."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: document must be an object")
    if doc.get("format") == ATTACKED_MODEL_FORMAT:
        return parse_attacked(doc, where=path)
    return parse_model(doc, where=path)


VERDICT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["safe", "method"],
    "properties": {
        "safe": {"type": "boolean"},
        "method": {"enum": ["diagnoser", "verifier", "oracle", "all"]},
        "violated_condition": {
            "type": ["string", "null"],
            "enum": [
                "uncertain-unsafe",
                "first-certain-unsafe",
                "uncontrollable-unsafe",
                "verifier-pair-unsafe",
                "verifier-post-detection-unsafe",
                None,
            ],
        },
        "counterexample": {
            "type": ["array", "null"],
            "items": {"type": "string"},
        },
        "x_uc": {"type": ["array", "null"], "items": {"type": "string"}},
        "witness_state": {"type": ["string", "null"]},
        "deadlocks": {"type": "array", "items": {"type": "string"}},
        "blocking": {"type": "boolean"},
        "methods_agree": {"type": "boolean"},
    },
    "additionalProperties": False,
}


def verdict_to_doc(verdict, deadlocks=None, blocking=None, methods_agree=None) -> dict:
    doc = {
        "safe": verdict.safe,
        "method": verdict.method,
        "violated_condition": verdict.violated_condition,
        "counterexample": list(verdict.counterexample)
        if verdict.counterexample
        else None,
        "x_uc": sorted(state_name(s) for s in verdict.x_uc)
        if verdict.x_uc is not None
        else None,
        "witness_state": verdict.witness_state,
    }
    if deadlocks is not None:
        doc["deadlocks"] = sorted(state_name(s) for s in deadlocks)
    if blocking is not None:
        doc["blocking"] = blocking
    if methods_agree is not None:
        doc["methods_agree"] = methods_agree
    return doc


def to_dot(
    automaton: Automaton,
    alphabet: Alphabet | None = None,
    unsafe: frozenset = frozenset(),
    title: str = "model",
) -> str:
    """Graphviz rendering: unsafe states are boxes, marked states are
    double circles, attack-artifact transitions are dashed."""
    name = _names(automaton)
    unsafe_names = {state_name(s) for s in unsafe}
    marked_names = {name[s] for s in automaton.marked}
    lines = [f"digraph \"{title}\" {{", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append("  __start [shape=point, label=\"\"];")
    for state in sorted(name.values()):
        if state in unsafe_names:
            shape = "box"
        elif state in marked_names:
            shape = "doublecircle"
        else:
            shape = "circle"
        lines.append(f'  "{state}" [shape={shape}];')
    lines.append(f'  __start -> "{name[automaton.initial]}";')
    edges = sorted(
        (name[s], e, name[d]) for (s, e), d in automaton.transitions.items()
    )
    for src, event, dst in edges:
        style = ""
        artificial = artifact_suffix(event) is not None
        if alphabet is not None and event in alphabet:
            artificial = alphabet[event].kind != GENUINE
        if artificial:
            style = ", style=dashed"
        lines.append(f'  "{src}" -> "{dst}" [label="{event}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
