"""Model files, verdict documents, and graph export.

One JSON document format covers plants, supervisors, and built attack
models; serialization is canonical (sorted keys, sorted lists) so that
parse and serialize round-trip byte-for-byte.  Built attack models carry
a provenance header (mode, vulnerable set, tool version) plus
"components", the supervisor and plant names of every composed state;
loaded, its states are those (supervisor, plant) name pairs, whose
rendering must be the state's own name.

Model files stream both ways.  Each document renders every state once
(`_Renderer`), and `doc_chunks` yields its text in pieces, an array of
records such as `transitions` or `components` a batch at a time, so a
writer holds one piece, not the text.  `load_path` reads each transition
record as a `(from, event, to)` tuple of shared name strings, not as a
dict.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from itertools import repeat
from operator import itemgetter
from typing import Iterator, NoReturn

from . import __version__
from .attacks import (
    _RULES,
    MODES,
    AttackedModel,
    artifact_suffix,
)
from .automata import (
    AE_ATTACKED,
    GENUINE,
    SE_ERASED,
    SI_ONSET,
    Alphabet,
    Automaton,
    EventInfo,
    Value,
    state_name,
)

ATTACKED_MODEL_FORMAT = "attacked-model"
AUTOMATON_FORMAT = "automaton"

# The decision routes, as verdict documents and `desguard check --method`
# name them; ALL_METHODS runs the three and compares their answers.
DIAGNOSER = "diagnoser"
VERIFIER = "verifier"
ORACLE = "oracle"
METHODS = (DIAGNOSER, VERIFIER, ORACLE)
ALL_METHODS = "all"

# The conditions an unsafe verdict names as violated: three of the
# diagnoser test, two of the verifier test; the oracle names the first
# three by the failure its breached run shows.
UNCERTAIN_UNSAFE = "uncertain-unsafe"
FIRST_CERTAIN_UNSAFE = "first-certain-unsafe"
UNCONTROLLABLE_UNSAFE = "uncontrollable-unsafe"
VERIFIER_PAIR_UNSAFE = "verifier-pair-unsafe"
VERIFIER_POST_DETECTION_UNSAFE = "verifier-post-detection-unsafe"

EVENT_KINDS = (GENUINE, AE_ATTACKED, SE_ERASED, SI_ONSET)
ARTIFACT_KINDS = frozenset(rule.kind for rule in _RULES.values())


class ModelFormatError(ValueError):
    """A model document is malformed; the message pinpoints the entry."""


class ModelDocument(Value):
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


def _strings(doc: dict, key: str, where: str, optional: bool = False) -> list:
    """`doc[key]`, which must be a list of strings; [] when `optional` and absent."""
    if optional and key not in doc:
        return []
    values = _require(doc, key, list, where)
    for i, value in enumerate(values):
        if not isinstance(value, str):
            raise ModelFormatError(f"{where}: {key}[{i}] must be a string")
    return values


def parse_model(doc: dict, where: str = "model") -> ModelDocument:
    """Validate and load a plant/supervisor document."""
    return _parse(doc, where, lambda state: state)


def _parse(doc: dict, where: str, state_of) -> ModelDocument:
    """`parse_model`, with each declared state name `n` loaded as `state_of(n)`."""
    states = _strings(doc, "states", where)
    initial = _require(doc, "initial", str, where)
    events = _require(doc, "events", list, where)
    transitions = _require(doc, "transitions", list, where)
    marked = _strings(doc, "marked", where, optional=True)
    unsafe = _strings(doc, "unsafe", where, optional=True)

    state_map = {}
    for state in states:
        if state in state_map:
            raise ModelFormatError(f"{where}: duplicate state {state!r}")
        state_map[state] = state_of(state)

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
            vulnerable="vulnerable" in entry and _require(entry, "vulnerable", bool, here),
            kind=kind,
            base=_require(entry, "base", str, here) if "base" in entry else None,
        )
    for i, info in enumerate(infos.values()):
        if info.base is not None and info.base not in infos:
            raise ModelFormatError(f"{where}: events[{i}]: undeclared base event {info.base!r}")

    out = {state: {} for state in state_map.values()}
    for i, entry in enumerate(transitions):
        # A row is a (from, event, to) triple, as `load_path` reads one, or
        # an object with those keys.  The keys of `state_map` and `infos`
        # are strings, so a row whose names are all found there is well
        # typed; any other row is checked again, key by key, for its error
        # message.
        try:
            src, event, dst = (
                entry if type(entry) is tuple else (entry["from"], entry["event"], entry["to"])
            )
            row, target = out[state_map[src]], state_map[dst]
            if event in infos and event not in row:
                row[event] = target
                continue
        except (KeyError, TypeError, ValueError):
            pass
        _bad_transition(entry, f"{where}: transitions[{i}]", state_map, infos)

    if initial not in state_map:
        raise ModelFormatError(f"{where}: initial state {initial!r} not declared")
    for i, state in enumerate(marked):
        if state not in state_map:
            raise ModelFormatError(f"{where}: marked[{i}] unknown state {state!r}")
    for i, state in enumerate(unsafe):
        if state not in state_map:
            raise ModelFormatError(f"{where}: unsafe[{i}] unknown state {state!r}")

    # The checks above cover every check of the constructor.
    automaton = Automaton._unchecked(
        frozenset(state_map.values()),
        frozenset(infos),
        out,
        state_map[initial],
        frozenset(state_map[s] for s in marked),
    )
    try:
        alphabet = Alphabet(infos)
    except ValueError as exc:
        raise ModelFormatError(f"{where}: {exc}") from exc
    return ModelDocument(automaton, alphabet, frozenset(state_map[s] for s in unsafe))


def _bad_transition(entry, here: str, state_map: dict, infos: dict) -> NoReturn:
    """Raise the error for a transition row `_parse` could not add."""
    entry = _object(entry)
    if not isinstance(entry, dict):
        raise ModelFormatError(f"{here} must be an object")
    src = _require(entry, "from", str, here)
    event = _require(entry, "event", str, here)
    dst = _require(entry, "to", str, here)
    for state in (src, dst):
        if state not in state_map:
            raise ModelFormatError(f"{here}: unknown state {state!r}")
    if event not in infos:
        raise ModelFormatError(f"{here}: unknown event {event!r}")
    raise ModelFormatError(f"{here}: duplicate transition on {event!r} from {src!r}")


class _Renderer(dict):
    """`state_name` for one document: each state object, and each member
    of a tuple or frozenset state, is rendered once.  The memo is keyed by
    identity and holds its states, so states that are equal but typed
    differently (`1`, `1.0`, `True`) are never given one another's name."""

    def __call__(self, state) -> str:
        hit = self.get(id(state))
        if hit is None:
            hit = self[id(state)] = (state, state_name(state, self))
        return hit[1]


def _names(automaton: Automaton, render: _Renderer) -> dict:
    """Each state's display name; two states may not share one."""
    name = dict(zip(automaton.states, map(render, automaton.states)))
    if len(set(name.values())) < len(name):
        names = sorted(name.values())
        shared = next(a for a, b in zip(names, names[1:]) if a == b)
        raise ModelFormatError(f"two states share the display name {shared!r}")
    return name


def model_to_doc(
    automaton: Automaton, alphabet: Alphabet, unsafe: frozenset = frozenset()
) -> dict:
    """Canonical plain document for a plant/supervisor."""
    render = _Renderer()
    return _model_doc(automaton, alphabet, unsafe, _names(automaton, render), render)


def _model_doc(automaton, alphabet, unsafe, name, render) -> dict:
    """`model_to_doc` with each state's name already in `name`, as `render` gave it."""
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
                (name[s], e, name[d]) for s, row in automaton._out.items() for e, d in row.items()
            )
        ],
        "unsafe": sorted(map(render, unsafe)),
    }


def attacked_to_doc(model: AttackedModel) -> dict:
    """Canonical document for a built attack model, with provenance."""
    aut = model.model
    render = _Renderer()
    name = _names(aut, render)
    doc = _model_doc(aut, model.alphabet, model.unsafe_states, name, render)
    doc["format"] = ATTACKED_MODEL_FORMAT
    doc["tool_version"] = __version__
    doc["mode"] = model.mode
    doc["vulnerable"] = sorted(
        e for e in model.alphabet if model.alphabet[e].vulnerable
    )
    doc["attack_events"] = sorted(model.attack_events)
    doc["components"] = {
        name[s]: {
            "supervisor": render(s[0]),
            "plant": render(s[1]),
        }
        for s in sorted(aut.states, key=name.__getitem__)
    }
    return doc


def parse_attacked(doc: dict, where: str = "model") -> AttackedModel:
    """Load a built attack model; states become (supervisor, plant) name pairs."""
    mode = _require(doc, "mode", str, where)
    if mode not in MODES:
        raise ModelFormatError(f"{where}: unknown mode {mode!r}")
    components = _require(doc, "components", dict, where)

    def composed(state: str) -> tuple[str, str]:
        if state not in components:
            raise ModelFormatError(f"{where}: components missing state {state!r}")
        entry = components[state]
        if not isinstance(entry, dict):
            entry = {}
        supervisor, plant = entry.get("supervisor"), entry.get("plant")
        if not (isinstance(supervisor, str) and isinstance(plant, str)):
            raise ModelFormatError(
                f"{where}: components[{state!r}] needs supervisor and plant names (strings)"
            )
        rendered = f"({supervisor},{plant})"  # state_name of the pair
        if rendered != state:
            raise ModelFormatError(
                f"{where}: state {state!r} is not named after its components {rendered!r}"
            )
        return supervisor, plant

    base = _parse(doc, where, composed)
    attack_events = frozenset(_strings(doc, "attack_events", where))
    unknown = attack_events - base.alphabet.events()
    if unknown:
        raise ModelFormatError(f"{where}: undeclared attack events {sorted(unknown)}")
    # As `build_model` makes them: the attack events are the events of the
    # mode's artifact kind, no event has another mode's artifact kind, the
    # vulnerable events, flagged and listed, are their base events, and the
    # mode's rule gives each attack event's attributes from its base event.
    rule = _RULES[mode]
    kind = rule.kind
    kinds = {event: info.kind for event, info in base.alphabet.infos.items()}
    foreign = sorted(e for e, k in kinds.items() if k != kind and k in ARTIFACT_KINDS)
    if foreign:
        raise ModelFormatError(f"{where}: {mode} model declares other modes' artifacts {foreign}")
    artifacts = frozenset(e for e, k in kinds.items() if k == kind)
    if attack_events != artifacts:
        raise ModelFormatError(
            f"{where}: attack_events {sorted(attack_events)} are not the {kind} events "
            f"{sorted(artifacts)}"
        )
    bases = sorted({base.alphabet[event].base for event in attack_events})
    flagged = sorted(e for e, info in base.alphabet.infos.items() if info.vulnerable)
    listed = sorted(_strings(doc, "vulnerable", where)) if "vulnerable" in doc else bases
    for what, names in (("events flagged vulnerable", flagged), ("vulnerable", listed)):
        if names != bases:
            raise ModelFormatError(
                f"{where}: {what} {names} are not the attack events' base events {bases}"
            )
    need = "observable" if rule.on_sensors else "controllable"
    for event in sorted(attack_events):
        info = base.alphabet[event]
        genuine = base.alphabet[info.base]
        if not getattr(genuine, need):
            raise ModelFormatError(
                f"{where}: attack event {event!r} needs its base event {info.base!r} {need}"
            )
        observable, controllable = rule.artifact_info(genuine)
        if (info.observable, info.controllable) != (observable, controllable):
            raise ModelFormatError(
                f"{where}: attack event {event!r} must be "
                f"{'' if observable else 'un'}observable and "
                f"{'' if controllable else 'un'}controllable, as {mode} makes it from {info.base!r}"
            )
    return AttackedModel(
        model=base.automaton,
        alphabet=base.alphabet,
        attack_events=attack_events,
        unsafe_states=base.unsafe,
        mode=mode,
    )


def dumps_doc(doc: dict) -> str:
    """`doc` as JSON indented by two spaces with sorted keys, plus a final
    newline: the text of ``json.dumps(doc, indent=2, sort_keys=True)``,
    joined from `doc_chunks`.  It holds about twice that text: the chunks,
    then their join.  To write a document, pass its chunks on instead."""
    return "".join(doc_chunks(doc))


# Items of an array that `doc_chunks` renders into one piece: a piece of
# transition records stays under 64 KiB.
_BATCH = 512


def doc_chunks(doc: dict) -> Iterator[str]:
    """The text of `dumps_doc(doc)` in pieces, each rendered when taken; an
    array of strings or records, or an object of records (`_joined`), comes
    `_BATCH` items at a time.  `json.dumps` encodes indented output in pure
    Python; this writer quotes every string with the C encoder instead.
    Keys are strings."""
    yield from _write(doc, "\n")
    yield "\n"


def _write(value, newline: str) -> Iterator[str]:
    """`value` as JSON text in pieces; `newline` is a line break and the
    indentation of the line `value` starts on."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
        return
    if not isinstance(value, (dict, list, tuple)):
        yield json.dumps(value)
        return
    if not value:
        yield "{}" if isinstance(value, dict) else "[]"
        return
    inner = newline + "  "
    if isinstance(value, dict):
        opener, closer, keys = "{", "}", sorted(value)
        items = [value[key] for key in keys]
        joined = _joined(items, inner, keys)
    else:
        opener, closer, keys, items = "[", "]", None, value
        joined = _joined(items, inner) if type(value) is list else None
    if joined is not None:
        yield opener + inner
        yield from joined
        yield newline + closer
        return
    for i, item in enumerate(items):
        key = "" if keys is None else encode_basestring_ascii(keys[i]) + ": "
        yield opener + inner + key
        yield from _write(item, inner)
        opener = ","
    yield newline + closer


def _joined(items: list, inner: str, keys: list | None = None) -> Iterator[str] | None:
    """`items` as JSON text, each on a line indented by `inner`, separated
    by commas, in pieces of `_BATCH` items; with `keys`, each after its
    key, as an object's members.  Only strings (array items) and records
    are joined: dicts with the first item's keys and string values, each
    written from one set of heads with the keys sorted and quoted once.
    None for anything else, which the generic writer takes; that is
    decided here, before any piece is rendered."""
    types = set(map(type, items))
    if types == {str} and keys is None:
        return _batches(items, None, inner, lambda batch, _: map(encode_basestring_ascii, batch))
    fields = sorted(items[0]) if types == {dict} else None
    if not fields or set(map(len, items)) != {len(fields)}:
        return None
    try:
        if any(set(map(type, map(itemgetter(field), items))) != {str} for field in fields):
            return None
    except KeyError:
        return None
    heads = [
        head + inner + "  " + encode_basestring_ascii(field) + ": "
        for head, field in zip(["{"] + [","] * (len(fields) - 1), fields)
    ]

    def records(batch: list, batch_keys: list | None):
        # Each record is the join of its key heads, repeated, and its values.
        parts = []
        for head, field in zip(heads, fields):
            parts += (repeat(head), map(encode_basestring_ascii, map(itemgetter(field), batch)))
        parts.append(repeat(inner + "}"))
        if batch_keys is not None:
            parts[:0] = (map(encode_basestring_ascii, batch_keys), repeat(": "))
        return map("".join, zip(*parts))

    return _batches(items, keys, inner, records)


def _batches(items: list, keys: list | None, inner: str, render) -> Iterator[str]:
    """The join of `render(batch, batch_keys)` over `items` (and `keys`), a
    batch of `_BATCH` at a time, separated by commas and `inner`."""
    separator = "," + inner
    for start in range(0, len(items), _BATCH):
        stop = start + _BATCH
        if start:
            yield separator
        yield separator.join(render(items[start:stop], keys and keys[start:stop]))


# The keys of a transition record, in the order of a row.
_ROW = ("from", "event", "to")


def load_path(path: str):
    """Load a model file; returns ModelDocument or AttackedModel by format.

    An object of exactly a transition record's keys, with string values,
    is decoded as the row ``(from, event, to)``, each name one string
    object per file.  Where `_parse` reads another object, a row is turned
    back into it (`_object`), so every message is the decoded document's.
    """
    names: dict[str, str] = {}
    name = names.setdefault

    def row(record: dict):
        if len(record) == 3:
            try:
                src, event, dst = record["from"], record["event"], record["to"]
            except KeyError:
                return record
            if type(src) is type(event) is type(dst) is str:
                return name(src, src), name(event, event), name(dst, dst)
        return record

    with open(path, encoding="utf-8") as handle:
        try:
            doc = _object(json.load(handle, object_hook=row))
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise ModelFormatError(f"{path}: not valid JSON ({exc})") from exc
        except RecursionError as exc:  # nested deeper than the decoder's stack
            raise ModelFormatError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{path}: document must be an object")
    if "components" in doc:
        doc["components"] = _object(doc["components"])
    if type(doc.get("events")) is list:
        doc["events"] = events = list(map(_object, doc["events"]))
        for entry in events:
            if type(entry) is dict and "kind" in entry:
                entry["kind"] = _object(entry["kind"])
    if doc.get("format") == ATTACKED_MODEL_FORMAT:
        return parse_attacked(doc, where=path)
    return parse_model(doc, where=path)


def _object(value):
    """`value`, or, for a row, the transition record it stands for, with
    its keys in the order `doc_chunks` writes them."""
    return dict(sorted(zip(_ROW, value))) if type(value) is tuple else value


VERDICT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["safe", "method"],
    "properties": {
        "safe": {"type": "boolean"},
        "method": {"enum": [*METHODS, ALL_METHODS]},
        "violated_condition": {
            "type": ["string", "null"],
            "enum": [
                UNCERTAIN_UNSAFE,
                FIRST_CERTAIN_UNSAFE,
                UNCONTROLLABLE_UNSAFE,
                VERIFIER_PAIR_UNSAFE,
                VERIFIER_POST_DETECTION_UNSAFE,
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


def _dot_id(text: str) -> str:
    """`text` as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(
    automaton: Automaton,
    alphabet: Alphabet,
    unsafe: frozenset = frozenset(),
    title: str = "model",
) -> str:
    """Graphviz rendering: unsafe states are boxes, marked states are
    double circles, and transitions on events whose kind in `alphabet`,
    which declares every event of `automaton`, is an attack artifact are
    dashed."""
    render = _Renderer()
    name = _names(automaton, render)
    unsafe_names = set(map(render, unsafe))
    marked_names = {name[s] for s in automaton.marked}
    lines = [f"digraph {_dot_id(title)} {{", "  rankdir=LR;", "  node [shape=circle];"]
    lines.append("  __start [shape=point, label=\"\"];")
    for state in sorted(name.values()):
        if state in unsafe_names:
            shape = "box"
        elif state in marked_names:
            shape = "doublecircle"
        else:
            shape = "circle"
        lines.append(f"  {_dot_id(state)} [shape={shape}];")
    lines.append(f"  __start -> {_dot_id(name[automaton.initial])};")
    edges = sorted(
        (name[s], e, name[d]) for s, row in automaton._out.items() for e, d in row.items()
    )
    for src, event, dst in edges:
        style = ", style=dashed" if alphabet[event].kind != GENUINE else ""
        lines.append(f"  {_dot_id(src)} -> {_dot_id(dst)} [label={_dot_id(event)}{style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
