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
writer holds one piece, not the text.  `desguard build` writes through
`attacked_chunks`, which renders those two arrays straight from the
closed loop's rows: it holds the model, each state's display name and
one piece, and builds no record.  `load_path` holds the file's text while
it decodes it, and reads each transition record as an `(event, from, to)`
tuple and each components record as a `(supervisor, plant)` pair of
shared name strings, not as a dict.
"""

from __future__ import annotations

import json
from functools import partial
from json.encoder import encode_basestring_ascii
from itertools import islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NoReturn

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
        # A row is an (event, from, to) triple, as `load_path` reads one, or
        # an object with those keys.  The keys of `state_map` and `infos`
        # are strings, so a row whose names are all found there is well
        # typed; any other row is checked again, key by key, for its error
        # message.
        try:
            event, src, dst = (
                entry if type(entry) is tuple else (entry["event"], entry["from"], entry["to"])
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
    of a tuple or frozenset state, is rendered once; a string is its own
    name and is not kept.  The memo is keyed by identity and holds its
    states, so states that are equal but typed differently (`1`, `1.0`,
    `True`) are never given one another's name."""

    def __call__(self, state) -> str:
        if type(state) is str:
            return state
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


def _layout(automaton: Automaton, render: _Renderer):
    """Each state's display name (`_names`), the states sorted by name, and
    the transitions as rows ``(event, from, to)`` of names, each made when
    taken, in the order of the sorted ``(from, event, to)`` triples: a row
    of the automaton holds one target per event, so that is each state's
    row by event, the states by name."""
    name = _names(automaton, render)
    order = sorted(automaton.states, key=name.__getitem__)
    out = automaton._out
    rows = (
        (event, name[state], name[row[event]])
        for state, row in zip(order, map(out.__getitem__, order))
        for event in sorted(row)
    )
    return name, order, rows


# The keys of a transition record and of a components record, sorted, as
# the rows of `_layout` and `_attacked_doc` give their values.
_ROW_KEYS = ("event", "from", "to")
_PAIR_KEYS = ("plant", "supervisor")


def model_to_doc(
    automaton: Automaton, alphabet: Alphabet, unsafe: frozenset = frozenset()
) -> dict:
    """Canonical plain document for a plant/supervisor."""
    doc, _, rows = _model_doc(automaton, alphabet, unsafe, _Renderer())
    doc["transitions"] = [{"event": e, "from": s, "to": d} for e, s, d in rows]
    return doc


def _model_doc(automaton, alphabet, unsafe, render):
    """`model_to_doc` but its transitions, each state named by `render`;
    with the states sorted by name and the transitions' rows (`_layout`)."""
    name, order, rows = _layout(automaton, render)
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
    doc = {
        "format": AUTOMATON_FORMAT,
        "states": [name[s] for s in order],
        "initial": name[automaton.initial],
        "marked": sorted(name[s] for s in automaton.marked),
        "events": events,
        "unsafe": sorted(map(render, unsafe)),
    }
    return doc, order, rows


def attacked_to_doc(model: AttackedModel) -> dict:
    """Canonical document for a built attack model, with provenance."""
    doc, rows, components = _attacked_doc(model)
    doc["transitions"] = [{"event": e, "from": s, "to": d} for e, s, d in rows]
    doc["components"] = {key: {"plant": p, "supervisor": s} for key, p, s in components}
    return doc


def attacked_chunks(model: AttackedModel) -> Iterator[str]:
    """The text of `dumps_doc(attacked_to_doc(model))` in pieces, its
    transitions and components rendered from the closed loop's rows a
    batch at a time (`_records`): no record is built.  Two states that
    share a display name raise here, before the first piece."""
    doc, rows, components = _attacked_doc(model)
    doc["transitions"] = partial(_records, rows, _ROW_KEYS)
    doc["components"] = partial(_records, components, _PAIR_KEYS, keyed=True)
    return doc_chunks(doc)


def _attacked_doc(model: AttackedModel):
    """`attacked_to_doc` but its transitions and components, which come as
    rows of names in the document's order: ``(event, from, to)`` and
    ``(state, plant, supervisor)``."""
    render = _Renderer()
    doc, order, rows = _model_doc(model.model, model.alphabet, model.unsafe_states, render)
    doc.update(
        format=ATTACKED_MODEL_FORMAT,
        tool_version=__version__,
        mode=model.mode,
        vulnerable=sorted(e for e in model.alphabet if model.alphabet[e].vulnerable),
        attack_events=sorted(model.attack_events),
    )
    components = (
        (key, render(state[1]), render(state[0])) for key, state in zip(doc["states"], order)
    )
    return doc, rows, components


def parse_attacked(doc: dict, where: str = "model") -> AttackedModel:
    """Load a built attack model; states become (supervisor, plant) name pairs."""
    mode = _require(doc, "mode", str, where)
    if mode not in MODES:
        raise ModelFormatError(f"{where}: unknown mode {mode!r}")
    components = _require(doc, "components", dict, where)

    def composed(state: str) -> tuple[str, str]:
        if state not in components:
            raise ModelFormatError(f"{where}: components missing state {state!r}")
        # A pair, as `load_path` reads a record, or the record itself.
        pair = components[state]
        if isinstance(pair, dict):
            pair = pair.get("supervisor"), pair.get("plant")
        supervisor, plant = pair if type(pair) is tuple and len(pair) == 2 else (None, None)
        if not (isinstance(supervisor, str) and isinstance(plant, str)):
            raise ModelFormatError(
                f"{where}: components[{state!r}] needs supervisor and plant names (strings)"
            )
        rendered = f"({supervisor},{plant})"  # state_name of the pair
        if rendered != state:
            raise ModelFormatError(
                f"{where}: state {state!r} is not named after its components {rendered!r}"
            )
        return pair

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
    indentation of the line `value` starts on.  A callable value renders
    itself from `newline` (`attacked_chunks`)."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
        return
    if callable(value):
        yield from value(newline)
        return
    if not isinstance(value, (dict, list, tuple)):
        yield json.dumps(value)
        return
    if not value:
        yield "{}" if isinstance(value, dict) else "[]"
        return
    if isinstance(value, dict):
        keys = sorted(value)
        items = [value[key] for key in keys]
        joined = _joined(items, newline, keys)
    else:
        keys, items = None, value
        joined = _joined(items, newline) if type(value) is list else None
    if joined is not None:
        yield from joined
        return
    opener, closer = "[]" if keys is None else "{}"
    inner = newline + "  "
    for i, item in enumerate(items):
        key = "" if keys is None else encode_basestring_ascii(keys[i]) + ": "
        yield opener + inner + key
        yield from _write(item, inner)
        opener = ","
    yield newline + closer


def _joined(items: list, newline: str, keys: list | None = None) -> Iterator[str] | None:
    """`items` as the JSON text of an array written at `newline`, or with
    `keys` as an object's members, a batch of `_BATCH` items per piece.
    Only strings (array items) and records are joined: dicts with the
    first item's keys and string values (`_records`).  None for anything
    else, which the generic writer takes; that is decided here, before any
    piece is rendered."""
    types = set(map(type, items))
    if types == {str} and keys is None:
        return _batches(items, newline, partial(map, encode_basestring_ascii))
    fields = sorted(items[0]) if types == {dict} else None
    if not fields or set(map(len, items)) != {len(fields)}:
        return None
    try:
        if any(set(map(type, map(itemgetter(field), items))) != {str} for field in fields):
            return None
    except KeyError:
        return None
    columns = [map(itemgetter(field), items) for field in fields]
    if keys is None:
        return _records(zip(*columns), fields, newline)
    return _records(zip(keys, *columns), fields, newline, keyed=True)


def _records(rows: Iterable[tuple], fields, newline: str, keyed: bool = False) -> Iterator[str]:
    """Records as the JSON text of an array written at `newline`, or with
    `keyed` of an object: each row is a tuple of strings, its key when
    `keyed` and then its value of each of `fields`, which are sorted.  The
    keys are quoted once by the C encoder into one head per field, and
    each record is the join of its heads and its quoted values."""
    inner = newline + "  "
    heads = [
        head + inner + "  " + encode_basestring_ascii(field) + ": "
        for head, field in zip(["{"] + [","] * (len(fields) - 1), fields)
    ]
    if keyed:
        heads[:1] = ["", ": " + heads[0]]

    def render(batch: list):
        parts = []
        for head, column in zip(heads, zip(*batch)):
            parts += (repeat(head), map(encode_basestring_ascii, column))
        return map("".join, zip(*parts, repeat(inner + "}")))

    return _batches(rows, newline, render, "{}" if keyed else "[]")


def _batches(items: Iterable, newline: str, render, brackets: str = "[]") -> Iterator[str]:
    """`brackets` around `items` written at `newline`, one on each line,
    separated by commas: the join of `render(batch)` over `_BATCH` items at
    a time, or the bare brackets when there are none."""
    inner = newline + "  "
    separator, lead = "," + inner, brackets[0] + inner
    for batch in _batched(items):
        yield lead
        yield separator.join(render(batch))
        lead = separator
        del batch  # before the next batch is taken
    yield newline + brackets[1] if lead == separator else brackets


def _batched(items: Iterable) -> Iterator[list]:
    """`items` in lists of `_BATCH`, the last one shorter."""
    items = iter(items)
    return iter(lambda: list(islice(items, _BATCH)), [])


def load_path(path: str):
    """Load a model file; returns ModelDocument or AttackedModel by format.

    An object of exactly a transition record's keys, with string values,
    is decoded as the row ``(event, from, to)``, and one of exactly a
    components record's keys, with string values, as the pair
    ``(supervisor, plant)``; each name is one string object per file.
    Where `_parse` reads another object, a row or a pair is turned back
    into it (`_object`), so every message is the decoded document's.
    """
    names: dict[str, str] = {}
    name = names.setdefault

    def row(record: dict):
        size = len(record)
        if size == 3:
            try:
                src, event, dst = record["from"], record["event"], record["to"]
            except KeyError:
                return record
            if type(src) is type(event) is type(dst) is str:
                return name(event, event), name(src, src), name(dst, dst)
        elif size == 2:
            try:
                supervisor, plant = record["supervisor"], record["plant"]
            except KeyError:
                return record
            if type(supervisor) is type(plant) is str:
                return name(supervisor, supervisor), name(plant, plant)
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
    """`value`, or, for a row or a pair, the transition or components
    record it stands for, with its keys in the order `doc_chunks` writes
    them."""
    if type(value) is not tuple:
        return value
    return dict(sorted(zip(_ROW_KEYS if len(value) == 3 else ("supervisor", "plant"), value)))


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
    return "".join(dot_chunks(automaton, alphabet, unsafe, title))


def dot_chunks(
    automaton: Automaton,
    alphabet: Alphabet,
    unsafe: frozenset = frozenset(),
    title: str = "model",
) -> Iterator[str]:
    """The text of `to_dot` in pieces of `_BATCH` lines, each rendered when
    taken: the states sorted by name, then the transitions in the order of
    a model file's (`_layout`)."""
    render = _Renderer()
    name, order, rows = _layout(automaton, render)
    unsafe_names = set(map(render, unsafe))
    marked_names = {name[s] for s in automaton.marked}

    def lines() -> Iterator[str]:
        yield f"digraph {_dot_id(title)} {{\n  rankdir=LR;\n  node [shape=circle];\n"
        yield '  __start [shape=point, label=""];\n'
        for state in map(name.__getitem__, order):
            if state in unsafe_names:
                shape = "box"
            elif state in marked_names:
                shape = "doublecircle"
            else:
                shape = "circle"
            yield f"  {_dot_id(state)} [shape={shape}];\n"
        yield f"  __start -> {_dot_id(name[automaton.initial])};\n"
        for event, src, dst in rows:
            style = ", style=dashed" if alphabet[event].kind != GENUINE else ""
            yield f"  {_dot_id(src)} -> {_dot_id(dst)} [label={_dot_id(event)}{style}];\n"
        yield "}\n"

    return map("".join, _batched(lines()))
