"""Deterministic finite automata with event attributes.

States are arbitrary hashable values: plain strings for hand-written
models, tuples for composed states, frozensets for observer states.  An
automaton stores one transition table, a row {event: target} per state,
which the package's builders fill as they explore.  Every value in this
module is immutable after construction and every operation is a pure
function, so automata, rows included, can be shared freely between
concurrent workers.  The one exception is `EstimateTable`, a memo of
each estimate's moves that fills as it is read; each entry is a pure
function of the automaton and never changes once made, so observers
keep the entries as their rows, and a concurrent reader at worst
computes one twice.

The package has three searches, all here: `explore`, the one search
with parent pointers and the one that builds automata (composition,
attack and labeled models, observers, witnesses, defended runs), and the
closures under a set of events, `reach` forward and `coreach` backward,
which stand in for fixpoints.  `restrict` is the one cut: it keeps a
set of states and drops the edges that leave it.  `accessible` cuts
nothing: no edge leaves the reachable states, so it shares their rows.

`STATE_LIMIT` is the module's one setting: the state budget of every
construction and search, read by `explore` when it runs, so setting it
bounds them all.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Hashable, Iterable, Iterator, Mapping

State = Hashable
Trace = tuple[str, ...]

# Artifact kinds carried by event attribute tables.
GENUINE = "genuine"
AE_ATTACKED = "ae-attacked"
SE_ERASED = "se-erased"
SI_ONSET = "si-onset"

STATE_LIMIT = 1_000_000


class AttributeConflictError(ValueError):
    """Two alphabets disagree on the attributes of a shared event."""


class ResourceLimitError(RuntimeError):
    """A construction exceeded the state budget, `STATE_LIMIT`."""


def state_name(state: State, part: Callable[[State], str] | None = None) -> str:
    """Render a state as a stable display name.

    Tuples become "(a,b)", frozensets become "{a,b}" with members sorted,
    everything else is str()'d.  Used for canonical ordering and for all
    serialized output.  `part` renders the members (default: this
    function); a memo passed there renders each member once.
    """
    if type(state) is str:
        return state
    if isinstance(state, frozenset):
        return "{" + ",".join(sorted(map(part or state_name, state))) + "}"
    if isinstance(state, tuple):
        return "(" + ",".join(map(part or state_name, state)) + ")"
    return str(state)


class Value:
    """Base of the package's value classes.  A subclass's own annotated
    names are its fields, after its bases', and class attributes of those
    names their defaults.  It gets an `__init__` taking fields by position
    or keyword and ending in the class's `__post_init__`, if any; `==`
    field by field within one class; the `Name(field=value, ...)` repr; and
    `replace(**changes)`, a copy made, and so validated, by `__init__`.
    Instances are immutable and hash by their fields unless the class says
    `frozen=False`; `functools.cached_property` still caches on them."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in vars(cls).get("__annotations__", {}) if name not in cls._fields]
        cls._fields += tuple(own)
        cls._names = frozenset(cls._fields)
        cls._defaults = {**cls._defaults, **{n: vars(cls)[n] for n in own if n in vars(cls)}}
        cls._post_init = hasattr(cls, "__post_init__")
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if len(args) > len(fields) or values.keys() != self._names or (
            args and kwargs and not kwargs.keys().isdisjoint(fields[: len(args)])
        ):
            raise TypeError(f"{type(self).__name__}{fields}: {len(args)} positional, {[*kwargs]}")
        vars(self).update(values)
        if self._post_init:
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with `changes` applied, validated as a new instance is."""
        return type(self)(**({name: getattr(self, name) for name in self._fields} | changes))


class EventInfo(Value):
    """Attributes of one event."""

    observable: bool
    controllable: bool
    vulnerable: bool = False
    kind: str = GENUINE
    base: str | None = None


class Alphabet(Value):
    """Per-event attribute table.

    Artifact events (kind != genuine) record the genuine event they were
    derived from in ``base``.  Construction enforces the structural rules:
    erased events are unobservable, insertion-onset events are unobservable
    and uncontrollable.
    """

    infos: Mapping[str, EventInfo]

    def __post_init__(self):
        object.__setattr__(self, "infos", dict(self.infos))
        for name, info in self.infos.items():
            if info.kind != GENUINE and info.base is None:
                raise ValueError(f"artifact event {name!r} has no base event")
            if info.kind == SE_ERASED and info.observable:
                raise ValueError(f"erased event {name!r} must be unobservable")
            if info.kind == SI_ONSET and (info.observable or info.controllable):
                raise ValueError(
                    f"insertion-onset event {name!r} must be unobservable and uncontrollable"
                )

    @classmethod
    def from_sets(
        cls, events: Iterable[str], observable: Iterable[str], controllable: Iterable[str]
    ) -> "Alphabet":
        observable = set(observable)
        controllable = set(controllable)
        return cls({e: EventInfo(e in observable, e in controllable) for e in events})

    def __contains__(self, event: str) -> bool:
        return event in self.infos

    def __getitem__(self, event: str) -> EventInfo:
        return self.infos[event]

    def __iter__(self) -> Iterator[str]:
        return iter(self.infos)

    def events(self) -> frozenset[str]:
        return frozenset(self.infos)

    def observable_events(self) -> frozenset[str]:
        return frozenset(e for e, i in self.infos.items() if i.observable)

    def unobservable_events(self) -> frozenset[str]:
        return frozenset(e for e, i in self.infos.items() if not i.observable)

    def controllable_events(self) -> frozenset[str]:
        return frozenset(e for e, i in self.infos.items() if i.controllable)

    def uncontrollable_events(self) -> frozenset[str]:
        return frozenset(e for e, i in self.infos.items() if not i.controllable)

    def extended(self, extra: Mapping[str, EventInfo]) -> "Alphabet":
        merged = dict(self.infos)
        for name, info in extra.items():
            if name in merged and merged[name] != info:
                raise AttributeConflictError(f"conflicting attributes for event {name!r}")
            merged[name] = info
        return Alphabet(merged)

    def with_vulnerable(self, vulnerable: Iterable[str]) -> "Alphabet":
        vulnerable = set(vulnerable)
        return Alphabet(
            {
                e: i.replace(vulnerable=e in vulnerable)
                for e, i in self.infos.items()
            }
        )


class Automaton(Value):
    """Deterministic automaton with a partial transition function.

    The one transition table is `_out`: a row `{event: target}` for every
    declared state, rows and events in the order the automaton was built.
    The absence of a transition means the event is infeasible or disabled
    at that state.  Marked states are optional and only consumed by the
    deadlock/blocking checks.  The fields are the constructor's arguments,
    the rows' flat view included, so `replace` makes a validated copy.
    """

    states: frozenset
    events: frozenset
    transitions: dict
    initial: State
    marked: frozenset

    def __init__(self, states, events, transitions, initial, marked=frozenset()):
        """Check `transitions`, {(src, event): dst}, and fill the rows from
        it: in order of first transition, then edge-less states in set order."""
        states, events, marked = frozenset(states), frozenset(events), frozenset(marked)
        if initial not in states:
            raise ValueError(f"initial state {state_name(initial)!r} not declared")
        if not marked <= states:
            raise ValueError("marked states must be declared states")
        out: dict = {}
        for (src, event), dst in transitions.items():
            if src not in states or dst not in states:
                raise ValueError(
                    f"transition {state_name(src)} -{event}-> {state_name(dst)} "
                    "uses an undeclared state"
                )
            if event not in events:
                raise ValueError(f"transition uses undeclared event {event!r}")
            out.setdefault(src, {})[event] = dst
        for state in states:
            out.setdefault(state, {})
        vars(self).update(states=states, events=events, _out=out, initial=initial, marked=marked)

    @classmethod
    def _unchecked(
        cls, states: frozenset, events: frozenset, out: dict, initial: State, marked: frozenset
    ) -> "Automaton":
        """The automaton with rows `out`, taken as they are, without checks.

        For automata the package builds itself or derives from valid ones:
        the caller hands over frozensets and a row for every state, with
        the initial and marked states among `states` and every row's
        events and targets declared.
        """
        automaton = object.__new__(cls)
        vars(automaton).update(
            states=states, events=events, _out=out, initial=initial, marked=marked
        )
        return automaton

    @property
    def transitions(self) -> dict:
        """A flat `{(state, event): target}` copy of the rows, row by row."""
        return {(src, e): dst for src, row in self._out.items() for e, dst in row.items()}

    @classmethod
    def build(
        cls,
        initial: State,
        transitions: Iterable[tuple[State, str, State]],
        marked: Iterable[State] = (),
        states: Iterable[State] = (),
        events: Iterable[str] = (),
    ) -> "Automaton":
        """Assemble an automaton from (src, event, dst) triples.

        States and events are inferred from the triples; `states`/`events`
        add declarations with no transitions.
        """
        trans: dict[tuple[State, str], State] = {}
        all_states = {initial, *states}
        all_events = set(events)
        for src, event, dst in transitions:
            key = (src, event)
            if key in trans and trans[key] != dst:
                raise ValueError(
                    f"nondeterministic transitions on {event!r} at {state_name(src)}"
                )
            trans[key] = dst
            all_states.update((src, dst))
            all_events.add(event)
        return cls(frozenset(all_states), frozenset(all_events), trans, initial, frozenset(marked))

    def active_events(self, state: State) -> frozenset[str]:
        return frozenset(self._out[state])

    def successor(self, state: State, event: str) -> State | None:
        """Target of (state, event), or None when the event is infeasible."""
        if state not in self._out:
            raise KeyError(f"unknown state {state_name(state)!r}")
        return self._out[state].get(event)

    def out_edges(self, state: State) -> list[tuple[str, State]]:
        """Outgoing (event, target) pairs in deterministic (sorted) order."""
        return sorted(self._out[state].items())

    def run(self, trace: Iterable[str]) -> State | None:
        """State reached by `trace` from the initial state, or None."""
        current = self.initial
        for event in trace:
            current = self._out[current].get(event)
            if current is None:
                return None
        return current


def path_to(parents: Mapping, node: State) -> Trace:
    """Events along the search path to `node`.

    `parents` maps each reached node to its (predecessor, event) and the
    search root to None, as a breadth-first search records them.
    """
    trace = []
    while parents[node] is not None:
        node, event = parents[node]
        trace.append(event)
    return tuple(reversed(trace))


def explore(
    starts: Iterable[State],
    successors: Callable[[State], Iterable[tuple[object, State]]],
    goal: Callable[[State], bool] | None = None,
    *,
    overflow: str,
) -> tuple[dict, State | None]:
    """Breadth-first search from `starts`; returns (parents, found).

    `successors(node)` yields (label, next) pairs.  `parents` maps every
    reached node, in discovery order, to its (predecessor, label) and each
    start to None, ready for `path_to`.  `found` is the first dequeued
    node satisfying `goal`, where the search stops, or None.  Reaching
    more than `STATE_LIMIT` nodes, read when the search starts, raises
    ResourceLimitError with the `overflow` message, its `{limit}` filled in;
    each caller names its own construction or search there.
    """
    limit = STATE_LIMIT
    parents: dict = dict.fromkeys(starts)
    queue = deque(parents)
    while queue:
        node = queue.popleft()
        if goal is not None and goal(node):
            return parents, node
        for label, nxt in successors(node):
            if nxt not in parents:
                if len(parents) >= limit:
                    raise ResourceLimitError(overflow.format(limit=limit))
                parents[nxt] = (node, label)
                queue.append(nxt)
    return parents, None


def reach(automaton: Automaton, sources: Iterable[State], allowed: Iterable[str]) -> frozenset:
    """States reachable from any of `sources` using only events in `allowed`.

    A plain loop rather than `explore`: it is the inner step of every
    state estimate, where a callback per state costs measurable time.
    """
    allowed = frozenset(allowed)
    out = automaton._out
    seen = set(sources)
    stack = list(seen)
    while stack:
        for event, target in out[stack.pop()].items():
            if event in allowed and target not in seen:
                seen.add(target)
                stack.append(target)
    return frozenset(seen)


def coreach(
    automaton: Automaton, targets: Iterable[State], allowed: Iterable[str] | None = None
) -> frozenset:
    """States that reach some state in `targets` by events in `allowed` (default: all)."""
    backward: dict[State, list] = {s: [] for s in automaton.states}
    for src, row in automaton._out.items():
        for event, dst in row.items():
            if allowed is None or event in allowed:
                backward[dst].append(src)
    seen = set(targets)
    stack = list(seen)
    while stack:
        for pred in backward[stack.pop()]:
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return frozenset(seen)


def restrict(automaton: Automaton, keep: frozenset) -> Automaton:
    """The rows of the states in `keep`, in their order, minus the edges
    that leave `keep`, which must hold the initial state."""
    out = {
        src: {event: dst for event, dst in row.items() if dst in keep}
        for src, row in automaton._out.items()
        if src in keep
    }
    return Automaton._unchecked(
        keep, automaton.events, out, automaton.initial, automaton.marked & keep
    )


def accessible(automaton: Automaton) -> Automaton:
    """`restrict` to the states reachable from the initial state, whose
    rows, in their order, are shared whole: no edge leaves them."""
    keep = reach(automaton, (automaton.initial,), automaton.events)
    out = {src: row for src, row in automaton._out.items() if src in keep}
    return Automaton._unchecked(
        keep, automaton.events, out, automaton.initial, automaton.marked & keep
    )


def parallel_compose(a: Automaton, b: Automaton) -> Automaton:
    """Parallel composition: shared events synchronize, private ones interleave.

    Shared events are those declared by both components, whether or not they
    label any transition.  States of the result are (a_state, b_state) pairs;
    a pair is marked when both components are.  Only the accessible part is
    returned, its states in breadth-first discovery order from the initial
    pair; a row holds `a`'s moves, then `b`'s private ones, each by event.
    """
    shared = a.events & b.events
    a_out, b_out = a._out, b._out
    b_private = b.events - shared
    out: dict = {}

    def moves(node):
        sa, sb = node
        a_row, b_row = a_out[sa], b_out[sb]
        row = out[node] = {}
        for event in sorted(a_row):
            if event not in shared:
                row[event] = (a_row[event], sb)
            elif (tb := b_row.get(event)) is not None:
                row[event] = (a_row[event], tb)
        if b_private:
            for event in sorted(b_row):
                if event not in shared:
                    row[event] = (sa, b_row[event])
        return row.items()

    initial = (a.initial, b.initial)
    states, _ = explore((initial,), moves, overflow="composition exceeded {limit} states")
    marked = frozenset((sa, sb) for sa, sb in states if sa in a.marked and sb in b.marked)
    return Automaton._unchecked(frozenset(states), a.events | b.events, out, initial, marked)


class EstimateTable:
    """State estimates of one automaton under one hidden event set.

    An estimate is a frozenset of states closed under hidden events.  The
    table holds each state's hidden-event closure and each estimate's
    `moves`, both made on first use and at most once.  A move is the union
    of the closures of the members' successors on the event, in member
    order; it is exact because the closure distributes over union.
    """

    def __init__(self, automaton: Automaton, hidden: Iterable[str]):
        self.automaton = automaton
        self.hidden = frozenset(hidden)
        self._closures: dict[State, frozenset] = {}
        self._moves: dict[frozenset, dict[str, frozenset]] = {}
        self.initial = self.closure(automaton.initial)

    def closure(self, state: State) -> frozenset:
        """States reachable from `state` through hidden events."""
        closure = self._closures.get(state)
        if closure is None:
            closure = self._closures[state] = reach(self.automaton, (state,), self.hidden)
        return closure

    def moves(self, estimate: frozenset) -> dict[str, frozenset]:
        """`{visible event: next estimate}` from `estimate`, by event, made in
        one pass over the members' rows; an event no member can execute has
        no entry.  Every call returns this one dict, which no reader changes."""
        row = self._moves.get(estimate)
        if row is None:
            out, hidden, closures = self.automaton._out, self.hidden, self._closures
            parts: defaultdict[str, list] = defaultdict(list)
            for member in estimate:
                for event, target in out[member].items():
                    if event not in hidden:
                        parts[event].append(closures.get(target) or self.closure(target))
            row = self._moves[estimate] = {
                event: frozenset().union(*parts[event]) for event in sorted(parts)
            }
        return row


def observer(
    automaton: Automaton,
    hidden: Iterable[str],
    estimates: EstimateTable | None = None,
    stop: Callable[[frozenset], bool] | None = None,
    live: frozenset | None = None,
) -> Automaton:
    """Subset-construction observer with respect to a hidden event set.

    Observer states are frozensets of source states (canonical, so two runs
    produce byte-identical serializations).  The initial observer state is
    the hidden-event closure of the source initial state.  An expanded
    state's row is its `moves` dict, kept as it is, from `estimates`, the
    table of `automaton` and `hidden` a caller keeps for reuse, or from a
    table of this call's own.  With `stop`, the search
    ends at the first observer state it dequeues that satisfies it: the
    result then holds only the states discovered so far and the
    transitions of the states already expanded.  With `live`, an observer
    state that shares no source state with it is discovered but not
    expanded: it keeps no transitions.  Every member of an estimate is
    reached from a member of each estimate before it, so when `live` is
    closed backward (holds whatever reaches it), the expanded states are
    exactly the complete observer's states reached through estimates
    meeting `live`, with the same transitions, in the same order.
    """
    hidden = frozenset(hidden)
    if not hidden <= automaton.events:
        raise ValueError("hidden events must belong to the automaton")
    if estimates is None:
        estimates = EstimateTable(automaton, hidden)
    elif estimates.automaton is not automaton or estimates.hidden != hidden:
        raise ValueError("estimate table belongs to another automaton or hidden set")
    visible = automaton.events - hidden
    out: dict = {}

    def moves(current):
        if live is not None and live.isdisjoint(current):
            return ()
        row = out[current] = estimates.moves(current)
        return row.items()

    initial = estimates.initial
    states, _ = explore((initial,), moves, stop, overflow="observer exceeded {limit} states")
    for state in states:  # the states never expanded, by `stop` or `live`
        out.setdefault(state, {})
    marked = frozenset(s for s in states if not automaton.marked.isdisjoint(s))
    return Automaton._unchecked(frozenset(states), visible, out, initial, marked)


def deadlock_states(automaton: Automaton) -> frozenset:
    """Reachable unmarked states with an empty active event set."""
    reachable = reach(automaton, (automaton.initial,), automaton.events)
    return frozenset(
        s
        for s in reachable
        if not automaton.active_events(s) and s not in automaton.marked
    )


def blocking_states(automaton: Automaton) -> frozenset:
    """Reachable states from which no marked state is reachable.

    Empty when the automaton declares no marked states (blocking is only
    meaningful with a marking).
    """
    if not automaton.marked:
        return frozenset()
    reachable = reach(automaton, (automaton.initial,), automaton.events)
    return reachable - coreach(automaton, automaton.marked)
