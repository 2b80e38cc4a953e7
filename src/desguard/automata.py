"""Deterministic finite automata with event attributes.

States are arbitrary hashable values: plain strings for hand-written
models, tuples for composed states, frozensets for observer states.
Every value in this module is immutable after construction and every
operation is a pure function, so automata can be shared freely between
concurrent workers.

The package has three searches, all here: `explore`, the one
breadth-first search with parent pointers (composition, observers,
witnesses, the defended-run exploration); `reach`, the forward closure
under a set of events; and `coreach`, the backward closure to a set of
states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Iterable, Iterator, Mapping

State = Hashable
Trace = tuple[str, ...]

# Artifact kinds carried by event attribute tables.
GENUINE = "genuine"
AE_ATTACKED = "ae-attacked"
SE_ERASED = "se-erased"
SI_ONSET = "si-onset"
RENAMED = "renamed"

DEFAULT_STATE_LIMIT = 1_000_000


class AttributeConflictError(ValueError):
    """Two alphabets disagree on the attributes of a shared event."""


class ResourceLimitError(RuntimeError):
    """A construction exceeded the configured state budget."""


def state_name(state: State) -> str:
    """Render a state as a stable display name.

    Tuples become "(a,b)", frozensets become "{a,b}" with members sorted,
    everything else is str()'d.  Used for canonical ordering and for all
    serialized output.
    """
    if isinstance(state, frozenset):
        return "{" + ",".join(sorted(state_name(s) for s in state)) + "}"
    if isinstance(state, tuple):
        return "(" + ",".join(state_name(s) for s in state) + ")"
    return str(state)


@dataclass(frozen=True)
class EventInfo:
    """Attributes of one event."""

    observable: bool
    controllable: bool
    vulnerable: bool = False
    kind: str = GENUINE
    base: str | None = None


@dataclass(frozen=True)
class Alphabet:
    """Per-event attribute table.

    Artifact events (kind != genuine) record the genuine event they were
    derived from in ``base``.  Construction enforces the structural rules:
    erased events are unobservable, insertion-onset events are unobservable
    and uncontrollable, renamed events are unobservable.
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
            if info.kind == RENAMED and info.observable:
                raise ValueError(f"renamed event {name!r} must be unobservable")

    @classmethod
    def from_sets(
        cls,
        events: Iterable[str],
        observable: Iterable[str],
        controllable: Iterable[str],
        vulnerable: Iterable[str] = (),
    ) -> "Alphabet":
        observable = set(observable)
        controllable = set(controllable)
        vulnerable = set(vulnerable)
        return cls(
            {
                e: EventInfo(e in observable, e in controllable, e in vulnerable)
                for e in events
            }
        )

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

    def genuine_events(self) -> frozenset[str]:
        return frozenset(e for e, i in self.infos.items() if i.kind == GENUINE)

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
                e: replace(i, vulnerable=e in vulnerable)
                for e, i in self.infos.items()
            }
        )


@dataclass(frozen=True)
class Automaton:
    """Deterministic automaton with a partial transition function.

    The absence of a transition means the event is infeasible or disabled
    at that state.  Marked states are optional and only consumed by the
    deadlock/blocking checks.
    """

    states: frozenset
    events: frozenset
    transitions: Mapping[tuple[State, str], State]
    initial: State
    marked: frozenset = frozenset()
    _out: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "states", frozenset(self.states))
        object.__setattr__(self, "events", frozenset(self.events))
        object.__setattr__(self, "marked", frozenset(self.marked))
        object.__setattr__(self, "transitions", dict(self.transitions))
        if self.initial not in self.states:
            raise ValueError(f"initial state {state_name(self.initial)!r} not declared")
        if not self.marked <= self.states:
            raise ValueError("marked states must be declared states")
        out: dict = {s: {} for s in self.states}
        for (src, event), dst in self.transitions.items():
            if src not in self.states or dst not in self.states:
                raise ValueError(
                    f"transition {state_name(src)} -{event}-> {state_name(dst)} "
                    "uses an undeclared state"
                )
            if event not in self.events:
                raise ValueError(f"transition uses undeclared event {event!r}")
            out[src][event] = dst
        object.__setattr__(self, "_out", out)

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

    def generates(self, trace: Iterable[str]) -> bool:
        return self.run(trace) is not None

    def renamed_events(self, mapping: Mapping[str, str]) -> "Automaton":
        """Rename events; identity for events absent from `mapping`."""
        rename = lambda e: mapping.get(e, e)
        return Automaton(
            self.states,
            frozenset(rename(e) for e in self.events),
            {(s, rename(e)): d for (s, e), d in self.transitions.items()},
            self.initial,
            self.marked,
        )

    def canonical_doc(self) -> dict:
        """Order-stable plain representation, for equality and hashing in tests."""
        return {
            "states": sorted(state_name(s) for s in self.states),
            "events": sorted(self.events),
            "initial": state_name(self.initial),
            "marked": sorted(state_name(s) for s in self.marked),
            "transitions": sorted(
                (state_name(s), e, state_name(d)) for (s, e), d in self.transitions.items()
            ),
        }


def project(trace: Iterable[str], observable: Iterable[str]) -> Trace:
    """Natural projection: erase events outside `observable`, keep order."""
    observable = frozenset(observable)
    return tuple(e for e in trace if e in observable)


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
    limit: int = DEFAULT_STATE_LIMIT,
    overflow: str = "search exceeded {limit} states",
) -> tuple[dict, State | None]:
    """Breadth-first search from `starts`; returns (parents, found).

    `successors(node)` yields (label, next) pairs.  `parents` maps every
    reached node, in discovery order, to its (predecessor, label) and each
    start to None, ready for `path_to`.  `found` is the first dequeued
    node satisfying `goal`, where the search stops, or None.  Reaching
    more than `limit` nodes raises ResourceLimitError with the `overflow`
    message.
    """
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


def coreach(automaton: Automaton, targets: Iterable[State]) -> frozenset:
    """States from which some state in `targets` is reachable."""
    backward: dict[State, list] = {s: [] for s in automaton.states}
    for (src, _event), dst in automaton.transitions.items():
        backward[dst].append(src)
    seen = set(targets)
    stack = list(seen)
    while stack:
        for pred in backward[stack.pop()]:
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return frozenset(seen)


def accessible(automaton: Automaton) -> Automaton:
    """Restrict to the part reachable from the initial state."""
    keep = reach(automaton, (automaton.initial,), automaton.events)
    return Automaton(
        keep,
        automaton.events,
        {(s, e): d for (s, e), d in automaton.transitions.items() if s in keep},
        automaton.initial,
        automaton.marked & keep,
    )


def parallel_compose(
    a: Automaton, b: Automaton, max_states: int = DEFAULT_STATE_LIMIT
) -> Automaton:
    """Parallel composition: shared events synchronize, private ones interleave.

    Shared events are those declared by both components, whether or not they
    label any transition.  States of the result are (a_state, b_state) pairs;
    a pair is marked when both components are.  Only the accessible part is
    returned.
    """
    shared = a.events & b.events
    transitions: dict[tuple[State, str], State] = {}

    def moves(node):
        sa, sb = node
        for event, ta in a.out_edges(sa):
            if event not in shared:
                target = (ta, sb)
            elif (tb := b._out[sb].get(event)) is not None:
                target = (ta, tb)
            else:
                continue
            transitions[(node, event)] = target
            yield event, target
        for event, tb in b.out_edges(sb):
            if event not in shared:
                target = (sa, tb)
                transitions[(node, event)] = target
                yield event, target

    initial = (a.initial, b.initial)
    states, _ = explore(
        (initial,), moves, limit=max_states, overflow="composition exceeded {limit} states"
    )
    marked = frozenset(
        (sa, sb) for sa, sb in states if sa in a.marked and sb in b.marked
    )
    return Automaton(frozenset(states), a.events | b.events, transitions, initial, marked)


def observer(
    automaton: Automaton,
    hidden: Iterable[str],
    max_states: int = DEFAULT_STATE_LIMIT,
) -> Automaton:
    """Subset-construction observer with respect to a hidden event set.

    Observer states are frozensets of source states (canonical, so two runs
    produce byte-identical serializations).  The initial observer state is
    the hidden-event closure of the source initial state.
    """
    hidden = frozenset(hidden)
    if not hidden <= automaton.events:
        raise ValueError("hidden events must belong to the automaton")
    visible = automaton.events - hidden
    transitions: dict[tuple[State, str], State] = {}

    def moves(current):
        targets: dict[str, set] = {}
        for member in current:
            for event, target in automaton._out[member].items():
                if event not in hidden:
                    targets.setdefault(event, set()).add(target)
        for event in sorted(targets):
            target = reach(automaton, targets[event], hidden)
            transitions[(current, event)] = target
            yield event, target

    initial = reach(automaton, (automaton.initial,), hidden)
    states, _ = explore(
        (initial,), moves, limit=max_states, overflow="observer exceeded {limit} states"
    )
    marked = frozenset(s for s in states if s & automaton.marked)
    return Automaton(frozenset(states), visible, transitions, initial, marked)


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
