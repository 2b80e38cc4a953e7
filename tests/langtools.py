"""Brute-force language oracles used to cross-check the library.

Everything here is deliberately naive and independent of the library's
algorithms: languages are enumerated string by string.
"""

from collections import deque

from desguard.automata import Automaton, project
from desguard.diagnosis import ATTACKED, CLEAN


def enumerate_traces(automaton: Automaton, max_len: int) -> set[tuple]:
    """All generated traces of length <= max_len."""
    traces = set()
    queue = deque([(automaton.initial, ())])
    while queue:
        state, trace = queue.popleft()
        traces.add(trace)
        if len(trace) == max_len:
            continue
        for event, target in automaton.out_edges(state):
            queue.append((target, trace + (event,)))
    return traces


def projected_language(automaton: Automaton, observable, max_len: int) -> set[tuple]:
    """Projections of all traces of length <= max_len."""
    return {project(t, observable) for t in enumerate_traces(automaton, max_len)}


def has_preimage(automaton: Automaton, hidden, observed: tuple) -> bool:
    """Does some trace of the automaton project exactly to `observed`?

    Per-string search over (state, position) pairs; no powerset involved.
    """
    hidden = frozenset(hidden)
    start = (automaton.initial, 0)
    seen = {start}
    queue = deque([start])
    while queue:
        state, pos = queue.popleft()
        if pos == len(observed):
            return True
        for event, target in automaton.out_edges(state):
            if event in hidden:
                node = (target, pos)
            elif event == observed[pos]:
                node = (target, pos + 1)
            else:
                continue
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return False


def naive_reach(automaton: Automaton, source, allowed) -> frozenset:
    """Fixpoint of one-step successor closure, as an independent reach oracle."""
    allowed = frozenset(allowed)
    current = {source}
    while True:
        nxt = set(current)
        for state in current:
            for event, target in automaton.out_edges(state):
                if event in allowed:
                    nxt.add(target)
        if nxt == current:
            return frozenset(current)
        current = nxt


def diagnoser_initial(labeled, unobservable) -> frozenset:
    """Initial state estimate of a labeled model, closed from scratch."""
    automaton = labeled.automaton
    return naive_reach(automaton, automaton.initial, unobservable)


def diagnoser_step(labeled, unobservable, estimate: frozenset, event: str) -> frozenset:
    """Advance a state estimate by one observed event, closing from scratch.

    Raises KeyError when no member of the estimate can execute the event.
    The reference the shared estimate table is checked against: nothing
    is remembered between calls.
    """
    automaton = labeled.automaton
    targets = {
        target
        for member in estimate
        if (target := automaton.successor(member, event)) is not None
    }
    if not targets:
        raise KeyError(f"event {event!r} is infeasible at the current estimate")
    return frozenset().union(*(naive_reach(automaton, t, unobservable) for t in targets))


def naive_coreach(automaton: Automaton, targets) -> frozenset:
    """Fixpoint of one-step predecessor closure, as an independent coreach oracle."""
    current = frozenset(targets)
    while True:
        nxt = current | {
            src for (src, _event), dst in automaton.transitions.items() if dst in current
        }
        if nxt == current:
            return current
        current = nxt


def language_equal(a: Automaton, b: Automaton, max_len: int) -> bool:
    return enumerate_traces(a, max_len) == enumerate_traces(b, max_len)


def flag_automaton(label_events) -> Automaton:
    """Two-state automaton that latches to Y once a label event occurs.

    Composed with a closed loop by the generic `parallel_compose`, it is
    the reference for the labeled model `label_compose` builds directly.
    """
    label_events = frozenset(label_events)
    transitions = {}
    for event in label_events:
        transitions[(CLEAN, event)] = ATTACKED
        transitions[(ATTACKED, event)] = ATTACKED
    return Automaton(
        frozenset({CLEAN, ATTACKED}),
        label_events,
        transitions,
        CLEAN,
        frozenset({CLEAN, ATTACKED}),
    )
