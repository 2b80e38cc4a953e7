"""Brute-force language oracles used to cross-check the library.

Everything here is deliberately naive and independent of the library's
algorithms: languages are enumerated string by string.
"""

from collections import deque

from desguard.automata import Automaton, project


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
