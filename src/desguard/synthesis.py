"""Supervisor synthesis support.

Covers the standard pipeline used to obtain the supervisors this package
analyzes: restrict an admissible-behavior automaton against the plant,
compute the supremal controllable sublanguage, check observability of the
result, and realize a partial-observation supervisor whose enabled
unobservable events appear as self-loops.
"""

from __future__ import annotations

from typing import Iterable

from .automata import Automaton, accessible, explore, observer, parallel_compose, path_to


class RealizationError(ValueError):
    """The admissible behavior cannot be realized under partial observation."""

    def __init__(self, witness):
        self.witness = witness
        trace_a, trace_b, event = witness
        super().__init__(
            "admissible behavior is not observable: "
            f"{'·'.join(trace_a) or 'ε'} requires {event!r} disabled while the "
            f"observation-equivalent {'·'.join(trace_b) or 'ε'} requires it enabled"
        )


def supremal_controllable(
    plant: Automaton, admissible: Automaton, uncontrollable: Iterable[str]
) -> Automaton | None:
    """Largest sub-behavior of `admissible` the plant cannot escape.

    Iteratively removes product states at which the plant can execute an
    uncontrollable event the candidate behavior does not allow, until a
    fixpoint.  States of the result are (admissible state, plant state)
    pairs.  Returns None when nothing survives (the empty language).
    """
    uncontrollable = frozenset(uncontrollable)
    product = parallel_compose(admissible, plant)
    good = set(product.states)

    def inside(state):
        for event, target in product.out_edges(state):
            if target in good:
                yield event, target

    while True:
        bad = set()
        for state in good:
            plant_state = state[1]
            for event in plant.active_events(plant_state):
                if event not in uncontrollable:
                    continue
                target = product.successor(state, event)
                if target is None or target not in good:
                    bad.add(state)
                    break
        if not bad:
            break
        good -= bad
        if product.initial not in good:
            return None
        # Keep only what is still reachable inside the surviving states.
        good = set(explore([product.initial], inside)[0])
    transitions = {
        (src, event): dst
        for (src, event), dst in product.transitions.items()
        if src in good and dst in good
    }
    return accessible(
        Automaton(frozenset(good), product.events, transitions, product.initial,
                  product.marked & good)
    )


def check_observability(
    plant: Automaton,
    admissible: Automaton,
    observable: Iterable[str],
    controllable: Iterable[str],
) -> tuple[bool, tuple | None]:
    """Can a partial-observation supervisor enforce the admissible behavior?

    Fails when two observation-equivalent admissible strings disagree on a
    controllable event: one must keep it disabled (the plant could do it,
    the behavior forbids it) while the other needs it enabled.  On failure
    returns a witness (trace needing disable, trace needing enable, event).
    """
    observable = frozenset(observable)
    controllable = sorted(set(controllable))
    product = parallel_compose(admissible, plant)
    unobservable = product.events - observable

    def conflict(node):
        """A controllable event `node`'s first string must keep disabled
        while its second needs it enabled, or None."""
        one, two = node
        for event in controllable:
            forbidden = (
                product.successor(one, event) is None
                and plant.successor(one[1], event) is not None
            )
            if forbidden and product.successor(two, event) is not None:
                return event
        return None

    def moves(node):
        one, two = node
        for event, target in product.out_edges(one):
            if event in observable:
                other = product.successor(two, event)
                if other is not None:
                    yield (event, "both"), (target, other)
            else:
                yield (event, "first"), (target, two)
        for event, target in product.out_edges(two):
            if event in unobservable:
                yield (event, "second"), (one, target)

    start = (product.initial, product.initial)
    parents, found = explore([start], moves, lambda node: conflict(node) is not None)
    if found is None:
        return True, None
    labels = path_to(parents, found)
    first = tuple(event for event, side in labels if side != "second")
    second = tuple(event for event, side in labels if side != "first")
    return False, (first, second, conflict(found))


def realize_supervisor(
    plant: Automaton,
    admissible: Automaton,
    observable: Iterable[str],
    controllable: Iterable[str],
) -> Automaton:
    """Observer-style supervisor realization.

    States are observation-consistent estimate sets of the admissible
    behavior; enabled unobservable events appear as self-loops.  Refuses
    (with the witness) when the behavior is not observable.  All states
    are marked so that composition with the plant preserves the plant's
    marking.
    """
    ok, witness = check_observability(plant, admissible, observable, controllable)
    if not ok:
        raise RealizationError(witness)
    observable = frozenset(observable)
    hidden = admissible.events - observable
    skeleton = observer(admissible, hidden)
    transitions = dict(skeleton.transitions)
    for estimate in skeleton.states:
        enabled_hidden = set()
        for member in estimate:
            enabled_hidden |= admissible.active_events(member) & hidden
        for event in enabled_hidden:
            transitions[(estimate, event)] = estimate
    return Automaton(
        skeleton.states,
        admissible.events | plant.events,
        transitions,
        skeleton.initial,
        skeleton.states,
    )
