"""Supervisor synthesis support.

Covers the standard pipeline used to obtain the supervisors this package
analyzes: compose an admissible-behavior automaton with the plant once,
keep its supremal controllable part, and realize a partial-observation
supervisor, the observer of that product with enabled unobservable
events as self-loops.  The observer also decides observability;
`check_observability`'s pair search explains a refusal.  No step
iterates to a fixpoint: each is one closure or one search.
"""

from __future__ import annotations

from typing import Iterable

from .automata import Automaton, coreach, explore, observer, parallel_compose, path_to, restrict


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

    Drops the escapes, product states where the plant can execute an
    uncontrollable event the behavior does not allow, and every state that
    reaches one by the plant's uncontrollable events (one `coreach`); keeps
    what the initial state reaches outside them.  States are (admissible
    state, plant state) pairs; None stands for the empty language.
    """
    forced = frozenset(uncontrollable) & plant.events
    product = parallel_compose(admissible, plant)
    escapes = [
        state
        for state, row in product._out.items()
        if any(event in forced and event not in row for event in plant._out[state[1]])
    ]
    if not escapes:
        return product
    bad = coreach(product, escapes, forced)
    if product.initial in bad:
        return None

    def inside(state):
        return [(e, target) for e, target in product._out[state].items() if target not in bad]

    kept, _ = explore(
        [product.initial], inside, overflow="controllable part exceeded {limit} states"
    )
    return restrict(product, frozenset(kept))


def check_observability(
    plant: Automaton,
    admissible: Automaton,
    observable: Iterable[str],
    controllable: Iterable[str],
) -> tuple[bool, tuple | None]:
    """Can a partial-observation supervisor enforce the admissible behavior?

    Fails when two observation-equivalent admissible strings disagree on a
    controllable event: one must keep it disabled (the plant could do it,
    the behavior forbids it) while the other needs it enabled.  The events
    each product state forbids and enables are computed once, so a pair of
    states is one set intersection.  On failure returns a witness (trace
    needing disable, trace needing enable, event).
    """
    observable = frozenset(observable)
    controllable = frozenset(controllable)
    product = parallel_compose(admissible, plant)
    out = product._out
    enabled = {state: controllable.intersection(row) for state, row in out.items()}
    forbidden = {
        state: controllable.intersection(plant._out[state[1]]) - enabled[state] for state in out
    }

    def conflict(node):
        """The smallest controllable event `node`'s first string must keep
        disabled while its second needs it enabled, or None."""
        one, two = node
        return min(forbidden[one] & enabled[two], default=None)

    def moves(node):
        one, two = node
        for event, target in product.out_edges(one):
            if event in observable:
                other = out[two].get(event)
                if other is not None:
                    yield (event, "both"), (target, other)
            else:
                yield (event, "first"), (target, two)
        for event, target in product.out_edges(two):
            if event not in observable:
                yield (event, "second"), (one, target)

    start = (product.initial, product.initial)
    parents, found = explore(
        [start],
        moves,
        lambda node: conflict(node) is not None,
        overflow="observability search exceeded {limit} states",
    )
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
    """Observer-style realization of `supremal_controllable`'s product.

    `admissible` is taken as given: its states are (spec state, plant
    state) pairs.  The supervisor's states are its estimates, all marked
    so that composition keeps the plant's marking; enabled unobservable
    events self-loop.  States share an estimate exactly when
    observation-equivalent strings reach them, so no estimate may enable a
    controllable event one of its members forbids; else this refuses with
    `check_observability`'s witness.
    """
    observable, controllable = frozenset(observable), frozenset(controllable)
    hidden = admissible.events - observable
    skeleton = observer(admissible, hidden)
    rows, out = admissible._out, {}
    for estimate, row in skeleton._out.items():
        enabled = set().union(*(rows[member] for member in estimate))
        if any(
            event in enabled and event not in rows[member]
            for member in estimate
            for event in controllable.intersection(plant._out[member[1]])
        ):
            _, witness = check_observability(plant, admissible, observable, controllable)
            raise RealizationError(witness)
        out[estimate] = {**row, **dict.fromkeys(enabled & hidden, estimate)}
    events = admissible.events | plant.events
    return Automaton._unchecked(skeleton.states, events, out, skeleton.initial, skeleton.states)
