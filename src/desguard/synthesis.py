"""Supervisor synthesis support.

Covers the standard pipeline used to obtain the supervisors this package
analyzes: restrict an admissible-behavior automaton against the plant,
compute the supremal controllable sublanguage, check observability of the
result, and realize a partial-observation supervisor whose enabled
unobservable events appear as self-loops.  No step iterates to a
fixpoint: each is one closure or one search over the product.
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
    out = {}
    for estimate, row in skeleton._out.items():
        enabled_hidden = set()
        for member in estimate:
            enabled_hidden |= admissible.active_events(member) & hidden
        out[estimate] = {**row, **dict.fromkeys(enabled_hidden, estimate)}
    return Automaton._unchecked(
        skeleton.states,
        admissible.events | plant.events,
        out,
        skeleton.initial,
        skeleton.states,
    )
