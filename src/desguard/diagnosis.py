"""Attack diagnosis: the per-model analysis, diagnosers, and verifiers.

Detection is a fault-diagnosis problem where the "faults" are the attack
artifact events of a closed-loop model.  `label_compose` builds the one
per-model analysis context, `Analysis`, that every decision route reads.
It numbers the closed-loop states once and attaches an absorbing attack
label as the low bit: the labeled state ``2 * i + label`` is closed-loop
state `names[i]`, clean (0) or attacked (1).  Every route works on these
ints, and names are rendered only where output is written.  The
diagnoser is the observer of the labeled model and classifies each
estimate as normal, uncertain, or certain by its members' label bits.

Besides the labeled model, `Analysis` holds the model's one
`EstimateTable`: the diagnoser's observer, the online detector and the
defended product of `runtime` all read each estimate's moves from it,
so each unobservable closure and each estimate's move map is computed
at most once per model, and the observer's rows are the table's maps.
`build_diagnoser` can end at the first estimate a predicate accepts.
`Analysis` also holds one backward closure per model, the labeled states
from which an unsafe state is reachable; the verifier, oracle and witness
searches never enter a state outside it, and the diagnoser test expands
no estimate that shares no state with it.

The verifier offers a polynomial alternative to the diagnoser: it pairs
the renamed attack-free behavior with the attacked behavior so that
observation-equivalent string pairs become joint states, and a tracker
follows the attacked behavior past detection.  `tracker_moves` is the
one construction of that product: its start node and successor
function, read straight off the labeled model, whose clean states are
the attack-free behavior.  The verifier test searches all of it and
`confusion_witness` its pairs (never past a detected node), without
building any automaton; `build_verifier` records one search of it as the
verifier and tracker automata.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from .attacks import RENAME_SUFFIX, AttackedModel
from .automata import (
    Automaton,
    EstimateTable,
    State,
    Trace,
    Value,
    coreach,
    explore,
    observer,
    path_to,
    state_name,
)

CLEAN = "N"
ATTACKED = "Y"

NORMAL = "normal"
CERTAIN = "certain"
UNCERTAIN = "uncertain"

# A detected node of `tracker_moves` is (SINK, attacked labeled state); no
# labeled state equals SINK, as each is an int.
SINK = "A"


class Analysis(Value):
    """The per-model context that every decision route reads.

    Built once per model by `label_compose`, and reached through
    `AttackedModel.analysis`: the event classes; the labeled model
    `automaton`, whose states are ints, ``2 * i`` closed-loop state
    `names[i]` labeled clean and ``2 * i + 1`` the same state labeled
    attacked; `unsafe` (the labeled states whose closed-loop state is
    unsafe); the closed-loop states the attack-free loop already reaches
    among them (`nominal_unsafe`); `unsafe_coreach` (the labeled states
    from which an unsafe state is reachable, inside which the searches for
    a violation stay); and the detector's estimate table.  The table fills
    lazily and is shared by the observer, the defended-run exploration and
    step-by-step runs, so between them each closure and each estimate's
    moves are computed at most once per model, and kept for as long as
    the model lives.  Diagnosers and verifier searches are rebuilt per
    call, so a model kept alive does not keep their memory alive too.
    """

    observable: frozenset[str]
    unobservable: frozenset[str]
    controllable: frozenset[str]
    uncontrollable: frozenset[str]
    automaton: Automaton
    names: tuple
    unsafe: frozenset[int]
    nominal_unsafe: frozenset
    unsafe_coreach: frozenset[int]
    estimates: EstimateTable

    def decode(self, state: int) -> tuple:
        """The labeled state as (closed-loop state, CLEAN or ATTACKED)."""
        return self.names[state >> 1], ATTACKED if state & 1 else CLEAN

    def estimate_name(self, estimate: frozenset) -> str:
        """`state_name` of a set of labeled states, each decoded."""
        return state_name(frozenset(map(self.decode, estimate)))


def label_compose(model: AttackedModel) -> Analysis:
    """The analysis of `model`: its closed loop, numbered in row order and labeled.

    One `explore` of the closed loop from the clean initial state in which
    the label bit latches to 1 on the first attack event: the closed
    loop's product with a two-state flag automaton, built directly, each
    row in the closed loop's event order.  Every attack event is a
    closed-loop event, as every way of making an `AttackedModel` ensures.
    The rest of the context is derived from the labeled model.
    """
    aut, attack_events, alphabet = model.model, model.attack_events, model.alphabet
    names = tuple(aut._out)
    index = {state: i for i, state in enumerate(names)}
    closed_rows = list(aut._out.values())
    rows = {}

    def moves(state):
        label = state & 1
        row = rows[state] = {
            event: 2 * index[target] + (label | (event in attack_events))
            for event, target in closed_rows[state >> 1].items()
        }
        return row.items()

    initial = 2 * index[aut.initial]
    states, _ = explore([initial], moves, overflow="labeling exceeded {limit} states")
    marked_numbers = {index[s] for s in aut.marked}
    marked = frozenset(s for s in states if s >> 1 in marked_numbers)
    labeled = Automaton._unchecked(frozenset(states), aut.events, rows, initial, marked)
    numbers = [index[state] for state in model.unsafe_states if state in index]
    unsafe = frozenset(s for i in numbers for s in (2 * i, 2 * i + 1) if s in states)
    unobservable = alphabet.unobservable_events()
    return Analysis(
        observable=alphabet.observable_events(),
        unobservable=unobservable,
        controllable=alphabet.controllable_events(),
        uncontrollable=alphabet.uncontrollable_events(),
        automaton=labeled,
        names=names,
        unsafe=unsafe,
        # The label latches on the first attack event, so a closed-loop state
        # appears labeled clean exactly when an attack-free string reaches it.
        nominal_unsafe=frozenset(names[s >> 1] for s in unsafe if not s & 1),
        unsafe_coreach=coreach(labeled, unsafe),
        estimates=EstimateTable(labeled, unobservable),
    )


def classify(estimate: Iterable[int]) -> str:
    """normal if every label bit is 0, certain if every one is 1, uncertain otherwise."""
    labels = {state & 1 for state in estimate}
    if labels == {0}:
        return NORMAL
    if labels == {1}:
        return CERTAIN
    return UNCERTAIN


class Diagnoser(Value):
    """Observer of a labeled model plus the per-state classification."""

    automaton: Automaton
    classification: Mapping[State, str]


def build_diagnoser(
    analysis: Analysis,
    stop: Callable[[frozenset], bool] | None = None,
    live: frozenset | None = None,
) -> Diagnoser:
    """Observer of the labeled model, with each estimate classified.

    The observer steps through the model's estimate table.  `stop` and
    `live` go to `observer`: a predicate at whose first satisfying
    estimate the construction ends, and the labeled states an estimate
    must meet to be expanded (`Analysis.unsafe_coreach` for the diagnoser
    test).  Either leaves a partial diagnoser, whose every discovered
    estimate is classified.
    """
    obs = observer(analysis.automaton, analysis.unobservable, analysis.estimates, stop, live)
    return Diagnoser(obs, {s: classify(s) for s in obs.states})


def first_entered_certain(diagnoser: Diagnoser) -> Iterator[tuple[State, str, State]]:
    """Diagnoser edges (src, event, dst) from a normal or uncertain state
    into a certain one: the points where detection first becomes certain."""
    classification = diagnoser.classification
    for src, row in diagnoser.automaton._out.items():
        if classification[src] in (NORMAL, UNCERTAIN):
            for event, dst in row.items():
                if classification[dst] == CERTAIN:
                    yield src, event, dst


class VerifierArtifacts(Value):
    """The `tracker_moves` product, materialized for inspection and tests.

    `verifier` holds the (attack-free state, attacked labeled state) pairs,
    both sides labeled states, and the edges between them; `tracker` adds
    detection, and names a pair node (pair, attacked) and a detected node
    (SINK, attacked).  Both are None when there is no attacked behavior.
    """

    verifier: Automaton | None
    tracker: Automaton | None


def build_verifier(model: AttackedModel) -> VerifierArtifacts:
    """Materialize the verifier and the tracker of a closed-loop attack model.

    One search of `tracker_moves(model)` that records each edge; the
    decision routes search the same product without building it.
    """
    product = tracker_moves(model)
    if product is None:
        return VerifierArtifacts(None, None)
    start, moves = product
    pair_edges, tracker_edges = [], []

    def tracked(node):
        return node if node[0] == SINK else (node, node[1])

    def recorded(node):
        edges = moves(node)
        for event, target in edges:
            tracker_edges.append((tracked(node), event, tracked(target)))
            if target[0] != SINK:
                pair_edges.append((node, event, target))
        return edges

    explore([start], recorded, overflow="verifier construction exceeded {limit} states")
    return VerifierArtifacts(
        Automaton.build(start, pair_edges),
        Automaton.build(tracked(start), tracker_edges),
    )


def tracker_moves(model: AttackedModel, keep: frozenset | None = None):
    """Start node and successor function of the tracker product, on the fly.

    Nodes are (attack-free state, attacked labeled state) pairs, exactly
    the states of `build_verifier`'s verifier, and detected nodes (SINK,
    attacked labeled state).  The attack-free side is a clean labeled
    state, so both sides read the labeled model's rows.  Unobservable
    non-attack events of the attack-free side are private ``#r`` moves,
    observable non-attack events synchronize, and the attacked side stays
    among the labeled states in `keep`, by default those co-reachable to
    an attacked label.  An observable event the attacked side can take
    but the pair cannot leads to a detected node, from where only
    uncontrollable events continue.  Successors come sorted by event, the
    `out_edges` order of the materialized automata, so a breadth-first
    search visits nodes in the same order as one over them.  None when
    the initial labeled state is not kept (by default: the model has no
    attacked behavior).
    """
    analysis = model.analysis
    labeled = analysis.automaton
    if keep is None:
        keep = coreach(labeled, [s for s in labeled.states if s & 1])
    if labeled.initial not in keep:
        return None
    out = labeled._out
    attack_events = model.attack_events
    observable = analysis.observable
    uncontrollable = analysis.uncontrollable

    def moves(node):
        normal, attacked = node
        edges = []
        if normal == SINK:
            for event, target in out[attacked].items():
                if event in uncontrollable and target in keep:
                    edges.append((event, (SINK, target)))
        else:
            normal_edges = out[normal]
            attacked_edges = out[attacked]
            for event, target in normal_edges.items():
                if event in attack_events:
                    continue
                if event not in observable:
                    edges.append((event + RENAME_SUFFIX, (target, attacked)))
                elif (joint := attacked_edges.get(event)) in keep:
                    edges.append((event, (target, joint)))
            for event, target in attacked_edges.items():
                if target not in keep:
                    continue
                if event not in observable:
                    edges.append((event, (normal, target)))
                elif event in attack_events or event not in normal_edges:
                    edges.append((event, (SINK, target)))
        # Events are distinct, so sorting never compares nodes.
        edges.sort()
        return edges

    return (labeled.initial, labeled.initial), moves


def strip_renamed(trace: Iterable[str]) -> Trace:
    """Project a verifier trace onto the attacked side (drop renamed events)."""
    return tuple(e for e in trace if not e.endswith(RENAME_SUFFIX))


def recover_normal(
    trace: Iterable[str], attack_events: frozenset[str], observable: frozenset[str]
) -> Trace:
    """Project a verifier trace onto the attack-free side.

    Keeps shared (observable, non-attack) events and un-renames private
    normal moves; private attacked moves are dropped.
    """
    out = []
    for event in trace:
        if event.endswith(RENAME_SUFFIX):
            out.append(event[: -len(RENAME_SUFFIX)])
        elif event in observable and event not in attack_events:
            out.append(event)
    return tuple(out)


def confusion_witness(
    model: AttackedModel,
    require_event: str | None = None,
    unsafe_only: bool = False,
) -> tuple[Trace, Trace] | None:
    """A pair (attack-free trace, attacked trace) with equal observations.

    Searches the pairs of the tracker product, never past a sink node,
    for one whose attacked component is labeled, optionally insisting
    that the attacked trace contain `require_event` and/or end in an
    unsafe state.  Returns None when the attacked behavior is never
    observation-equivalent to attack-free behavior.
    """
    product = tracker_moves(model)
    if product is None:
        return None
    start, pair_moves = product

    def moves(node):
        pair, satisfied = node
        if pair[0] != SINK:
            for event, target in pair_moves(pair):
                yield event, (target, satisfied or event == require_event)

    unsafe = model.analysis.unsafe

    def confused(node):
        (normal, attacked), satisfied = node
        return (
            normal != SINK
            and attacked & 1
            and satisfied
            and (not unsafe_only or attacked in unsafe)
        )

    parents, found = explore(
        [(start, require_event is None)],
        moves,
        confused,
        overflow="confusion witness search exceeded {limit} states",
    )
    if found is None:
        return None
    trace = path_to(parents, found)
    normal_trace = recover_normal(trace, model.attack_events, model.analysis.observable)
    return normal_trace, strip_renamed(trace)
