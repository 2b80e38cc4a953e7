"""Attack diagnosis: labeled models, diagnosers, and verifiers.

Detection is a fault-diagnosis problem where the "faults" are the attack
artifact events of a closed-loop model.  `label_compose` attaches an
absorbing Y/N label to every closed-loop state; the diagnoser is the
observer of the labeled model and classifies each estimate as normal,
uncertain, or certain.

Every estimate the package computes comes from one `EstimateTable` per
model, held on `Analysis`: the diagnoser's observer, the online detector
and the defended product of `runtime` all step through it, so each
unobservable closure and each step is computed at most once per model.
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
function, read straight off the closed loop and the labeled model.  The
verifier test searches all of it and `confusion_witness` its pairs (never
past a detected node), without building any automaton; `build_verifier`
records one search of it as the verifier and tracker automata.
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
)

CLEAN = "N"
ATTACKED = "Y"

NORMAL = "normal"
CERTAIN = "certain"
UNCERTAIN = "uncertain"

# A detected node of `tracker_moves` is (SINK, attacked labeled state); no
# closed-loop state equals SINK, as each is a (supervisor, plant) pair.
SINK = "A"


class LabeledAutomaton(Value):
    """Closed-loop model whose states carry an absorbing attack label."""

    automaton: Automaton
    label_events: frozenset[str]


def label_compose(model: AttackedModel) -> LabeledAutomaton:
    """Attach attack labels to the closed loop; states become (state, label).

    One `explore` of the closed loop from (initial, N) in which the label
    latches to Y on the first attack event: the closed loop's product
    with a two-state flag automaton, built directly.  Every attack event
    is a closed-loop event, as every way of making an `AttackedModel`
    ensures.
    """
    aut, attack_events = model.model, model.attack_events
    rows = {}

    def moves(node):
        state, label = node
        row = rows[node] = {}
        for event, target in aut._out[state].items():
            row[event] = (target, ATTACKED if event in attack_events else label)
        return row.items()

    initial = (aut.initial, CLEAN)
    states, _ = explore([initial], moves, overflow="labeling exceeded {limit} states")
    marked = frozenset(s for s in states if s[0] in aut.marked)
    labeled = Automaton._unchecked(frozenset(states), aut.events, rows, initial, marked)
    return LabeledAutomaton(labeled, attack_events)


class Analysis(Value):
    """Per-model structures that every decision route needs.

    Reached through `AttackedModel.analysis`, which builds it once: the
    event classes, the labeled model, the unsafe states the attack-free
    closed loop already reaches, `unsafe_coreach` (the labeled states
    from which an unsafe state is reachable, inside which the searches
    for a violation stay), and the detector's estimate table.  The table
    fills lazily and is shared by the observer, the defended-run
    exploration and step-by-step runs, so between them each unobservable
    closure is computed at most once per model; it keeps the estimate
    steps taken for as long as the model lives.  Diagnosers and verifier
    searches are rebuilt per call, so a model kept alive does not keep
    their memory alive too.
    """

    observable: frozenset[str]
    unobservable: frozenset[str]
    controllable: frozenset[str]
    uncontrollable: frozenset[str]
    labeled: LabeledAutomaton
    nominal_unsafe: frozenset
    unsafe_coreach: frozenset
    estimates: EstimateTable


def analyze(model: AttackedModel) -> Analysis:
    alphabet = model.alphabet
    unobservable = alphabet.unobservable_events()
    labeled = label_compose(model)
    aut = labeled.automaton
    unsafe = model.unsafe_states
    return Analysis(
        observable=alphabet.observable_events(),
        unobservable=unobservable,
        controllable=alphabet.controllable_events(),
        uncontrollable=alphabet.uncontrollable_events(),
        labeled=labeled,
        # The label latches on the first attack event, so a closed-loop state
        # appears labeled clean exactly when an attack-free string reaches it.
        nominal_unsafe=frozenset(s for s in unsafe if (s, CLEAN) in aut.states),
        unsafe_coreach=coreach(aut, [s for s in aut.states if s[0] in unsafe]),
        estimates=EstimateTable(aut, unobservable),
    )


def classify(estimate: Iterable[tuple]) -> str:
    """normal if all labels N, certain if all Y, uncertain otherwise."""
    labels = {label for _, label in estimate}
    if labels == {CLEAN}:
        return NORMAL
    if labels == {ATTACKED}:
        return CERTAIN
    return UNCERTAIN


class Diagnoser(Value):
    """Observer of a labeled model plus the per-state classification."""

    automaton: Automaton
    classification: Mapping[State, str]


def build_diagnoser(
    labeled: LabeledAutomaton,
    unobservable: Iterable[str],
    estimates: EstimateTable | None = None,
    stop: Callable[[frozenset], bool] | None = None,
    live: frozenset | None = None,
) -> Diagnoser:
    """Observer of the labeled model, with each estimate classified.

    `estimates`, `stop` and `live` go to `observer`: a shared estimate
    table, a predicate at whose first satisfying estimate the construction
    ends, and the labeled states an estimate must meet to be expanded
    (`Analysis.unsafe_coreach` for the diagnoser test).  Either of the
    last two leaves a partial diagnoser, whose every discovered estimate
    is classified.
    """
    obs = observer(labeled.automaton, unobservable, estimates=estimates, stop=stop, live=live)
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

    `verifier` holds the (attack-free state, attacked labeled state) pairs
    and the edges between them; `tracker` adds detection, and names a pair
    node (pair, attacked) and a detected node (SINK, attacked).  Both are
    None when there is no attacked behavior.
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

    explore([start], recorded)
    return VerifierArtifacts(
        Automaton.build(start, pair_edges),
        Automaton.build(tracked(start), tracker_edges),
    )


def tracker_moves(model: AttackedModel, keep: frozenset | None = None):
    """Start node and successor function of the tracker product, on the fly.

    Nodes are (attack-free state, attacked labeled state) pairs, exactly
    the states of `build_verifier`'s verifier, and detected nodes (SINK,
    attacked labeled state).  Unobservable non-attack events of the
    attack-free side are private ``#r`` moves, observable non-attack events
    synchronize, and the attacked side stays among the labeled states in
    `keep`, by default those co-reachable to an attacked label.  An
    observable event the attacked side can take but the pair cannot
    leads to a detected node, from where only uncontrollable events continue.
    Successors come sorted by event, the `out_edges` order of the
    materialized automata, so a breadth-first search visits nodes in the
    same order as one over them.  None when the initial labeled state is
    not kept (by default: the model has no attacked behavior).
    """
    analysis = model.analysis
    labeled = analysis.labeled.automaton
    if keep is None:
        keep = coreach(labeled, [s for s in labeled.states if s[1] == ATTACKED])
    if labeled.initial not in keep:
        return None
    normal_out = model.model._out
    attacked_out = labeled._out
    attack_events = model.attack_events
    observable = analysis.observable
    uncontrollable = analysis.uncontrollable

    def moves(node):
        normal, attacked = node
        edges = []
        if normal == SINK:
            for event, target in attacked_out[attacked].items():
                if event in uncontrollable and target in keep:
                    edges.append((event, (SINK, target)))
        else:
            normal_edges = normal_out[normal]
            attacked_edges = attacked_out[attacked]
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

    return (model.model.initial, labeled.initial), moves


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

    def confused(node):
        (normal, (attacked, label)), satisfied = node
        return (
            normal != SINK
            and label == ATTACKED
            and satisfied
            and (not unsafe_only or attacked in model.unsafe_states)
        )

    parents, found = explore([(start, require_event is None)], moves, confused)
    if found is None:
        return None
    trace = path_to(parents, found)
    normal_trace = recover_normal(trace, model.attack_events, model.analysis.observable)
    return normal_trace, strip_renamed(trace)
