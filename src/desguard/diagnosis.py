"""Attack diagnosis: labeled models, diagnosers, and verifiers.

Detection is a fault-diagnosis problem where the "faults" are the attack
artifact events of a closed-loop model.  The flag automaton attaches an
absorbing Y/N label to every closed-loop state; the diagnoser is the
observer of the labeled model and classifies each estimate as normal,
uncertain, or certain.  The verifier offers a polynomial alternative: it
pairs the renamed attack-free behavior with the attacked behavior so that
observation-equivalent string pairs become joint states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .attacks import RENAME_SUFFIX, AttackedModel
from .automata import (
    DEFAULT_STATE_LIMIT,
    Automaton,
    State,
    Trace,
    accessible,
    observer,
    parallel_compose,
    unobservable_reach,
)

CLEAN = "N"
ATTACKED = "Y"

NORMAL = "normal"
CERTAIN = "certain"
UNCERTAIN = "uncertain"

SINK = "A"


@dataclass(frozen=True)
class LabeledAutomaton:
    """Closed-loop model whose states carry an absorbing attack label."""

    automaton: Automaton
    label_events: frozenset[str]


def flag_automaton(label_events: Iterable[str]) -> Automaton:
    """Two-state automaton that latches to Y once a label event occurs."""
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


def label_compose(model: AttackedModel, max_states: int = DEFAULT_STATE_LIMIT) -> LabeledAutomaton:
    """Attach attack labels to the closed loop; states become (state, label)."""
    labeled = parallel_compose(
        model.model, flag_automaton(model.attack_events), max_states=max_states
    )
    return LabeledAutomaton(labeled, model.attack_events)


@dataclass(frozen=True)
class Analysis:
    """Per-model structures that every decision route needs.

    Reached through `AttackedModel.analysis`, which builds it once.  Only
    the event classes and the labeled model live here: diagnosers,
    verifier artifacts and detector tables are rebuilt per call, so a
    model kept alive does not keep their memory alive too.
    """

    observable: frozenset[str]
    unobservable: frozenset[str]
    controllable: frozenset[str]
    uncontrollable: frozenset[str]
    labeled: LabeledAutomaton


def analyze(model: AttackedModel) -> Analysis:
    alphabet = model.alphabet
    return Analysis(
        observable=alphabet.observable_events(),
        unobservable=alphabet.unobservable_events(),
        controllable=alphabet.controllable_events(),
        uncontrollable=alphabet.uncontrollable_events(),
        labeled=label_compose(model),
    )


def classify(estimate: Iterable[tuple]) -> str:
    """normal if all labels N, certain if all Y, uncertain otherwise."""
    labels = {label for _, label in estimate}
    if labels == {CLEAN}:
        return NORMAL
    if labels == {ATTACKED}:
        return CERTAIN
    return UNCERTAIN


@dataclass(frozen=True)
class Diagnoser:
    """Observer of a labeled model plus the per-state classification."""

    automaton: Automaton
    classification: Mapping[State, str]

    def states_of(self, kind: str) -> frozenset:
        return frozenset(s for s, c in self.classification.items() if c == kind)


def build_diagnoser(
    labeled: LabeledAutomaton,
    unobservable: Iterable[str],
    max_states: int = DEFAULT_STATE_LIMIT,
) -> Diagnoser:
    obs = observer(labeled.automaton, unobservable, max_states=max_states)
    return Diagnoser(obs, {s: classify(s) for s in obs.states})


def diagnoser_initial(labeled: LabeledAutomaton, unobservable: Iterable[str]) -> frozenset:
    """Initial state estimate, for incremental (on-the-fly) diagnosis."""
    return unobservable_reach(
        labeled.automaton, {labeled.automaton.initial}, frozenset(unobservable)
    )


def diagnoser_step(
    labeled: LabeledAutomaton,
    unobservable: Iterable[str],
    estimate: frozenset,
    event: str,
) -> frozenset:
    """Advance a state estimate by one observed event.

    Raises KeyError when no member of the estimate can execute the event;
    the caller is then observing something inconsistent with the model.
    """
    unobservable = frozenset(unobservable)
    targets = set()
    for member in estimate:
        successor = labeled.automaton.successor(member, event)
        if successor is not None:
            targets.add(successor)
    if not targets:
        raise KeyError(f"event {event!r} is infeasible at the current estimate")
    return unobservable_reach(labeled.automaton, targets, unobservable)


class Detector:
    """The online detector's estimate over one labeled model, memoized.

    Each (estimate, event) step and each estimate's class is computed once
    per instance, so replaying many runs that revisit the same estimates
    pays for one unobservable closure per distinct step.
    """

    def __init__(self, analysis: Analysis):
        self.labeled = analysis.labeled
        self.observable = analysis.observable
        self.unobservable = analysis.unobservable
        self.initial = diagnoser_initial(self.labeled, self.unobservable)
        self._steps: dict[tuple[frozenset, str], frozenset] = {}
        self._classes: dict[frozenset, str] = {}

    def step(self, estimate: frozenset, event: str) -> frozenset:
        """`diagnoser_step` of an observed event."""
        key = (estimate, event)
        target = self._steps.get(key)
        if target is None:
            target = diagnoser_step(self.labeled, self.unobservable, estimate, event)
            self._steps[key] = target
        return target

    def classify(self, estimate: frozenset) -> str:
        kind = self._classes.get(estimate)
        if kind is None:
            kind = self._classes[estimate] = classify(estimate)
        return kind


def first_entered_certain(diagnoser: Diagnoser) -> frozenset:
    """Certain diagnoser states with an incoming edge from a normal or uncertain state."""
    result = set()
    for (src, _event), dst in diagnoser.automaton.transitions.items():
        if (
            diagnoser.classification[dst] == CERTAIN
            and diagnoser.classification[src] in (NORMAL, UNCERTAIN)
        ):
            result.add(dst)
    return frozenset(result)


@dataclass(frozen=True)
class VerifierArtifacts:
    """Intermediate automata of the verifier pipeline.

    `normal_part` is the attack-free behavior with its unobservable events
    renamed (suffix ``#r``) so they become private; `attacked_part` keeps
    exactly the prefixes of attacked strings, labels included.  `verifier`
    pairs them; `completed` extends the verifier with a sink state that is
    entered on any observation the attack-free behavior cannot produce and
    that only lets uncontrollable events continue; `tracker` follows the
    attacked behavior through the completed verifier to expose what remains
    reachable after detection.  Fields are None when there is no attacked
    behavior at all.
    """

    normal_part: Automaton | None
    attacked_part: LabeledAutomaton | None
    verifier: Automaton | None
    completed: Automaton | None
    tracker: Automaton | None


def _normal_part(model: AttackedModel, labeled: LabeledAutomaton) -> Automaton | None:
    aut = labeled.automaton
    transitions = {
        (src, event): dst
        for (src, event), dst in aut.transitions.items()
        if event not in model.attack_events
    }
    trimmed = accessible(
        Automaton(aut.states, aut.events, transitions, aut.initial, aut.marked)
    )
    # Without attack transitions every reachable label is N; drop the labels.
    assert all(label == CLEAN for _, label in trimmed.states)
    plain = Automaton(
        frozenset(base for base, _ in trimmed.states),
        trimmed.events - model.attack_events,
        {(src[0], event): dst[0] for (src, event), dst in trimmed.transitions.items()},
        trimmed.initial[0],
        frozenset(base for base, _ in trimmed.marked),
    )
    unobservable = model.unobservable_events() - model.attack_events
    renamed = plain.renamed_events({e: e + RENAME_SUFFIX for e in unobservable})
    # Observable attack events stay in the declared event set: the
    # attack-free behavior can never execute them, so in the verifier they
    # synchronize (and block) instead of interleaving.  Unobservable attack
    # events are absent here and interleave as private attacked moves.
    observable_attacks = model.attack_events & model.observable_events()
    return Automaton(
        renamed.states,
        renamed.events | observable_attacks,
        renamed.transitions,
        renamed.initial,
        renamed.marked,
    )


def _attacked_part(labeled: LabeledAutomaton) -> LabeledAutomaton | None:
    """Sub-automaton of states co-reachable to an attacked (Y) label."""
    aut = labeled.automaton
    backward: dict[State, set] = {s: set() for s in aut.states}
    for (src, _event), dst in aut.transitions.items():
        backward[dst].add(src)
    keep = {s for s in aut.states if s[1] == ATTACKED}
    queue = deque(keep)
    while queue:
        current = queue.popleft()
        for pred in backward[current]:
            if pred not in keep:
                keep.add(pred)
                queue.append(pred)
    if aut.initial not in keep:
        return None
    transitions = {
        (src, event): dst
        for (src, event), dst in aut.transitions.items()
        if src in keep and dst in keep
    }
    trimmed = accessible(
        Automaton(frozenset(keep), aut.events, transitions, aut.initial, aut.marked & keep)
    )
    return LabeledAutomaton(trimmed, labeled.label_events)


def build_verifier(
    model: AttackedModel, max_states: int = DEFAULT_STATE_LIMIT
) -> VerifierArtifacts:
    """Run the full verifier pipeline for a closed-loop attack model.

    At the default budget the labeled model comes from `model.analysis`;
    a different budget composes it afresh so the budget applies to it too.
    """
    if max_states == DEFAULT_STATE_LIMIT:
        labeled = model.analysis.labeled
    else:
        labeled = label_compose(model, max_states=max_states)
    attacked = _attacked_part(labeled)
    normal = _normal_part(model, labeled)
    if attacked is None:
        return VerifierArtifacts(normal, None, None, None, None)
    verifier = parallel_compose(normal, attacked.automaton, max_states=max_states)
    completed = _complete(verifier, model.observable_events(), model.uncontrollable_events())
    tracker = parallel_compose(completed, attacked.automaton, max_states=max_states)
    return VerifierArtifacts(normal, attacked, verifier, completed, tracker)


def _complete(verifier: Automaton, observable, uncontrollable) -> Automaton:
    """The verifier plus the sink that unexplained observations lead to.

    A function of its own so that its scratch transition table is freed
    before the tracker, the largest automaton of the pipeline, is built.
    """
    states = set(verifier.states) | {SINK}
    transitions = dict(verifier.transitions)
    for state in verifier.states:
        active = verifier.active_events(state)
        for event in observable - active:
            transitions[(state, event)] = SINK
    for event in uncontrollable:
        transitions[(SINK, event)] = SINK
    return Automaton(
        frozenset(states),
        verifier.events | observable | uncontrollable,
        transitions,
        verifier.initial,
        verifier.marked,
    )


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
    artifacts: VerifierArtifacts | None = None,
    require_event: str | None = None,
    unsafe_only: bool = False,
) -> tuple[Trace, Trace] | None:
    """A pair (attack-free trace, attacked trace) with equal observations.

    Searches the verifier for a state whose attacked component is labeled,
    optionally insisting that the attacked trace contain `require_event`
    and/or end in an unsafe state.  Returns None when the attacked behavior
    is never observation-equivalent to attack-free behavior.
    """
    if artifacts is None:
        artifacts = build_verifier(model)
    verifier = artifacts.verifier
    if verifier is None:
        return None
    start = (verifier.initial, require_event is None)
    parents: dict[tuple, tuple | None] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        state, satisfied = node
        if unsafe_only and state[1][0] not in model.unsafe_states:
            satisfied_here = False
        else:
            satisfied_here = satisfied
        if state[1][1] == ATTACKED and satisfied_here:
            trace = []
            cursor = node
            while parents[cursor] is not None:
                cursor, event = parents[cursor]
                trace.append(event)
            trace.reverse()
            attacked_trace = strip_renamed(trace)
            normal_trace = recover_normal(
                trace, model.attack_events, model.observable_events()
            )
            return normal_trace, attacked_trace
        for event, target in verifier.out_edges(state):
            nxt = (target, satisfied or event == require_event)
            if nxt not in parents:
                parents[nxt] = (node, event)
                queue.append(nxt)
    return None
