"""Safe-controllability decision procedures.

A closed-loop attack model is safe controllable when the online defense
(detect with certainty, then disable every controllable event) keeps the
plant out of the unsafe states no matter what the attacker does.  Three
independent routes decide the property:

* the diagnoser test inspects the detector's estimate structure,
* the verifier test inspects observation-equivalent string pairs and the
  post-detection tracker,
* the exhaustive simulation literally runs the defense over every run.

All three must agree; the simulation is the ground truth the other two
are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attacks import AttackedModel
from .automata import Trace, explore, path_to, reach, state_name
from .diagnosis import (
    ATTACKED,
    CERTAIN,
    NORMAL,
    SINK,
    UNCERTAIN,
    Detector,
    Diagnoser,
    LabeledAutomaton,
    VerifierArtifacts,
    build_diagnoser,
    build_verifier,
    first_entered_certain,
    strip_renamed,
)
from .runtime import run_exhaustive

DIAGNOSER = "diagnoser"
VERIFIER = "verifier"
ORACLE = "oracle"

UNCERTAIN_UNSAFE = "uncertain-unsafe"
FIRST_CERTAIN_UNSAFE = "first-certain-unsafe"
UNCONTROLLABLE_UNSAFE = "uncontrollable-unsafe"
VERIFIER_PAIR_UNSAFE = "verifier-pair-unsafe"
VERIFIER_POST_DETECTION_UNSAFE = "verifier-post-detection-unsafe"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a safe-controllability test.

    When unsafe, `violated_condition` names the failing condition,
    `counterexample` is a closed-loop trace that reaches an unsafe state
    and contains an attack artifact, and `witness_state` renders the
    diagnoser/verifier state that exposed the violation.  `x_uc` carries
    the uncontrollably-reachable state set when the third diagnoser
    condition was evaluated.
    """

    safe: bool
    method: str
    violated_condition: str | None = None
    counterexample: Trace | None = None
    x_uc: frozenset | None = None
    witness_state: str | None = None


def _estimate_moves(labeled: LabeledAutomaton, diagnoser: Diagnoser, unobservable):
    """Successors of (labeled state, estimate) nodes, the estimate replaying
    the detector; no defense pruning, so paths describe what can happen
    before and at detection."""
    aut = labeled.automaton
    dag = diagnoser.automaton

    def moves(node):
        lstate, estimate = node
        for event, lnext in aut.out_edges(lstate):
            if event in unobservable:
                yield event, (lnext, estimate)
            else:
                yield event, (lnext, dag.successor(estimate, event))

    return (aut.initial, dag.initial), moves


def _entry_sets(labeled: LabeledAutomaton, diagnoser: Diagnoser) -> list[frozenset]:
    """Entry states of each edge on which detection first becomes certain.

    For an edge q -e-> q' from a normal/uncertain estimate into a certain
    one, the entry set holds the states reached exactly on e, before the
    unobservable closure.  Detection happens on e; anything in the closure
    beyond the entry set still needs post-detection events to be reached,
    and those are subject to the defense.
    """
    aut = labeled.automaton
    return [
        frozenset(t for member in src if (t := aut.successor(member, event)) is not None)
        for src, event, _dst in first_entered_certain(diagnoser)
    ]


def check_gf_safe_diagnoser(model: AttackedModel) -> Verdict:
    """Diagnoser-based safe-controllability test.

    Unsafe iff (1) some uncertain estimate contains an unsafe state with
    an attacked label, (2) detection first becomes certain exactly when an
    unsafe state is reached, or (3) an unsafe state is reachable from a
    first-detection point through uncontrollable events alone.  Conditions
    2 and 3 are evaluated from the detection-instant entry states: states
    that only appear in an estimate through post-detection controllable
    moves are already covered by the defense.
    """
    analysis = model.analysis
    labeled = analysis.labeled
    unobservable = analysis.unobservable
    diagnoser = build_diagnoser(labeled, unobservable)
    unsafe = model.unsafe_states

    # Condition 1: unsafe state inside an uncertain estimate, label attacked.
    condition1 = any(
        diagnoser.classification[estimate] == UNCERTAIN
        and any(s[1] == ATTACKED and s[0] in unsafe for s in estimate)
        for estimate in diagnoser.automaton.states
    )
    if condition1:
        classification = diagnoser.classification

        def confused(node):
            lstate, estimate = node
            return (
                lstate[1] == ATTACKED
                and lstate[0] in unsafe
                and classification[estimate] == UNCERTAIN
            )

        # Every member of a reachable estimate is reachable paired with
        # it, so the search finds a witness.
        start, moves = _estimate_moves(labeled, diagnoser, unobservable)
        parents, found = explore([start], moves, confused)
        return Verdict(
            safe=False,
            method=DIAGNOSER,
            violated_condition=UNCERTAIN_UNSAFE,
            counterexample=path_to(parents, found) or None,
            witness_state=state_name(found[1]),
        )

    entries = _entry_sets(labeled, diagnoser)

    # Condition 2: an unsafe state is reached exactly at first detection.
    condition2 = any(s[0] in unsafe for entry in entries for s in entry)
    if condition2:
        trace, estimate = _detection_edge_witness(
            labeled, diagnoser, unobservable, lambda lstate: lstate[0] in unsafe
        )
        return Verdict(
            safe=False,
            method=DIAGNOSER,
            violated_condition=FIRST_CERTAIN_UNSAFE,
            counterexample=trace,
            witness_state=estimate,
        )

    # Condition 3: uncontrollable continuation from a detection point.
    uncontrollable = analysis.uncontrollable
    x_uc = reach(model.model, {s[0] for entry in entries for s in entry}, uncontrollable)
    breached = bool(x_uc & unsafe)
    if breached:
        trace, estimate = _detection_edge_witness(
            labeled,
            diagnoser,
            unobservable,
            lambda lstate: bool(reach(model.model, (lstate[0],), uncontrollable) & unsafe),
        )
        end = model.model.run(trace)
        goal = sorted(reach(model.model, (end,), uncontrollable) & unsafe, key=state_name)[0]
        tail, _ = _shortest_to(model.model, end, {goal}, uncontrollable)
        return Verdict(
            safe=False,
            method=DIAGNOSER,
            violated_condition=UNCONTROLLABLE_UNSAFE,
            counterexample=trace + tail,
            x_uc=x_uc,
            witness_state=estimate,
        )
    return Verdict(safe=True, method=DIAGNOSER, x_uc=x_uc)


def _detection_edge_witness(labeled, diagnoser, unobservable, arrival_ok):
    """Shortest trace whose last event first makes the estimate certain,
    arriving at a labeled state accepted by `arrival_ok`, and the name of
    the certain estimate it enters.

    The first dequeued non-certain node with such an edge ends the
    search; its first such edge, in `out_edges` order, ends the trace.
    The caller has seen such an edge among the diagnoser's detection
    edges, and every member of an estimate is reachable paired with it,
    so the search always finds one.
    """
    classification = diagnoser.classification
    start, moves = _estimate_moves(labeled, diagnoser, unobservable)

    def detection_edge(node):
        if classification[node[1]] == CERTAIN:
            return None
        for event, (lnext, enext) in moves(node):
            if classification[enext] == CERTAIN and arrival_ok(lnext):
                return event, enext
        return None

    parents, found = explore([start], moves, lambda node: detection_edge(node) is not None)
    event, estimate = detection_edge(found)
    return path_to(parents, found) + (event,), state_name(estimate)


def check_ae_safe_verifier(
    model: AttackedModel, artifacts: VerifierArtifacts | None = None
) -> Verdict:
    """Verifier-based safe-controllability test.

    Unsafe iff (1) some verifier state pairs attack-free behavior with an
    unsafe attacked state (the attack is still undetectable there), or
    (2) the post-detection tracker reaches an unsafe attacked state at
    the sink, meaning uncontrollable events finish the job after
    detection.  Applies to all three attack modes.
    """
    if artifacts is None:
        artifacts = build_verifier(model)
    unsafe = model.unsafe_states

    if artifacts.verifier is not None:
        hits = frozenset(
            s
            for s in artifacts.verifier.states
            if s[1][1] == ATTACKED and s[1][0] in unsafe
        )
        if hits:
            trace, hit = _shortest_to(artifacts.verifier, artifacts.verifier.initial, hits)
            return Verdict(
                safe=False,
                method=VERIFIER,
                violated_condition=VERIFIER_PAIR_UNSAFE,
                counterexample=strip_renamed(trace) or None,
                witness_state=state_name(hit),
            )

    if artifacts.tracker is not None:
        hits = frozenset(
            s
            for s in artifacts.tracker.states
            if s[0] == SINK and s[1][1] == ATTACKED and s[1][0] in unsafe
        )
        if hits:
            trace, hit = _shortest_to(artifacts.tracker, artifacts.tracker.initial, hits)
            return Verdict(
                safe=False,
                method=VERIFIER,
                violated_condition=VERIFIER_POST_DETECTION_UNSAFE,
                counterexample=strip_renamed(trace) or None,
                witness_state=state_name(hit),
            )
    return Verdict(safe=True, method=VERIFIER)


def _shortest_to(automaton, source, goals, allowed=None) -> tuple[Trace, object]:
    """Shortest path from `source` to a state in `goals`, and the state
    reached, using only `allowed` events (all when None); ((), None) when
    no goal is reachable."""

    def moves(state):
        for event, target in automaton.out_edges(state):
            if allowed is None or event in allowed:
                yield event, target

    parents, found = explore([source], moves, goals.__contains__)
    if found is None:
        return (), None
    return path_to(parents, found), found


def oracle_defense_simulation(model: AttackedModel) -> Verdict:
    """Ground-truth check: exhaustively run the closed loop under the defense.

    Safe iff no run reaches an unsafe state once controllable events are
    pruned from the moment detection is certain.  Assumes the attack-free
    closed loop avoids the unsafe states (the supervisor is taken to be
    correct in the absence of attacks).
    """
    report = run_exhaustive(model)
    if not report.defense_breached:
        return Verdict(safe=True, method=ORACLE)
    trace = min(report.unsafe_runs, key=len)
    condition = _classify_breach(report.detector, trace)
    return Verdict(
        safe=False,
        method=ORACLE,
        violated_condition=condition,
        counterexample=trace,
    )


def _classify_breach(detector: Detector, trace: Trace) -> str:
    """Name the defense failure a breached run exhibits.

    `detector` is the one the exploration used, so the replay finds
    every step it needs already computed.
    """
    estimate = detector.initial
    previous = estimate
    for event in trace:
        if event in detector.observable:
            previous = estimate
            estimate = detector.step(estimate, event)
    if detector.classify(estimate) in (UNCERTAIN, NORMAL):
        return UNCERTAIN_UNSAFE
    if detector.classify(previous) != CERTAIN:
        return FIRST_CERTAIN_UNSAFE
    return UNCONTROLLABLE_UNSAFE


def check_model(model: AttackedModel, method: str = DIAGNOSER) -> Verdict:
    """Dispatch a safe-controllability check by method name."""
    if method == DIAGNOSER:
        return check_gf_safe_diagnoser(model)
    if method == VERIFIER:
        return check_ae_safe_verifier(model)
    if method == ORACLE:
        return oracle_defense_simulation(model)
    raise ValueError(f"unknown method {method!r}")
