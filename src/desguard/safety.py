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

from collections import deque
from dataclasses import dataclass

from .attacks import MODE_AE, AttackedModel, sub_attacker
from .automata import Trace, reach, state_name
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
    classify,
    strip_renamed,
)
from .runtime import AttackerPolicy, run_exhaustive

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


class _Product:
    """Reachable (labeled state, estimate) pairs of a model, with BFS parents.

    The estimate component replays the detector; no defense pruning is
    applied, so paths describe what can happen before and at detection.
    """

    def __init__(self, labeled: LabeledAutomaton, diagnoser: Diagnoser, unobservable):
        aut = labeled.automaton
        dag = diagnoser.automaton
        self.start = (aut.initial, dag.initial)
        self.parents: dict = {self.start: None}
        self.edges: list[tuple] = []  # (from_node, event, to_node) in BFS order
        queue = deque([self.start])
        while queue:
            node = queue.popleft()
            lstate, estimate = node
            for event, lnext in aut.out_edges(lstate):
                if event in unobservable:
                    enext = estimate
                else:
                    enext = dag.successor(estimate, event)
                nxt = (lnext, enext)
                self.edges.append((node, event, nxt))
                if nxt not in self.parents:
                    self.parents[nxt] = (node, event)
                    queue.append(nxt)

    def trace_to(self, node) -> Trace:
        trace = []
        cursor = node
        while self.parents[cursor] is not None:
            cursor, event = self.parents[cursor]
            trace.append(event)
        return tuple(reversed(trace))


def _entry_sets(labeled: LabeledAutomaton, diagnoser: Diagnoser):
    """Per-edge entry states of first-entered certain estimates.

    For an edge q -e-> q' from a normal/uncertain estimate into a certain
    one, the entry set holds the states reached exactly on e, before the
    unobservable closure.  Detection happens on e; anything in the closure
    beyond the entry set still needs post-detection events to be reached,
    and those are subject to the defense.
    """
    aut = labeled.automaton
    entries = []
    for (src, event), dst in diagnoser.automaton.transitions.items():
        if diagnoser.classification[dst] != CERTAIN:
            continue
        if diagnoser.classification[src] not in (NORMAL, UNCERTAIN):
            continue
        entry = frozenset(
            t for member in src if (t := aut.successor(member, event)) is not None
        )
        entries.append((src, event, dst, entry))
    return entries


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
        product = _Product(labeled, diagnoser, unobservable)
        witness = None
        for node in product.parents:
            lstate, estimate = node
            if (
                lstate[1] == ATTACKED
                and lstate[0] in unsafe
                and classify(estimate) == UNCERTAIN
            ):
                trace = product.trace_to(node)
                if witness is None or len(trace) < len(witness[0]):
                    witness = (trace, estimate)
        trace, estimate = witness if witness else ((), None)
        return Verdict(
            safe=False,
            method=DIAGNOSER,
            violated_condition=UNCERTAIN_UNSAFE,
            counterexample=trace or None,
            witness_state=state_name(estimate) if estimate is not None else None,
        )

    entries = _entry_sets(labeled, diagnoser)

    # Condition 2: an unsafe state is reached exactly at first detection.
    condition2 = any(
        any(s[0] in unsafe for s in entry) for _, _, _, entry in entries
    )
    if condition2:
        trace, estimate = _detection_edge_witness(
            model, labeled, diagnoser, unobservable, lambda lstate: lstate[0] in unsafe
        )
        return Verdict(
            safe=False,
            method=DIAGNOSER,
            violated_condition=FIRST_CERTAIN_UNSAFE,
            counterexample=trace or None,
            witness_state=estimate,
        )

    # Condition 3: uncontrollable continuation from a detection point.
    uncontrollable = analysis.uncontrollable
    x_uc: set = set()
    breached = False
    for _src, _event, _dst, entry in entries:
        for lstate in entry:
            reached = reach(model.model, lstate[0], uncontrollable)
            x_uc |= reached
            breached = breached or bool(reached & unsafe)
    x_uc = frozenset(x_uc)
    if breached:
        trace, estimate = _detection_edge_witness(
            model,
            labeled,
            diagnoser,
            unobservable,
            lambda lstate: bool(reach(model.model, lstate[0], uncontrollable) & unsafe),
        )
        tail: Trace = ()
        if trace is not None:
            end = model.model.run(trace)
            goal = sorted(
                reach(model.model, end, uncontrollable) & unsafe, key=state_name
            )[0]
            tail = _uncontrollable_tail(model, end, goal, uncontrollable)
        return Verdict(
            safe=False,
            method=DIAGNOSER,
            violated_condition=UNCONTROLLABLE_UNSAFE,
            counterexample=((trace or ()) + tail) or None,
            x_uc=x_uc,
            witness_state=estimate,
        )
    return Verdict(safe=True, method=DIAGNOSER, x_uc=x_uc)


def _detection_edge_witness(model, labeled, diagnoser, unobservable, arrival_ok):
    """Shortest trace whose last event first makes the estimate certain,
    arriving at a labeled state accepted by `arrival_ok`."""
    product = _Product(labeled, diagnoser, unobservable)
    best = None
    for from_node, event, to_node in product.edges:
        if classify(from_node[1]) == CERTAIN or classify(to_node[1]) != CERTAIN:
            continue
        if not arrival_ok(to_node[0]):
            continue
        trace = product.trace_to(from_node) + (event,)
        if best is None or len(trace) < len(best[0]):
            best = (trace, state_name(to_node[1]))
    return best if best else (None, None)


def _uncontrollable_tail(model, source, goal, uncontrollable) -> Trace:
    """Shortest uncontrollable event path from source to goal in the closed loop."""
    aut = model.model
    parents: dict = {source: None}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        if current == goal:
            tail = []
            while parents[current] is not None:
                current, event = parents[current]
                tail.append(event)
            return tuple(reversed(tail))
        for event, target in aut.out_edges(current):
            if event in uncontrollable and target not in parents:
                parents[target] = (current, event)
                queue.append(target)
    return ()


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
            trace, hit = _shortest_to(artifacts.verifier, hits)
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
            trace, hit = _shortest_to(artifacts.tracker, hits)
            return Verdict(
                safe=False,
                method=VERIFIER,
                violated_condition=VERIFIER_POST_DETECTION_UNSAFE,
                counterexample=strip_renamed(trace) or None,
                witness_state=state_name(hit),
            )
    return Verdict(safe=True, method=VERIFIER)


def _shortest_to(automaton, goals: frozenset) -> tuple[Trace, object]:
    parents: dict = {automaton.initial: None}
    queue = deque([automaton.initial])
    while queue:
        current = queue.popleft()
        if current in goals:
            goal = current
            trace = []
            while parents[current] is not None:
                current, event = parents[current]
                trace.append(event)
            return tuple(reversed(trace)), goal
        for event, target in automaton.out_edges(current):
            if target not in parents:
                parents[target] = (current, event)
                queue.append(target)
    return (), None


def oracle_defense_simulation(model: AttackedModel, max_nodes: int = 200_000) -> Verdict:
    """Ground-truth check: exhaustively run the closed loop under the defense.

    Safe iff no run reaches an unsafe state once controllable events are
    pruned from the moment detection is certain.  Assumes the attack-free
    closed loop avoids the unsafe states (the supervisor is taken to be
    correct in the absence of attacks).
    """
    report = run_exhaustive(model, AttackerPolicy.all_out(), max_nodes=max_nodes)
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


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of sampling weaker attackers against a safe all-out model."""

    skipped: bool
    reason: str | None
    trials: int
    violations: tuple[tuple, ...]

    @property
    def passed(self) -> bool:
        return not self.skipped and not self.violations


def check_sub_attacker_monotonicity(
    model: AttackedModel, trials: int = 20, seed: int = 0
) -> MonotonicityReport:
    """A safe all-out model must stay safe under every weaker attacker.

    Samples `trials` random subsets of the attack opportunities; any
    weaker attacker found unsafe is reported as a violation (which would
    indicate a modeling bug, not a property of the system).
    """
    if model.mode != MODE_AE:
        return MonotonicityReport(True, "requires an actuator-enablement model", 0, ())
    base = check_gf_safe_diagnoser(model)
    if not base.safe:
        return MonotonicityReport(True, "all-out model is not safe controllable", 0, ())
    violations = []
    for trial in range(trials):
        weaker = sub_attacker(model, seed=seed + trial)
        verdict = check_gf_safe_diagnoser(weaker)
        if not verdict.safe:
            violations.append((trial, verdict.violated_condition))
    return MonotonicityReport(False, None, trials, tuple(violations))


def check_model(model: AttackedModel, method: str = DIAGNOSER) -> Verdict:
    """Dispatch a safe-controllability check by method name."""
    if method == DIAGNOSER:
        return check_gf_safe_diagnoser(model)
    if method == VERIFIER:
        return check_ae_safe_verifier(model)
    if method == ORACLE:
        return oracle_defense_simulation(model)
    raise ValueError(f"unknown method {method!r}")
