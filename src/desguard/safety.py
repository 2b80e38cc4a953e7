"""Safe-controllability decision procedures.

A closed-loop attack model is safe controllable when the online defense
(detect with certainty, then disable every controllable event) keeps the
plant out of the unsafe states no matter what the attacker does.  Three
independent routes decide the property:

* the diagnoser test stops its observer at the first estimate that
  violates the first condition, else decides the other two from the states
  entered on its detection edges; its witnesses come from the one search
  of the defended product (`runtime.defended_search`),
* the verifier test inspects observation-equivalent string pairs and the
  post-detection tracker, in one on-the-fly search of the tracker product
  (`diagnosis.tracker_moves`) that stops at the first violation,
* the exhaustive simulation literally runs the defense over the closed
  loop (`runtime.run_exhaustive`): the same search, up to the first move
  into an unsafe state, whose two estimates name the violated condition.

All three must agree; the simulation is the ground truth the other two
are checked against.  They pass one guard, `_must_search`.  A model with
no unsafe state is safe under any defense, and all three say so without
building its analysis.  Otherwise all three read the model's one
estimate table and certainty memo, and assume a supervisor that is safe
without attacks: on a model whose attack-free closed loop already
reaches an unsafe state, each raises `NominalUnsafeError` instead of
answering.

A labeled state from which no unsafe state is reachable cannot matter
to any condition.  The two searches skip such states, computed by one
backward closure per model (`Analysis.unsafe_coreach`), and the
diagnoser's observer does not expand an estimate that holds none but
such states.  Every labeled state is reachable, so an unsafe state is
reachable exactly when the initial state is inside the closure; when it
is not, the guard answers safe for all three without searching.
Whatever reaches a kept state is kept, so a breadth-first search visits
the kept nodes in the order and along the paths of the unpruned search,
and finds the same witnesses; each of the diagnoser's conditions needs
an estimate member inside the closure, so the pruned observer meets
every estimate they read.  Nor does the observer expand a certain
estimate: the attack label is absorbing, so every estimate a certain one
reaches is certain too, and the conditions read only uncertain estimates
and the first edges into certain ones.  The diagnoser's `x_uc` is
reported among the closed-loop states that can still reach an unsafe
state.
"""

from __future__ import annotations

from .attacks import AttackedModel
from .automata import Trace, Value, collector_paused, coreach, explore, path_to, reach, state_name
from .diagnosis import (
    SINK,
    UNCERTAIN,
    build_diagnoser,
    classify,
    first_entered_certain,
    strip_renamed,
    tracker_moves,
)
from .modelio import (
    DIAGNOSER,
    FIRST_CERTAIN_UNSAFE,
    ORACLE,
    UNCERTAIN_UNSAFE,
    UNCONTROLLABLE_UNSAFE,
    VERIFIER,
    VERIFIER_PAIR_UNSAFE,
    VERIFIER_POST_DETECTION_UNSAFE,
)
from .runtime import defended_search, run_exhaustive


class NominalUnsafeError(ValueError):
    """The attack-free closed loop already reaches an unsafe state.

    Every route assumes a supervisor that is safe without attacks; on
    such a model none of them can judge the defense, so each refuses.
    """


def _must_search(model: AttackedModel) -> bool:
    """Whether some unsafe state is reachable; the one guard of all three routes.

    No defense can fail where nothing unsafe is reachable: on a model
    without an unsafe state every route answers safe, and none builds
    `model.analysis`.  Otherwise each assumes a supervisor that is safe
    without attacks, and raises `NominalUnsafeError` on a model whose
    attack-free loop already reaches an unsafe state.  Every labeled state
    is reachable, so an unsafe one is reachable exactly when the initial
    labeled state lies in `Analysis.unsafe_coreach`; when it does not,
    every route answers safe without searching.
    """
    if not model.unsafe_states:
        return False
    analysis = model.analysis
    if reached := analysis.nominal_unsafe:
        names = sorted({state_name(model.plant_component(s)) for s in reached})
        raise NominalUnsafeError(
            "the attack-free closed loop already reaches unsafe plant state(s) "
            f"{', '.join(names)}; safe controllability assumes a supervisor "
            "that is safe without attacks"
        )
    return analysis.automaton.initial in analysis.unsafe_coreach


class Verdict(Value):
    """Outcome of a safe-controllability test.

    When unsafe, `violated_condition` names the failing condition,
    `counterexample` is a closed-loop trace that reaches an unsafe state
    and contains an attack artifact, and `witness_state` renders the
    diagnoser/verifier state that exposed the violation.  `x_uc` carries,
    when the third diagnoser condition was evaluated, the closed-loop
    states that are reachable by uncontrollable events from a
    first-detection point and from which an unsafe state is still
    reachable; it is empty when no unsafe state is reachable at all.
    """

    safe: bool
    method: str
    violated_condition: str | None = None
    counterexample: Trace | None = None
    x_uc: frozenset | None = None
    witness_state: str | None = None


@collector_paused
def check_gf_safe_diagnoser(model: AttackedModel) -> Verdict:
    """Diagnoser-based safe-controllability test.

    Unsafe iff (1) some uncertain estimate contains an unsafe state with
    an attacked label, (2) detection first becomes certain exactly when an
    unsafe state is reached, or (3) an unsafe state is reachable from a
    first-detection point through uncontrollable events alone.

    The observer expands only the estimates that meet `unsafe_coreach` and are
    not certain (certainty latches, so no condition reads what a certain one
    leads to), and none is built when no unsafe state is reachable
    (`_must_search`): the model is then safe, with an empty `x_uc`.  Condition
    1 takes precedence, so the observer stops at the first estimate that
    violates it.  Otherwise conditions 2 and 3 read the diagnoser's entry
    states: the labeled states entered on its detection edges, before the
    unobservable closure, whose further states need post-detection events the
    defense governs.  An entry state that can reach an unsafe state is entered
    from an estimate member that can too, so the pruned observer has every such
    edge.  Condition 2 is an unsafe entry state; condition 3 an unsafe state in
    the entry states' uncontrollable closure, kept to the states that can reach
    an unsafe state; `x_uc` names their closed-loop states.  The witness search
    ends at a detection edge into an unsafe entry state (2) or one in the
    unsafe states' uncontrollable backward closure (3), which the shortest
    uncontrollable run to the first unsafe state by name then completes.  The
    observer's predicate and the searches classify each estimate through the
    model's certainty memo, `Analysis.certain`.
    """
    if not _must_search(model):
        return Verdict(safe=True, method=DIAGNOSER, x_uc=frozenset())
    analysis = model.analysis
    aut = analysis.automaton
    live = analysis.unsafe_coreach
    # The attack-free loop is safe, so every unsafe labeled state is attacked.
    unsafe = analysis.unsafe
    certain = analysis.certain

    # Condition 1: unsafe state inside an uncertain estimate, label attacked.
    def condition1(estimate):
        return not unsafe.isdisjoint(estimate) and classify(estimate) == UNCERTAIN

    def expand(estimate):
        return not live.isdisjoint(estimate) and not certain(estimate)

    diagnoser = build_diagnoser(analysis, condition1, expand)
    if any(map(condition1, diagnoser.automaton.states)):

        def confused(_node, target):
            return target[0] in unsafe and classify(target[1]) == UNCERTAIN

        # Every member of a reachable estimate is reachable paired with it,
        # so this search and the detection edge search find their move.
        parents, (node, event, target) = defended_search(
            analysis, confused, "diagnoser witness search exceeded {limit} states"
        )
        return Verdict(
            safe=False,
            method=DIAGNOSER,
            violated_condition=UNCERTAIN_UNSAFE,
            counterexample=path_to(parents, node) + (event,),
            witness_state=analysis.estimate_name(target[1]),
        )

    # The entry states: labeled, and attacked, as each is in a certain estimate.
    entries = frozenset(
        target
        for src, event, _dst in first_entered_certain(diagnoser)
        for member in src
        if (target := aut.successor(member, event)) is not None
    )
    uncontrollable = analysis.uncontrollable
    x_uc = None
    # Condition 2: an unsafe state is entered exactly at first detection.
    condition, arrivals = FIRST_CERTAIN_UNSAFE, entries & unsafe
    if not arrivals:
        # Condition 3: uncontrollable continuation from a detection point.
        # Both labeled copies of a closed-loop state have its closed-loop
        # successors, so they reach an unsafe state or neither does.
        continued = reach(aut, entries, uncontrollable) & live
        x_uc = frozenset(analysis.decode(s)[0] for s in continued)
        if continued.isdisjoint(unsafe):
            return Verdict(safe=True, method=DIAGNOSER, x_uc=x_uc)
        condition = UNCONTROLLABLE_UNSAFE
        arrivals = entries & coreach(aut, unsafe, uncontrollable)

    def detecting(node, target):
        return target[0] in arrivals and certain(target[1]) and not certain(node[1])

    parents, (node, event, target) = defended_search(
        analysis, detecting, "detection edge search exceeded {limit} states"
    )
    trace = path_to(parents, node) + (event,)
    if condition == UNCONTROLLABLE_UNSAFE:

        def uncontrollable_moves(state):
            return ((e, t) for e, t in aut.out_edges(state) if e in uncontrollable)

        parents, _ = explore(
            [target[0]],
            uncontrollable_moves,
            overflow="uncontrollable continuation search exceeded {limit} states",
        )
        first = min(unsafe.intersection(parents), key=lambda s: state_name(analysis.decode(s)[0]))
        trace += path_to(parents, first)
    return Verdict(
        safe=False,
        method=DIAGNOSER,
        violated_condition=condition,
        counterexample=trace,
        x_uc=x_uc,
        witness_state=analysis.estimate_name(target[1]),
    )


@collector_paused
def check_ae_safe_verifier(model: AttackedModel) -> Verdict:
    """Verifier-based safe-controllability test.

    Unsafe iff (1) some verifier state pairs attack-free behavior with an
    unsafe attacked state (the attack is still undetectable there), or
    (2) the post-detection tracker reaches an unsafe attacked state at
    the sink, meaning uncontrollable events finish the job after
    detection.  Applies to all three attack modes.

    One breadth-first search of the tracker product (`tracker_moves`)
    decides both: it stops at the first pair that violates (1), and
    otherwise the first sink node it discovered that violates (2) is the
    witness.  Sink nodes never lead back to pairs, so each trace is the
    shortest one the verifier or the tracker alone would give.  The
    attacked side stays among the labeled states that can reach an
    unsafe state; as the attack-free loop is safe, these all reach an
    attacked label, so only nodes that lead to no violation are dropped.
    """
    if not _must_search(model):
        return Verdict(safe=True, method=VERIFIER)
    analysis = model.analysis
    start, moves = tracker_moves(model, keep=analysis.unsafe_coreach)
    # The attack-free loop is safe, so every unsafe labeled state is attacked.
    unsafe = analysis.unsafe

    parents, found = explore(
        [start],
        moves,
        lambda node: node[0] != SINK and node[1] in unsafe,
        overflow="verifier search exceeded {limit} states",
    )
    condition = VERIFIER_PAIR_UNSAFE
    if found is None:
        condition = VERIFIER_POST_DETECTION_UNSAFE
        found = next((node for node in parents if node[0] == SINK and node[1] in unsafe), None)
        if found is None:
            return Verdict(safe=True, method=VERIFIER)
    normal, attacked = found
    normal = normal if normal == SINK else analysis.decode(normal)[0]
    return Verdict(
        safe=False,
        method=VERIFIER,
        violated_condition=condition,
        counterexample=strip_renamed(path_to(parents, found)) or None,
        witness_state=state_name((normal, analysis.decode(attacked))),
    )


@collector_paused
def oracle_defense_simulation(model: AttackedModel) -> Verdict:
    """Ground-truth check: run the closed loop under the defense.

    Safe iff no run reaches an unsafe state once controllable events are
    pruned from the moment detection is certain.  The verdict reads the
    shortest breached run and its condition off `run_exhaustive`'s report.
    """
    if not _must_search(model):
        return Verdict(safe=True, method=ORACLE)
    report = run_exhaustive(model)
    if not report.defense_breached:
        return Verdict(safe=True, method=ORACLE)
    (trace,) = report.unsafe_runs
    return Verdict(False, ORACLE, report.violated_condition, trace)


def check_model(model: AttackedModel, method: str = DIAGNOSER) -> Verdict:
    """Dispatch a safe-controllability check by method name."""
    if method == DIAGNOSER:
        return check_gf_safe_diagnoser(model)
    if method == VERIFIER:
        return check_ae_safe_verifier(model)
    if method == ORACLE:
        return oracle_defense_simulation(model)
    raise ValueError(f"unknown method {method!r}")
