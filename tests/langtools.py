"""Brute-force language oracles used to cross-check the library.

Everything here is deliberately naive and independent of the library's
algorithms: languages are enumerated string by string, the attack
model and the verifier are composed from their parts with the generic
`parallel_compose` rather than searched on the fly, and the supremal
controllable part is pruned round by round.  The trace helpers the
tests share (projection, dilation and compression of artifacts, the
events a run may take next, an automaton's canonical document) live here
too: the library needs none.  So do the references for the oracle, which
stops at the first breach: the full report of every defended run, and
the replay that names a breached run's condition.
"""

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from desguard.attacks import (
    _RULES,
    AE_SUFFIX,
    MODE_SI,
    RENAME_SUFFIX,
    SI_SUFFIX,
    AttackedModel,
    UnsupportedModeError,
    VulnerabilityError,
    VulnerabilitySpec,
    _check_inputs,
    artifact_suffix,
)
from desguard.automata import (
    Alphabet,
    Automaton,
    EventInfo,
    Trace,
    accessible,
    coreach,
    explore,
    Value,
    parallel_compose,
    path_to,
    state_name,
)
from desguard.diagnosis import ATTACKED, CERTAIN, CLEAN, SINK, Analysis, Diagnoser, classify
from desguard.modelio import FIRST_CERTAIN_UNSAFE, UNCERTAIN_UNSAFE, UNCONTROLLABLE_UNSAFE
from desguard.runtime import AttackerPolicy, ExecutionState, _choices, defended_moves


def project(trace: Iterable[str], observable: Iterable[str]) -> Trace:
    """Natural projection: erase events outside `observable`, keep order."""
    observable = frozenset(observable)
    return tuple(e for e in trace if e in observable)


def base_event(event: str) -> str:
    """Strip one artifact suffix, if present."""
    suffix = artifact_suffix(event)
    return event[: -len(suffix)] if suffix else event


def dilate(
    trace: Iterable[str], vulnerable: Iterable[str], suffix: str = AE_SUFFIX
) -> frozenset[Trace]:
    """All variants of `trace` where vulnerable occurrences may be attacked.

    Each occurrence of a vulnerable event branches into the genuine event
    and its suffixed artifact, so the result has 2^k members for k
    vulnerable occurrences.
    """
    vulnerable = frozenset(vulnerable)
    variants: list[Trace] = [()]
    for event in trace:
        if event in vulnerable:
            choices = (event, event + suffix)
        else:
            choices = (event,)
        variants = [prefix + (c,) for prefix in variants for c in choices]
    return frozenset(variants)


def compress(trace: Iterable[str]) -> Trace:
    """Map dilation artifacts back to their genuine events.

    Only defined for dilation artifacts (``#a``/``#e``); insertion-onset
    and renamed events have no genuine counterpart in the source behavior
    and are rejected.
    """
    out = []
    for event in trace:
        suffix = artifact_suffix(event)
        if suffix in (SI_SUFFIX, RENAME_SUFFIX):
            raise ValueError(f"compression undefined for {event!r}")
        out.append(event[: -len(suffix)] if suffix else event)
    return tuple(out)


def enabled_choices(
    state: ExecutionState, model: AttackedModel, policy: AttackerPolicy
) -> frozenset[str]:
    """Events that may occur next, after safe-mode and policy filtering."""
    return _choices(state, model, policy)[0]


class RunReport(Value):
    """Every defended run of a closed loop, as `exhaustive_report` finds them."""

    explored: int
    unsafe_runs: tuple[Trace, ...]
    stuck_runs: tuple[tuple[Trace, object], ...]
    detection_latencies: tuple[int, ...]
    attack_transitions: int

    @property
    def defense_breached(self) -> bool:
        return bool(self.unsafe_runs)


def exhaustive_report(model: AttackedModel) -> RunReport:
    """Explore every run of the closed loop under the online defense.

    One breadth-first search of `defended_moves` over every labeled
    state, unpruned and never stopped.  Reports the runs that reach an
    unsafe state despite the defense, the runs that get stuck, the
    detection latency (events between the first attack artifact and
    certainty) along the exploration tree, and the attack transitions
    taken.  The attacker is all-out.
    """
    analysis = model.analysis
    attack_events = model.attack_events
    start, moves = defended_moves(analysis, analysis.automaton.states)
    attack_transitions = 0

    def counted(node):
        nonlocal attack_transitions
        for event, target in moves(node):
            if event in attack_events:
                attack_transitions += 1
            yield event, target

    parents, _ = explore([start], counted, overflow="exhaustive exploration exceeded {limit} nodes")

    def certain(node):
        return classify(node[1]) == CERTAIN

    latencies = []
    for node, parent in parents.items():
        if not certain(node) or (parent is not None and certain(parent[0])):
            continue
        trace = path_to(parents, node)
        first_attack = next((i for i, e in enumerate(trace) if e in attack_events), None)
        if first_attack is not None:
            latencies.append(len(trace) - 1 - first_attack)

    decode = analysis.decode
    return RunReport(
        explored=len(parents),
        unsafe_runs=tuple(path_to(parents, n) for n in parents if n[0] in analysis.unsafe),
        stuck_runs=tuple(
            (path_to(parents, n), decode(n[0])[0]) for n in parents if next(moves(n), None) is None
        ),
        detection_latencies=tuple(latencies),
        attack_transitions=attack_transitions,
    )


def classify_breach(analysis: Analysis, trace: Trace) -> str:
    """Name the defense failure a breached run exhibits, by replaying it.

    The run is replayed through the defended product in the co-reach; a
    trace that is no defended run raises KeyError.  Certainty at the end
    and before the last event tells conditions 1, 2 and 3 apart, as the
    diagnoser test does: condition 2 is an unsafe state entered on the
    edge that first makes the estimate certain.
    """
    start, moves = defended_moves(analysis, analysis.unsafe_coreach)
    node = previous = start
    for event in trace:
        previous, node = node, dict(moves(node))[event]
    if classify(node[1]) != CERTAIN:
        return UNCERTAIN_UNSAFE
    if classify(previous[1]) != CERTAIN:
        return FIRST_CERTAIN_UNSAFE
    return UNCONTROLLABLE_UNSAFE


def canonical_doc(automaton: Automaton) -> dict:
    """Order-stable plain representation, for equality and hashing."""
    return {
        "states": sorted(state_name(s) for s in automaton.states),
        "events": sorted(automaton.events),
        "initial": state_name(automaton.initial),
        "marked": sorted(state_name(s) for s in automaton.marked),
        "transitions": sorted(
            (state_name(s), e, state_name(d)) for (s, e), d in automaton.transitions.items()
        ),
    }


def relabeled(automaton: Automaton, rename) -> Automaton:
    """The automaton with every state `s` renamed `rename(s)`, rows in order."""
    out = {
        rename(src): {event: rename(dst) for event, dst in row.items()}
        for src, row in automaton._out.items()
    }
    return Automaton._unchecked(
        frozenset(out),
        automaton.events,
        out,
        rename(automaton.initial),
        frozenset(map(rename, automaton.marked)),
    )


def decoded(analysis: Analysis) -> Automaton:
    """The labeled model over (closed-loop state, CLEAN/ATTACKED) pairs."""
    return relabeled(analysis.automaton, analysis.decode)


def decoded_pair(analysis: Analysis, node: tuple) -> tuple:
    """A `tracker_moves` node with its closed-loop states named: the
    attack-free side without its (clean) label, the attacked side decoded."""
    normal, attacked = node
    if normal != SINK:
        normal = analysis.names[normal >> 1]
    return normal, analysis.decode(attacked)


def decoded_tracked(analysis: Analysis, node: tuple) -> tuple:
    """A `build_verifier` tracker state, decoded as `decoded_pair` does."""
    if node[0] == SINK:
        return decoded_pair(analysis, node)
    return decoded_pair(analysis, node[0]), analysis.decode(node[1])


def generates(automaton: Automaton, trace: Iterable[str]) -> bool:
    return automaton.run(trace) is not None


def states_of(diagnoser: Diagnoser, kind: str) -> frozenset:
    """The diagnoser states classified `kind`."""
    return frozenset(s for s, c in diagnoser.classification.items() if c == kind)


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


def diagnoser_initial(analysis, unobservable) -> frozenset:
    """Initial state estimate of an analysis's labeled model, closed from scratch."""
    automaton = analysis.automaton
    return naive_reach(automaton, automaton.initial, unobservable)


def diagnoser_step(analysis, unobservable, estimate: frozenset, event: str) -> frozenset:
    """Advance a state estimate by one observed event, closing from scratch.

    Raises KeyError when no member of the estimate can execute the event.
    The reference the shared estimate table is checked against: nothing
    is remembered between calls.
    """
    automaton = analysis.automaton
    targets = {
        target
        for member in estimate
        if (target := automaton.successor(member, event)) is not None
    }
    if not targets:
        raise KeyError(f"event {event!r} is infeasible at the current estimate")
    return frozenset().union(*(naive_reach(automaton, t, unobservable) for t in targets))


def naive_coreach(automaton: Automaton, targets, allowed=None) -> frozenset:
    """Fixpoint of one-step predecessor closure, as an independent coreach
    oracle, over the events in `allowed` (by default every event)."""
    current = frozenset(targets)
    while True:
        nxt = current | {
            src
            for (src, event), dst in automaton.transitions.items()
            if dst in current and (allowed is None or event in allowed)
        }
        if nxt == current:
            return current
        current = nxt


def naive_supremal_controllable(
    plant: Automaton, admissible: Automaton, uncontrollable
) -> Automaton | None:
    """The round-based fixpoint `supremal_controllable` is checked against.

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
        good = set(explore([product.initial], inside, overflow="trim exceeded {limit} states")[0])
    # Every state of `good` is reachable inside `good`: the result is accessible.
    out = {
        src: {event: dst for event, dst in row.items() if dst in good}
        for src, row in product._out.items()
        if src in good
    }
    good = frozenset(good)
    return Automaton._unchecked(good, product.events, out, product.initial, product.marked & good)


def language_equal(a: Automaton, b: Automaton, max_len: int) -> bool:
    return enumerate_traces(a, max_len) == enumerate_traces(b, max_len)


def reference_compose(a: Automaton, b: Automaton) -> Automaton:
    """Parallel composition as `parallel_compose`'s docstring states it.

    A plain breadth-first search over pairs from the initial pair, asking
    each component one event at a time: a shared event (declared by both)
    moves both components and needs both to have it, a private one moves
    its own component.  Each pair's row holds `a`'s moves in event order,
    then `b`'s private moves in event order; pairs are numbered, and rows
    kept, in discovery order; a pair is marked when both halves are.
    """
    shared = a.events & b.events
    initial = (a.initial, b.initial)
    out: dict = {}
    discovered, seen = [initial], {initial}
    for node in discovered:  # grows while it is walked: a FIFO queue
        sa, sb = node
        row = out[node] = {}
        for event in sorted(a.events):
            ta = a.successor(sa, event)
            if ta is None:
                continue
            if event not in shared:
                row[event] = (ta, sb)
            elif (tb := b.successor(sb, event)) is not None:
                row[event] = (ta, tb)
        for event in sorted(b.events - shared):
            if (tb := b.successor(sb, event)) is not None:
                row[event] = (sa, tb)
        for target in row.values():
            if target not in seen:
                seen.add(target)
                discovered.append(target)
    marked = frozenset((sa, sb) for sa, sb in out if sa in a.marked and sb in b.marked)
    return Automaton._unchecked(frozenset(out), a.events | b.events, out, initial, marked)


def flag_automaton(label_events) -> Automaton:
    """Two-state automaton that latches to Y once a label event occurs.

    Composed with a closed loop by the generic `parallel_compose`, it is
    the reference for the labeled model `label_compose` builds directly.
    """
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


@dataclass(frozen=True)
class ComposedVerifier:
    """Intermediate automata of the verifier pipeline, materialized.

    The reference `build_verifier` and `tracker_moves` are checked
    against: the same product, built by composition.

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
    attacked_part: Automaton | None
    verifier: Automaton | None
    completed: Automaton | None
    tracker: Automaton | None


def _normal_part(model: AttackedModel, aut: Automaton) -> Automaton | None:
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
    unobservable = model.alphabet.unobservable_events() - model.attack_events
    renamed = {e: e + RENAME_SUFFIX for e in unobservable}
    rename = lambda e: renamed.get(e, e)
    # Observable attack events stay in the declared event set: the
    # attack-free behavior can never execute them, so in the verifier they
    # synchronize (and block) instead of interleaving.  Unobservable attack
    # events are absent here and interleave as private attacked moves.
    observable_attacks = model.attack_events & model.alphabet.observable_events()
    return Automaton(
        plain.states,
        frozenset(rename(e) for e in plain.events) | observable_attacks,
        {(s, rename(e)): d for (s, e), d in plain.transitions.items()},
        plain.initial,
        plain.marked,
    )


def _attacked_part(aut: Automaton) -> Automaton | None:
    """Sub-automaton of states co-reachable to an attacked (Y) label."""
    keep = coreach(aut, [s for s in aut.states if s[1] == ATTACKED])
    if aut.initial not in keep:
        return None
    transitions = {
        (src, event): dst
        for (src, event), dst in aut.transitions.items()
        if src in keep and dst in keep
    }
    return accessible(Automaton(keep, aut.events, transitions, aut.initial, aut.marked & keep))


def composed_verifier(model: AttackedModel) -> ComposedVerifier:
    """Run the full verifier pipeline for a closed-loop attack model, from
    the labeled model composed with `flag_automaton`, whose states are
    (closed-loop state, CLEAN/ATTACKED) pairs."""
    labeled = parallel_compose(model.model, flag_automaton(model.attack_events))
    attacked = _attacked_part(labeled)
    normal = _normal_part(model, labeled)
    if attacked is None:
        return ComposedVerifier(normal, None, None, None, None)
    verifier = parallel_compose(normal, attacked)
    alphabet = model.alphabet
    completed = _complete(
        verifier, alphabet.observable_events(), alphabet.uncontrollable_events()
    )
    tracker = parallel_compose(completed, attacked)
    return ComposedVerifier(normal, attacked, verifier, completed, tracker)


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


def composed_model(
    mode: str,
    plant: Automaton,
    supervisor: Automaton,
    vuln: VulnerabilitySpec,
) -> AttackedModel:
    """The reference `build_model`: the same closed loop, by composition.

    The attacked plant gains the mode's artifact moves: a twin of each
    vulnerable edge (ae/se), or per plant state j and vulnerable e the
    insertion j -e#i-> ins(j,e) -e-> j, named for every plant state
    whether or not the loop reaches it (si).  The attacked supervisor
    self-loops artifacts where the mode's rule says so and uncontrollable
    plant events outside its active set.  `parallel_compose` of the two is
    the closed loop.
    """
    rule = _RULES.get(mode)
    if rule is None:
        raise UnsupportedModeError(f"unknown attack mode {mode!r}")
    alphabet = vuln.alphabet
    _check_inputs(plant, supervisor, alphabet)
    vulnerable = vuln.vulnerable_sensors if rule.on_sensors else vuln.vulnerable_actuators
    artifact = {e: e + rule.suffix for e in vulnerable}
    attack_events = frozenset(artifact.values())

    states = set(plant.states)
    transitions = dict(plant.transitions)
    if mode == MODE_SI:
        for state in sorted(plant.states, key=state_name):
            for event in sorted(vulnerable):
                fresh = f"ins({state_name(state)},{event})"
                if fresh in states:
                    raise VulnerabilityError(f"state name collision on {fresh!r}")
                states.add(fresh)
                transitions[(state, artifact[event])] = fresh
                transitions[(fresh, event)] = state
    else:
        for (src, event), dst in plant.transitions.items():
            if event in vulnerable:
                transitions[(src, artifact[event])] = dst
    plant_attacked = Automaton(
        frozenset(states), plant.events | attack_events, transitions, plant.initial, plant.marked
    )

    uncontrollable = alphabet.uncontrollable_events() & plant.events
    transitions = dict(supervisor.transitions)
    for state in supervisor.states:
        active = supervisor.active_events(state)
        for event in vulnerable:
            if rule.self_loop(event in active, alphabet[event]):
                transitions[(state, artifact[event])] = state
        for event in uncontrollable - active:
            transitions[(state, event)] = state
    supervisor_attacked = Automaton(
        supervisor.states,
        supervisor.events | plant.events | attack_events,
        transitions,
        supervisor.initial,
        supervisor.marked,
    )

    infos = {}
    for event in vulnerable:
        observable, controllable = rule.artifact_info(alphabet[event])
        infos[artifact[event]] = EventInfo(observable, controllable, kind=rule.kind, base=event)
    closed_loop = parallel_compose(supervisor_attacked, plant_attacked)
    alphabet = alphabet.with_vulnerable(vulnerable).extended(infos)
    return AttackedModel(
        model=closed_loop,
        # The model's events are the closed loop's.
        alphabet=Alphabet({e: i for e, i in alphabet.infos.items() if e in closed_loop.events}),
        attack_events=attack_events,
        unsafe_states=frozenset(
            s for s in closed_loop.states if s[1] in vuln.unsafe_plant_states
        ),
        mode=mode,
    )
