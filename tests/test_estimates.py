"""The shared estimate table and the early stops, against full references.

The references recompute every unobservable closure from scratch
(`langtools.diagnoser_step`) and explore every defended run
(`langtools.exhaustive_report`).  The table must give the same
observer, in the same discovery order.  The diagnoser test, which
expands only estimates meeting the unsafe co-reach and stops its
observer at the first violation of condition 1, must decide as the
complete reference diagnoser does, with the witnesses of the same test
run on a complete observer, and report the reference `x_uc` cut to the
co-reach; its pruned observer must expand exactly the reference
estimates reached through estimates meeting the co-reach.  The oracle,
which stops at the first unsafe node, must report the shortest breached
run of the full report.
"""

import random
import sys
from collections import deque
from pathlib import Path

import pytest

import desguard
import desguard.synthesis  # noqa: F401  (the traffic generator reads lib.synthesis)
from desguard import safety
from desguard.attacks import MODE_AE, MODE_SE, MODE_SI, VulnerabilitySpec, build_model
from desguard.automata import Alphabet, Automaton, EstimateTable
from desguard.diagnosis import ATTACKED, CERTAIN, UNCERTAIN, build_diagnoser, classify
from desguard.runtime import run_exhaustive
from desguard.safety import (
    FIRST_CERTAIN_UNSAFE,
    UNCERTAIN_UNSAFE,
    UNCONTROLLABLE_UNSAFE,
    check_ae_safe_verifier,
    check_gf_safe_diagnoser,
    oracle_defense_simulation,
)

from generators import random_model
from langtools import (
    classify_breach,
    diagnoser_initial,
    diagnoser_step,
    exhaustive_report,
    naive_reach,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

FIXTURES = [
    "actuator_model",
    "blocking_model",
    "erasure_model",
    "insertion_model",
    "traffic_ae_model",
    "traffic_se_model",
    "traffic_si_model",
]

SEEDS = range(200)


def reference_diagnoser(model):
    """Initial estimate, estimates and transitions, in discovery order, of
    the labeled model's observer: a plain breadth-first search whose every
    step closes its estimate from scratch."""
    analysis = model.analysis
    hidden = model.alphabet.unobservable_events()
    initial = diagnoser_initial(analysis, hidden)
    seen = {initial: None}
    queue = deque(seen)
    transitions = []
    while queue:
        estimate = queue.popleft()
        events = {e for m in estimate for e in analysis.automaton.active_events(m)}
        for event in sorted(events - hidden):
            target = diagnoser_step(analysis, hidden, estimate, event)
            transitions.append(((estimate, event), target))
            if target not in seen:
                seen[target] = None
                queue.append(target)
    return initial, list(seen), transitions


def reference_pruned(model, estimates, transitions):
    """The reference estimates reached through estimates meeting the
    unsafe co-reach, and those of them that meet it in discovery order:
    what the pruned observer discovers and what it expands."""
    live = model.analysis.unsafe_coreach
    successors = {}
    for (src, _event), dst in transitions:
        successors.setdefault(src, []).append(dst)
    reached = {estimates[0]}
    stack = [estimates[0]]
    while stack:
        estimate = stack.pop()
        if not live.isdisjoint(estimate):
            for target in successors.get(estimate, ()):
                if target not in reached:
                    reached.add(target)
                    stack.append(target)
    return reached, [e for e in estimates if e in reached and not live.isdisjoint(e)]


def reference_conditions(model, states, transitions):
    """The diagnoser conditions that hold on the complete reference
    diagnoser, in order of precedence, and x_uc."""
    unsafe = model.unsafe_states
    analysis = model.analysis
    decode = analysis.decode
    held = []
    if any(
        classify(e) == UNCERTAIN
        and any(decode(s)[1] == ATTACKED and decode(s)[0] in unsafe for s in e)
        for e in states
    ):
        held.append(UNCERTAIN_UNSAFE)
    aut = analysis.automaton
    entries = {
        target
        for (src, event), dst in transitions
        if classify(dst) == CERTAIN and classify(src) != CERTAIN
        for member in src
        if (target := aut.successor(member, event)) is not None
    }
    if any(decode(s)[0] in unsafe for s in entries):
        held.append(FIRST_CERTAIN_UNSAFE)
    uncontrollable = model.alphabet.uncontrollable_events()
    x_uc = frozenset().union(
        *(naive_reach(model.model, decode(s)[0], uncontrollable) for s in entries)
    )
    if x_uc & unsafe:
        held.append(UNCONTROLLABLE_UNSAFE)
    return held, x_uc


def reference_breach(model, trace):
    """Condition of a breached run, replayed with from-scratch steps: as
    the diagnoser test defines them, by certainty at the end and before
    the run's last event."""
    analysis = model.analysis
    hidden = model.alphabet.unobservable_events()
    estimate = previous = diagnoser_initial(analysis, hidden)
    for event in trace:
        previous = estimate
        if event not in hidden:
            estimate = diagnoser_step(analysis, hidden, estimate, event)
    if classify(estimate) != CERTAIN:
        return UNCERTAIN_UNSAFE
    if classify(previous) != CERTAIN:
        return FIRST_CERTAIN_UNSAFE
    return UNCONTROLLABLE_UNSAFE


def complete_route(model, monkeypatch):
    """The diagnoser test with a complete observer wherever it builds
    one: its conditions and witnesses are the pruned test's."""

    def complete(analysis, stop, live):
        return build_diagnoser(analysis, stop)

    with monkeypatch.context() as patch:
        patch.setattr(safety, "build_diagnoser", complete)
        return check_gf_safe_diagnoser(model)


def _check_diagnoser(model, monkeypatch):
    initial, estimates, transitions = reference_diagnoser(model)
    held, x_uc = reference_conditions(model, estimates, transitions)
    verdict = check_gf_safe_diagnoser(model)
    assert verdict.violated_condition == (held[0] if held else None)
    # x_uc is reported once conditions 1 and 2 are ruled out, among the
    # closed-loop states that can reach an unsafe state.
    reported = held[:1] in ([], [UNCONTROLLABLE_UNSAFE])
    analysis = model.analysis
    alive = {analysis.decode(state)[0] for state in analysis.unsafe_coreach}
    assert verdict.x_uc == (x_uc & alive if reported else None)
    complete = complete_route(model, monkeypatch)
    assert complete.violated_condition == verdict.violated_condition
    assert complete.counterexample == verdict.counterexample
    assert complete.witness_state == verdict.witness_state

    # The pruned observer, on a table of its own that records each estimate
    # it expands.
    table = EstimateTable(analysis.automaton, analysis.unobservable)
    expanded, moves = [], table.moves
    table.moves = lambda estimate: expanded.append(estimate) or moves(estimate)
    pruned = build_diagnoser(analysis.replace(estimates=table), live=analysis.unsafe_coreach)
    reached, live_estimates = reference_pruned(model, estimates, transitions)
    assert pruned.automaton.states == reached
    assert expanded == live_estimates
    live_sources = set(live_estimates)
    assert list(pruned.automaton.transitions.items()) == [
        edge for edge in transitions if edge[0][0] in live_sources
    ]

    # The routes have filled the shared table in their own order by now.
    check_ae_safe_verifier(model)
    oracle_defense_simulation(model)
    built = build_diagnoser(analysis)
    assert built.automaton.initial == initial
    assert built.automaton.states == set(estimates)
    assert list(built.automaton.transitions.items()) == transitions


def _check_oracle(model):
    verdict = oracle_defense_simulation(model)
    full = exhaustive_report(model)
    assert verdict.safe == (not full.unsafe_runs)
    stopped = run_exhaustive(model)
    assert stopped.explored <= full.explored
    if verdict.safe:
        assert stopped.unsafe_runs == ()
        return
    shortest = min(full.unsafe_runs, key=len)
    assert stopped.unsafe_runs == (shortest,)
    assert verdict.counterexample == shortest
    assert verdict.violated_condition == reference_breach(model, shortest)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_diagnoser_matches_reference(fixture, request, monkeypatch):
    _check_diagnoser(request.getfixturevalue(fixture), monkeypatch)


@pytest.mark.parametrize("mode", [MODE_AE, MODE_SE, MODE_SI])
def test_random_diagnoser_matches_reference(mode, monkeypatch):
    for seed in SEEDS:
        _check_diagnoser(random_model(random.Random(seed), mode), monkeypatch)


def test_traffic_3x6_diagnoser_matches_reference(monkeypatch):
    system = workloads.traffic_system(desguard, 3, 6, random.Random(0))
    for case in workloads.traffic_cases(system):
        model = build_model(case.mode, system.plant, system.supervisor, case.vuln())
        _check_diagnoser(model, monkeypatch)


@pytest.mark.parametrize("mode", [MODE_AE, MODE_SE, MODE_SI])
def test_random_diagnoser_counterexamples_name_their_condition(mode):
    """The oracle's breach naming and the diagnoser test define conditions
    2 and 3 alike: each diagnoser counterexample, replayed through the
    defended product, is named the diagnoser's condition."""
    unsafe = 0
    for seed in SEEDS:
        model = random_model(random.Random(seed), mode)
        verdict = check_gf_safe_diagnoser(model)
        if not verdict.safe:
            unsafe += 1
            named = classify_breach(model.analysis, verdict.counterexample)
            assert named == verdict.violated_condition, seed
    assert unsafe


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_oracle_stops_at_shortest_breach(fixture, request):
    _check_oracle(request.getfixturevalue(fixture))


@pytest.mark.parametrize("mode", [MODE_AE, MODE_SE, MODE_SI])
def test_random_oracle_stops_at_shortest_breach(mode):
    for seed in SEEDS:
        _check_oracle(random_model(random.Random(seed), mode))


def both_conditions_model():
    """Condition 2 at observation depth 1, condition 1 at depth 2.

    Attacking a (observable) enters the unsafe 1 exactly when detection
    becomes certain.  After c and d, attacking b (unobservable) reaches the
    unsafe 2 while the estimate is still uncertain.
    """
    plant = Automaton.build(
        "0", [("0", "a", "1"), ("0", "c", "3"), ("3", "d", "5"), ("5", "b", "2")]
    )
    supervisor = Automaton.build(
        "s0", [("s0", "c", "s1"), ("s1", "d", "s2")], events=["a", "b", "c", "d"]
    )
    alphabet = Alphabet.from_sets(
        ["a", "b", "c", "d"], observable=["a", "c", "d"], controllable=["a", "b"]
    )
    vuln = VulnerabilitySpec(
        alphabet,
        vulnerable_actuators=frozenset({"a", "b"}),
        unsafe_plant_states=frozenset({"1", "2"}),
    )
    return build_model(MODE_AE, plant, supervisor, vuln)


def test_condition1_takes_precedence_over_condition2():
    model = both_conditions_model()
    _, estimates, transitions = reference_diagnoser(model)
    held, _ = reference_conditions(model, estimates, transitions)
    assert held[:2] == [UNCERTAIN_UNSAFE, FIRST_CERTAIN_UNSAFE]
    verdict = check_gf_safe_diagnoser(model)
    assert verdict.violated_condition == UNCERTAIN_UNSAFE
    assert verdict.counterexample == ("c", "d", "b#a")
