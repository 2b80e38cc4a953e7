"""The shared estimate table and the early stops, against full references.

The references recompute every unobservable closure from scratch
(`langtools.diagnoser_step`) and explore every defended run
(`run_exhaustive`'s full report).  The table must give the same
observer, in the same discovery order; the diagnoser test, which stops
its observer at the first violation of condition 1, must decide as the
complete reference diagnoser does; and the oracle, which stops at the
first unsafe node, must report the shortest breached run of the full
report.
"""

import random
from collections import deque

import pytest

from desguard.attacks import MODE_AE, MODE_SE, MODE_SI, VulnerabilitySpec, build_model
from desguard.automata import Alphabet, Automaton
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
from langtools import diagnoser_initial, diagnoser_step, naive_reach

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
    labeled = model.analysis.labeled
    hidden = model.alphabet.unobservable_events()
    initial = diagnoser_initial(labeled, hidden)
    seen = {initial}
    queue = deque([initial])
    transitions = []
    while queue:
        estimate = queue.popleft()
        events = {e for m in estimate for e in labeled.automaton.active_events(m)}
        for event in sorted(events - hidden):
            target = diagnoser_step(labeled, hidden, estimate, event)
            transitions.append(((estimate, event), target))
            if target not in seen:
                seen.add(target)
                queue.append(target)
    return initial, seen, transitions


def reference_conditions(model, states, transitions):
    """The diagnoser conditions that hold on the complete reference
    diagnoser, in order of precedence, and x_uc."""
    unsafe = model.unsafe_states
    held = []
    if any(
        classify(e) == UNCERTAIN and any(s[1] == ATTACKED and s[0] in unsafe for s in e)
        for e in states
    ):
        held.append(UNCERTAIN_UNSAFE)
    aut = model.analysis.labeled.automaton
    entries = {
        target
        for (src, event), dst in transitions
        if classify(dst) == CERTAIN and classify(src) != CERTAIN
        for member in src
        if (target := aut.successor(member, event)) is not None
    }
    if any(s[0] in unsafe for s in entries):
        held.append(FIRST_CERTAIN_UNSAFE)
    uncontrollable = model.alphabet.uncontrollable_events()
    x_uc = frozenset().union(*(naive_reach(model.model, s[0], uncontrollable) for s in entries))
    if x_uc & unsafe:
        held.append(UNCONTROLLABLE_UNSAFE)
    return held, x_uc


def reference_breach(model, trace):
    """Condition of a breached run, replayed with from-scratch steps."""
    labeled = model.analysis.labeled
    hidden = model.alphabet.unobservable_events()
    estimate = previous = diagnoser_initial(labeled, hidden)
    for event in trace:
        if event not in hidden:
            previous, estimate = estimate, diagnoser_step(labeled, hidden, estimate, event)
    if classify(estimate) != CERTAIN:
        return UNCERTAIN_UNSAFE
    if classify(previous) != CERTAIN:
        return FIRST_CERTAIN_UNSAFE
    return UNCONTROLLABLE_UNSAFE


def _check_diagnoser(model):
    initial, states, transitions = reference_diagnoser(model)
    held, x_uc = reference_conditions(model, states, transitions)
    verdict = check_gf_safe_diagnoser(model)
    assert verdict.violated_condition == (held[0] if held else None)
    # x_uc is reported once conditions 1 and 2 are ruled out.
    reported = held[:1] in ([], [UNCONTROLLABLE_UNSAFE])
    assert verdict.x_uc == (x_uc if reported else None)
    # The routes have filled the shared table in their own order by now.
    check_ae_safe_verifier(model)
    oracle_defense_simulation(model)
    analysis = model.analysis
    built = build_diagnoser(analysis.labeled, analysis.unobservable, analysis.estimates)
    assert built.automaton.initial == initial
    assert built.automaton.states == states
    assert list(built.automaton.transitions.items()) == transitions


def _check_oracle(model):
    verdict = oracle_defense_simulation(model)
    full = run_exhaustive(model)
    assert verdict.safe == (not full.unsafe_runs)
    stopped = run_exhaustive(model, stop_at_breach=True)
    assert stopped.explored <= full.explored
    if verdict.safe:
        assert stopped.unsafe_runs == ()
        return
    shortest = min(full.unsafe_runs, key=len)
    assert stopped.unsafe_runs == (shortest,)
    assert verdict.counterexample == shortest
    assert verdict.violated_condition == reference_breach(model, shortest)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixture_diagnoser_matches_reference(fixture, request):
    _check_diagnoser(request.getfixturevalue(fixture))


@pytest.mark.parametrize("mode", [MODE_AE, MODE_SE, MODE_SI])
def test_random_diagnoser_matches_reference(mode):
    for seed in SEEDS:
        _check_diagnoser(random_model(random.Random(seed), mode))


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
    _, states, transitions = reference_diagnoser(model)
    held, _ = reference_conditions(model, states, transitions)
    assert held[:2] == [UNCERTAIN_UNSAFE, FIRST_CERTAIN_UNSAFE]
    verdict = check_gf_safe_diagnoser(model)
    assert verdict.violated_condition == UNCERTAIN_UNSAFE
    assert verdict.counterexample == ("c", "d", "b#a")
