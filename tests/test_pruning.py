"""The labeled model and the backward closure that prunes the searches.

`label_compose` builds the labeled model in one pass over the closed
loop; the reference is the generic product with the two-state flag
automaton.  `Analysis.unsafe_coreach` is checked against its definition
(a forward closure from every labeled state), and the pruned verifier
against a full search of the default tracker product; `test_estimates`
checks the pruned oracle against the full defended-run report.  Every
check runs on the fixtures and on 600 random models, built in memory and
reloaded through `modelio`, and on the traffic 3x6 models of the benchmark.
"""

import functools
import json
import random
import sys
from pathlib import Path

import pytest

import desguard
import desguard.synthesis  # noqa: F401  (the traffic generator reads lib.synthesis)
from desguard.attacks import MODE_AE, MODE_SE, MODE_SI, build_model
from desguard.automata import explore, parallel_compose, path_to, state_name
from desguard.diagnosis import (
    ATTACKED,
    SINK,
    label_compose,
    strip_renamed,
    tracker_moves,
)
from desguard.modelio import attacked_to_doc, dumps_doc, parse_attacked
from desguard.runtime import RunReport, run_exhaustive
from desguard.safety import (
    VERIFIER_PAIR_UNSAFE,
    VERIFIER_POST_DETECTION_UNSAFE,
    check_ae_safe_verifier,
    oracle_defense_simulation,
)

from generators import random_model
from langtools import decoded, decoded_pair, exhaustive_report, flag_automaton, naive_reach

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

MODES = [MODE_AE, MODE_SE, MODE_SI]


def reloaded(model):
    return parse_attacked(json.loads(dumps_doc(attacked_to_doc(model))))


@functools.cache
def random_models(mode):
    """random_model seeds 0-199 in `mode`, each in memory and reloaded."""
    models = [random_model(random.Random(seed), mode) for seed in range(200)]
    return models + [reloaded(model) for model in models]


def fixture_models(request):
    for name in FIXTURES:
        model = request.getfixturevalue(name)
        yield model
        yield reloaded(model)


def check_labeling(model):
    direct = label_compose(model)
    generic = parallel_compose(model.model, flag_automaton(model.attack_events))
    # Closed-loop state i is numbered in row order; decoding its labeled
    # states 2 * i (clean) and 2 * i + 1 (attacked) gives the reference.
    assert direct.names == tuple(model.model._out)
    assert all(type(state) is int for state in direct.automaton.states)
    ours = decoded(direct)
    assert ours.states == generic.states
    assert [(s, list(row.items())) for s, row in ours._out.items()] == [
        (s, list(row.items())) for s, row in generic._out.items()
    ]
    assert ours.events == generic.events
    assert ours.marked == generic.marked
    assert ours.initial == generic.initial


def check_unsafe_coreach(model):
    analysis = model.analysis
    aut = analysis.automaton
    unsafe = frozenset(s for s in aut.states if analysis.decode(s)[0] in model.unsafe_states)
    assert model.analysis.unsafe == unsafe
    expected = frozenset(s for s in aut.states if naive_reach(aut, s, aut.events) & unsafe)
    assert model.analysis.unsafe_coreach == expected


def reference_verifier(model):
    """(condition, counterexample, witness) of the verifier test, from a
    search of the whole default tracker product that never stops early:
    breadth-first search dequeues in discovery order, so the first goal
    discovered is the one an early stop would end at."""
    product = tracker_moves(model)
    if product is None:
        return None, None, None
    start, moves = product
    parents, _ = explore([start], moves, overflow="tracker walk exceeded {limit} states")
    unsafe = model.unsafe_states
    named = {node: decoded_pair(model.analysis, node) for node in parents}
    goals = [n for n in parents if named[n][1][1] == ATTACKED and named[n][1][0] in unsafe]
    pairs = [n for n in goals if n[0] != SINK]
    if pairs:
        found = witness = pairs[0]
        condition = VERIFIER_PAIR_UNSAFE
    elif goals:
        found = witness = goals[0]
        condition = VERIFIER_POST_DETECTION_UNSAFE
    else:
        return None, None, None
    trace = strip_renamed(path_to(parents, found)) or None
    return condition, trace, state_name(named[witness])


def check_verifier(model):
    verdict = check_ae_safe_verifier(model)
    expected = reference_verifier(model)
    assert (verdict.violated_condition, verdict.counterexample, verdict.witness_state) == expected
    assert verdict.safe == (expected[0] is None)


CHECKS = [check_labeling, check_unsafe_coreach, check_verifier]


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_fixtures(check, request):
    for model in fixture_models(request):
        check(model)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_random_models(check, mode):
    for model in random_models(mode):
        check(model)


@pytest.mark.parametrize("check", CHECKS, ids=lambda check: check.__name__)
def test_traffic_3x6_models(check):
    system = workloads.traffic_system(desguard, 3, 6, random.Random(0))
    for case in workloads.traffic_cases(system):
        check(build_model(case.mode, system.plant, system.supervisor, case.vuln()))


@pytest.mark.parametrize("mode", MODES)
def test_harmless_models_are_decided_without_search(mode):
    harmless = [
        model
        for model in random_models(mode)
        if model.analysis.automaton.initial not in model.analysis.unsafe_coreach
    ]
    assert harmless
    for model in harmless:
        assert run_exhaustive(model) == RunReport(0, (), None)
        assert not exhaustive_report(model).unsafe_runs
        assert tracker_moves(model, keep=model.analysis.unsafe_coreach) is None
        assert check_ae_safe_verifier(model).safe
        assert oracle_defense_simulation(model).safe
