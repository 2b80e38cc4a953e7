"""The labeled model and the backward closure that prunes the searches.

`label_compose` builds the labeled model in one pass over the closed
loop; the reference is the generic product with the two-state flag
automaton.  `Analysis.unsafe_coreach` is checked against its definition
(a forward closure from every labeled state), and the pruned verifier
against a full search of the default tracker product; `test_estimates`
checks the pruned oracle against the full defended-run report.  Every
check runs on the fixtures and on 600 random models, built in memory and
reloaded through `modelio`.
"""

import functools
import json
import random

import pytest

from desguard.attacks import MODE_AE, MODE_SE, MODE_SI
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
from langtools import flag_automaton, naive_reach

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
    assert direct.label_events == model.attack_events
    assert direct.automaton.states == generic.states
    assert direct.automaton.transitions == generic.transitions
    assert direct.automaton.events == generic.events
    assert direct.automaton.marked == generic.marked
    assert direct.automaton.initial == generic.initial


def check_unsafe_coreach(model):
    aut = model.analysis.labeled.automaton
    unsafe = model.unsafe_states
    expected = frozenset(
        s for s in aut.states if any(t[0] in unsafe for t in naive_reach(aut, s, aut.events))
    )
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
    parents, _ = explore([start], moves)
    unsafe = model.unsafe_states
    goals = [n for n in parents if n[1][1] == ATTACKED and n[1][0] in unsafe]
    pairs = [n for n in goals if n[0] != SINK]
    if pairs:
        found = witness = pairs[0]
        condition = VERIFIER_PAIR_UNSAFE
    elif goals:
        found = witness = goals[0]
        condition = VERIFIER_POST_DETECTION_UNSAFE
    else:
        return None, None, None
    return condition, strip_renamed(path_to(parents, found)) or None, state_name(witness)


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


@pytest.mark.parametrize("mode", MODES)
def test_harmless_models_are_decided_without_search(mode):
    harmless = [
        model
        for model in random_models(mode)
        if model.analysis.labeled.automaton.initial not in model.analysis.unsafe_coreach
    ]
    assert harmless
    for model in harmless:
        assert run_exhaustive(model, stop_at_breach=True) == RunReport(0, (), (), (), 0)
        assert not run_exhaustive(model).unsafe_runs
        assert tracker_moves(model, keep=model.analysis.unsafe_coreach) is None
        assert check_ae_safe_verifier(model).safe
        assert oracle_defense_simulation(model).safe
