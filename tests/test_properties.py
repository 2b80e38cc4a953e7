"""Randomized cross-checks tying the implementation layers together."""

import random

from desguard.attacks import sub_attacker
from desguard.automata import observer, parallel_compose
from desguard.safety import (
    check_ae_safe_verifier,
    check_gf_safe_diagnoser,
    oracle_defense_simulation,
)

from generators import random_automaton, random_model, random_system
from langtools import (
    canonical_doc,
    compress,
    dilate,
    enumerate_traces,
    generates,
    has_preimage,
    projected_language,
)

MODES = ("ae", "se", "si")


def test_three_way_agreement_on_random_instances():
    rng = random.Random(2024)
    for index in range(75):
        model = random_model(rng, MODES[index % 3])
        verdicts = {
            check_gf_safe_diagnoser(model).safe,
            check_ae_safe_verifier(model).safe,
            oracle_defense_simulation(model).safe,
        }
        assert len(verdicts) == 1, canonical_doc(model.model)


ROUTES = (check_gf_safe_diagnoser, check_ae_safe_verifier, oracle_defense_simulation)


def test_sub_attacker_monotonicity_on_random_safe_instances():
    # A weaker attacker keeps the attack-free language and only loses
    # attacked runs, in every mode: safe stays safe, by every route.
    rng = random.Random(77)
    for mode in MODES:
        found = 0
        while found < 8:
            model = random_model(rng, mode)
            if not check_gf_safe_diagnoser(model).safe:
                continue
            found += 1
            for seed in range(10):
                weaker = sub_attacker(model, seed=seed)
                assert all(route(weaker).safe for route in ROUTES), (mode, seed)


def test_attack_free_sublanguage_matches_nominal_loop():
    rng = random.Random(31)
    for index in range(12):
        mode = MODES[index % 3]
        system = random_system(rng, mode)
        from desguard.attacks import build_model

        model = build_model(mode, system.plant, system.supervisor, system.vuln)
        nominal = parallel_compose(system.supervisor, system.plant)
        attack_free = {
            t
            for t in enumerate_traces(model.model, 5)
            if not any(e in model.attack_events for e in t)
        }
        assert attack_free == enumerate_traces(nominal, 5)


def test_observer_language_on_random_instances():
    rng = random.Random(13)
    for _ in range(15):
        automaton = random_automaton(rng, rng.randint(3, 7), ["a", "b", "u", "v"])
        hidden = frozenset({"u", "v"}) & automaton.events
        obs = observer(automaton, hidden)
        for observation in projected_language(automaton, automaton.events - hidden, 4):
            assert generates(obs, observation)
        for trace in enumerate_traces(obs, 4):
            assert has_preimage(automaton, hidden, trace)


def test_compression_dilation_round_trip_random():
    rng = random.Random(5)
    events = ["a", "b", "c"]
    for _ in range(300):
        trace = tuple(rng.choice(events) for _ in range(rng.randint(0, 7)))
        vulnerable = set(rng.sample(events, rng.randint(0, 2)))
        for variant in dilate(trace, vulnerable):
            assert compress(variant) == trace


def test_counterexamples_replay_on_random_unsafe_instances():
    rng = random.Random(404)
    seen_unsafe = 0
    for index in range(60):
        model = random_model(rng, MODES[index % 3])
        verdict = check_gf_safe_diagnoser(model)
        if verdict.safe:
            continue
        seen_unsafe += 1
        trace = verdict.counterexample
        assert trace is not None
        end = model.model.run(trace)
        assert end in model.unsafe_states
        assert any(e in model.attack_events for e in trace)
    assert seen_unsafe >= 5
