"""Acceptance suite: one test per shipped criterion, with time budgets.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import random
import time

import pytest
from cli_runner import CliRunner

from desguard.attacks import (
    MODE_AE,
    build_model,
    sub_attacker,
)
from desguard.automata import (
    deadlock_states,
    observer,
    parallel_compose,
    state_name,
)
from desguard.cli import main
from desguard.diagnosis import (
    CERTAIN,
    build_diagnoser,
    confusion_witness,
    label_compose,
)
from desguard.modelio import dumps_doc, model_to_doc, parse_attacked
from desguard.safety import (
    UNCONTROLLABLE_UNSAFE,
    check_ae_safe_verifier,
    check_gf_safe_diagnoser,
    oracle_defense_simulation,
)
from desguard.systems import (
    actuator_demo_system,
    erasure_demo_system,
    insertion_demo_system,
    traffic_admissible,
    traffic_alphabet,
    traffic_plant,
)

from generators import random_automaton, random_model, random_system
from langtools import (
    canonical_doc,
    compress,
    dilate,
    enumerate_traces,
    generates,
    has_preimage,
    project,
    projected_language,
    states_of,
)


def report(number: int, description: str, elapsed: float, budget: float):
    print(f"ACCEPTANCE {number}: PASS  {description}  ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def synthesized_traffic(tmp_path_factory):
    """Traffic supervisor produced through the CLI synthesis pipeline."""
    tmp = tmp_path_factory.mktemp("traffic")
    plant = traffic_plant()
    alphabet = traffic_alphabet()
    unsafe = frozenset((i, i) for i in range(1, 5))
    plant_path = tmp / "plant.json"
    spec_path = tmp / "spec.json"
    plant_path.write_text(dumps_doc(model_to_doc(plant, alphabet, unsafe)))
    spec_path.write_text(dumps_doc(model_to_doc(traffic_admissible(plant), alphabet)))
    supervisor_path = tmp / "supervisor.json"
    result = CliRunner().invoke(
        main,
        ["synthesize", str(plant_path), str(spec_path), "--out", str(supervisor_path)],
    )
    assert result.exit_code == 0, result.output
    return tmp, plant_path, supervisor_path


def _cli_build(tmp, plant_path, supervisor_path, mode, vulnerable):
    out = tmp / f"model_{mode}_{vulnerable.replace(',', '_')}.json"
    result = CliRunner().invoke(
        main,
        ["build", str(plant_path), str(supervisor_path), "--mode", mode,
         "--vulnerable", vulnerable, "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return parse_attacked(json.loads(out.read_text()))


def test_criterion_1_actuator_demo_pipeline():
    start = time.monotonic()
    system = actuator_demo_system()
    model = build_model(MODE_AE, system.plant, system.supervisor, system.vuln)
    verdict = check_gf_safe_diagnoser(model)
    assert not verdict.safe
    assert verdict.violated_condition == UNCONTROLLABLE_UNSAFE
    assert {state_name(s) for s in verdict.x_uc} == {"(2,3)", "(2,4)"}
    assert verdict.counterexample == ("a", "b#a", "c")
    report(1, "actuator demo: unsafe, X_uc={(2,3),(2,4)}, witness a·b#a·c",
           time.monotonic() - start, 1.0)


def test_criterion_2_verifier_agreement_on_demo():
    start = time.monotonic()
    system = actuator_demo_system()
    model = build_model(MODE_AE, system.plant, system.supervisor, system.vuln)
    verifier_verdict = check_ae_safe_verifier(model)
    diagnoser_verdict = check_gf_safe_diagnoser(model)
    assert not verifier_verdict.safe
    assert verifier_verdict.witness_state == "(A,((2,4),Y))"
    assert verifier_verdict.safe == diagnoser_verdict.safe
    report(2, "verifier flags tracker state (A,((2,4),Y)) and matches diagnoser",
           time.monotonic() - start, 1.0)


def test_criterion_3_traffic_actuator_attack(synthesized_traffic):
    start = time.monotonic()
    tmp, plant_path, supervisor_path = synthesized_traffic
    model = _cli_build(tmp, plant_path, supervisor_path, "ae", "a2,b2")
    diagnoser_verdict = check_gf_safe_diagnoser(model)
    verifier_verdict = check_ae_safe_verifier(model)
    assert not diagnoser_verdict.safe and not verifier_verdict.safe
    observation = project(diagnoser_verdict.counterexample, model.alphabet.observable_events())
    assert observation[:3] == ("a1", "a3", "b1")
    report(3, "traffic actuator attack: unsafe by both methods, observation starts a1·a3·b1",
           time.monotonic() - start, 10.0)


def test_criterion_4_traffic_erasure_attack(synthesized_traffic):
    start = time.monotonic()
    tmp, plant_path, supervisor_path = synthesized_traffic
    model = _cli_build(tmp, plant_path, supervisor_path, "se", "a3,b3")
    assert check_gf_safe_diagnoser(model).safe
    assert check_ae_safe_verifier(model).safe
    deadlocked = {
        model.plant_component(s) for s in deadlock_states(model.model)
    }
    assert deadlocked == {"(0,3)", "(3,0)", "(5,3)", "(3,5)"}
    report(4, "traffic erasure attack: safe, deadlocks exactly {(0,3),(3,0),(5,3),(3,5)}",
           time.monotonic() - start, 10.0)


def test_criterion_5_traffic_insertion_attack(synthesized_traffic):
    start = time.monotonic()
    tmp, plant_path, supervisor_path = synthesized_traffic
    model = _cli_build(tmp, plant_path, supervisor_path, "si", "a4,b4")
    assert not check_gf_safe_diagnoser(model).safe
    pair = confusion_witness(model, require_event="b4#i", unsafe_only=True)
    assert pair is not None
    normal_trace, attacked_trace = pair
    assert "b4#i" in attacked_trace and "b4#i" not in normal_trace
    observable = model.alphabet.observable_events()
    assert project(normal_trace, observable) == project(attacked_trace, observable)
    assert generates(model.model, normal_trace)
    assert generates(model.model, attacked_trace)
    report(5, "traffic insertion attack: unsafe, equal-projection trace pair with b4#i",
           time.monotonic() - start, 10.0)


def test_criterion_6_small_sensor_fixtures():
    start = time.monotonic()
    erasure = erasure_demo_system()
    erasure_model = build_model("se", erasure.plant, erasure.supervisor, erasure.vuln)
    verdict = check_gf_safe_diagnoser(erasure_model)
    assert not verdict.safe
    analysis = label_compose(erasure_model)
    diagnoser = build_diagnoser(analysis)
    uncertain_plants = {
        frozenset(erasure_model.plant_component(analysis.decode(member)[0]) for member in estimate)
        for estimate, kind in diagnoser.classification.items()
        if kind == "uncertain"
    }
    assert frozenset({"3", "5"}) in uncertain_plants
    elapsed_erasure = time.monotonic() - start
    assert elapsed_erasure < 1.0

    start_insertion = time.monotonic()
    insertion = insertion_demo_system()
    insertion_model = build_model("si", insertion.plant, insertion.supervisor, insertion.vuln)
    assert not check_gf_safe_diagnoser(insertion_model).safe
    diagnoser = build_diagnoser(label_compose(insertion_model))
    assert not states_of(diagnoser, CERTAIN)
    report(6, "erasure fixture uncertain on plants {3,5}; insertion fixture undetectable",
           max(elapsed_erasure, time.monotonic() - start_insertion), 1.0)


def test_criterion_7_three_way_agreement_at_scale():
    start = time.monotonic()
    rng = random.Random(20260810)
    instances = 0
    for index in range(210):
        mode = ("ae", "se", "si")[index % 3]
        model = random_model(rng, mode)
        instances += 1
        diagnoser_safe = check_gf_safe_diagnoser(model).safe
        verifier_safe = check_ae_safe_verifier(model).safe
        oracle_safe = oracle_defense_simulation(model).safe
        assert diagnoser_safe == verifier_safe == oracle_safe, (
            f"disagreement on instance {index} ({mode}): "
            f"{canonical_doc(model.model)}"
        )
    assert instances >= 200
    report(7, f"three-way agreement on {instances} random instances, zero disagreements",
           time.monotonic() - start, 60.0)


def test_criterion_8_weaker_attackers_stay_safe():
    start = time.monotonic()
    rng = random.Random(88)
    safe_instances = 0
    attempts = 0
    while safe_instances < 12 and attempts < 400:
        attempts += 1
        model = random_model(rng, MODE_AE)
        if not check_gf_safe_diagnoser(model).safe:
            continue
        safe_instances += 1
        for seed in range(20):
            weaker = sub_attacker(model, seed=seed)
            assert check_gf_safe_diagnoser(weaker).safe, "monotonicity violated"
    assert safe_instances >= 12
    report(8, f"{safe_instances} safe instances x 20 weaker attackers: all safe",
           time.monotonic() - start, 60.0)


def test_criterion_9_core_laws():
    start = time.monotonic()

    # Observer language == projected language (bounded, both directions).
    rng = random.Random(9)
    for _ in range(12):
        automaton = random_automaton(rng, rng.randint(3, 7), ["a", "b", "u"])
        hidden = frozenset({"u"}) & automaton.events
        obs = observer(automaton, hidden)
        for observation in projected_language(automaton, automaton.events - hidden, 4):
            assert generates(obs, observation)
        for trace in enumerate_traces(obs, 4):
            assert has_preimage(automaton, hidden, trace)

    # Compression undoes dilation.
    for _ in range(400):
        trace = tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        vulnerable = set(rng.sample("abc", rng.randint(0, 2)))
        for variant in dilate(trace, vulnerable):
            assert compress(variant) == trace

    # Attack-free closed-loop behavior equals the nominal loop, on the
    # fixtures and on random instances.
    systems = [actuator_demo_system(), erasure_demo_system(), insertion_demo_system()]
    modes = ["ae", "se", "si"]
    for system, mode in zip(systems, modes):
        model = build_model(mode, system.plant, system.supervisor, system.vuln)
        nominal = parallel_compose(system.supervisor, system.plant)
        attack_free = {
            t
            for t in enumerate_traces(model.model, 6)
            if not any(e in model.attack_events for e in t)
        }
        assert attack_free == enumerate_traces(nominal, 6)
    for index in range(9):
        mode = modes[index % 3]
        system = random_system(rng, mode)
        model = build_model(mode, system.plant, system.supervisor, system.vuln)
        attack_free = {
            t
            for t in enumerate_traces(model.model, 4)
            if not any(e in model.attack_events for e in t)
        }
        nominal = parallel_compose(system.supervisor, system.plant)
        assert attack_free == enumerate_traces(nominal, 4)
    report(9, "observer/projection, compress∘dilate, attack-free-language laws hold",
           time.monotonic() - start, 60.0)
