"""`build_model` against the reference `composed_model` of langtools.

The builder explores the closed loop in one search; the reference builds
the attacked plant and the attacked supervisor and composes them.  Both
must give the same model, down to the order of the transition table,
which the searches over the closed loop visit successors in.
"""

import random
import sys
from pathlib import Path

import pytest

import desguard
import desguard.synthesis  # noqa: F401  (the traffic generator reads lib.synthesis)
from desguard.attacks import MODE_AE, MODES, VulnerabilitySpec, build_model
from desguard.automata import Alphabet, Automaton
from desguard.modelio import attacked_to_doc, dumps_doc

from generators import random_system
from langtools import composed_model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

FIXTURES = [
    ("actuator_model", "actuator_demo"),
    ("erasure_model", "erasure_demo"),
    ("blocking_model", "blocking_demo"),
    ("insertion_model", "insertion_demo"),
    ("traffic_ae_model", "traffic_ae"),
    ("traffic_se_model", "traffic_se"),
    ("traffic_si_model", "traffic_si"),
]


def summary(model) -> dict:
    """Every part of an attacked model, transitions in table order."""
    aut = model.model
    return {
        "states": aut.states,
        "transitions": list(aut.transitions.items()),
        "events": aut.events,
        "initial": aut.initial,
        "marked": aut.marked,
        "alphabet": model.alphabet,
        "attack_events": model.attack_events,
        "unsafe_states": model.unsafe_states,
        "mode": model.mode,
        "document": dumps_doc(attacked_to_doc(model)),
    }


def reference(mode, system):
    return composed_model(mode, system.plant, system.supervisor, system.vuln)


@pytest.mark.parametrize("model, system", FIXTURES, ids=[m for m, _ in FIXTURES])
def test_fixture_models_match_reference(model, system, request):
    built = request.getfixturevalue(model)
    assert summary(built) == summary(reference(built.mode, request.getfixturevalue(system)))


@pytest.mark.parametrize("mode", MODES)
def test_supervisor_only_events_match_reference(mode):
    # z is the supervisor's own event: it interleaves with the plant.
    plant = Automaton.build(
        "0", [("0", "a", "1"), ("1", "b", "2"), ("1", "c", "0"), ("2", "a", "0")]
    )
    supervisor = Automaton.build(
        "s0",
        [("s0", "a", "s1"), ("s1", "z", "s2"), ("s1", "b", "s0"), ("s2", "c", "s0")],
    )
    alphabet = Alphabet.from_sets(
        ["a", "b", "c", "z"], observable=["a", "b", "c", "z"], controllable=["a", "c", "z"]
    )
    vuln = VulnerabilitySpec(
        alphabet,
        vulnerable_actuators={"a", "c"} if mode == MODE_AE else (),
        vulnerable_sensors=() if mode == MODE_AE else {"b", "c"},
        unsafe_plant_states={"2"},
    )
    built = build_model(mode, plant, supervisor, vuln)
    assert built.model.successor(("s1", "1"), "z") == ("s2", "1")
    assert summary(built) == summary(composed_model(mode, plant, supervisor, vuln))


@pytest.mark.parametrize("mode", MODES)
def test_random_models_match_reference(mode):
    for seed in range(200):
        system = random_system(random.Random(seed), mode)
        built = build_model(mode, system.plant, system.supervisor, system.vuln)
        assert summary(built) == summary(reference(mode, system)), f"seed {seed}"


@pytest.mark.parametrize("vehicles, sections", [(3, 6), (4, 6)])
def test_traffic_models_match_reference(vehicles, sections):
    system = workloads.traffic_system(desguard, vehicles, sections, random.Random(0))
    for case in workloads.traffic_cases(system):
        args = (case.mode, system.plant, system.supervisor, case.vuln())
        assert summary(build_model(*args)) == summary(composed_model(*args)), case.id
