"""Pinned witnesses of every search: verdicts, counterexamples and reports.

Each digest is a sha256 over a JSON rendering that depends only on the
models, never on the interpreter's hash seed: states are rendered with
`state_name` and sets are sorted, so the digests hold under any
PYTHONHASHSEED.  A change to a search's visiting order that moves a
counterexample, a witness state or a count fails here even when every
verdict keeps its safe/unsafe answer.
"""

import hashlib
import json
import random

import pytest

from desguard.attacks import MODE_AE, MODE_SE, MODE_SI, VulnerabilitySpec, build_model
from desguard.automata import Alphabet, Automaton, state_name
from desguard.diagnosis import confusion_witness
from desguard.runtime import run_exhaustive
from desguard.safety import (
    check_ae_safe_verifier,
    check_gf_safe_diagnoser,
    oracle_defense_simulation,
)
from desguard.synthesis import check_observability, supremal_controllable

from generators import random_automaton, random_model


def _trace(trace):
    return None if trace is None else list(trace)


def _render(model) -> dict:
    diagnoser = check_gf_safe_diagnoser(model)
    verifier = check_ae_safe_verifier(model)
    oracle = oracle_defense_simulation(model)
    report = run_exhaustive(model)
    witness = confusion_witness(model)
    return {
        "diagnoser": [
            diagnoser.violated_condition,
            _trace(diagnoser.counterexample),
            diagnoser.witness_state,
            None if diagnoser.x_uc is None else sorted(map(state_name, diagnoser.x_uc)),
        ],
        "verifier": [
            verifier.violated_condition,
            _trace(verifier.counterexample),
            verifier.witness_state,
        ],
        "oracle": [oracle.violated_condition, _trace(oracle.counterexample)],
        "exhaustive": [
            report.explored,
            [list(t) for t in report.unsafe_runs],
            [[list(t), state_name(s)] for t, s in report.stuck_runs],
            list(report.detection_latencies),
            report.attack_transitions,
        ],
        "confusion": None if witness is None else [list(t) for t in witness],
    }


def _digest(rendered) -> str:
    text = json.dumps(rendered, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def tour_model():
    """The README's library tour model."""
    plant = Automaton.build("1", [("1", "a", "2"), ("2", "b", "3"), ("3", "c", "4")])
    supervisor = Automaton.build("1", [("1", "a", "2")], events=["a", "b", "c"])
    alphabet = Alphabet.from_sets(["a", "b", "c"], observable=["a", "b", "c"],
                                  controllable=["b"])
    vuln = VulnerabilitySpec(alphabet, vulnerable_actuators={"b"},
                             unsafe_plant_states={"4"})
    return build_model(MODE_AE, plant, supervisor, vuln)


FIXTURE_SHA256 = {
    "actuator_model": "cbe09be8c81f571166739d7793d04e0fa58bae7a633a54482a88ab4daae20a53",
    "blocking_model": "f121b480c8c278cd5a6a93f57e6cc676e5dc9f34951a8891a62ade1c0cae5ba4",
    "erasure_model": "32d4e98fccf387933719082ab3904430dbc9e218919ba9c1bd82bad2f756d943",
    "insertion_model": "986ea58d91773493ad074d60c7ff06cf154f82ed5eccac2dd5269c6090bbddd0",
    "traffic_ae_model": "7842542ce6ca2af6f27204a1529e08bf5c0a1847403f265b8179a41a25ee87f2",
    "traffic_se_model": "45bc90de545590e61cadb842f44d72a4461553c4bcc43c47164b0595ddfd9efb",
    "traffic_si_model": "dde3a97a69a56ef7d945c8a26b34cff408f9798d821b4589c732e9deee137a4c",
}

TOUR_SHA256 = "cbe09be8c81f571166739d7793d04e0fa58bae7a633a54482a88ab4daae20a53"

# random_model(random.Random(seed), mode) for seeds 0-199, in seed order.
RANDOM_SHA256 = {
    MODE_AE: "f36506470e6933da33271c3b68c9c08c723fb0a80a4bd5b559dc24de140a9989",
    MODE_SE: "786209f02e87e8eb88af9140df5e11dd9029251de9b779c4c3440d98207dac1d",
    MODE_SI: "ec1c25a216b74277d268ffb83620c11536457cbc36ecdcd30df9bf7f905edc52",
}

OBSERVABILITY_SHA256 = "44e8ed1c49428bd965178a75587ab23c79aebf50b64d23d014aa0d385b75318f"


@pytest.mark.parametrize("fixture", sorted(FIXTURE_SHA256))
def test_fixture_witnesses_are_pinned(fixture, request):
    rendered = _render(request.getfixturevalue(fixture))
    assert _digest(rendered) == FIXTURE_SHA256[fixture], rendered


def test_tour_witnesses_are_pinned():
    rendered = _render(tour_model())
    assert _digest(rendered) == TOUR_SHA256, rendered


@pytest.mark.parametrize("mode", [MODE_AE, MODE_SE, MODE_SI])
def test_random_model_witnesses_are_pinned(mode):
    rendered = [_render(random_model(random.Random(seed), mode)) for seed in range(200)]
    assert _digest(rendered) == RANDOM_SHA256[mode]


def observability_cases():
    """400 seeded (plant, spec) pairs with random observable/controllable sets."""
    events = ["a", "b", "c", "d"]
    for seed in range(400):
        rng = random.Random(seed)
        plant = random_automaton(rng, rng.randint(2, 6), events)
        spec = random_automaton(rng, rng.randint(2, 6), events)
        observable = sorted(e for e in events if rng.random() < 0.6)
        controllable = sorted(e for e in events if rng.random() < 0.6)
        yield plant, spec, observable, controllable


def test_observability_witnesses_are_pinned():
    rendered = []
    for plant, spec, observable, controllable in observability_cases():
        uncontrollable = [e for e in plant.events if e not in controllable]
        supremal = supremal_controllable(plant, spec, uncontrollable)
        ok, witness = check_observability(plant, spec, observable, controllable)
        rendered.append([
            None if supremal is None else supremal.canonical_doc(),
            ok,
            None if witness is None else [list(witness[0]), list(witness[1]), witness[2]],
        ])
    assert _digest(rendered) == OBSERVABILITY_SHA256
