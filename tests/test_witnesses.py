"""Pinned witnesses of every search: verdicts, counterexamples and reports,
and the runs of the step-by-step engine.

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
from desguard.runtime import (
    AttackerPolicy,
    IllegalEventError,
    initial_state,
    log_records,
    run,
    step,
)
from desguard.safety import (
    check_ae_safe_verifier,
    check_gf_safe_diagnoser,
    oracle_defense_simulation,
)
from desguard.modelio import dumps_doc, model_to_doc
from desguard.synthesis import (
    RealizationError,
    check_observability,
    realize_supervisor,
    supremal_controllable,
)

from generators import random_automaton, random_model
from langtools import canonical_doc, confusion_witness, exhaustive_report


def _trace(trace):
    return None if trace is None else list(trace)


def _render(model) -> dict:
    diagnoser = check_gf_safe_diagnoser(model)
    verifier = check_ae_safe_verifier(model)
    oracle = oracle_defense_simulation(model)
    report = exhaustive_report(model)
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


def _policies() -> dict:
    """The policies `_render_runs` runs, freshly seeded."""
    policies = {
        "all-out": AttackerPolicy.all_out(),
        "passive": AttackerPolicy.scripted([None] * 30),
    }
    for seed in range(5):
        policies[f"random:0.5:{seed}"] = AttackerPolicy.seeded_random(0.5, seed)
    return policies


def _render_runs(model) -> dict:
    """Every record of the step-by-step engine under each policy, and the
    enabled set an illegal first choice reports."""
    rendered = {}
    for name, policy in _policies().items():
        states = run(model, policy, 40)
        rendered[name] = [
            log_records(states),
            list(states[-1].observed),
            states[-1].decisions_used,
        ]
    with pytest.raises(IllegalEventError) as err:
        step(initial_state(model), model, AttackerPolicy.all_out(), choice="no-such-event")
    rendered["illegal"] = sorted(err.value.enabled)
    return rendered


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

# _render_runs of each fixture.
RUNS_SHA256 = {
    "actuator_model": "c3a75fda4ef1338118d8c8a9ff61b0a226ac2c440a535cff945b2bc88f1f16c7",
    "blocking_model": "0ce809996999ec65c1636e588ddbe4eb5f76fac46d72452e871a626aeb1efbbd",
    "erasure_model": "3d06ff08c5fe4d74e1bd39b348ca727ed605fc7a42f0068b7f158deec565e653",
    "insertion_model": "863887e2a7455677276c54019e1bf10eb28e92c28ea7615900dfca05bb9c2ca3",
    "traffic_ae_model": "b68958b8c9408844e6dec2f56c050af28aa6dab9a7f0afc4249a36d2428cd7ff",
    "traffic_se_model": "b63e78a592f2fa4474065995d188a20d15ba78b5c749d65ac11b4ec7dc8e9f80",
    "traffic_si_model": "293748e9e212f6c74efcd5a5f4fecfb7dae006d13f33fb98704969b488bf4203",
}

# _render_runs of random_model(random.Random(seed), mode) for the first two
# seeds of each mode (of 0-199) where a run reaches a certain estimate at a
# state with a controllable event active: runs the freeze changes.  None
# of the fixtures' pinned runs reaches such a state.
FROZEN_RUNS_SHA256 = {
    (MODE_AE, 1): "fb4da93183f32ef1b5ab0f16f43775e8dfd1c0206c5e2416b47b1eba923b05a4",
    (MODE_AE, 2): "c9c71fca0b4f3e00d1df1a16a9cd87db055dc1bc47550d49e5176fa058b08938",
    (MODE_SE, 1): "69e36b3bde80dcd6a7bd47f57dde7640f1b0460548177ca3445a84aabb616871",
    (MODE_SE, 10): "e07d8115d39e9c29581a6c5f249cc709ab5e348f1ad703339849d4d2606f3dd5",
    (MODE_SI, 1): "62109dab1c085e732b038998f7b9720953ea357b2f3ef50b577d8a88d5b4540a",
    (MODE_SI, 10): "31a5d9f5f6c5cfc577a437f89b15e29264574742d90c05181ff51009dddeed55",
}

TOUR_SHA256 = "cbe09be8c81f571166739d7793d04e0fa58bae7a633a54482a88ab4daae20a53"

# random_model(random.Random(seed), mode) for seeds 0-199, in seed order.
# The diagnoser's x_uc holds only closed-loop states that can reach an
# unsafe state (an empty set when none is reachable): the digests of the
# complete x_uc, cut that way, are these.
RANDOM_SHA256 = {
    MODE_AE: "0e03d1fe0c65ab916b95b52d09b7219a1915aafe6a1531d03ceb368220969e7a",
    MODE_SE: "6b3f78e036456b6809cfeac0003ed0ba9812234873437acb9fbea2876ddae162",
    MODE_SI: "2efb817c225d79113e5340c4a6ee7661b17218c5aa830162e1499ced2d674793",
}

OBSERVABILITY_SHA256 = "44e8ed1c49428bd965178a75587ab23c79aebf50b64d23d014aa0d385b75318f"
REALIZATION_SHA256 = "36a3e398cff5c5c3e9d01e28cac52faf1fa9f8aa96c73ceee19a3135ec52ce4a"


@pytest.mark.parametrize("fixture", sorted(FIXTURE_SHA256))
def test_fixture_witnesses_are_pinned(fixture, request):
    rendered = _render(request.getfixturevalue(fixture))
    assert _digest(rendered) == FIXTURE_SHA256[fixture], rendered


@pytest.mark.parametrize("fixture", sorted(RUNS_SHA256))
def test_fixture_runs_are_pinned(fixture, request):
    rendered = _render_runs(request.getfixturevalue(fixture))
    assert _digest(rendered) == RUNS_SHA256[fixture], rendered


@pytest.mark.parametrize("mode, seed", sorted(FROZEN_RUNS_SHA256))
def test_runs_through_the_freeze_are_pinned(mode, seed):
    model = random_model(random.Random(seed), mode)
    labeled = model.analysis.automaton
    controllable = model.analysis.controllable
    assert any(
        state.safe_mode and any(e in controllable for e, _ in labeled.out_edges(state.node[0]))
        for policy in _policies().values()
        for state in run(model, policy, 40)
    )
    rendered = _render_runs(model)
    assert _digest(rendered) == FROZEN_RUNS_SHA256[mode, seed], rendered


def test_tour_witnesses_are_pinned():
    rendered = _render(tour_model())
    assert _digest(rendered) == TOUR_SHA256, rendered


@pytest.mark.parametrize("mode", [MODE_AE, MODE_SE, MODE_SI])
def test_random_model_witnesses_are_pinned(mode):
    rendered = [_render(random_model(random.Random(seed), mode)) for seed in range(200)]
    # The oracle and the diagnoser's witnesses run one search of the
    # defended product, the verifier none of it: all three must agree.
    for seed, routes in enumerate(rendered):
        answers = {routes[route][0] is None for route in ("diagnoser", "verifier", "oracle")}
        assert len(answers) == 1, (mode, seed, routes)
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
            None if supremal is None else canonical_doc(supremal),
            ok,
            None if witness is None else [list(witness[0]), list(witness[1]), witness[2]],
        ])
    assert _digest(rendered) == OBSERVABILITY_SHA256


def synthesis_cases():
    """`observability_cases` and 1,000 more seeded (plant, spec) pairs over
    two to five events, at three densities."""
    yield from observability_cases()
    rng = random.Random(7)
    for _ in range(1000):
        events = ["a", "b", "c", "d", "e"][: rng.randint(2, 5)]
        plant = random_automaton(rng, rng.randint(2, 7), events, rng.choice([0.3, 0.5, 0.7]))
        spec = random_automaton(rng, rng.randint(1, 7), events, rng.choice([0.3, 0.5, 0.7]))
        observable = sorted(e for e in events if rng.random() < 0.6)
        controllable = sorted(e for e in events if rng.random() < 0.6)
        yield plant, spec, observable, controllable


def realizations():
    """Per synthesis case: the plant, `supremal_controllable`'s product (None
    for the empty language), the observable and controllable sets, and the
    supervisor document `realize_supervisor` writes or its refusal."""
    for plant, spec, observable, controllable in synthesis_cases():
        alphabet = Alphabet.from_sets(sorted(plant.events | spec.events), observable, controllable)
        supremal = supremal_controllable(plant, spec, alphabet.uncontrollable_events())
        if supremal is None:
            yield plant, None, observable, controllable, None
            continue
        try:
            supervisor = realize_supervisor(plant, supremal, observable, controllable)
        except RealizationError as exc:
            outcome = exc
        else:
            outcome = dumps_doc(model_to_doc(supervisor, alphabet))
        yield plant, supremal, observable, controllable, outcome


def test_realization_refuses_exactly_the_unobservable():
    """The observer's decision is the pair search's: a refusal whenever
    `check_observability` fails on the same product, with its witness."""
    refused = 0
    for plant, supremal, observable, controllable, outcome in realizations():
        if supremal is None:
            continue
        ok, witness = check_observability(plant, supremal, observable, controllable)
        assert ok == (not isinstance(outcome, RealizationError))
        if not ok:
            refused += 1
            assert outcome.witness == witness
    assert refused >= 60


def test_realizations_are_pinned():
    rendered = [
        outcome if outcome is None or isinstance(outcome, str) else str(outcome)
        for *_, outcome in realizations()
    ]
    assert _digest(rendered) == REALIZATION_SHA256
