"""Raises no other test reaches, and the state budget: each test pins its
exception type and message."""

import pytest
from cli_runner import CliRunner

from desguard import automata, diagnosis, modelio, systems
from desguard.attacks import (
    MODE_AE,
    UnsupportedModeError,
    VulnerabilityError,
    VulnerabilitySpec,
    build_model,
)
from desguard.automata import Alphabet, EstimateTable, ResourceLimitError
from desguard.cli import main
from desguard.modelio import DIAGNOSER, VERIFIER
from desguard.runtime import AttackerPolicy, run_exhaustive
from desguard.safety import check_model
from desguard.synthesis import check_observability, supremal_controllable


def demo_model():
    demo = systems.actuator_demo_system()
    return build_model(MODE_AE, demo.plant, demo.supervisor, demo.vuln)


def unknown_mode():
    demo = systems.actuator_demo_system()
    build_model("xx", demo.plant, demo.supervisor, demo.vuln)


def plant_events_missing():
    demo = systems.actuator_demo_system()
    alphabet = Alphabet.from_sets(["a", "b"], observable=["a", "b"], controllable=["b"])
    build_model(MODE_AE, demo.plant, demo.supervisor, VulnerabilitySpec(alphabet))


def unknown_policy_kind():
    AttackerPolicy("xx").filter_attacks(frozenset({"b#a"}), 0)


@pytest.mark.parametrize("call, kind, message", [
    pytest.param(unknown_mode, UnsupportedModeError, "unknown attack mode 'xx'",
                 id="unknown-mode"),
    pytest.param(plant_events_missing, VulnerabilityError,
                 "plant uses events missing from the alphabet", id="plant-events-missing"),
    pytest.param(lambda: systems.actuator_demo_system().plant.successor("zz", "a"), KeyError,
                 "unknown state 'zz'", id="successor-of-unknown-state"),
    pytest.param(unknown_policy_kind, ValueError, "unknown policy kind 'xx'",
                 id="unknown-policy-kind"),
    pytest.param(lambda: check_model(demo_model(), "xx"), ValueError, "unknown method 'xx'",
                 id="unknown-method"),
])
def test_raise_pins_type_and_message(call, kind, message):
    with pytest.raises(kind) as raised:
        call()
    assert type(raised.value) is kind
    assert raised.value.args == (message,)


def test_infeasible_event_is_absent_from_moves():
    """The estimate table has no move on an event no member can execute:
    the demo plant's initial estimate {1} moves on a alone, not on c."""
    plant = systems.actuator_demo_system().plant
    table = EstimateTable(plant, ())
    moves = table.moves(table.initial)
    assert "c" in plant.events
    assert moves == {"a": frozenset({"2"})}


def on_model(route, fixture="traffic_ae_model"):
    """Run `route` on the model of `fixture` once its analysis is built."""
    def prepare(request):
        model = request.getfixturevalue(fixture)
        model.analysis
        return lambda: route(model)
    return prepare


def attack_build(request):
    system = request.getfixturevalue("traffic_ae")
    return lambda: build_model(MODE_AE, system.plant, system.supervisor, system.vuln)


def traffic_synthesis():
    """The traffic plant, its admissible behavior and its alphabet."""
    plant = systems.traffic_plant()
    return plant, systems.traffic_admissible(plant), systems.traffic_alphabet()


def synthesis_product(request):
    plant, admissible, alphabet = traffic_synthesis()
    return lambda: supremal_controllable(plant, admissible, alphabet.uncontrollable_events())


def observability_search(request):
    """The traffic pair search: 40 pairs over a product of 28 states."""
    plant, admissible, alphabet = traffic_synthesis()
    supremal = supremal_controllable(plant, admissible, alphabet.uncontrollable_events())
    observable, controllable = alphabet.observable_events(), alphabet.controllable_events()
    return lambda: check_observability(plant, supremal, observable, controllable)


# Each case builds its inputs under the default budget and returns the one
# bounded construction to run under `budget`, which it must overflow.  The
# model is traffic under actuator enablement unless the case names another:
# 36 closed-loop and 47 labeled states, 19 verifier nodes before its witness,
# and 13 states in the diagnoser test's observer, which leaves certain
# estimates unexpanded.  Under sensor insertion the observer keeps 17 states
# and the uncertain-unsafe witness search reaches 21 nodes.
@pytest.mark.parametrize("prepare, budget, message", [
    pytest.param(attack_build, 10, "composition exceeded 10 states", id="build_model"),
    pytest.param(on_model(diagnosis.label_compose), 10,
                 "labeling exceeded 10 states", id="label_compose"),
    pytest.param(on_model(lambda model: check_model(model, DIAGNOSER)), 10,
                 "observer exceeded 10 states", id="diagnoser-observer"),
    pytest.param(synthesis_product, 10,
                 "composition exceeded 10 states", id="supremal_controllable"),
    pytest.param(observability_search, 30,
                 "observability search exceeded 30 states", id="check_observability"),
    pytest.param(on_model(lambda model: check_model(model, DIAGNOSER), "traffic_si_model"), 18,
                 "diagnoser witness search exceeded 18 states", id="diagnoser-witness"),
    pytest.param(on_model(lambda model: check_model(model, VERIFIER)), 10,
                 "verifier search exceeded 10 states", id="verifier-search"),
    pytest.param(on_model(run_exhaustive), 10,
                 "exhaustive exploration exceeded 10 nodes", id="run_exhaustive"),
])
def test_state_budget_pins_each_overflow(monkeypatch, request, prepare, budget, message):
    construct = prepare(request)
    monkeypatch.setattr(automata, "STATE_LIMIT", budget)
    with pytest.raises(ResourceLimitError) as raised:
        construct()
    assert raised.value.args == (message,)


def test_state_budget_makes_check_exit_4(monkeypatch, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(modelio.dumps_doc(modelio.attacked_to_doc(demo_model())))
    monkeypatch.setattr(automata, "STATE_LIMIT", 3)
    result = CliRunner().invoke(main, ["check", str(path), "--method", "all"])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert "error: labeling exceeded 3 states" in result.output
